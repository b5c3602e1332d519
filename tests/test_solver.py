"""Root search: censuses, canonical forms, line grouping, and the anchored sector."""

import cmath
from dataclasses import replace

import numpy as np
import pytest

from tllab import solver, symmetry
from tllab.bethe import (
    BetheSolution,
    eval_lambda,
    newton_system,
    twist_from_roots,
)
from tllab.core import DomainError, ModelParams
from tllab.report import build_closed_spectrum, build_open_spectrum
from tllab.symmetry import DEGENERACY_PROBE
from tllab.transfer import _transfer_cached, transfer_matrix
from tllab.solver import (
    LAMBDA_MATCH_TOL,
    LINE_TOL,
    MAX_BACKTRACK,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    RunConfig,
    _batch_solve,
    _closed_lines,
    _draw_seeds,
    _lines,
    _make_solution,
    _newton_driver,
    _one_root_candidates,
    _passes_guards,
    _scaled_norm,
    _solution_key,
    canonical_roots,
    chebyshev_dim,
    expected_census,
    multiplicity,
    predicted_degeneracy,
    refine,
    solve_all_closed,
    solve_all_open,
    solve_sector_closed,
)

FAST = RunConfig(n_seeds=400)


def test_chebyshev_dimensions():
    # p_0 = 1, p_1 = x, p_{k+1} = x p_k - p_{k-1} evaluated at x = 2s + 1
    for x in (2, 3, 4):
        values = [1, x]
        for _ in range(4):
            values.append(x * values[-1] - values[-2])
        for k, want in enumerate(values):
            assert chebyshev_dim(k, x) == want, (k, x)


def test_predicted_degeneracies_match_table_values():
    params = ModelParams.create(4, "3/2")
    assert predicted_degeneracy(params, 0) == 209
    assert predicted_degeneracy(params, 1) == 15
    assert predicted_degeneracy(params, 2) == 1


def test_multiplicities():
    assert multiplicity(4, 4) == 1
    assert multiplicity(4, 2) == 3
    assert multiplicity(4, 0) == 2
    assert multiplicity(5, 3) == 4
    assert multiplicity(5, 1) == 5


def test_census_totals_are_dimensions():
    for n_sites in (2, 3, 4, 5):
        for spin in ("1/2", "1", "3/2"):
            params = ModelParams.create(n_sites, spin)
            total = 0
            for m in range(n_sites // 2 + 1):
                count = multiplicity(n_sites, n_sites - 2 * m)
                total += count * predicted_degeneracy(params, m)
            assert total == params.site_dim**n_sites, (n_sites, spin)


def test_expected_census_counts():
    params = ModelParams.create(4, "1/2")
    census = expected_census(params)
    expected = {entry.sector: entry.expected for entry in census}
    assert expected == {"M=0": 1, "M=1": 3, "M=2": 2}


def test_canonical_roots_identify_orbit_members():
    q = 0.5
    roots = (1.3 + 0.4j, 0.9 - 0.2j)
    batch = np.array([
        roots,
        tuple(-r for r in roots),
        (-1.0 / (q * roots[0]), roots[1]),
        (roots[1], 1.0 / (q * roots[0])),
        (roots[1], roots[0]),
    ])
    canon = canonical_roots(batch, q, "open")
    assert canon.shape == batch.shape
    for row, want in zip(batch, canon):
        assert np.allclose(canonical_roots(row, q, "open"), want, rtol=0, atol=1e-15)
        assert np.allclose(want, canon[0], rtol=1e-15, atol=0)
    # the closed chain only identifies u with -u
    closed = canonical_roots(batch[:2], q, "closed")
    assert np.array_equal(closed[0], closed[1])
    assert not np.allclose(canonical_roots(batch[2], q, "closed"), closed[0])


def test_guards_reject_each_singular_point():
    params = ModelParams.create(4, "1/2")  # q = 0.5
    q = params.q
    g, h = 1.3 + 0.4j, 0.9 - 0.2j
    singular = [
        (1e-7, h), (1e7, h),  # |u| outside MODULUS_BOUNDS
        (1.0, h), (-1.0, h),  # omega(u) = 0
        (1.0 / q, h), (-1.0 / q, h),  # omega(q u) = 0
        (g, g), (g, -g),  # u_i = +-u_j
    ]
    # singular for the open equations only, which are not searched
    regular = [
        (g, 1.0 / g), (g, -1.0 / g),  # u_i u_j = +-1
        (g, 1.0 / (q * g)),  # u_i u_j q = 1
        (np.sqrt(1.0 / q), h),  # u_i u_i q = 1
    ]
    batch = np.array([(g, h)] + singular + regular)
    want = np.array([True] + [False] * len(singular) + [True] * len(regular))
    assert np.array_equal(_passes_guards(batch, params), want)
    assert [bool(_passes_guards(row, params)) for row in batch] == list(want)


def test_canonical_image_must_carry_the_raw_lambda(monkeypatch):
    # a canonical image is used only if it carries the raw tuple's
    # Lambda(DEGENERACY_PROBE): an orbit image -a is, another line's roots b
    # are not, although both solve the equations
    params = ModelParams.create(4, "1/2")
    a, b = (sol.roots[0] for sol in solve_all_open(params)[1][:2])
    images = np.array([[b], [-a]])
    monkeypatch.setattr(solver, "canonical_roots", lambda roots, q, kind: images)
    roots, _, residual = _make_solution(np.array([[a], [a]]), params, "open")
    assert roots.tolist() == [[a], [-a]]
    assert np.all(residual < NEWTON_TOL)


def test_open_census_matches_multiplicities():
    for n_sites in (2, 3, 4):
        params = ModelParams.create(n_sites, "1/2")
        sols = solve_all_open(params)
        for m, lines in sols.items():
            assert len(lines) == multiplicity(n_sites, n_sites - 2 * m), (
                n_sites,
                m,
            )


@pytest.mark.parametrize(
    "n_sites, spin, q",
    [
        (6, "1/2", 0.5),
        (7, "1/2", 0.5),
        *((5, "1/2", q) for q in (0.3, 0.7, 1.5, 0.4 + 0.3j)),
        (4, "1", 0.5),
        (4, "3/2", 0.5),
        # lines whose roots do not polish, or carry Lambda only to ~1e-8
        (6, "1/2", 0.3),
        (7, "1/2", 0.3),
        (8, "1/2", 0.3),
        (8, "1/2", 0.5),
        (8, "1/2", 1.5),
        (6, "1", 0.3),
    ],
)
def test_open_spectrum_is_complete(n_sites, spin, q):
    # each sector holds C(N,M) - C(N,M-1) lines of degeneracy p_(N-2M)(2s+1),
    # and together they fill the Hilbert space
    params = ModelParams.create(n_sites, spin, q=q)
    lines = solve_all_open(params)
    assert sorted(lines) == list(range(n_sites // 2 + 1))
    for m, sols in lines.items():
        assert len(sols) == multiplicity(n_sites, n_sites - 2 * m), m
        assert [sol.degeneracy for sol in sols] == [predicted_degeneracy(params, m)] * len(sols)
        assert not any(sol.ambiguous for sol in sols), m
    total = sum(sol.degeneracy for sols in lines.values() for sol in sols)
    assert total == params.site_dim**n_sites


@pytest.mark.parametrize("kind", ["open", "closed"])
def test_solve_builds_transfer_matrices_only_at_the_probe(monkeypatch, kind):
    # each line is decided and measured at its own eigenvalue of
    # t(DEGENERACY_PROBE), and the open Lambda is sampled by sweeps: the one
    # dense t(u) is t(DEGENERACY_PROBE), looked up and eigendecomposed once
    # per solve, on either chain, and nothing else is cached
    points, decompositions = [], []

    def recorded(u, params, kind):
        points.append(complex(u))
        return transfer_matrix(u, params, kind)

    def lines(t):
        decompositions.append(t)
        return _lines(t)

    monkeypatch.setattr(solver, "transfer_matrix", recorded)
    monkeypatch.setattr(solver, "_lines", lines)
    assert not hasattr(symmetry, "transfer_matrix")
    _transfer_cached.cache_clear()
    if kind == "open":
        solve_all_open(ModelParams.create(5, "1/2"))
    else:
        solve_all_closed(ModelParams.create(3, "1/2"), FAST)
    assert points == [DEGENERACY_PROBE]
    assert len(decompositions) == 1
    assert _transfer_cached.cache_info().currsize == 1


@pytest.mark.parametrize("n_sites, spin", [(5, "1/2"), (4, "1")])
def test_open_lines_do_not_depend_on_refine(monkeypatch, n_sites, spin):
    # with Newton failing on every line, the TQ zeros are reported as the
    # roots: the census and degeneracies are the same, and each line's roots
    # still carry its eigenvalue at the probe
    params = ModelParams.create(n_sites, spin)
    polished = solve_all_open(params)

    def fails(*args, **kwargs):
        raise DomainError("refinement did not converge")

    monkeypatch.setattr(solver, "refine", fails)
    raw = solve_all_open(params)
    assert {m: [s.degeneracy for s in sols] for m, sols in raw.items()} == {
        m: [s.degeneracy for s in sols] for m, sols in polished.items()
    }
    eigs, _ = solver._lines(transfer_matrix(DEGENERACY_PROBE, params, "open").matrix)
    hits = []
    for sol in (sol for sols in raw.values() for sol in sols):
        value = eval_lambda(DEGENERACY_PROBE, sol.roots, params, "open")
        hits.append(np.argmin(np.abs(eigs - value)))
        assert abs(value - eigs[hits[-1]]) <= LAMBDA_MATCH_TOL * abs(eigs[hits[-1]]), sol.roots
    assert sorted(hits) == list(range(len(eigs)))


@pytest.mark.filterwarnings("error")
def test_root_of_unity_census_warns_nothing():
    # at q = e^(i pi/4) one line's TQ zero cancels to the root u = 0, whose
    # -1/(qu) image is infinite: the solve still reports the same short census
    # (13 of 16; ROADMAP direction 9), and no RuntimeWarning escapes it
    params = ModelParams.create(4, "1/2", q=cmath.exp(1j * np.pi / 4))
    lines = solve_all_open(params)
    assert sum(sol.degeneracy for sols in lines.values() for sol in sols) == 13
    assert [sol.roots for sol in lines[1] if not sol.polished] == [(0j,)]


def test_line_order_does_not_follow_roundoff():
    # the four open N=5, s=1/2 lines with M=1 all have |u| = sqrt(2): copies
    # perturbed by a few ulps and shuffled must still sort to one order
    lines = solve_all_open(ModelParams.create(5, "1/2"))[1]
    assert np.ptp([abs(sol.roots[0]) for sol in lines]) < 1e-14
    rng = np.random.default_rng(9)
    for _ in range(20):
        noisy = [
            replace(sol, roots=tuple(r * (1.0 + 1e-15 * rng.normal()) for r in sol.roots))
            for sol in lines
        ]
        order = sorted(rng.permutation(len(lines)), key=lambda i: _solution_key(noisy[i]))
        assert order == list(range(len(lines)))


def test_no_parasitic_lines_in_two_root_sector():
    # clearing denominators creates zero sets near u = 1/q with
    # u_1 u_2 = 1/q^2 that are not transfer eigenvalues; the spectrum
    # filter must reject them
    params = ModelParams.create(4, "1/2")
    lines = solve_all_open(params)[2]
    assert len(lines) == 2
    mags = sorted(abs(r) for sol in lines for r in sol.roots)
    # genuine lines stay away from the double pole at u = 2
    for sol in lines:
        prod = sol.roots[0] * sol.roots[1] * params.q**2
        assert abs(prod - 1.0) > 1e-3 or max(np.abs(sol.roots)) < 1.9


def test_conjugate_pair_line_present():
    params = ModelParams.create(4, "1/2")
    lines = solve_all_open(params)[2]
    conj = [
        sol
        for sol in lines
        if abs(sol.roots[0].conjugate() - sol.roots[1]) < 1e-8
    ]
    assert len(conj) == 1
    root = max(conj[0].roots, key=lambda r: r.imag)
    assert abs(root - (1.815552 + 0.854196j)) < 5e-6


def test_dedup_merges_reflected_duplicates():
    # a closed root and its -u image carry one Lambda, so one eigenvalue of
    # t(DEGENERACY_PROBE): they are one line, represented by the first at
    # comparable residuals and else by the clearly (10x) smaller residual
    params = ModelParams.create(3, "1/2")
    root = complex(np.sqrt(2.0))
    a, b = (
        BetheSolution("closed", (r,), 0, twist_from_roots((r,), 0, params), 1e-14)
        for r in (root, -root)
    )
    eigs, _ = _lines(transfer_matrix(DEGENERACY_PROBE, params, "closed").matrix)
    lam = eval_lambda(DEGENERACY_PROBE, a.roots, params, "closed", a.twist)
    sharper = replace(b, residual_norm=1e-16)
    for given, want in (([a, b], a), ([b, a], b), ([a, sharper], sharper)):
        lines = _closed_lines(given, eigs, params)
        assert [sol for sol, _ in lines] == [want]
        assert abs(lines[0][1] - lam) <= LAMBDA_MATCH_TOL * abs(lam)


ROOT_EXACT = (3.0 + 1.0j) / np.sqrt(5.0)


def test_refine_converges_from_perturbed_start():
    params = ModelParams.create(2, "1/2")
    sol = refine([ROOT_EXACT * (1.0 + 1e-4)], params, "open")
    assert sol.residual_norm < 1e-12
    assert min(abs(r - ROOT_EXACT) for r in sol.roots) < 1e-10 or min(
        abs(r + ROOT_EXACT) for r in sol.roots
    ) < 1e-10


def test_anchored_two_site_closed_sector():
    params = ModelParams.create(2, "1")
    golden = {0: 0.5401823, 1: 1.2169906}
    for sector, want in golden.items():
        lines = solve_sector_closed(params, 1, sector, FAST)
        assert len(lines) == 1, sector
        root = lines[0].roots[0]
        assert abs(root - want) < 5e-6, sector
        assert abs(lines[0].twist - (3.0 - np.sqrt(5.0)) / 2.0) < 5e-6


def test_closed_zero_root_sectors():
    params = ModelParams.create(2, "1/2")
    present = {}
    for sector in (0, 1):
        lines = solve_sector_closed(params, 0, sector, FAST)
        present[sector] = [sol.twist for sol in lines]
    # only the kappa = -1 vacuum line is a genuine eigenvalue at spin 1/2
    assert [round(k.real) for k in present[0]] == [-1]
    assert present[1] == []


def test_three_site_closed_sector_roots():
    params = ModelParams.create(3, "1/2")
    expected = {
        0: complex(np.sqrt(2.0)),
        1: np.sqrt(2.0) * np.exp(-1j * np.pi / 6.0),
        2: np.sqrt(2.0) * np.exp(1j * np.pi / 6.0),
    }
    for sector, want in expected.items():
        lines = solve_sector_closed(params, 1, sector, FAST)
        assert len(lines) == 1, sector
        assert abs(lines[0].roots[0] - want) < 1e-8, sector
        assert abs(lines[0].twist - (-1j)) < 1e-10, sector


def test_closed_four_site_lines_are_distinct_eigenvalues():
    # closed N=4, s=1/2 holds an M=2, l=2 line at roots near {1, 1/q} with
    # degeneracy 1, and no two lines of one sector share an eigenvalue
    params = ModelParams.create(4, "1/2")
    lines = solve_all_closed(params)
    near = [
        sol for sol in lines[2, 2]
        if np.allclose(sorted(sol.roots, key=abs), [1.0, 1.0 / params.q], atol=1e-5)
    ]
    assert [sol.degeneracy for sol in near] == [1]
    t = transfer_matrix(DEGENERACY_PROBE, params, "closed").matrix
    radius = np.max(np.abs(np.linalg.eigvals(t)))
    for sector, sols in lines.items():
        lams = np.array([
            eval_lambda(DEGENERACY_PROBE, sol.roots, params, "closed", sol.twist)
            for sol in sols
        ])
        gaps = np.abs(lams[:, None] - lams[None, :]) + np.eye(len(lams)) * radius
        assert np.all(gaps > LINE_TOL * radius), sector


@pytest.mark.xfail(
    strict=True,
    reason="the closed multistart misses lines at even N (11 of 16 states here);"
    " ROADMAP direction 2, closed chains spectrum-first, is to complete it",
)
def test_closed_four_site_spectrum_is_complete():
    params = ModelParams.create(4, "1/2")
    lines = solve_all_closed(params)
    assert sum(sol.degeneracy for sols in lines.values() for sol in sols) == 16


@pytest.mark.parametrize("kind", ["open", "closed"])
@pytest.mark.parametrize("q", [0.3, 0.7, 1.5, 0.4 + 0.3j])
def test_three_site_spectrum_is_complete_across_q(kind, q):
    # at q = 0.7 the closed chain once listed one M=1 root six times: its
    # copies' eigenvalue samples differ by up to 3e-10, above the 1e-10 match
    # they were grouped at; all now match the one eigenvalue of
    # t(DEGENERACY_PROBE) that their line carries
    params = ModelParams.create(3, "1/2", q=q)
    build = build_open_spectrum if kind == "open" else build_closed_spectrum
    report = build(params, RunConfig(seed=1234))
    assert report.total_degeneracy == report.dimension
    assert not any(line.ambiguous for line in report.lines)


def _sequential_newton(fun, seeds):
    """Damped Newton with one step halving per call of ``fun``: the oracle
    for _newton_driver, whose line search tries several halvings per call."""
    u = np.array(seeds, dtype=complex)
    results = []
    for _ in range(NEWTON_MAX_ITER):
        if u.shape[0] == 0:
            break
        r, rs, j = fun(u, jac=True)
        norm = _scaled_norm(rs)
        finite = (
            np.isfinite(norm)
            & np.all(np.isfinite(r), axis=-1)
            & np.all(np.isfinite(j), axis=(-2, -1))
        )
        done = finite & (norm < NEWTON_TOL)
        results.extend(tuple(row) for row in u[done])
        keep = finite & ~done
        u, r, j, norm = u[keep], r[keep], j[keep], norm[keep]
        if u.shape[0] == 0:
            break
        step = _batch_solve(j, r)
        good = np.all(np.isfinite(step), axis=-1)
        u, step, norm = u[good], step[good], norm[good]
        t = np.ones(u.shape[0])
        pending = np.ones(u.shape[0], dtype=bool)
        new_u = u.copy()
        for _ in range(MAX_BACKTRACK + 1):
            if not pending.any():
                break
            cand = u[pending] - t[pending, None] * step[pending]
            _, crs, _ = fun(cand, jac=False)
            cnorm = _scaled_norm(crs)
            improved = np.isfinite(cnorm) & (cnorm < norm[pending])
            sub = np.flatnonzero(pending)
            new_u[sub[improved]] = cand[improved]
            pending[sub[improved]] = False
            t[pending] *= 0.5
        u = new_u[~pending]
    return results


def _recorded(fun, calls):
    """``fun`` that logs (jac, rows) of every call into ``calls``."""
    def wrapped(u, jac=True):
        calls.append((jac, u.shape[0]))
        return fun(u, jac)

    return wrapped


@pytest.mark.parametrize(
    "n_sites, spin, q, n_roots, sector",
    [(4, "1/2", 0.5, 2, 0), (3, "1", 0.7, 1, 0)],
)
def test_batched_line_search_keeps_every_decision(n_sites, spin, q, n_roots, sector):
    # the closed search's own seeds: _newton_driver converges to exactly the
    # oracle's tuples, in order, in fewer calls, none of them carrying more
    # rows than the Newton batch of its iteration
    params = ModelParams.create(n_sites, spin, q=q)
    seeds = _draw_seeds(params, n_roots, sector, RunConfig())
    if n_roots == 1:
        seeds = np.vstack([np.array(_one_root_candidates(params, sector)), seeds])
    fun = newton_system(params, "closed", sector)
    one, many = [], []
    want = _sequential_newton(_recorded(fun, one), seeds)
    got = _newton_driver(_recorded(fun, many), seeds)
    assert len(want) > 500
    assert got == want
    assert len(many) < len(one)
    batch = None
    for jac, rows in many:
        if jac:
            batch = rows
        else:
            assert rows <= batch


def test_one_seed_refine_halves_once_per_call(monkeypatch):
    # a lone seed gets one halving per call: from this start no step helps,
    # and all MAX_BACKTRACK + 1 of them are tried, one at a time
    calls = []
    monkeypatch.setattr(
        solver, "newton_system",
        lambda *args: _recorded(newton_system(*args), calls),
    )
    with pytest.raises(DomainError):
        refine([3.0 * ROOT_EXACT], ModelParams.create(2, "1/2"), "open")
    assert calls == [(True, 1)] + [(False, 1)] * (MAX_BACKTRACK + 1)
