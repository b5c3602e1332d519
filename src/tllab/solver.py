"""Bethe roots of every spectral line, with sector censuses.

Open chain, spectrum first: the open t(DEGENERACY_PROBE) is the only dense
transfer matrix built.  It is eigendecomposed once, each distinct
eigenvalue lambda is one line, and the line's degeneracy is the nullity of
t(DEGENERACY_PROBE) - lambda.  Lambda(v) of its eigenvector is sampled at
3N + 2 points through the matrix-free sweep ``transfer.open_transfer_apply``,
Baxter's TQ relation Lambda(v) Q(v) = a(v) Q(v/q) + d(v) Q(v q) is fitted
by linear least squares for the smallest M, and the zeros of Q are the
line's reported roots, polished by ``refine`` where Newton converges.  The
roots are not a gate: the one check on them is that their
Lambda(DEGENERACY_PROBE) reproduces lambda to LAMBDA_MATCH_TOL.

Closed chain: the closed t(DEGENERACY_PROBE) is eigendecomposed once per
solve, and its distinct eigenvalues are shared by every sector (M, l).  An
M = 1 sector needs no search: its cleared Bethe equation is one polynomial
of degree N + 2 in u^2, and its roots are the seeds (``_one_root_seeds``).
An M >= 2 sector draws its seeds log-uniformly from an annulus
(multistart).  The seeds of both are driven by a damped (backtracking)
Newton iteration on the batched residual and Jacobian kernel of
``bethe.newton_system``, vectorized across the whole seed batch.  Its line
search tries several step halvings of every pending seed in one residual
call, with no call carrying more rows than the Newton batch
(``_backtrack``); each seed takes the first halving that lowers its
residual, as a search of one halving per call would.  The converged root
tuples of a sector are then screened as one (b, m) batch: singularity
guards, per-root canonicalization over the symmetry orbit of the equations
and a residual check.  The closed chain then decides its lines the way the
open chain does: a candidate is kept iff its Lambda(DEGENERACY_PROBE) lies
within LAMBDA_MATCH_TOL of some eigenvalue lambda, and the candidates that
share a lambda are one line (``_closed_lines``).  Each line's degeneracy is
the nullity of t(DEGENERACY_PROBE) - lambda.

Lambda(DEGENERACY_PROBE) of a batch of root tuples (``_probe_lambda``) is
the one identity test of a line: it decides the lines of both chains, and a
canonical representative of a root tuple must carry the raw tuple's.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .core import DomainError, ModelParams, omega, pi_phase
from .bethe import (
    BetheSolution,
    _amplitudes,
    _lambda_terms,
    bethe_sides,
    newton_system,
    sector_phase,
    twist_from_roots,
)
from .symmetry import DEGENERACY_PROBE, generator_blocks, measure_degeneracy
from .transfer import open_transfer_apply, transfer_matrix

__all__ = [
    "RunConfig",
    "SectorCensus",
    "chebyshev_dim",
    "multiplicity",
    "predicted_degeneracy",
    "expected_census",
    "canonical_roots",
    "solve_sector_closed",
    "solve_all_open",
    "solve_all_closed",
    "refine",
]

GUARD_TOL = 1e-8
#: Seed moduli are drawn log-uniformly from this annulus.
SEED_ANNULUS = (0.3, 3.0)
#: Newton iterations per seed, and the scaled residual that counts as converged.
NEWTON_MAX_ITER = 80
NEWTON_TOL = 1e-12
#: Step halvings 2^-1 .. 2^-MAX_BACKTRACK tried, after the full step, before a
#: seed that does not improve is dropped.  ``_backtrack`` tries them in
#: blocks of consecutive halvings, one call of the residual kernel per block,
#: each call bounded by the Newton batch's row count.
MAX_BACKTRACK = 30
MODULUS_BOUNDS = (1e-6, 1e6)
#: Roots are ordered and canonicalized on their parts rounded to 1e-9.
ROOT_KEY_SCALE = 1e9
#: Scaled residual that a canonical representative must still reach, loose
#: enough for the ulps that the orbit maps add to a converged root.
CANONICAL_RESIDUAL_TOL = 1e-8
#: Scaled residual below which a conjugated tuple is a genuine solution.
CLOSURE_RESIDUAL_TOL = 1e-9
#: Root-magnitude sums closer than this tie in the choice of a closed line's
#: representative (see _closed_lines).
MAGNITUDE_TIE = 1e-12
#: Site weights are conjugation-stable when their sorted conjugates agree to this.
THETA_CONJ_TOL = 1e-12
#: Eigenvalues of t(DEGENERACY_PROBE) closer than this times its spectral
#: radius are one line.
LINE_TOL = 1e-7
#: Relative residual below which a degree-M polynomial fits the TQ relation.
TQ_FIT_TOL = 1e-9
#: Largest relative distance |Lambda(DEGENERACY_PROBE; roots) - lambda| / |lambda|
#: at which a line's roots still carry its eigenvalue lambda, and at which a
#: canonical representative still carries the Lambda of its raw tuple.
#: The worst measured, over open N = 6..10 at s = 1/2 (q = 0.3, 0.5, 1.5) and
#: N = 6 at s = 1, q = 0.3, is 6.8e-8 at N=10, q=0.5: a margin of 15.
#: Closed candidates (seed 1234): over the closed census (N = 2, 3 at every
#: spin, N = 5 at s = 1/2, N = 3 at q = 0.3, 0.7, 1.5) the kept ones match to
#: at most 4.6e-11 and the rejected ones miss by at least 0.063; at N = 4
#: (s = 1/2, 1, 3/2) and N = 6 (s = 1/2) the kept worst is 3.1e-8 and the
#: rejected nearest 2.7e-5 and 4.7e-5.
LAMBDA_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Reproducibility knobs of a run: the RNG seed of the closed-chain
    multistart search and its number of seeds per sector, which only the
    sectors with M >= 2 roots draw.  The open chain and the closed M <= 1
    sectors are solved without a search and ignore them."""

    seed: int = 1234
    n_seeds: int = 2000


@dataclass(frozen=True)
class SectorCensus:
    """Expected number of lines in one magnon sector."""

    sector: str
    expected: int


def chebyshev_dim(k: int, x):
    """Chebyshev-type dimension polynomial: p_0 = 1, p_1 = x,
    p_(k+1) = x p_k - p_(k-1)."""
    if k < 0:
        raise DomainError(f"negative label {k}")
    prev, cur = 1, x
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, x * cur - prev
    return cur


def multiplicity(n_sites: int, k: int) -> int:
    """Number of spectral lines in the sector with through-line label k."""
    if k < 0 or k > n_sites or (n_sites - k) % 2:
        raise DomainError(f"label {k} incompatible with {n_sites} sites")
    j = (n_sites - k) // 2
    lower = comb(n_sites, j - 1) if j >= 1 else 0
    return comb(n_sites, j) - lower


def predicted_degeneracy(params: ModelParams, n_roots: int) -> int:
    """Predicted degeneracy of an open-chain line with M = n_roots."""
    return chebyshev_dim(params.n_sites - 2 * n_roots, params.site_dim)


def expected_census(params: ModelParams):
    """Expected per-sector line counts of the open chain."""
    return [
        SectorCensus(f"M={m}", multiplicity(params.n_sites, params.n_sites - 2 * m))
        for m in range(params.n_sites // 2 + 1)
    ]


# ---------------------------------------------------------------------------
# Newton driver


def _scaled_norm(rs):
    return np.max(np.abs(rs), axis=-1)


def _batch_solve(j, r):
    """Newton updates for a batch, tolerating singular members."""
    try:
        return np.linalg.solve(j, r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.zeros_like(r)
        for i in range(j.shape[0]):
            try:
                out[i] = np.linalg.solve(j[i], r[i])
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(j[i], r[i], rcond=None)[0]
        return out


def _newton_driver(fun, seeds):
    """Run damped Newton from every seed; return converged root tuples."""
    u = np.array(seeds, dtype=complex)
    if u.ndim == 1:
        u = u[:, None]
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
        for row in u[done]:
            results.append(tuple(row))
        keep = finite & ~done
        u, r, j, norm = u[keep], r[keep], j[keep], norm[keep]
        if u.shape[0] == 0:
            break
        step = _batch_solve(j, r)
        good = np.all(np.isfinite(step), axis=-1)
        u, step, norm = u[good], step[good], norm[good]
        if u.shape[0] == 0:
            break
        u = _backtrack(fun, u, step, norm)
    # whatever is still alive after NEWTON_MAX_ITER has not converged: discard
    return results


def _backtrack(fun, u, step, norm):
    """The damped Newton steps of a batch: row i moves to u_i - 2^-k step_i
    for the first k = 0 .. MAX_BACKTRACK at which its scaled residual is
    finite and below norm_i.  Rows that no k improves are dropped; the rest
    keep their order.

    Consecutive halvings are tried in blocks, one call of ``fun`` per block
    on every pending row.  A block holds as many halvings as are left, but
    no call carries more rows than u, so a lone row takes one halving per
    call.  ``fun`` works row by row, so each row takes the step that one
    halving per call would give it."""
    b, m = u.shape
    new_u = u.copy()
    moved = np.zeros(b, dtype=bool)
    pending = np.arange(b)
    k = 0
    while pending.size and k <= MAX_BACKTRACK:
        w = min(MAX_BACKTRACK + 1 - k, max(1, b // pending.size))
        t = 0.5 ** np.arange(k, k + w)
        cand = u[pending, None] - t[:, None] * step[pending, None]  # (p, w, m)
        _, crs, _ = fun(cand.reshape(-1, m), jac=False)
        cnorm = _scaled_norm(crs).reshape(-1, w)
        improved = np.isfinite(cnorm) & (cnorm < norm[pending, None])
        hit = improved.any(axis=1)
        first = np.argmax(improved[hit], axis=1)
        new_u[pending[hit]] = cand[hit, first]
        moved[pending[hit]] = True
        pending = pending[~hit]
        k += w
    return new_u[moved]


def _draw_seeds(params: ModelParams, m: int, sector: int, config: RunConfig):
    """Log-uniform seeds from SEED_ANNULUS for the closed sector (m, l)."""
    seq = np.random.SeedSequence(
        (config.seed, params.n_sites, params.twice_spin, m, 17 + sector)
    )
    rng = np.random.default_rng(seq)
    lo, hi = np.log(SEED_ANNULUS[0]), np.log(SEED_ANNULUS[1])
    mods = np.exp(rng.uniform(lo, hi, size=(config.n_seeds, m)))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(config.n_seeds, m))
    return mods * np.exp(1j * phases)


def _one_root_seeds(params: ModelParams, sector: int):
    """Every M = 1 solution of the closed sector l, as seeds of shape (b, 1).

    With kappa = c_l omega(u)/omega(q u) and x = u^2, the cleared equation
    kappa^2 pa(u) = pb(u) times u^N (q^2 x - 1)^2 / q^2 is the polynomial

      c_l^2 (x - 1)^2 prod_i ((q/th_i)^2 x - 1) th_i/q
        - (q^2 x - 1)^2 q^-2 prod_i (x/th_i^2 - 1) th_i

    of degree N + 2, whose roots are taken as u = sqrt(x).  Roots at
    u = +-1, +-1/q, 0 or infinity (on equal weights x = 1 and x = q^-2 are
    double roots) are not solutions; the guards and the Lambda match drop
    them after Newton.
    """
    q = params.q
    x = np.polynomial.Polynomial([0, 1])
    side_a = sector_phase(sector, params) ** 2 * (x - 1) ** 2
    side_b = (q * q * x - 1) ** 2 / (q * q)
    for th in params.thetas:
        side_a = side_a * ((q / th) ** 2 * x - 1) * (th / q)
        side_b = side_b * (x / th**2 - 1) * th
    return np.sqrt((side_a - side_b).roots())[:, None]


# ---------------------------------------------------------------------------
# guards, canonicalization, lines


def _passes_guards(u, params: ModelParams):
    """Mask of the closed-chain root tuples (rows of u, shape (..., m)) that
    keep clear of the singular points of the equations: |u| outside
    MODULUS_BOUNDS, u = +-1 or +-1/q and u_i = +-u_j, each to GUARD_TOL in
    omega."""
    q = params.q
    lo, hi = MODULUS_BOUNDS
    m = u.shape[-1]
    off = ~np.eye(m, dtype=bool)
    with np.errstate(all="ignore"):
        mod = np.abs(u)
        near = (np.abs(omega(u)) < GUARD_TOL) | (np.abs(omega(q * u)) < GUARD_TOL)
        ok = np.all((lo < mod) & (mod < hi) & ~near, axis=-1)
        ui, uj = u[..., :, None], u[..., None, :]
        bad = (np.abs(omega(ui / uj)) < GUARD_TOL) & off
    return ok & ~np.any(bad, axis=(-2, -1))


def _key_order(z, axis=-1):
    """Indices sorting z along ``axis`` by (|z|, Re z, Im z), each scaled by
    ROOT_KEY_SCALE and rounded; equal keys keep their order."""
    k_abs, k_re, k_im = (np.rint(x * ROOT_KEY_SCALE) for x in (np.abs(z), z.real, z.imag))
    return np.lexsort((k_im, k_re, k_abs), axis=axis)


def _sort_roots(u):
    """Each row of u (shape (..., m)) in _key_order."""
    return np.take_along_axis(u, _key_order(u), axis=-1)


def canonical_roots(roots, q, kind: str):
    """Map each root to a canonical representative of its symmetry orbit.

    Open-chain equations are invariant under u -> -u and u -> -1/(q u) per
    root; closed-chain ones under u -> -u.  The representative maximizes
    (|u|, Re u, Im u) lexicographically (the first of equal keys wins); each
    row is then sorted.  ``roots`` has shape (..., m).
    """
    u = np.asarray(roots, dtype=complex)
    # u = 0 has no finite image; _make_solution then keeps the row's raw roots
    with np.errstate(divide="ignore", invalid="ignore"):
        orbit = [u, -u] + ([-1.0 / (q * u), 1.0 / (q * u)] if kind == "open" else [])
    # the largest key sorts last, and of equal keys the one given last
    stack = np.stack(orbit[::-1])
    pick = _key_order(stack, axis=0)[-1:]
    return _sort_roots(np.take_along_axis(stack, pick, axis=0)[0])


def _probe_lambda(u, params: ModelParams, kind: str, twist=None) -> np.ndarray:
    """Lambda(DEGENERACY_PROBE) of each root tuple, the identity of its line.

    ``u`` has shape (b, m) and the closed-chain ``twist`` shape (b,); the
    result has shape (b,), NaN where the probe is a pole of a row's Lambda.
    """
    v = np.full((u.shape[0], 1), DEGENERACY_PROBE, dtype=complex)
    (term_a, term_d), _, ok = _lambda_terms(v, u, params, kind, twist)
    with np.errstate(invalid="ignore"):
        return np.where(ok[:, 0], term_a[:, 0] + term_d[:, 0], np.nan)


def _residual_norm(u, params, kind, twist):
    """Largest scaled Bethe residual of each row of the batch u (0 without roots)."""
    a, b, _ = bethe_sides(u, params, kind, twist)
    with np.errstate(all="ignore"):
        return np.max(np.abs(a - b) / (1.0 + np.abs(a) + np.abs(b)), axis=-1, initial=0.0)


def _twists(u, params, kind, sector):
    return twist_from_roots(u, sector, params) if kind == "closed" else None


def _make_solution(raw, params, kind, sector=None):
    """Canonicalize a batch of raw root tuples (shape (b, m)), verifying
    that each canonical representative still solves the equations and
    carries the raw tuple's Lambda(DEGENERACY_PROBE) (a NaN fails); a row
    that fails keeps its raw roots, sorted.  Returns (roots, twists, residual
    norms): shapes (b, m), (b,) (None on the open chain) and (b,)."""
    raw = np.asarray(raw, dtype=complex)
    cand = canonical_roots(raw, params.q, kind)
    ok = np.all(cand == raw, axis=-1)
    moved = np.flatnonzero(~ok)
    twist_c = _twists(cand[moved], params, kind, sector)
    solves = _residual_norm(cand[moved], params, kind, twist_c) < CANONICAL_RESIDUAL_TOL
    check = moved[solves]
    lam_raw, lam_c = (
        _probe_lambda(u[check], params, kind, _twists(u[check], params, kind, sector))
        for u in (raw, cand)
    )
    ok[check] = np.abs(lam_c - lam_raw) <= LAMBDA_MATCH_TOL * np.abs(lam_raw)
    use = np.where(ok[:, None], cand, _sort_roots(raw))
    twist = _twists(use, params, kind, sector)
    return use, twist, _residual_norm(use, params, kind, twist)


def _solutions(made, kind, sector=None, keep=slice(None)):
    """Package the rows ``keep`` of a _make_solution result as BetheSolution
    objects."""
    roots, twist, residual = (None if x is None else x[keep] for x in made)
    twists = [None] * len(roots) if twist is None else twist.tolist()
    return [
        BetheSolution(kind=kind, roots=tuple(r), sector=sector, twist=t,
                      residual_norm=n)
        for r, t, n in zip(roots.tolist(), twists, residual.tolist())
    ]


def _candidates(raw, n_roots, params, sector):
    """The guarded, canonical closed-chain solutions among the Newton root
    tuples ``raw``."""
    u = np.array(raw, dtype=complex).reshape(-1, n_roots)
    u = u[_passes_guards(u, params)]
    made = _make_solution(u, params, "closed", sector)
    return _solutions(made, "closed", sector, _passes_guards(made[0], params))


def _magnitude(sol: BetheSolution) -> float:
    return float(sum(abs(r) for r in sol.roots))


def _solution_key(sol: BetheSolution):
    """Sort key of a line: the (|u|, Re u, Im u) keys of its roots in turn,
    scaled by ROOT_KEY_SCALE and rounded as in _key_order, so that roundoff
    in tied moduli does not decide the order."""
    u = np.asarray(sol.roots, dtype=complex)
    parts = np.stack([np.abs(u), u.real, u.imag], axis=-1)
    return tuple(np.rint(parts * ROOT_KEY_SCALE).ravel().tolist())


def _closed_lines(solutions, eigs, params: ModelParams):
    """The lines among closed-chain solutions of one sector (M, l), as
    (solution, lambda) pairs in _solution_key order.

    ``eigs`` are the line eigenvalues of the closed t(DEGENERACY_PROBE) (see
    _lines).  A solution is kept iff its Lambda(DEGENERACY_PROBE) is off a
    pole and its nearest lambda lies within LAMBDA_MATCH_TOL * |lambda| of
    it.  The kept solutions at one lambda are one line, taken in order: a
    clearly (10x) smaller residual norm wins the line; at comparable
    residuals the smaller total root magnitude does, so crossing partners
    collapse onto the customary representative.
    """
    if not solutions:
        return []
    u = np.array([sol.roots for sol in solutions], dtype=complex).reshape(len(solutions), -1)
    lam = _probe_lambda(u, params, "closed", [sol.twist for sol in solutions])
    near = np.argmin(np.abs(lam[:, None] - eigs), axis=1)
    match = np.abs(lam - eigs[near]) <= LAMBDA_MATCH_TOL * np.abs(eigs[near])
    best = {}
    for i in np.flatnonzero(match):
        sol, cur = solutions[i], best.get(near[i])
        if cur is None or sol.residual_norm < 0.1 * cur.residual_norm or (
            not cur.residual_norm < 0.1 * sol.residual_norm
            and _magnitude(sol) < _magnitude(cur) - MAGNITUDE_TIE
        ):
            best[near[i]] = sol
    lines = ((sol, eigs[k]) for k, sol in best.items())
    return sorted(lines, key=lambda line: _solution_key(line[0]))


def _conjugate_closure(solutions, params: ModelParams, sector: int):
    """For real q and conjugation-stable weights, add missing conjugate lines.

    ``solutions`` all belong to one closed-chain sector (M, l).
    """
    if abs(complex(params.q).imag) > 1e-14:
        return solutions
    thetas = _sort_roots(np.asarray(params.thetas, dtype=complex))
    if np.any(np.abs(thetas - _sort_roots(thetas.conj())) > THETA_CONJ_TOL):
        return solutions
    extra = []
    rows = [sol.roots for sol in solutions if sol.roots]
    if rows:
        made = _make_solution(np.conj(rows), params, "closed", sector)
        roots, _, residual = made
        keep = (residual < CLOSURE_RESIDUAL_TOL) & _passes_guards(roots, params)
        extra = _solutions(made, "closed", sector, keep)
    return list(solutions) + extra


# ---------------------------------------------------------------------------
# open chain: the spectrum first, then Baxter's TQ relation


def _tq_points(n_sites: int) -> np.ndarray:
    """The 3N + 2 generic points p_k = 0.7 + 0.2k + 0.9ik/(3N) at which each
    line's Lambda is sampled."""
    k = np.arange(3 * n_sites + 2)
    return 0.7 + 0.2 * k + 0.9j * k / (3 * n_sites)


def _lines(t: np.ndarray):
    """The lines of t = t(DEGENERACY_PROBE), open or closed: (eigenvalues,
    right eigenvectors as rows), one per line.  Eigenvalues closer than LINE_TOL
    times the spectral radius are one line, represented by the first."""
    eigs, vecs = np.linalg.eig(t)
    tol = LINE_TOL * np.max(np.abs(eigs))
    first = []
    for i, lam in enumerate(eigs):
        if not first or np.min(np.abs(eigs[first] - lam)) >= tol:
            first.append(i)
    return eigs[first], vecs[:, first].T


def _sampled_lambda(vectors, points, params: ModelParams) -> np.ndarray:
    """Lambda(v) = x^H t(v) x / x^H x for every row x of ``vectors`` at every
    point, shape (lines, points): one batched sweep per point, so no dense
    t(v) is built."""
    bra = vectors.conj()
    samples = [np.sum(bra * open_transfer_apply(v, params, vectors), axis=-1) for v in points]
    return np.stack(samples, axis=-1) / np.sum(bra * vectors, axis=-1)[:, None]


def _z(v, q):
    """z(v) = q v^2 + 1/(q v^2): the open Q-function is
    Q(v) = prod_k omega(v/u_k) omega(v q u_k) = prod_k (z(v) - z(u_k))."""
    return q * v * v + 1.0 / (q * v * v)


def _tq_polynomials(lam, points, params: ModelParams):
    """For each line (row of ``lam``, its Lambda at the points): the monic P
    of the smallest degree M <= N/2, coefficients lowest first, such that
    Q(v) = P(z(v)) solves Lambda(v) Q(v) = a(v) Q(v/q) + d(v) Q(v q) by
    least squares to TQ_FIT_TOL relative to the largest of the three terms;
    None for a line that no M fits.  Points on a pole of a or d are skipped."""
    q = params.q
    a, d, ok = _amplitudes(points, params, "open")
    v = points[ok]
    zs = (_z(v, q), _z(v / q, q), _z(v * q, q))
    out = []
    for row in lam[:, ok]:
        found = None
        for m in range(params.n_sites // 2 + 1):
            # one (points, m + 1) matrix per term: its weight times z^i
            terms = [w[:, None] * z[:, None] ** np.arange(m + 1)
                     for w, z in zip((row, -a[ok], -d[ok]), zs)]
            cols = sum(terms)
            scale = np.linalg.norm(cols[:, :m], axis=0)
            low = np.linalg.lstsq(cols[:, :m] / scale, -cols[:, m], rcond=None)[0] / scale
            p = np.append(low, 1.0)
            size = max(np.linalg.norm(t @ p) for t in terms)
            if np.linalg.norm(cols @ p) <= TQ_FIT_TOL * size:
                found = p
                break
        out.append(found)
    return out


def _tq_roots(p, q) -> np.ndarray:
    """Roots u_k whose z(u_k) are the zeros z_k of P: w + 1/w = z_k, then
    u = sqrt(w/q) (either w and either sign lie on one orbit)."""
    z = np.roots(p[::-1])
    w = 0.5 * (z + np.sqrt(z * z - 4.0))
    return np.sqrt(w / q)


def _open_line(p, params: ModelParams) -> BetheSolution:
    """The roots of one TQ polynomial P: its zeros, polished by ``refine``
    where Newton converges and else canonicalized as they are, marked
    unpolished."""
    roots = _tq_roots(p, params.q)
    if not roots.size:
        return BetheSolution(kind="open", roots=())
    try:
        return refine(roots, params, "open")
    except DomainError:
        sol = _solutions(_make_solution([roots], params, "open"), "open")[0]
        return replace(sol, polished=False)


def solve_all_open(params: ModelParams):
    """Every open-chain line, as a dict M -> list of solutions.

    Each distinct eigenvalue lambda of t(DEGENERACY_PROBE) is one line, and
    its degeneracy is the nullity of t(DEGENERACY_PROBE) - lambda.  Its
    Lambda(v), sampled matrix-free at _tq_points, fixes M and Q through the
    TQ relation; the line reports the zeros of Q as its roots (see
    _open_line).  A line is dropped when it fits no M <= N/2, or when its
    roots' finite Lambda(DEGENERACY_PROBE) misses lambda by more than
    LAMBDA_MATCH_TOL relative; the census then shows the gap.
    """
    t = transfer_matrix(DEGENERACY_PROBE, params, "open").matrix
    eigs, vectors = _lines(t)
    points = _tq_points(params.n_sites)
    samples = _sampled_lambda(vectors, points, params)
    lines = {m: [] for m in range(params.n_sites // 2 + 1)}
    for lam, p in zip(eigs, _tq_polynomials(samples, points, params)):
        if p is None:
            continue
        sol = _open_line(p, params)
        value = _probe_lambda(np.array([sol.roots], dtype=complex), params, "open")[0]
        # only a finite Lambda that misses lambda vetoes the line: roots with
        # no finite Lambda at the probe (such as a TQ zero that cancels to
        # u = 0) leave the line to its measured nullity
        if abs(value - lam) > LAMBDA_MATCH_TOL * abs(lam):
            continue
        nullity, ambiguous = measure_degeneracy(t, lam)
        lines[sol.n_roots].append(replace(sol, degeneracy=nullity, ambiguous=ambiguous))
    for sols in lines.values():
        sols.sort(key=_solution_key)
    return lines


# ---------------------------------------------------------------------------
# closed chain: multistart sector solvers


def _closed_spectrum(params: ModelParams):
    """The closed t(DEGENERACY_PROBE) and its line eigenvalues (see _lines)."""
    t = transfer_matrix(DEGENERACY_PROBE, params, "closed").matrix
    return t, _lines(t)[0]


def solve_sector_closed(
    params: ModelParams, n_roots: int, sector: int, config: RunConfig = None,
    spectrum=None,
):
    """All Bethe solutions of the closed chain with M = n_roots and label l.

    The candidates are decided on the line eigenvalues of the closed
    t(DEGENERACY_PROBE) (_closed_lines), before and after their conjugate
    closure, and each line carries the nullity of t(DEGENERACY_PROBE) -
    lambda as its degeneracy; ``spectrum`` is that matrix and those
    eigenvalues (``_closed_spectrum``), shared by solve_all_closed's sectors.
    An M = 1 sector at N > 2 is seeded with the roots of its one-root
    polynomial (_one_root_seeds), so its result does not depend on
    ``config``; an M >= 2 sector with config.n_seeds random seeds.  Both
    kinds of seeds are polished by Newton, guarded and canonicalized
    (_candidates).
    The two-site one-root system is degenerate (it is satisfied identically
    once the twist is substituted), so that sector is anchored instead on
    the eigenvalues of the traced leading monodromy, which fixes kappa and
    then the root.
    """
    config = config or RunConfig()
    n = params.n_sites
    sector = sector % n
    if 2 * n_roots > n:
        raise DomainError(f"M = {n_roots} exceeds N/2 = {n / 2} for the closed chain")
    t, eigs = spectrum or _closed_spectrum(params)
    if n_roots == 0:
        twist = twist_from_roots((), sector, params)
        cands = [BetheSolution(kind="closed", roots=(), sector=sector, twist=twist)]
    elif n == 2 and n_roots == 1:
        cands = _anchored_two_site(params, sector)
    else:
        if n_roots == 1:
            seeds = _one_root_seeds(params, sector)
        else:
            seeds = _draw_seeds(params, n_roots, sector, config)
        raw = _newton_driver(newton_system(params, "closed", sector), seeds)
        cands = _candidates(raw, n_roots, params, sector)
        lines = _closed_lines(cands, eigs, params)
        cands = _conjugate_closure([sol for sol, _ in lines], params, sector)
    kept = []
    for sol, lam in _closed_lines(cands, eigs, params):
        nullity, ambiguous = measure_degeneracy(t, lam)
        kept.append(replace(sol, degeneracy=nullity, ambiguous=ambiguous))
    return kept


def _anchored_two_site(params: ModelParams, sector: int):
    q = params.q
    phase = pi_phase(params.twice_spin * params.n_sites / 2.0)
    c_l = sector_phase(sector, params)
    trace = np.trace(generator_blocks(params, "+"), axis1=0, axis2=1)
    eigs = np.linalg.eigvals(trace)
    uniq = []
    for lam in sorted(eigs, key=lambda z: (round(z.real, 8), round(z.imag, 8))):
        if not any(abs(lam - w) < 1e-8 * (1.0 + abs(w)) for w in uniq):
            uniq.append(lam)
    roots, kappas = [], []
    for lam in uniq:
        # phase * q * (kappa + 1/kappa) = lam; at a double root kappa = +-1
        # the eigensolver's roundoff in z would give kappa a sqrt-sized error
        z = lam / (phase * q)
        disc = z * z - 4.0
        disc = 0.0 if abs(disc) < 1e-12 * abs(z * z) else cmath.sqrt(disc)
        for kappa in ((z + disc) / 2.0, (z - disc) / 2.0):
            if kappa == 0:
                continue
            rho = c_l / kappa
            if abs(rho - q) < 1e-9 or abs(rho - 1.0 / q) < 1e-9:
                continue
            u2 = (1.0 / q - rho) / (q - rho)
            if u2 == 0:
                continue
            roots.append(cmath.sqrt(u2))
            kappas.append(kappa)
    u = np.array(roots, dtype=complex).reshape(-1, 1)
    kappas = np.array(kappas, dtype=complex)
    ok = _passes_guards(u, params)
    made = _make_solution(u[ok], params, "closed", sector)
    # the roots must reproduce the kappa they were solved for
    keep = ~(np.abs(made[1] - kappas[ok]) > 1e-6 * (1.0 + np.abs(kappas[ok])))
    return _solutions(made, "closed", sector, keep)


def solve_all_closed(params: ModelParams, config: RunConfig = None):
    """Solutions for every closed sector, as a dict (M, l) -> list; one
    eigendecomposition of the closed t(DEGENERACY_PROBE) serves them all."""
    spectrum = _closed_spectrum(params)
    return {
        (m, l): solve_sector_closed(params, m, l, config, spectrum)
        for m in range(params.n_sites // 2 + 1)
        for l in range(params.n_sites)
    }


def refine(roots, params: ModelParams, kind: str, sector=None):
    """Polish a nearly-converged root tuple with the same damped Newton."""
    seeds = np.array([list(roots)], dtype=complex)
    out = _newton_driver(newton_system(params, kind, sector), seeds)
    if not out:
        raise DomainError("refinement did not converge")
    return _solutions(_make_solution([out[0]], params, kind, sector), kind, sector)[0]
