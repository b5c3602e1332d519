"""Identity suites: batteries of exact relations checked numerically.

Each suite builds the relevant operators for a small grid of chain sizes and
spins, evaluates both sides of every identity it owns, and records a scaled
residual per check.  The same suites back the command line verifier and the
test suite, so tolerances live here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ModelParams,
    functional_rhs,
    omega,
    scaled_residual,
    zeta,
)
from .operators import (
    crossing_pair,
    embed_pair,
    embed_two,
    hamiltonian,
    partial_transpose,
    permutation_matrix,
    r_asymptotic,
    r_matrix,
    tl_generator,
)
from .transfer import (
    hamiltonian_from_transfer,
    random_thetas,
    transfer_matrix,
)
from .symmetry import check_symmetry

__all__ = [
    "CheckResult",
    "SuiteResult",
    "SUITES",
    "IDENTITY_TOL",
    "run_suite",
    "run_suites",
    "shift_operator",
]

IDENTITY_TOL = 1e-9
STATE_TOL = 1e-8
PRODUCT_TOL = 1e-6
EXTRAPOLATION_TOL = 1e-4

_SPINS = ("1/2", "1", "3/2")


@dataclass(frozen=True)
class CheckResult:
    label: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst(self):
        if not self.checks:
            return None
        return max(self.checks, key=lambda c: c.residual / c.tol)


def _draw(rng: np.random.Generator, n: int = 1, lo: float = 0.6, hi: float = 1.6):
    mods = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    vals = mods * np.exp(1j * phases)
    return [complex(v) for v in vals]


def shift_operator(n_sites: int, d: int) -> np.ndarray:
    """One-site shift: the last site's state moves to the front."""
    dim = d**n_sites
    basis = np.eye(dim).reshape((d,) * n_sites + (dim,))
    return np.moveaxis(basis, n_sites - 1, 0).reshape(dim, dim)


def suite_tl_algebra(rng: np.random.Generator, checks: list):
    for spin in _SPINS:
        params = ModelParams.create(3, spin)
        d = params.site_dim
        x = tl_generator(params)
        c = params.coupling
        checks.append(
            CheckResult(
                f"s={spin}: X^2 = c X",
                scaled_residual(x @ x, c * x),
                IDENTITY_TOL,
            )
        )
        x1 = embed_pair(x, 1, 3, d)
        x2 = embed_pair(x, 2, 3, d)
        checks.append(
            CheckResult(
                f"s={spin}: X1 X2 X1 = X1",
                scaled_residual(x1 @ x2 @ x1, x1),
                IDENTITY_TOL,
            )
        )
        checks.append(
            CheckResult(
                f"s={spin}: X2 X1 X2 = X2",
                scaled_residual(x2 @ x1 @ x2, x2),
                IDENTITY_TOL,
            )
        )
        y1 = embed_pair(x, 1, 4, d)
        y3 = embed_pair(x, 3, 4, d)
        checks.append(
            CheckResult(
                f"s={spin}: [X1, X3] = 0",
                scaled_residual(y1 @ y3, y3 @ y1),
                IDENTITY_TOL,
            )
        )


def suite_yang_baxter(rng: np.random.Generator, checks: list):
    for spin in _SPINS:
        params = ModelParams.create(2, spin)
        d = params.site_dim
        q = params.q
        perm = permutation_matrix(d)
        eye2 = np.eye(d * d)
        u1, u2, u3 = _draw(rng, 3)
        dims3 = [d, d, d]
        r12 = embed_two(r_matrix(u1 / u2, params), dims3, 0, 1)
        r13 = embed_two(r_matrix(u1 / u3, params), dims3, 0, 2)
        r23 = embed_two(r_matrix(u2 / u3, params), dims3, 1, 2)
        checks.append(
            CheckResult(
                f"s={spin}: R12 R13 R23 = R23 R13 R12",
                scaled_residual(r12 @ r13 @ r23, r23 @ r13 @ r12),
                IDENTITY_TOL,
            )
        )
        (u,) = _draw(rng, 1)
        r = r_matrix(u, params)
        r21_inv_arg = perm @ r_matrix(1.0 / u, params) @ perm
        checks.append(
            CheckResult(
                f"s={spin}: R12(u) R21(1/u) = zeta(u) I",
                scaled_residual(r @ r21_inv_arg, zeta(u, q) * eye2),
                IDENTITY_TOL,
            )
        )
        v, _ = crossing_pair(params)
        v1 = np.kron(v, np.eye(d))
        crossed = v1 @ partial_transpose(
            r_matrix(-1.0 / (u * q), params), d, 2
        ) @ v1
        checks.append(
            CheckResult(
                f"s={spin}: R(u) = V1 R^t2(-1/(uq)) V1",
                scaled_residual(r, crossed),
                IDENTITY_TOL,
            )
        )
        r_plus = r_asymptotic("+", params)
        r_minus = r_asymptotic("-", params)
        checks.append(
            CheckResult(
                f"s={spin}: (R-)^t1t2 R+ = I",
                scaled_residual(r_minus.T @ r_plus, eye2),
                IDENTITY_TOL,
            )
        )
        checks.append(
            CheckResult(
                f"s={spin}: (R+)^t1t2 R- = I",
                scaled_residual(r_plus.T @ r_minus, eye2),
                IDENTITY_TOL,
            )
        )
        _, m = crossing_pair(params)
        mm = np.kron(m, m)
        for sign, rpm in (("+", r_plus), ("-", r_minus)):
            checks.append(
                CheckResult(
                    f"s={spin}: [M x M, R{sign}] = 0",
                    scaled_residual(mm @ rpm, rpm @ mm),
                    IDENTITY_TOL,
                )
            )


def suite_boundary(rng: np.random.Generator, checks: list):
    for spin in _SPINS:
        params = ModelParams.create(2, spin)
        d = params.site_dim
        q = params.q
        perm = permutation_matrix(d)

        def r12(w, params=params):
            return r_matrix(w, params)

        def r21(w, params=params, perm=perm):
            return perm @ r_matrix(w, params) @ perm

        u, v = _draw(rng, 2)
        lhs = r12(u / v) @ r21(u * v)
        rhs = r12(u * v) @ r21(u / v)
        checks.append(
            CheckResult(
                f"s={spin}: reflection identity, identity left boundary",
                scaled_residual(lhs, rhs),
                IDENTITY_TOL,
            )
        )
        _, m = crossing_pair(params)
        m1 = np.kron(m, np.eye(d))
        m1_inv = np.kron(np.linalg.inv(m), np.eye(d))
        k1 = m1
        k2 = np.kron(np.eye(d), m)
        w = 1.0 / (u * v * q * q)
        lhs = r12(v / u) @ k1 @ m1_inv @ r21(w) @ m1 @ k2
        rhs = k2 @ m1 @ r12(w) @ m1_inv @ k1 @ r21(v / u)
        checks.append(
            CheckResult(
                f"s={spin}: dual reflection identity, diagonal right boundary",
                scaled_residual(lhs, rhs),
                IDENTITY_TOL,
            )
        )


def suite_transfer(rng: np.random.Generator, checks: list):
    for n_sites in (2, 3):
        for spin in _SPINS:
            params = ModelParams.create(n_sites, spin)
            d = params.site_dim
            q = params.q
            dim = d**n_sites
            c = params.coupling
            t_one = transfer_matrix(1.0, params, "open").matrix
            checks.append(
                CheckResult(
                    f"N={n_sites}, s={spin}: open t(1) = c w(q)^2N I",
                    scaled_residual(
                        t_one, c * omega(q) ** (2 * n_sites) * np.eye(dim)
                    ),
                    IDENTITY_TOL,
                )
            )
            shift = shift_operator(n_sites, d)
            t_one_closed = transfer_matrix(1.0, params, "closed").matrix
            checks.append(
                CheckResult(
                    f"N={n_sites}, s={spin}: closed t(1) = w(q)^N shift",
                    scaled_residual(t_one_closed, omega(q) ** n_sites * shift),
                    IDENTITY_TOL,
                )
            )
            checks.append(
                CheckResult(
                    f"N={n_sites}, s={spin}: shift^N = I",
                    scaled_residual(
                        np.linalg.matrix_power(shift, n_sites), np.eye(dim)
                    ),
                    IDENTITY_TOL,
                )
            )
            thetas = random_thetas(n_sites, rng, q)
            inhom = ModelParams.create(n_sites, spin, thetas=thetas)
            u, v = _draw(rng, 2)
            for kind in ("open", "closed"):
                tu = transfer_matrix(u, inhom, kind).matrix
                tv = transfer_matrix(v, inhom, kind).matrix
                checks.append(
                    CheckResult(
                        f"N={n_sites}, s={spin}: {kind} [t(u), t(v)] = 0, generic weights",
                        scaled_residual(tu @ tv, tv @ tu),
                        IDENTITY_TOL,
                    )
                )
            tu = transfer_matrix(u, inhom, "open").matrix
            tx = transfer_matrix(-1.0 / (u * q), inhom, "open").matrix
            checks.append(
                CheckResult(
                    f"N={n_sites}, s={spin}: open t(u) = t(-1/(uq))",
                    scaled_residual(tu, tx),
                    IDENTITY_TOL,
                )
            )
    for n_sites, spin in ((2, "1/2"), (3, "1/2"), (4, "1/2"), (2, "1"), (3, "1"), (4, "1")):
        params = ModelParams.create(n_sites, spin)
        h_direct = hamiltonian(params)
        h_transfer = hamiltonian_from_transfer(params)
        checks.append(
            CheckResult(
                f"N={n_sites}, s={spin}: Hamiltonian from t'(1)",
                float(np.max(np.abs(h_direct - h_transfer))),
                PRODUCT_TOL,
            )
        )


def suite_functional(rng: np.random.Generator, checks: list):
    for n_sites in (2, 3):
        for spin in _SPINS:
            q = ModelParams.create(n_sites, spin).q
            thetas = random_thetas(n_sites, rng, q)
            params = ModelParams.create(n_sites, spin, thetas=thetas)
            dim = params.site_dim**n_sites
            for kind in ("open", "closed"):
                for i, theta in enumerate(thetas):
                    lhs = (
                        transfer_matrix(theta / q, params, kind).matrix
                        @ transfer_matrix(theta, params, kind).matrix
                    )
                    rhs = functional_rhs(theta / q, params, kind) * np.eye(dim)
                    checks.append(
                        CheckResult(
                            f"N={n_sites}, s={spin}: {kind} t(th_{i + 1}/q) t(th_{i + 1}) = F I",
                            scaled_residual(lhs, rhs),
                            IDENTITY_TOL,
                        )
                    )


def suite_symmetry(rng: np.random.Generator, checks: list):
    for n_sites in (2, 3):
        for spin in _SPINS:
            params = ModelParams.create(n_sites, spin)
            report = check_symmetry(params)
            checks.append(
                CheckResult(
                    f"N={n_sites}, s={spin}: [generator blocks, t(u)] = 0",
                    report.commutator_residual,
                    IDENTITY_TOL,
                )
            )
            checks.append(
                CheckResult(
                    f"N={n_sites}, s={spin}: asymptotic exchange relation",
                    report.exchange_residual,
                    IDENTITY_TOL,
                )
            )
            checks.append(
                CheckResult(
                    f"N={n_sites}, s={spin}: asymptotic inversion relation",
                    report.inversion_residual,
                    IDENTITY_TOL,
                )
            )


def _admissible_config(values, probe, q) -> bool:
    """True when no point, and no pair of points, of the values and the
    probe sits within 1e-2 of a pole family of the off-shell formulas."""
    pts = np.array([*values, probe], dtype=complex)
    a, b = pts[:, None], pts[None, :]
    # every ordered pair i != j: a/b then covers both quotients of a pair
    pairs = np.stack([a / b, a * b * q, a * b, a * b * q * q])[:, ~np.eye(len(pts), dtype=bool)]
    args = np.concatenate([pts * pts * q, pts * pts * q * q, pairs.ravel()])
    return not np.any(np.abs(omega(args)) < 1e-2)


def _draw_config(rng, m, q, max_tries=500):
    for _ in range(max_tries):
        vals = _draw(rng, m + 1, lo=0.7, hi=1.5)
        probe, values = vals[0], tuple(vals[1:])
        if _admissible_config(values, probe, q):
            return probe, values
    raise RuntimeError("could not draw an admissible off-shell configuration")


def suite_offshell(rng: np.random.Generator, checks: list, n_configs: int = 50):
    from .aba import offshell_residuals

    for spin in _SPINS:
        n_max = 6 if spin == "1/2" else 4
        for n_sites in range(2, n_max + 1):
            params = ModelParams.create(n_sites, spin)
            for m in range(1, min(3, n_sites) + 1):
                configs = [_draw_config(rng, m, params.q) for _ in range(n_configs)]
                worst = 0.0
                vanished = 0
                for dual in (False, True):
                    # every fifth configuration is checked on the dual vector
                    rows = [cfg for c, cfg in enumerate(configs) if (c % 5 == 4) == dual]
                    if rows:
                        probes, values = zip(*rows)
                        rep = offshell_residuals(probes, values, params, dual)
                        worst = max(worst, float(np.max(rep.residual)))
                        vanished += int(np.sum(rep.vanished))
                label = (
                    f"N={n_sites}, s={spin}, M={m}: off-shell action, "
                    f"{n_configs} configs"
                )
                if vanished:
                    label += f" ({vanished} vanished)"
                checks.append(CheckResult(label, worst, STATE_TOL))


def _tabulated_open_solutions(spins=_SPINS):
    """Refined solver solutions for every tabulated open line with roots."""
    from .reference import open_table
    from .solver import refine

    out = []
    for n_sites in (2, 3, 4):
        for spin in spins:
            params = ModelParams.create(n_sites, spin)
            for line in open_table(n_sites):
                if line.m == 0:
                    continue
                sol = refine([p.value for p in line.roots], params, "open")
                out.append((params, line, sol))
    return out


def suite_highest_weight(rng: np.random.Generator, checks: list):
    from .aba import check_highest_weight

    for params, line, sol in _tabulated_open_solutions():
        rep = check_highest_weight(sol.roots, params)
        label = (
            f"N={params.n_sites}, s={params.spin_str}, M={line.m}: "
            f"root {line.roots[0].text}"
        )
        checks.append(
            CheckResult(
                label + ", annihilation", rep.annihilation_residual, STATE_TOL
            )
        )
        checks.append(
            CheckResult(label + ", diagonal action", rep.eigen_residual, STATE_TOL)
        )


def suite_scalar_products(rng: np.random.Generator, checks: list):
    from .aba import (
        contract_norm_squared,
        contract_scalar_product,
        norm_squared,
        scalar_product,
    )

    for params, line, sol in _tabulated_open_solutions():
        if sol.n_roots > 2:
            continue
        m = sol.n_roots
        label = (
            f"N={params.n_sites}, s={params.spin_str}, M={m}: "
            f"root {line.roots[0].text}"
        )
        for _ in range(40):
            values = tuple(_draw(rng, m, lo=0.7, hi=1.5))
            if _admissible_config(
                tuple(sol.roots) + values, 1.0 + 0.0j, params.q
            ):
                break
        else:
            raise RuntimeError("no admissible off-shell partner found")
        direct = contract_scalar_product(sol.roots, values, params)
        formula = scalar_product(sol.roots, values, params)
        checks.append(
            CheckResult(
                label + ", scalar product vs contraction",
                abs(formula - direct) / (1.0 + abs(direct)),
                PRODUCT_TOL,
            )
        )
        direct_n = contract_norm_squared(sol.roots, params)
        formula_n = norm_squared(sol.roots, params)
        checks.append(
            CheckResult(
                label + ", norm vs contraction",
                abs(formula_n - direct_n) / (1.0 + abs(direct_n)),
                PRODUCT_TOL,
            )
        )
        eps = 1e-4
        near = scalar_product(
            sol.roots, tuple(r * (1.0 + eps) for r in sol.roots), params
        )
        nearer = scalar_product(
            sol.roots, tuple(r * (1.0 + 0.5 * eps) for r in sol.roots), params
        )
        extrapolated = 2.0 * nearer - near
        checks.append(
            CheckResult(
                label + ", norm as the v -> u limit",
                abs(extrapolated - formula_n) / (1.0 + abs(formula_n)),
                EXTRAPOLATION_TOL,
            )
        )


SUITES = {
    "tl-algebra": suite_tl_algebra,
    "yang-baxter": suite_yang_baxter,
    "boundary": suite_boundary,
    "transfer": suite_transfer,
    "functional": suite_functional,
    "symmetry": suite_symmetry,
    "offshell": suite_offshell,
    "highest-weight": suite_highest_weight,
    "scalar-products": suite_scalar_products,
}


def run_suite(name: str, seed: int = 7, **kwargs) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    rng = np.random.default_rng((seed, sum(map(ord, name))))
    checks: list = []
    start = time.perf_counter()
    SUITES[name](rng, checks, **kwargs)
    return SuiteResult(
        name=name, checks=tuple(checks), elapsed=time.perf_counter() - start
    )


def run_suites(names=None, seed: int = 7, offshell_configs: int = 50):
    results = []
    for name in names or SUITES:
        kwargs = {}
        if name == "offshell":
            kwargs["n_configs"] = offshell_configs
        results.append(run_suite(name, seed=seed, **kwargs))
    return results
