"""Multistart Newton solver for the Bethe equations, with sector censuses.

Seeds are drawn log-uniformly from an annulus and driven by a damped
(backtracking) Newton iteration on the batched residual and Jacobian kernel
of ``bethe.newton_system``, vectorized across the whole seed batch.  Converged roots pass through singularity guards,
per-root canonicalization over the symmetry orbit of the equations, and
deduplication keyed on eigenvalue fingerprints.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import DomainError, ModelParams, omega, pi_phase
from .bethe import (
    BetheSolution,
    bethe_residuals,
    newton_system,
    pole_free_lambda,
    sector_phase,
    twist_from_roots,
)
from .symmetry import DEGENERACY_PROBE, generator_blocks, measure_degeneracy
from .transfer import transfer_matrix

__all__ = [
    "SearchConfig",
    "SectorCensus",
    "chebyshev_dim",
    "multiplicity",
    "predicted_degeneracy",
    "expected_census",
    "fingerprint",
    "canonical_roots",
    "dedup_solutions",
    "solve_sector_open",
    "solve_sector_closed",
    "solve_all_open",
    "solve_all_closed",
    "refine",
]

GUARD_TOL = 1e-8
MODULUS_BOUNDS = (1e-6, 1e6)
FINGERPRINT_PROBES = (0.93 + 0.41j, 1.78 - 0.67j, 0.41 + 1.13j)
#: Relative fingerprint distance below which two solutions are one line
#: (see dedup_solutions).
DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the multistart search."""

    n_seeds: int = 2000
    annulus: tuple = (0.3, 3.0)
    max_iter: int = 80
    tol: float = 1e-12
    max_backtrack: int = 30
    rng_seed: int = 1234


@dataclass(frozen=True)
class SectorCensus:
    """Bookkeeping line for one magnon sector."""

    kind: str
    sector: str
    found: int
    expected: int | None
    dimension: int | None
    complete: bool | None


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
        SectorCensus(
            kind="open",
            sector=f"M={m}",
            found=0,
            expected=multiplicity(params.n_sites, params.n_sites - 2 * m),
            dimension=predicted_degeneracy(params, m),
            complete=None,
        )
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


def _newton_driver(fun, seeds, config: SearchConfig):
    """Run damped Newton from every seed; return converged root tuples."""
    u = np.array(seeds, dtype=complex)
    if u.ndim == 1:
        u = u[:, None]
    results = []
    for _ in range(config.max_iter):
        if u.shape[0] == 0:
            break
        r, rs, j = fun(u, jac=True)
        norm = _scaled_norm(rs)
        finite = (
            np.isfinite(norm)
            & np.all(np.isfinite(r), axis=-1)
            & np.all(np.isfinite(j), axis=(-2, -1))
        )
        done = finite & (norm < config.tol)
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
        t = np.ones(u.shape[0])
        pending = np.ones(u.shape[0], dtype=bool)
        new_u = u.copy()
        for _ in range(config.max_backtrack + 1):
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
        u = new_u[~pending]  # seeds that never improved are dropped
    # whatever is still alive at max_iter has not converged: discard
    return results


def _draw_seeds(params: ModelParams, m: int, config: SearchConfig, salt: int):
    seq = np.random.SeedSequence(
        (config.rng_seed, params.n_sites, params.twice_spin, m, salt)
    )
    rng = np.random.default_rng(seq)
    lo, hi = np.log(config.annulus[0]), np.log(config.annulus[1])
    mods = np.exp(rng.uniform(lo, hi, size=(config.n_seeds, m)))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(config.n_seeds, m))
    return mods * np.exp(1j * phases)


def _one_root_candidates(params: ModelParams, kind: str, sector=None):
    """Closed-form M = 1 root candidates used to enrich the seed pool.

    Writing rho = omega(q u)/omega(u), the one-root equations reduce to
    rho^(2N) = 1 (open) and rho^(N-2) = e^(-4 pi i l/N) (-1)^(2sN) (closed),
    after which u^2 = (1/q - rho)/(q - rho).
    """
    q = params.q
    n = params.n_sites
    cands = []
    if kind == "open":
        rhos = [np.exp(1j * np.pi * j / n) for j in range(2 * n) if j != 0 and j != n]
    else:
        p = n - 2
        if p <= 0:
            return []
        target = np.exp(-4j * np.pi * sector / n) * (-1.0) ** (
            params.twice_spin * n
        )
        base = complex(target) ** (1.0 / p)
        rhos = [base * np.exp(2j * np.pi * k / p) for k in range(p)]
    for rho in rhos:
        if abs(rho - q) < 1e-12 or abs(rho - 1.0 / q) < 1e-12:
            continue
        u2 = (1.0 / q - rho) / (q - rho)
        if u2 == 0:
            continue
        root = cmath.sqrt(u2)
        cands.extend([[root], [-root]])
    return cands


# ---------------------------------------------------------------------------
# guards, canonicalization, dedup


def _passes_guards(roots, params: ModelParams, kind: str) -> bool:
    q = params.q
    lo, hi = MODULUS_BOUNDS
    for r in roots:
        ar = abs(r)
        if not (lo < ar < hi) or not np.isfinite(ar):
            return False
        if abs(omega(r)) < GUARD_TOL or abs(omega(q * r)) < GUARD_TOL:
            return False
    n = len(roots)
    for i in range(n):
        for j in range(n):
            if i != j and abs(omega(roots[i] / roots[j])) < GUARD_TOL:
                return False
            if kind == "open":
                if i != j and abs(omega(roots[i] * roots[j])) < GUARD_TOL:
                    return False
                if abs(omega(roots[i] * roots[j] * q)) < GUARD_TOL:
                    return False
    return True


def _root_key(z):
    return (round(abs(z) * 1e9), round(z.real * 1e9), round(z.imag * 1e9))


def canonical_roots(roots, q, kind: str):
    """Map each root to a canonical representative of its symmetry orbit.

    Open-chain equations are invariant under u -> -u and u -> -1/(q u) per
    root; closed-chain ones under u -> -u.  The representative maximizes
    (|u|, Re u, Im u) lexicographically; the tuple is then sorted.
    """
    out = []
    for r in roots:
        r = complex(r)
        orbit = [r, -r]
        if kind == "open":
            orbit += [-1.0 / (q * r), 1.0 / (q * r)]
        out.append(max(orbit, key=_root_key))
    return tuple(sorted(out, key=_root_key))


def fingerprint(roots, params: ModelParams, kind: str, twist=None) -> np.ndarray:
    """Eigenvalue samples at fixed probes, used as a spectral-line identity."""
    return pole_free_lambda(FINGERPRINT_PROBES, roots, params, kind, twist)[1]


def _residual_norm(roots, params, kind, twist) -> float:
    if not roots:
        return 0.0
    res = bethe_residuals(roots, params, kind, twist=twist, scaled=True)
    return float(np.max(np.abs(res)))


def _make_solution(roots, params, kind, sector=None) -> BetheSolution:
    """Canonicalize a raw root tuple and package it, verifying that the
    canonical representative still solves the equations."""
    raw = tuple(complex(r) for r in roots)
    cand = canonical_roots(raw, params.q, kind)
    twist_raw = twist_from_roots(raw, sector, params) if kind == "closed" else None
    use = cand
    if cand != raw:
        twist_c = twist_from_roots(cand, sector, params) if kind == "closed" else None
        ok = _residual_norm(cand, params, kind, twist_c) < 1e-8
        if ok:
            try:
                fp_raw = fingerprint(raw, params, kind, twist_raw)
                fp_c = fingerprint(cand, params, kind, twist_c)
                scale = 1.0 + np.max(np.abs(fp_raw))
                ok = np.max(np.abs(fp_raw - fp_c)) < 1e-7 * scale
            except DomainError:
                ok = False
        if not ok:
            use = tuple(sorted(raw, key=_root_key))
    twist = twist_from_roots(use, sector, params) if kind == "closed" else None
    return BetheSolution(
        kind=kind,
        roots=use,
        sector=sector,
        twist=twist,
        residual_norm=_residual_norm(use, params, kind, twist),
    )


def dedup_solutions(solutions, params: ModelParams):
    """Collapse solutions that describe the same spectral line.

    Identity is judged by the eigenvalue fingerprint (same Lambda function
    means same line, whatever the root bookkeeping): two solutions of one
    sector are one line when their fingerprints agree to DEDUP_TOL relative
    to 1 + their largest entry.  Newton stops at a scaled residual of 1e-12,
    but an ill-conditioned root carries a larger error into Lambda: the
    copies of the closed N=3, s=1/2, q=0.7 root 1.19523 differ by up to
    3e-10.  Distinct lines of one sector differ by at least 8e-3 over the
    stored tables and the N=5, 6 spectra, so 1e-6 sits between the two.  A
    clearly smaller residual norm wins; at comparable residuals the smaller
    total root magnitude does, so crossing partners collapse onto the
    customary representative.
    """
    kept = []
    prints = []
    for sol in solutions:
        try:
            fp = fingerprint(sol.roots, params, sol.kind, sol.twist)
        except DomainError:
            continue
        match = None
        for i, other in enumerate(kept):
            if other.n_roots != sol.n_roots or other.sector != sol.sector:
                continue
            scale = 1.0 + max(np.max(np.abs(prints[i])), np.max(np.abs(fp)))
            if np.max(np.abs(prints[i] - fp)) < DEDUP_TOL * scale:
                match = i
                break
        if match is None:
            kept.append(sol)
            prints.append(fp)
        else:
            best = kept[match]
            if sol.residual_norm < 0.1 * best.residual_norm:
                kept[match] = sol
            elif best.residual_norm < 0.1 * sol.residual_norm:
                pass
            elif _magnitude(sol) < _magnitude(best) - 1e-12:
                kept[match] = sol
    return sorted(kept, key=_solution_key)


def _magnitude(sol: BetheSolution) -> float:
    return float(sum(abs(r) for r in sol.roots))


def _solution_key(sol: BetheSolution):
    if not sol.roots:
        return (0.0, 0.0, 0.0)
    z = sol.roots[0]
    return (abs(z), z.real, z.imag)


def _conjugate_closure(solutions, params: ModelParams, kind: str):
    """For real q and conjugation-stable weights, add missing conjugate lines."""
    if abs(complex(params.q).imag) > 1e-14:
        return solutions
    thetas = sorted(params.thetas, key=_root_key)
    conj_thetas = sorted((t.conjugate() for t in thetas), key=_root_key)
    if any(abs(a - b) > 1e-12 for a, b in zip(thetas, conj_thetas)):
        return solutions
    extra = []
    for sol in solutions:
        if not sol.roots:
            continue
        conj = tuple(r.conjugate() for r in sol.roots)
        cand = _make_solution(conj, params, kind, sector=sol.sector)
        if cand.residual_norm < 1e-9 and _passes_guards(
            cand.roots, params, kind
        ):
            extra.append(cand)
    return dedup_solutions(list(solutions) + extra, params)


# ---------------------------------------------------------------------------
# sector solvers


def solve_sector_open(
    params: ModelParams,
    n_roots: int,
    config: SearchConfig = None,
    check_spectrum: bool = True,
):
    """All Bethe solutions of the open chain with M = n_roots.

    Clearing the denominators of the Bethe equations introduces parasitic
    zeros where both cleared sides vanish through different factors (for
    instance u_k near 1/q together with u_i u_j near 1/q^2), so by default
    every candidate is kept only if its eigenvalue really occurs in the
    transfer-matrix spectrum.
    """
    config = config or SearchConfig()
    if n_roots == 0:
        return [BetheSolution(kind="open", roots=())]
    if 2 * n_roots > params.n_sites:
        raise DomainError(
            f"M = {n_roots} exceeds N/2 = {params.n_sites / 2} for the open chain"
        )
    seeds = _draw_seeds(params, n_roots, config, salt=0)
    if n_roots == 1:
        extra = _one_root_candidates(params, "open")
        if extra:
            seeds = np.vstack([np.array(extra, dtype=complex), seeds])
    raw = _newton_driver(newton_system(params, "open"), seeds, config)
    sols = []
    for roots in raw:
        if _passes_guards(roots, params, "open"):
            sol = _make_solution(roots, params, "open")
            if _passes_guards(sol.roots, params, "open"):
                sols.append(sol)
    sols = dedup_solutions(sols, params)
    sols = _conjugate_closure(sols, params, "open")
    if check_spectrum:
        sols = [s for s in sols if _spectrum_member(s, params)]
    return dedup_solutions(sols, params)


def _spectrum_member(sol: BetheSolution, params: ModelParams) -> bool:
    """Keep only candidate lines whose Lambda really is an eigenvalue."""
    try:
        (probe,), (lam,) = pole_free_lambda(
            (DEGENERACY_PROBE,), sol.roots, params, sol.kind, sol.twist
        )
    except DomainError:
        return False
    te = transfer_matrix(probe, params, sol.kind)
    nullity, _ = measure_degeneracy(te, lam)
    return nullity >= 1


def solve_sector_closed(
    params: ModelParams,
    n_roots: int,
    sector: int,
    config: SearchConfig = None,
    check_spectrum: bool = True,
):
    """All Bethe solutions of the closed chain with M = n_roots and label l.

    The two-site one-root system is degenerate (it is satisfied identically
    once the twist is substituted), so that sector is anchored instead on the
    eigenvalues of the traced leading monodromy, which fixes kappa and then
    the root.
    """
    config = config or SearchConfig()
    n = params.n_sites
    sector = sector % n
    if 2 * n_roots > n:
        raise DomainError(f"M = {n_roots} exceeds N/2 = {n / 2} for the closed chain")
    if n_roots == 0:
        twist = twist_from_roots((), sector, params)
        cands = [BetheSolution(kind="closed", roots=(), sector=sector, twist=twist)]
    elif n == 2 and n_roots == 1:
        cands = _anchored_two_site(params, sector)
    else:
        seeds = _draw_seeds(params, n_roots, config, salt=17 + sector)
        if n_roots == 1:
            extra = _one_root_candidates(params, "closed", sector)
            if extra:
                seeds = np.vstack([np.array(extra, dtype=complex), seeds])
        raw = _newton_driver(newton_system(params, "closed", sector), seeds, config)
        cands = []
        for roots in raw:
            if _passes_guards(roots, params, "closed"):
                sol = _make_solution(roots, params, "closed", sector=sector)
                if _passes_guards(sol.roots, params, "closed"):
                    cands.append(sol)
        cands = dedup_solutions(cands, params)
        cands = _conjugate_closure(cands, params, "closed")
    if check_spectrum:
        cands = [s for s in cands if _spectrum_member(s, params)]
    return dedup_solutions(cands, params)


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
    cands = []
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
            root = cmath.sqrt(u2)
            if not _passes_guards((root,), params, "closed"):
                continue
            sol = _make_solution((root,), params, "closed", sector=sector)
            if abs(sol.twist - kappa) > 1e-6 * (1.0 + abs(kappa)):
                continue
            cands.append(sol)
    return dedup_solutions(cands, params)


def solve_all_open(
    params: ModelParams, config: SearchConfig = None, check_spectrum: bool = True
):
    """Solutions for every open sector, as a dict M -> list of solutions."""
    return {
        m: solve_sector_open(params, m, config, check_spectrum=check_spectrum)
        for m in range(params.n_sites // 2 + 1)
    }


def solve_all_closed(
    params: ModelParams, config: SearchConfig = None, check_spectrum: bool = True
):
    """Solutions for every closed sector, as a dict (M, l) -> list."""
    out = {}
    for m in range(params.n_sites // 2 + 1):
        for l in range(params.n_sites):
            out[(m, l)] = solve_sector_closed(
                params, m, l, config, check_spectrum=check_spectrum
            )
    return out


def refine(roots, params: ModelParams, kind: str, sector=None,
           config: SearchConfig = None):
    """Polish a nearly-converged root tuple with the same damped Newton."""
    config = config or SearchConfig()
    seeds = np.array([list(roots)], dtype=complex)
    out = _newton_driver(newton_system(params, kind, sector), seeds, config)
    if not out:
        raise DomainError("refinement did not converge")
    return _make_solution(out[0], params, kind, sector=sector)
