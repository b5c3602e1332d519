"""Algebraic Bethe ansatz: states, off-shell action, and scalar products.

The double-row monodromy T(u) T^(u), viewed as a (2s+1) x (2s+1) matrix in
the auxiliary space, provides a single creation operator B(u) (its top-right
entry) and annihilation operator C(u) (bottom-left).  Bethe vectors are
B-strings on the reference state with every site in its first basis state.
Neither the monodromy nor B, C or t(u) is formed as a matrix: each acts on
a vector through the site sweep ``transfer.open_monodromy_apply``.
All formulas below require homogeneous site weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import POLE_TOL, DomainError, ModelParams, omega
from .transfer import open_monodromy_apply, open_transfer_apply
from .bethe import _lambda_terms, bethe_sides, lambda_partial
from .symmetry import generator_blocks

__all__ = [
    "BetheVector",
    "reference_state",
    "bethe_vector",
    "OffshellReport",
    "offshell_residual",
    "offshell_residuals",
    "HighestWeightReport",
    "check_highest_weight",
    "gaudin_matrix",
    "scalar_product",
    "norm_squared",
    "contract_scalar_product",
    "contract_norm_squared",
]


@dataclass(frozen=True)
class BetheVector:
    values: tuple
    vector: np.ndarray
    dual: bool
    vanished: bool


def reference_state(params: ModelParams) -> np.ndarray:
    vec = np.zeros(params.site_dim**params.n_sites, dtype=complex)
    vec[0] = 1.0
    return vec


def _b_string(values, params: ModelParams, dual: bool, absolute=False, vec=None):
    """B(v_1)...B(v_M) vec, or vec C(v_1)...C(v_M) when ``dual``, by sweeps.

    ``values`` has shape (..., M), any batch axes then the string; ``vec``
    has shape (..., D) and defaults to the reference state.  Returns every
    partial string, ``vec`` first: the suffixes B(v_k)...B(v_M) vec with k
    falling, or the prefixes vec C(v_1)...C(v_k) with k rising.
    """
    d, n = params.site_dim, params.n_sites
    values = np.asarray(values, dtype=complex)
    lead = values.shape[:-1]
    if vec is None:
        vec = reference_state(params).real if absolute else reference_state(params)
        vec = np.broadcast_to(vec, lead + vec.shape).copy()
    out = [vec]
    m = values.shape[-1]
    for k in range(m) if dual else reversed(range(m)):
        x = np.zeros(lead + (d, d**n), dtype=vec.dtype)
        x[..., d - 1, :] = vec
        x = x.reshape(lead + (d,) * (n + 1))
        x = open_monodromy_apply(values[..., k], params, x, dual, absolute)
        vec = x.reshape(lead + (d, -1))[..., 0, :]
        out.append(vec)
    return out


def bethe_vector(values, params: ModelParams, dual: bool = False) -> BetheVector:
    """B(u_1)...B(u_M)|0> or the dual <0|C(u_1)...C(u_M).

    ``vanished`` flags a string that is zero up to roundoff: its largest
    entry is at most 1e-12 times the largest entry of the same string swept
    with |R| on the reference state, which bounds every entry of the string
    without cancellation.
    """
    values = tuple(complex(v) for v in values)
    vanished, partial = _bethe_strings(np.array(values, dtype=complex), params, dual)
    return BetheVector(values=values, vector=partial[-1], dual=dual, vanished=bool(vanished))


def _bethe_strings(values, params: ModelParams, dual: bool):
    """The ``vanished`` flags and the partial strings of ``_b_string`` for
    strings ``values`` of shape (..., M); the flags have shape (...)."""
    if not params.homogeneous:
        raise DomainError("Bethe vectors are defined for homogeneous weights")
    partial = _b_string(values, params, dual)
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1], dtype=bool), partial
    bound = _b_string(values, params, dual, absolute=True)[-1]
    vanished = np.max(np.abs(partial[-1]), axis=-1) <= 1e-12 * np.max(bound, axis=-1)
    return vanished, partial


def _pole_guard(values, what: str) -> None:
    """DomainError naming the first row where some |value| < POLE_TOL."""
    hit = np.abs(values) < POLE_TOL
    if hit.any():
        row = int(np.argwhere(hit)[0][0])
        raise DomainError(f"offshell coefficient pole in row {row}: {what}")


def _offshell_coefficients(points, values, side_diff, params: ModelParams):
    """Weights lambda_k of the unwanted terms, where u replaces the k-th value.

    lambda_k = -omega(q) omega(u^2 q^2) omega(u_k^2)
               / [omega(u/u_k) omega(u u_k q) omega(u_k^2 q)]
               * (A_k - B_k) / prod_(j!=k) omega(u_k/u_j) omega(u_k u_j q),

    with A_k, B_k the two sides of the k-th open Bethe equation
    (``bethe.bethe_sides``, given as ``side_diff``).  Batched over rows: u
    has shape (b,), the values and the result shape (b, M).
    """
    q = params.q
    u = points[:, None]
    uk = values
    poles = (omega(u / uk), omega(u * uk * q), omega(uk * uk * q))
    for name, val in zip(("omega(u/u_k)", "omega(u u_k q)", "omega(u_k^2 q)"), poles):
        _pole_guard(val, f"{name} vanishes")
    pref = -(omega(q) * omega(u * u * q * q) * omega(uk * uk) / (poles[0] * poles[1] * poles[2]))
    # pair[:, k, j] = omega(u_k/u_j) omega(u_k u_j q), j != k
    pair = omega(uk[:, :, None] / uk[:, None, :]) * omega(uk[:, :, None] * uk[:, None, :] * q)
    off = ~np.eye(uk.shape[1], dtype=bool)
    _pole_guard(pair[:, off], "coincident values")
    return pref * side_diff / np.prod(np.where(off, pair, 1.0), axis=-1)


@dataclass(frozen=True)
class OffshellReport:
    """Off-shell check of one configuration, or of a batch of them: each
    field then holds an array over rows (``coefficients`` of shape (b, M))."""

    residual: float
    eigenvalue: complex
    coefficients: tuple
    vanished: bool


def offshell_residuals(points, values, params: ModelParams, dual: bool = False) -> OffshellReport:
    """Relative residuals of the off-shell transfer-matrix action, batched.

    Row i measures t(u_i)|v_i> - Lambda(u_i; v_i)|v_i>
    - sum_k lambda_k |v_i with v_ik -> u_i> against |t(u_i)|v_i>| (the
    row-vector version when ``dual``), for points u of shape (b,) and
    values v of shape (b, M).  Each replaced string continues a partial
    string of |v>: B(u) B(v_(k+1))...B(v_M)|0> is built on the main
    string's suffix, <0|C(v_1)...C(v_(k-1)) C(u) on its prefix.  A row at
    a pole of Lambda or of a weight lambda_k raises DomainError naming it.
    """
    u = np.asarray(points, dtype=complex)
    values = np.asarray(values, dtype=complex)
    vanished, partial = _bethe_strings(values, params, dual)
    state = partial[-1]
    lhs = open_transfer_apply(u, params, state, dual)
    (term_a, term_d), _, ok = _lambda_terms(u[:, None], values, params, "open")
    if not ok.all():
        row = int(np.argwhere(~ok)[0][0])
        raise DomainError(f"Lambda has a pole at u = {u[row]} (row {row})")
    lam = term_a[:, 0] + term_d[:, 0]
    a, b, _ = bethe_sides(values, params, "open")
    coeffs = _offshell_coefficients(u, values, a - b, params)
    rhs = lam[:, None] * state
    m = values.shape[1]
    for k in range(m):
        if dual:
            rest, start = np.concatenate([u[:, None], values[:, k + 1 :]], axis=1), partial[k]
        else:
            rest, start = np.concatenate([values[:, :k], u[:, None]], axis=1), partial[m - 1 - k]
        rhs = rhs + coeffs[:, k, None] * _b_string(rest, params, dual, vec=start)[-1]
    num = np.max(np.abs(lhs - rhs), axis=-1)
    den = 1.0 + np.max(np.abs(lhs), axis=-1)
    return OffshellReport(
        residual=num / den, eigenvalue=lam, coefficients=coeffs, vanished=vanished
    )


def offshell_residual(u, values, params: ModelParams, dual: bool = False) -> OffshellReport:
    """``offshell_residuals`` for one configuration: point u and values v."""
    values = tuple(complex(v) for v in values)
    rep = offshell_residuals([complex(u)], [values], params, dual)
    return OffshellReport(
        residual=float(rep.residual[0]),
        eigenvalue=complex(rep.eigenvalue[0]),
        coefficients=tuple(complex(c) for c in rep.coefficients[0]),
        vanished=bool(rep.vanished[0]),
    )


@dataclass(frozen=True)
class HighestWeightReport:
    annihilation_residual: float
    eigen_residual: float
    weights: tuple


def check_highest_weight(roots, params: ModelParams) -> HighestWeightReport:
    """On-shell states against the raising/weight structure of T^+.

    Lower-triangular blocks must annihilate the state; diagonal blocks must
    act as scalars h_i (measured by a Rayleigh quotient).
    """
    state = bethe_vector(roots, params).vector
    norm = float(np.max(np.abs(state)))
    if norm == 0.0:
        raise DomainError("Bethe vector vanished; no highest-weight check")
    blocks = generator_blocks(params, "+")
    d = params.site_dim
    ann = 0.0
    for i in range(d):
        for j in range(i):
            g = blocks[i, j]
            scale = norm * (1.0 + float(np.max(np.abs(g))))
            ann = max(ann, float(np.max(np.abs(g @ state))) / scale)
    weights = []
    eig = 0.0
    denom = complex(np.vdot(state, state))
    for i in range(d):
        g = blocks[i, i]
        h = complex(np.vdot(state, g @ state)) / denom
        weights.append(h)
        eig = max(
            eig,
            float(np.max(np.abs(g @ state - h * state)))
            / (norm * (1.0 + abs(h))),
        )
    return HighestWeightReport(
        annihilation_residual=ann, eigen_residual=eig, weights=tuple(weights)
    )


def gaudin_matrix(roots, params: ModelParams) -> np.ndarray:
    """The matrix G whose determinant gives the squared norm."""
    roots = tuple(complex(r) for r in roots)
    q = params.q
    n = params.n_sites
    m = len(roots)
    g = np.zeros((m, m), dtype=complex)
    for i in range(m):
        ui = roots[i]
        s_i = -2.0 * n * omega(q) / (omega(ui) * omega(ui * q))
        acc = 0.0 + 0.0j
        for k in range(m):
            if k == i:
                continue
            uk = roots[k]
            acc += 1.0 / (omega(ui / (q * uk)) * omega(ui * q / uk))
            acc += 1.0 / (omega(ui * uk) * omega(ui * uk * q * q))
        s_i += omega(q * q) * acc
        for j in range(m):
            uj = roots[j]
            pref = 1.0 + 0.0j
            for k in range(m):
                if k == i or k == j:
                    continue
                uk = roots[k]
                pref *= omega(uj / uk * q) * omega(uj * uk * q * q)
            pref /= omega(uj / (ui * q)) * omega(ui * uj)
            if i == j:
                bracket = (
                    omega(q)
                    * omega(ui * ui)
                    / (omega(q * q) * omega(ui * ui * q) ** 2)
                ) * s_i
            else:
                bracket = 1.0 + 0.0j
            g[i, j] = pref * bracket
    return g


def scalar_product(on_roots, off_values, params: ModelParams) -> complex:
    """Determinant formula for <on-shell roots | off-shell values>.

    <u|v> = (1/(2 Q^(2s)))^M
            prod_i omega(u_i)^(2N) u_i omega(u_i^2)
                   / (omega(u_i^2 q) omega(v_i^2 q^2))
            prod_(j<i) omega(u_i u_j q^2)/omega(u_i u_j)
            Det[d Lambda(v_j; u)/d u_i] / Det[1/(omega(v_i/u_j) omega(v_i u_j q))].
    """
    u = tuple(complex(r) for r in on_roots)
    v = tuple(complex(r) for r in off_values)
    if len(u) != len(v):
        raise DomainError("scalar product needs equally many roots and values")
    m = len(u)
    q = params.q
    two_n = 2 * params.n_sites
    pref = (0.5 / params.big_q**params.twice_spin) ** m
    for i in range(m):
        pref *= (
            omega(u[i]) ** two_n
            * u[i]
            * omega(u[i] * u[i])
            / (omega(u[i] * u[i] * q) * omega(v[i] * v[i] * q * q))
        )
        for j in range(i):
            pref *= omega(u[i] * u[j] * q * q) / omega(u[i] * u[j])
    if m == 0:
        return complex(pref)
    slavnov = np.zeros((m, m), dtype=complex)
    for j in range(m):
        slavnov[:, j] = lambda_partial(v[j], u, params, kind="open")
    cauchy = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            cauchy[i, j] = 1.0 / (omega(v[i] / u[j]) * omega(v[i] * u[j] * q))
    return complex(pref * np.linalg.det(slavnov) / np.linalg.det(cauchy))


def norm_squared(roots, params: ModelParams) -> complex:
    """Determinant formula for <u|u> (bilinear pairing, not a modulus).

    <u|u> = (omega(q) omega(-q^2)/Q^(2s))^M
            prod_i omega(u_i)^(4N) omega(u_i^2)^2
            prod_(j<i) omega(u_i u_j q^2)
                       / (omega(u_j/u_i) omega(u_i/u_j)
                          omega(u_i u_j) omega(u_i u_j q)^2)
            Det(G).
    """
    u = tuple(complex(r) for r in roots)
    m = len(u)
    q = params.q
    pref = (omega(q) * omega(-q * q) / params.big_q**params.twice_spin) ** m
    for i in range(m):
        pref *= omega(u[i]) ** (4 * params.n_sites) * omega(u[i] * u[i]) ** 2
        for j in range(i):
            pref *= omega(u[i] * u[j] * q * q) / (
                omega(u[j] / u[i])
                * omega(u[i] / u[j])
                * omega(u[i] * u[j])
                * omega(u[i] * u[j] * q) ** 2
            )
    if m == 0:
        return complex(pref)
    return complex(pref * np.linalg.det(gaudin_matrix(u, params)))


def contract_scalar_product(on_roots, off_values, params: ModelParams) -> complex:
    """Direct contraction <0| prod C(u_i) prod B(v_j) |0> (oracle)."""
    bra = bethe_vector(on_roots, params, dual=True).vector
    ket = bethe_vector(off_values, params, dual=False).vector
    return complex(bra @ ket)


def contract_norm_squared(roots, params: ModelParams) -> complex:
    return contract_scalar_product(roots, roots, params)
