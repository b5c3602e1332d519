"""Dense matrix builders: local TL generator, R-matrix, crossing matrices.

Basis convention for one spin-s site (dimension d = 2s+1): basis index
``a`` (0-based) carries magnetization m = a - s, so index 0 is m = -s and
index d-1 is m = +s.  Chain states are ordered with site 1 slowest
(numpy kron order).
"""

from __future__ import annotations

import numpy as np

from .core import DomainError, ModelParams, omega

__all__ = [
    "permutation_matrix",
    "tl_generator",
    "embed_pair",
    "embed_two",
    "hamiltonian",
    "r_matrix",
    "crossing_pair",
    "r_asymptotic",
    "partial_transpose",
]


def permutation_matrix(d: int) -> np.ndarray:
    """The swap P on C^d (x) C^d: P (x (x) y) = y (x) x."""
    p = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            p[a * d + b, b * d + a] = 1.0
    return p


def _q_power(big_q: complex, doubled_exponent: int) -> complex:
    """Q**(doubled_exponent/2), using the principal branch for odd exponents."""
    if doubled_exponent % 2 == 0:
        return complex(big_q) ** (doubled_exponent // 2)
    return complex(big_q) ** (doubled_exponent / 2.0)


def tl_generator(params: ModelParams) -> np.ndarray:
    """The two-site TL generator X on C^d (x) C^d.

    <m1 m2|X|m1' m2'> = (-1)^(m1-m1') Q^(m1+m1') d(m1+m2,0) d(m1'+m2',0).

    Rank one; X^2 = c X with c the loop parameter; trace X = c.
    """
    d = params.site_dim
    s2 = params.twice_spin
    big_q = params.big_q
    x = np.zeros((d * d, d * d), dtype=complex)
    for a1 in range(d):
        row = a1 * d + (s2 - a1)  # partner index fixed by m1 + m2 = 0
        for b1 in range(d):
            col = b1 * d + (s2 - b1)
            x[row, col] = (-1.0) ** (a1 - b1) * big_q ** (a1 + b1 - s2)
    return x


def embed_two(op: np.ndarray, dims, a: int, b: int) -> np.ndarray:
    """Embed ``op`` acting on factors (a, b) of a tensor product with ``dims``.

    ``op`` is a (da*db) x (da*db) matrix in the basis where factor ``a`` is
    the slower index.  Identity on every other factor.
    """
    dims = list(dims)
    n = len(dims)
    da, db = dims[a], dims[b]
    rest = [k for k in range(n) if k != a and k != b]
    rest_dims = [dims[k] for k in rest]
    d_rest = int(np.prod(rest_dims)) if rest_dims else 1
    t = np.asarray(op, dtype=complex).reshape(da, db, da, db)
    big = np.einsum("ABab,RS->ABRabS", t, np.eye(d_rest, dtype=complex))
    big = big.reshape([da, db] + rest_dims + [da, db] + rest_dims)
    order = [a, b] + rest  # factor id living at each current axis slot
    perm = [order.index(p) for p in range(n)]
    big = big.transpose(perm + [n + p for p in perm])
    d_total = int(np.prod(dims))
    return big.reshape(d_total, d_total)


def embed_pair(op: np.ndarray, bond: int, n_sites: int, d: int) -> np.ndarray:
    """Embed a two-site operator on sites (bond, bond+1), bond counted from 1."""
    if not 1 <= bond <= n_sites - 1:
        raise DomainError(f"bond {bond} out of range for {n_sites} sites")
    return embed_two(op, [d] * n_sites, bond - 1, bond)


def hamiltonian(params: ModelParams) -> np.ndarray:
    """H = sum of the TL generator over nearest-neighbor bonds (open chain)."""
    if params.n_sites < 2:
        raise DomainError("hamiltonian needs at least 2 sites")
    d = params.site_dim
    x = tl_generator(params)
    h = np.zeros((d**params.n_sites,) * 2, dtype=complex)
    for bond in range(1, params.n_sites):
        h += embed_pair(x, bond, params.n_sites, d)
    return h


def r_matrix(u, params: ModelParams) -> np.ndarray:
    """R(u) = omega(u q) P + omega(u) P X on C^d (x) C^d.

    ``u`` is a point or an array of points; the result has shape
    u.shape + (d^2, d^2).  Regular point: R(1) = omega(q) P.  At u = 1/q it
    is a multiple of P X, of rank one.
    """
    u = np.asarray(u, dtype=complex)
    if (u == 0).any():
        raise DomainError("r_matrix undefined at u = 0")
    u = u[..., None, None]
    p = permutation_matrix(params.site_dim)
    return omega(u * params.q) * p + omega(u) * (p @ tl_generator(params))


def crossing_pair(params: ModelParams):
    """The crossing matrix V and the diagonal M = V^t V.

    V_{jk} = (-1)^j Q^(s+1-j) delta_{j+k, 2s+2} (1-based indices), so
    V^2 = (-1)^(2s) Id and M = diag(Q^{-2s}, Q^{-2s+2}, ..., Q^{2s}).
    """
    d = params.site_dim
    s2 = params.twice_spin
    big_q = params.big_q
    v = np.zeros((d, d), dtype=complex)
    for j in range(1, d + 1):
        k = s2 + 2 - j  # 1-based column from j + k = 2s + 2
        v[j - 1, k - 1] = (-1.0) ** j * _q_power(big_q, s2 + 2 - 2 * j)
    m = np.diag(np.array([big_q ** (2 * a - s2) for a in range(d)], dtype=complex))
    return v, m


def r_asymptotic(sign: str, params: ModelParams) -> np.ndarray:
    """The constant leading R-matrices: R+ = lim R(u)/u (u -> inf) = P (q + X),
    and R- = lim (-u) R(u) (u -> 0) = P (1/q + X).

    At s=1/2 the diagonal of c Id + X (c = q or 1/q) holds c + 1/Q and c + Q
    on |01> and |10>.  Their product c (Q + 1/Q + q + 1/q) vanishes by the
    quantum-dimension relation, so one of them is exactly zero, and that zero
    makes R^± triangular in the aux space.  Q carries roundoff, which would
    leave about 1e-16 there, so the smaller of the two is set to 0.
    """
    d = params.site_dim
    eye = np.eye(d * d)
    if sign in ("+", "plus", 1):
        shifted = params.q * eye + tl_generator(params)
    elif sign in ("-", "minus", -1):
        shifted = eye / params.q + tl_generator(params)
    else:
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    if params.twice_spin == 1:
        k = 1 if abs(shifted[1, 1]) <= abs(shifted[2, 2]) else 2
        shifted[k, k] = 0.0
    return permutation_matrix(d) @ shifted


def partial_transpose(op: np.ndarray, d: int, factor: int) -> np.ndarray:
    """Transpose one tensor factor of an operator on C^d (x) C^d."""
    t = np.asarray(op, dtype=complex).reshape(d, d, d, d)
    if factor == 1:
        t = t.transpose(2, 1, 0, 3)
    elif factor == 2:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise DomainError("factor must be 1 or 2")
    return t.reshape(d * d, d * d)
