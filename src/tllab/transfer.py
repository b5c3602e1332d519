"""Monodromy and transfer matrices for open and closed chains.

Everything here is dense linear algebra on the 2^N..d^N dimensional chain
space, but the transfer matrices are assembled by sweeping the auxiliary
space along the chain (matrix-product style), so the d^N x d^N result is
built without ever forming operators on the (d * d^N)-dimensional
aux (x) chain space.

Index conventions for the auxiliary sweeps: monodromy blocks are stored as
``blocks[a, b, i, j]`` = chain-space matrix element (i, j) of the aux-space
(a, b) block, with chain states ordered site 1 slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DomainError, ModelParams, omega
from .operators import crossing_pair, r_matrix

__all__ = [
    "TransferEval",
    "aux_blocks",
    "monodromy_dense",
    "open_transfer",
    "closed_transfer",
    "transfer_matrix",
    "hamiltonian_from_transfer",
    "random_thetas",
]


@dataclass(frozen=True)
class TransferEval:
    """A transfer matrix evaluated at one spectral point."""

    params: ModelParams
    u: complex
    kind: str  # "open" or "closed"
    matrix: np.ndarray


def _site_tensors(u, params: ModelParams, hatted: bool):
    """Per-site R tensors for the monodromy sweeps.

    Plain sites carry R(u/theta_j) acting on (aux, site_j); hatted sites
    carry R(u theta_j) acting on (site_j, aux).
    """
    d = params.site_dim
    tensors = []
    for theta in params.thetas:
        arg = u * theta if hatted else u / theta
        tensors.append(r_matrix(arg, params).reshape(d, d, d, d))
    return tensors


def _sweep_blocks(tensors, d: int, hatted: bool) -> np.ndarray:
    """Run the auxiliary-space sweep and return monodromy blocks.

    For the plain monodromy T = R_N ... R_1 (auxiliary-space product,
    site 1 rightmost) each tensor is indexed [a_out, s', a_in, s]; for the
    hatted one T^ = R^_1 ... R^_N each is [s', b_in, s, b_out].  Chain-space
    axes always grow in site order 1..N.
    """
    c = np.eye(d, dtype=complex).reshape(d, d, 1, 1)
    dim = 1
    for t in tensors:
        if hatted:
            c = np.tensordot(c, t, axes=([1], [1]))
            # axes: x, P, Q, s', s, b_out -> x, b_out, P s', Q s
            c = c.transpose(0, 5, 1, 3, 2, 4)
        else:
            c = np.tensordot(t, c, axes=([2], [0]))
            # axes: a_out, s', s, z, P, Q -> a_out, z, P s', Q s
            c = c.transpose(0, 3, 4, 1, 5, 2)
        dim *= d
        c = np.ascontiguousarray(c).reshape(d, d, dim, dim)
    return c


def aux_blocks(u, params: ModelParams, hatted: bool = False) -> np.ndarray:
    """Monodromy blocks T(u) (or the reflected T^(u)) as a (d,d,D,D) array."""
    return _sweep_blocks(
        _site_tensors(complex(u), params, hatted), params.site_dim, hatted
    )


def monodromy_dense(u, params: ModelParams, hatted: bool = False) -> np.ndarray:
    """The monodromy as a dense matrix on aux (x) chain (aux slowest)."""
    blocks = aux_blocks(u, params, hatted)
    d = params.site_dim
    dim = d**params.n_sites
    return blocks.transpose(0, 2, 1, 3).reshape(d * dim, d * dim)


def _open_transfer_matrix(u: complex, params: ModelParams) -> np.ndarray:
    """Fused double-row sweep for t(u) = tr_aux M T(u) T^(u)."""
    d = params.site_dim
    plain = _site_tensors(u, params, hatted=False)
    hat = _site_tensors(u, params, hatted=True)
    _, m = crossing_pair(params)
    m_diag = np.diag(m)

    c = np.eye(d, dtype=complex).reshape(d, d, 1, 1)
    dim = 1
    for rt, rh in zip(plain, hat):
        # W[a, b, A, B, s', s] couples the two auxiliary chains at one site:
        # a, b incoming aux indices, A, B outgoing, s'/s chain row/col.
        w = np.einsum("AtaT,TbsB->abABts", rt, rh)
        c = np.tensordot(c, w, axes=([0, 1], [0, 1]))
        # axes: P, Q, A, B, s', s -> A, B, P s', Q s
        c = c.transpose(2, 3, 0, 4, 1, 5)
        dim *= d
        c = np.ascontiguousarray(c).reshape(d, d, dim, dim)
    return np.einsum("x,xxPQ->PQ", m_diag, c)


def _closed_transfer_matrix(u: complex, params: ModelParams) -> np.ndarray:
    blocks = aux_blocks(u, params, hatted=False)
    return np.trace(blocks, axis1=0, axis2=1)


@lru_cache(maxsize=16)
def _transfer_cached(params: ModelParams, u: complex, kind: str) -> np.ndarray:
    if kind == "open":
        mat = _open_transfer_matrix(u, params)
    elif kind == "closed":
        mat = _closed_transfer_matrix(u, params)
    else:
        raise DomainError(f"kind must be 'open' or 'closed', got {kind!r}")
    mat.setflags(write=False)
    return mat


def open_transfer(u, params: ModelParams) -> TransferEval:
    """The open-chain (double-row) transfer matrix t(u)."""
    u = complex(u)
    return TransferEval(params, u, "open", _transfer_cached(params, u, "open"))


def closed_transfer(u, params: ModelParams) -> TransferEval:
    """The closed-chain transfer matrix t(u) = tr_aux T(u)."""
    u = complex(u)
    return TransferEval(params, u, "closed", _transfer_cached(params, u, "closed"))


def transfer_matrix(u, params: ModelParams, kind: str) -> TransferEval:
    if kind == "open":
        return open_transfer(u, params)
    if kind == "closed":
        return closed_transfer(u, params)
    raise DomainError(f"kind must be 'open' or 'closed', got {kind!r}")


def hamiltonian_from_transfer(params: ModelParams, step: float = 1e-6) -> np.ndarray:
    """Reconstruct H from the logarithmic derivative of the open transfer matrix.

    H = alpha t'(1) + beta Id with
    alpha = -1 / (4 omega(q^2) omega(q)^(2N-2)),
    beta = omega(q)/omega(q^2) - (N/2) omega(q^2)/omega(q).
    t'(1) uses central differences with one step of Richardson extrapolation.
    """
    if not params.homogeneous:
        raise DomainError("transfer-derivative Hamiltonian needs homogeneous weights")
    q = params.q
    n = params.n_sites

    def central(h: float) -> np.ndarray:
        up = _transfer_cached(params, complex(1.0 + h), "open")
        dn = _transfer_cached(params, complex(1.0 - h), "open")
        return (up - dn) / (2.0 * h)

    deriv = (4.0 * central(step / 2.0) - central(step)) / 3.0
    alpha = -1.0 / (4.0 * omega(q * q) * omega(q) ** (2 * n - 2))
    beta = omega(q) / omega(q * q) - 0.5 * n * omega(q * q) / omega(q)
    dim = params.site_dim**n
    return alpha * deriv + beta * np.eye(dim, dtype=complex)


def random_thetas(
    n_sites: int,
    rng: np.random.Generator,
    q: complex,
    modulus_range=(0.8, 1.25),
    max_tries: int = 200,
) -> tuple:
    """Draw generic inhomogeneity weights.

    Moduli are log-uniform in ``modulus_range`` and phases uniform.  Draws
    are rejected while any pairwise ratio theta_i/theta_j sits within 1e-6
    of q^k for k in {-2,...,2} (k = 0 enforces distinctness), which keeps
    every R-matrix argument and fusion point away from poles and zeros.
    """
    lo, hi = np.log(modulus_range[0]), np.log(modulus_range[1])
    powers = [complex(q) ** k for k in (-2, -1, 0, 1, 2)]
    for _ in range(max_tries):
        mods = np.exp(rng.uniform(lo, hi, size=n_sites))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_sites)
        thetas = mods * np.exp(1j * phases)
        ok = True
        for i in range(n_sites):
            for j in range(n_sites):
                if i == j:
                    continue
                ratio = thetas[i] / thetas[j]
                if any(abs(ratio - p) < 1e-6 for p in powers):
                    ok = False
        if ok:
            return tuple(complex(t) for t in thetas)
    raise RuntimeError("could not draw generic inhomogeneity weights")
