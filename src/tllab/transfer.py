"""Monodromy and transfer matrices for open and closed chains.

Transfer matrices are dense d^N x d^N matrices, assembled by sweeping the
auxiliary space along the chain (matrix-product style), so the result is
built without ever forming operators on the (d * d^N)-dimensional
aux (x) chain space.  The double-row monodromy T(u) T^(u) is never formed:
``open_monodromy_apply`` sweeps the site R tensors through a vector instead,
which gives B(u), C(u) and t(u) acting on states at O(N D d^3) for D = d^N.

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
    "open_monodromy_apply",
    "open_transfer_apply",
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


@lru_cache(maxsize=16)
def _r_tensor(arg: complex, params: ModelParams) -> np.ndarray:
    """R(arg) as a read-only (d, d, d, d) tensor, one ``r_matrix`` call per
    argument while cached: the two chains of a homogeneous chain share it,
    and so do the B-strings of one off-shell check, built on shared points."""
    tensor = r_matrix(arg, params).reshape((params.site_dim,) * 4)
    tensor.setflags(write=False)
    return tensor


def _site_tensors(u, params: ModelParams, *hatted: bool):
    """Per-site R tensors for the monodromy sweeps, one list per flag in ``hatted``.

    Plain sites carry R(u/theta_j) acting on (aux, site_j); hatted sites
    carry R(u theta_j) acting on (site_j, aux).  A scalar ``u`` gives
    (d, d, d, d) tensors; an array of points gives u.shape + (d, d, d, d),
    all from one ``r_matrix`` call.
    """
    if np.ndim(u) == 0:
        u = complex(u)
        return [[_r_tensor(u * th if h else u / th, params) for th in params.thetas]
                for h in hatted]
    u = np.asarray(u, dtype=complex)
    args = [[u * th if h else u / th for th in params.thetas] for h in hatted]
    d = params.site_dim
    r = r_matrix(args, params).reshape(np.shape(args) + (d,) * 4)
    return [list(row) for row in r]


def _site_axes(t, *perm):
    """Permute the last four (site tensor) axes of ``t``; batch axes stay."""
    lead = t.ndim - 4
    return t.transpose(*range(lead), *(lead + p for p in perm))


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
    (tensors,) = _site_tensors(complex(u), params, hatted)
    return _sweep_blocks(tensors, params.site_dim, hatted)


def monodromy_dense(u, params: ModelParams, hatted: bool = False) -> np.ndarray:
    """The monodromy as a dense matrix on aux (x) chain (aux slowest)."""
    blocks = aux_blocks(u, params, hatted)
    d = params.site_dim
    dim = d**params.n_sites
    return blocks.transpose(0, 2, 1, 3).reshape(d * dim, d * dim)


def _open_transfer_matrix(u: complex, params: ModelParams) -> np.ndarray:
    """Fused double-row sweep for t(u) = tr_aux M T(u) T^(u)."""
    d = params.site_dim
    plain, hat = _site_tensors(u, params, False, True)
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


def open_monodromy_apply(u, params: ModelParams, state, dual=False, absolute=False):
    """Apply the double-row monodromy T(u) T^(u) to ``state`` without forming it.

    ``state`` has shape (..., d, d, ..., d): optional batch axes, the aux
    index, then one index per site.  ``u`` is one point or an array of
    points that broadcasts against the batch axes, one point per row.  The
    ket form returns [T T^] state, the hatted chain swept site N -> 1 and
    then the plain chain site 1 -> N; the dual form returns the row vector
    state [T T^].  B(u) maps aux d-1 to 0 (ket), C(u) aux d-1 to 0 (dual).
    With ``absolute`` the sweep runs on |R| and |state|, which bounds
    |result| entrywise free of cancellation.
    """
    plain, hat = _site_tensors(u, params, False, True)
    hat = [_site_axes(t, 1, 0, 3, 2) for t in hat]  # to [a_out, s_out, a_in, s_in]
    back, front = (plain, hat) if dual else (hat, plain)
    if dual:
        back, front = ([_site_axes(t, 2, 3, 0, 1) for t in ts] for ts in (back, front))
    d, n = params.site_dim, params.n_sites
    x = np.abs(state) if absolute else np.asarray(state)
    lead = x.shape[: x.ndim - n - 1]
    x = x.reshape(lead + (d, d**n)).swapaxes(-2, -1)
    # Sites N -> 1 with the chain axes rotating: the site to contract sits
    # just before the aux axis, and its output moves to the front.  Each
    # kernel has shape u.shape + (d^2, d^2), so @ broadcasts it over the rows.
    for t in reversed(back):
        t = np.abs(t) if absolute else t
        k = _site_axes(t, 3, 2, 1, 0).reshape(t.shape[:-4] + (d * d, d * d))
        x = (x.reshape(lead + (-1, d * d)) @ k).reshape(lead + (-1, d, d)).swapaxes(-3, -2)
    x = x.reshape(lead + (-1, d)).swapaxes(-2, -1)
    x = _plain_sweep([np.abs(t) for t in front] if absolute else front, x)
    return x.reshape(lead + (d,) * (n + 1))


def _plain_sweep(tensors, x) -> np.ndarray:
    """Apply the single-row product R_N ... R_1 (site 1 first) to ``x``.

    ``x`` has shape (..., d, D): optional batch axes, the aux index, then
    the chain index with site 1 slowest.  Each site tensor is indexed
    [a_out, s_out, a_in, s_in], with optional leading axes that broadcast
    against the batch axes.  Returns the same shape as ``x``.
    """
    d = x.shape[-2]
    lead = x.shape[:-2]
    # Sites 1 -> N: the site to contract follows the aux axis, output to the end.
    for t in tensors:
        k = t.reshape(t.shape[:-4] + (d * d, d * d))
        x = (k @ x.reshape(lead + (d * d, -1))).reshape(lead + (d, d, -1)).swapaxes(-2, -1)
    return x.reshape(lead + (d, -1))


def open_transfer_apply(u, params: ModelParams, vec, dual=False) -> np.ndarray:
    """t(u) vec, or the row vector vec t(u) when ``dual``, without forming t(u).

    ``vec`` has shape (..., D): any batch axes, then the chain vectors, and
    the result has the same shape.  ``u`` is one point or an array of points
    that broadcasts against the batch axes, one point per vector.  One sweep
    covers the whole batch and the diagonal aux entries, which are weighted
    by diag(M).
    """
    d = params.site_dim
    vec = np.asarray(vec)
    lead = vec.shape[:-1]
    x = np.einsum("ij,...k->...ijk", np.eye(d), vec)
    # the row index j of the aux identity is one more batch axis
    u = np.asarray(u)[..., None] if np.ndim(u) else u
    y = open_monodromy_apply(u, params, x.reshape(lead + (d,) * (params.n_sites + 2)), dual)
    m_diag = np.diag(crossing_pair(params)[1])
    return np.einsum("j,...jjk->...k", m_diag, y.reshape(lead + (d, d, -1)))


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


def transfer_matrix(u, params: ModelParams, kind: str) -> TransferEval:
    """The dense transfer matrix t(u): the double-row one of the open chain,
    or tr_aux T(u) of the closed chain (memoized per point)."""
    u = complex(u)
    return TransferEval(params, u, kind, _transfer_cached(params, u, kind))


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


#: ``random_thetas`` redraws while a ratio th_i/th_j is within THETA_DRAW_SCREEN
#: of q^k, k in {-2, ..., 2}.
THETA_DRAW_SCREEN = 1e-6


def random_thetas(
    n_sites: int,
    rng: np.random.Generator,
    q: complex,
    modulus_range=(0.8, 1.25),
    max_tries: int = 200,
) -> tuple:
    """Draw generic inhomogeneity weights.

    Moduli are log-uniform in ``modulus_range`` and phases uniform.  Draws
    are rejected while any pairwise ratio theta_i/theta_j sits within
    THETA_DRAW_SCREEN of q^k for k in {-2,...,2} (k = 0 enforces
    distinctness), which keeps every R-matrix argument and fusion point away
    from poles and zeros.
    """
    lo, hi = np.log(modulus_range[0]), np.log(modulus_range[1])
    powers = [complex(q) ** k for k in (-2, -1, 0, 1, 2)]
    for _ in range(max_tries):
        mods = np.exp(rng.uniform(lo, hi, size=n_sites))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_sites)
        thetas = mods * np.exp(1j * phases)
        ratios = (thetas[:, None] / thetas[None, :])[~np.eye(n_sites, dtype=bool)]
        if np.all(np.abs(ratios[:, None] - np.array(powers)) >= THETA_DRAW_SCREEN):
            return tuple(complex(t) for t in thetas)
    raise RuntimeError("could not draw generic inhomogeneity weights")
