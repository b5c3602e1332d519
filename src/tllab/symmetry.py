"""Quantum-algebra generators, invariance checks, and degeneracy measurement.

The conserved generators of the open chain are the auxiliary-space matrix
elements of the leading monodromy matrices T^± (every site carrying the
constant R^± matrix).  The module verifies their commutation with the
transfer matrix, the two exchange identities behind it, and measures
eigenvalue degeneracies by a rank-revealing factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import DomainError, ModelParams
from .operators import crossing_pair, partial_transpose, r_asymptotic
from .transfer import (
    TransferEval,
    _plain_sweep,
    _sweep_blocks,
    open_monodromy_apply,
    open_transfer_apply,
    transfer_matrix,
)
from .bethe import pole_free_lambda

__all__ = [
    "DEGENERACY_PROBE",
    "RANK_TOL",
    "SymmetryReport",
    "generator_blocks",
    "generator_apply",
    "check_symmetry",
    "measure_degeneracy",
    "line_degeneracy",
]

#: Spectral point at which a line's degeneracy is measured (nudged off
#: any pole of Lambda by ``bethe.pole_free_lambda``).
DEGENERACY_PROBE = 0.93 + 0.41j
#: QR pivots below RANK_TOL times the largest pivot count as zero.
RANK_TOL = 1e-8


@dataclass(frozen=True)
class SymmetryReport:
    """Largest relative residuals of the invariance identities."""

    commutator_residual: float
    exchange_residual: float
    inversion_residual: float
    details: dict


def generator_blocks(params: ModelParams, sign: str) -> np.ndarray:
    """Blocks T^±_{ij} of the leading monodromy, shape (d, d, D, D)."""
    d = params.site_dim
    tensors = [r_asymptotic(sign, params).reshape(d, d, d, d)] * params.n_sites
    return _sweep_blocks(tensors, d, hatted=False)


def generator_apply(params: ModelParams, sign: str, vec, absolute: bool = False) -> np.ndarray:
    """T^±_{ij} vec for every aux pair (i, j), shape (d, d, D), without the blocks.

    One single-row sweep of the constant R^± site tensors carries the aux
    input j as a batch axis.  With ``absolute`` the sweep runs on |R^±| and
    |vec|, which bounds |result| entrywise free of cancellation.
    """
    d = params.site_dim
    r = r_asymptotic(sign, params).reshape(d, d, d, d)
    vec = np.asarray(vec)
    if absolute:
        r, vec = np.abs(r), np.abs(vec)
    # x[j, i] = delta_ij vec: the sweep gives y[j, i] = T^±_{ij} vec
    x = np.einsum("ji,k->jik", np.eye(d), vec)
    return _plain_sweep([r] * params.n_sites, x).swapaxes(0, 1)


def _rel(delta: np.ndarray, scale: np.ndarray) -> float:
    return float(np.max(np.abs(delta)) / (1.0 + np.max(np.abs(scale))))


#: check_symmetry applies both sides of each commutator to this many random
#: columns, drawn from a generator seeded with _COLUMN_SEED.
_COLUMNS = 4
_COLUMN_SEED = 2016


def _exchange_residual(params: ModelParams, r_pm, blocks, u, y) -> float:
    """Relative residual of [R^±_12 T^±_1, T_2(u) T^_2(u)] on the columns
    ``y``, shape (C, d, d, D) over aux1 (x) aux2 (x) chain."""
    d = params.site_dim
    r4 = r_pm.reshape(d, d, d, d)

    def lhs(z):  # R^±_12 T^±_1
        return np.einsum("xyab,cabi->cxyi", r4, np.einsum("abij,cbxj->caxi", blocks, z))

    def double_row(z):  # T_2(u) T^_2(u), with the columns and aux1 as batch axes
        state = z.reshape(z.shape[:3] + (d,) * params.n_sites)
        return open_monodromy_apply(u, params, state).reshape(z.shape)

    left = lhs(double_row(y))
    return _rel(left - double_row(lhs(y)), left)


def check_symmetry(params: ModelParams, probes=(0.93 + 0.41j, 1.31 - 0.27j)):
    """Verify the generator commutation and its two supporting identities.

    Checks, for both signs:
      * [T^±_{ij}, t(u)] = 0 for all blocks, at each probe u;
      * [R^±_{12} T^±_1, T_2(u) T^_2(u)] = 0 on aux (x) aux (x) chain;
      * M_1^{-1} ((R^±)^{-1})^{t2} M_1 (R^±)^{t2} = Id.
    Both commutators are applied to random columns, t(u) and T_2(u) T^_2(u)
    by site sweeps, so no operator larger than a D x D generator block is
    formed.  Returns the largest relative residual of each family.
    """
    d = params.site_dim
    dim = d**params.n_sites
    _, m = crossing_pair(params)
    rng = np.random.default_rng(_COLUMN_SEED)

    def columns(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    x = columns(_COLUMNS, dim)  # chain vectors
    y = columns(_COLUMNS, d, d, dim)  # aux1 (x) aux2 (x) chain vectors
    details = {}
    comm_res = 0.0
    exch_res = 0.0
    inv_res = 0.0
    for sign in ("+", "-"):
        blocks = generator_blocks(params, sign)
        for u in probes:
            gtx = np.einsum("ijab,cb->ijca", blocks, open_transfer_apply(u, params, x))
            tgx = open_transfer_apply(u, params, np.einsum("ijab,cb->ijca", blocks, x))
            worst = max(
                _rel(gtx[i, j] - tgx[i, j], gtx[i, j]) for i in range(d) for j in range(d)
            )
            details[f"commutator {sign} u={u}"] = worst
            comm_res = max(comm_res, worst)

        r_pm = r_asymptotic(sign, params)
        u = probes[0]
        res = _exchange_residual(params, r_pm, blocks, u, y)
        details[f"exchange {sign} u={u}"] = res
        exch_res = max(exch_res, res)

        m1 = np.kron(m, np.eye(d, dtype=complex))
        pt_inv = partial_transpose(np.linalg.inv(r_pm), d, 2)
        pt_r = partial_transpose(r_pm, d, 2)
        ident = np.linalg.inv(m1) @ pt_inv @ m1 @ pt_r
        res = float(np.max(np.abs(ident - np.eye(d * d))))
        details[f"inversion {sign}"] = res
        inv_res = max(inv_res, res)
    return SymmetryReport(
        commutator_residual=comm_res,
        exchange_residual=exch_res,
        inversion_residual=inv_res,
        details=details,
    )


def measure_degeneracy(t_eval, lam):
    """Nullity of t(u0) - lambda Id via a column-pivoted QR factorization.

    Returns (nullity, ambiguous); ambiguous is set when some scaled pivot
    falls within a decade of the rank threshold RANK_TOL, meaning the count
    could move under a slightly different tolerance.
    """
    mat = t_eval.matrix if isinstance(t_eval, TransferEval) else np.asarray(t_eval)
    n = mat.shape[0]
    shifted = mat - complex(lam) * np.eye(n, dtype=complex)
    r = scipy.linalg.qr(shifted, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    ref = diag[0] if diag.size else 0.0
    if ref == 0.0:
        return n, False
    thresh = RANK_TOL * ref
    rank = int(np.sum(diag > thresh))
    ambiguous = bool(np.any((diag > 0.1 * thresh) & (diag < 10.0 * thresh)))
    return n - rank, ambiguous


def line_degeneracy(params: ModelParams, kind: str, roots, twist=None):
    """Measured degeneracy of the eigenvalue carried by a set of Bethe roots.

    This is the one place a line's degeneracy is measured: the sector
    solvers keep a candidate line iff its nullity here is at least 1.  The
    point DEGENERACY_PROBE is nudged deterministically off any pole of
    Lambda; DomainError is raised when no pole-free place is found.
    Returns (nullity, ambiguous).
    """
    p, lam, found = pole_free_lambda(
        (DEGENERACY_PROBE,), [roots], params, kind, None if twist is None else [twist]
    )
    if not found[0]:
        raise DomainError("no pole-free probe point found for Lambda")
    te = transfer_matrix(p[0, 0], params, kind)
    return measure_degeneracy(te, lam[0, 0])
