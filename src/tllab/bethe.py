"""Bethe-ansatz eigenvalue, Bethe equations and their derivatives.

Roots always refer to the multiplicative spectral variable.  Open-chain
Q-functions are crossing symmetric, Q(u) = prod_k omega(u/u_k) omega(u q u_k),
while closed-chain ones are plain products Q(u) = prod_k omega(u/u_k).

Each formula is implemented once, as a kernel batched over candidate root
tuples and spectral points: the two sides of the Bethe equations with their
Jacobian (``bethe_sides``, ``newton_system``) and the eigenvalue Lambda with
its root gradient (``_lambda_terms``).  The scalar functions are thin
wrappers around them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    POLE_TOL,
    DomainError,
    ModelParams,
    omega,
    omega_prime,
    pi_phase,
)

__all__ = [
    "BetheSolution",
    "sector_phase",
    "bethe_sides",
    "newton_system",
    "eval_lambda",
    "bethe_residuals",
    "energy",
    "twist_from_roots",
    "shift_eigenvalue",
]


@dataclass(frozen=True)
class BetheSolution:
    """One solution of the Bethe equations.

    ``sector`` is the momentum label l of the closed chain (None when open);
    ``twist`` is the closed-chain twist kappa fixed by the roots and l.
    ``degeneracy`` and ``ambiguous`` are the line's measured nullity and its
    flag from ``symmetry.measure_degeneracy``, set on every solution a
    sector solver returns (None and False before the measurement).
    ``polished`` is False on an open line whose roots Newton did not
    converge on, so that they are its TQ zeros as fitted.
    """

    kind: str
    roots: tuple
    sector: int | None = None
    twist: complex | None = None
    residual_norm: float = 0.0
    degeneracy: int | None = None
    ambiguous: bool = False
    polished: bool = True

    @property
    def n_roots(self) -> int:
        return len(self.roots)


def _phi(x):
    """Logarithmic derivative omega'(x)/omega(x)."""
    return omega_prime(x) / omega(x)


def _one_tuple(roots):
    """One root tuple as a batch of shape (1, m)."""
    return np.asarray(roots, dtype=complex).reshape(1, -1)


def _check_kind(kind: str) -> None:
    if kind not in ("open", "closed"):
        raise DomainError(f"kind must be 'open' or 'closed', got {kind!r}")


def sector_phase(sector: int, params: ModelParams):
    """The root-free factor c_l = e^(2 pi i l/N) e^(-i pi s N) of the twist."""
    n = params.n_sites
    return np.exp(2j * np.pi * sector / n) * pi_phase(-params.twice_spin * n / 2.0)


def _twist(u, c_l, q):
    """kappa = c_l prod_k omega(u_k)/omega(q u_k) over the last axis of u."""
    return c_l * np.prod(omega(u) / omega(q * u), axis=-1)


# ---------------------------------------------------------------------------
# batched kernels


def _vacuum(p, params: ModelParams, kind: str, jac: bool = False):
    """Site-weight products at the points p (any shape):

      pa(p) = prod_i omega(p q/th_i) [omega(p q th_i)],
      pb(p) = prod_i omega(p/th_i)   [omega(p th_i)],

    the bracketed factors on the open chain only.  With ``jac`` also the
    derivatives in p of log pa and log pb (else None).
    """
    q = params.q
    th = np.asarray(params.thetas, dtype=complex)
    pt = p[..., None]
    fa = omega(pt * q / th)
    fb = omega(pt / th)
    if kind == "open":
        fa = fa * omega(pt * q * th)
        fb = fb * omega(pt * th)
    pa, pb = np.prod(fa, axis=-1), np.prod(fb, axis=-1)
    if not jac:
        return pa, pb, None, None
    da = _phi(pt * q / th) * (q / th)
    db = _phi(pt / th) / th
    if kind == "open":
        da = da + _phi(pt * q * th) * (q * th)
        db = db + _phi(pt * th) * th
    return pa, pb, np.sum(da, axis=-1), np.sum(db, axis=-1)


def _pairs(p, u, q, kind: str, jac: bool = False):
    """Pair factors of points p (..., P) with roots u (..., m), shape (..., P, m).

    With x = p/u_i and y = p u_i,

      ga = omega(x/q) [omega(y)],        prod_i ga = Q(p/q),
      gb = omega(x q) [omega(y q^2)],    prod_i gb = Q(p q),

    the bracketed factors on the open chain only.  With ``jac`` also
    (da, db, ea, eb): the derivatives of log ga and log gb in the root u_i
    (da, db) and in the point p (ea, eb); else None.
    """
    pk = p[..., :, None]
    ui = u[..., None, :]
    x = pk / ui
    y = pk * ui
    ga = omega(x / q)
    gb = omega(x * q)
    if kind == "open":
        ga = ga * omega(y)
        gb = gb * omega(y * q * q)
    if not jac:
        return ga, gb, None
    phi_a = _phi(x / q)
    phi_b = _phi(x * q)
    da = phi_a * (-pk / (q * ui * ui))
    db = phi_b * (-q * pk / (ui * ui))
    ea = phi_a / (q * ui)
    eb = phi_b * (q / ui)
    if kind == "open":
        phi_y = _phi(y)
        phi_yb = _phi(y * q * q)
        da = da + phi_y * pk
        db = db + phi_yb * (q * q * pk)
        ea = ea + phi_y * ui
        eb = eb + phi_yb * (q * q * ui)
    return ga, gb, (da, db, ea, eb)


def bethe_sides(u, params: ModelParams, kind: str, kappa=None, jac: bool = False):
    """Both sides of the cleared Bethe equations for a batch of root tuples.

    ``u`` has shape (b, m): b candidate tuples of m roots.  The closed chain
    needs the twists ``kappa``, shape (b,).

      open:   A_k = pa(u_k) prod_{j!=k} omega(u_k/(q u_j)) omega(u_k u_j)
              B_k = pb(u_k) prod_{j!=k} omega(u_k q/u_j) omega(u_k q^2 u_j)
      closed: A_k = kappa   pa(u_k) prod_{j!=k} omega(u_k/(q u_j))
              B_k = 1/kappa pb(u_k) prod_{j!=k} omega(u_k q/u_j)

    with pa(u) = prod_i omega(u q/th_i) [omega(u q th_i)] and
    pb(u) = prod_i omega(u/th_i) [omega(u th_i)], the bracketed factors on
    the open chain only.  Returns (A, B, J), each of shape (b, m) except
    J[:, k, i] = d(A_k - B_k)/du_i at fixed kappa; J is None without ``jac``.
    """
    m = u.shape[-1]
    idx = np.arange(m)
    with np.errstate(all="ignore"):
        pa, pb, da_t, db_t = _vacuum(u, params, kind, jac)
        ga, gb, d = _pairs(u, u, params.q, kind, jac)
        ga[..., idx, idx] = 1.0
        gb[..., idx, idx] = 1.0
        if kappa is not None:
            pa = kappa[:, None] * pa
        a = pa * np.prod(ga, axis=-1)
        b = pb * np.prod(gb, axis=-1)
        if kappa is not None:
            b = b / kappa[:, None]
        if not jac:
            return a, b, None
        da, db, ea, eb = d
        ea[..., idx, idx] = 0.0
        eb[..., idx, idx] = 0.0
        ja = a[..., None] * da
        jb = b[..., None] * db
        ja[..., idx, idx] = a * (da_t + np.sum(ea, axis=-1))
        jb[..., idx, idx] = b * (db_t + np.sum(eb, axis=-1))
        return a, b, ja - jb


def newton_system(params: ModelParams, kind: str, sector=None):
    """The Bethe equations as one batched function for Newton's method.

    Returns fun(u, jac=True) mapping root tuples u of shape (b, m) to
    (r, rs, J): the residuals A_k - B_k, the same scaled by
    1 + |A_k| + |B_k|, and the Jacobian dr_k/du_i (None without ``jac``).
    On the closed chain kappa = c_l prod_k omega(u_k)/omega(q u_k) follows
    the roots, and its derivative enters the Jacobian.
    """
    _check_kind(kind)
    q = params.q
    c_l = sector_phase(sector, params) if kind == "closed" else None

    def fun(u, jac=True):
        with np.errstate(all="ignore"):
            kappa = None if c_l is None else _twist(u, c_l, q)
            a, b, j = bethe_sides(u, params, kind, kappa, jac)
            r = a - b
            rs = r / (1.0 + np.abs(a) + np.abs(b))
            if j is not None and kappa is not None:
                dlog_kappa = _phi(u) - q * _phi(q * u)  # (b, m), in u_i
                j += a[:, :, None] * dlog_kappa[:, None, :]
                j += b[:, :, None] * dlog_kappa[:, None, :]
        return r, rs, j

    return fun


def _amplitudes(v, params: ModelParams, kind: str, twist=None):
    """Vacuum amplitudes a(v), d(v) at the points v, and the mask of the
    points off their poles."""
    _check_kind(kind)
    q = params.q
    pa, pb, _, _ = _vacuum(v, params, kind)
    if kind == "open":
        den = omega(v * v * q)
        ok = ~(np.abs(den) < POLE_TOL)
        return -(omega(v * v * q * q) / den) * pa, -(omega(v * v) / den) * pb, ok
    if twist is None:
        raise DomainError("closed-chain a/d need the twist kappa")
    sign = pi_phase(params.twice_spin * params.n_sites / 2.0)
    return twist * sign * pa, sign * pb / twist, np.ones(v.shape, dtype=bool)


def _lambda_terms(v, u, params: ModelParams, kind: str, twist=None,
                  grad: bool = False):
    """The terms a(v) Q(v/q)/Q(v) and d(v) Q(v q)/Q(v) of Lambda(v).

    Batched over root tuples: ``u`` has shape (b, m), the points ``v`` shape
    (b, P) (row i belongs to tuple i) and the closed-chain ``twist`` shape
    (b,).  Returns ((term_a, term_d), dlogs, ok), the terms and ``ok`` of
    shape (b, P): ``ok`` marks the points off the poles of Lambda, and with
    ``grad`` ``dlogs`` holds the derivatives of log term_a and log term_d
    in each root, shape (b, P, m), at fixed twist (else None).
    """
    q = params.q
    n = v.shape[-1]
    if twist is not None:
        twist = np.asarray(twist, dtype=complex)[:, None]
    with np.errstate(all="ignore"):
        a, d, ok = _amplitudes(v, params, kind, twist)
        # Q(v/q) = prod ga(v), Q(v q) = prod gb(v) and Q(v) = prod ga(v q)
        ga, gb, derivs = _pairs(np.concatenate([v, v * q], axis=-1), u, q, kind, grad)
        q_v = np.prod(ga[..., n:, :], axis=-1)
        ok = ok & ~(np.abs(q_v) < POLE_TOL)
        terms = (
            a * np.prod(ga[..., :n, :], axis=-1) / q_v,
            d * np.prod(gb[..., :n, :], axis=-1) / q_v,
        )
    if not grad:
        return terms, None, ok
    da, db = derivs[0], derivs[1]
    return terms, (da[..., :n, :] - da[..., n:, :], db[..., :n, :] - da[..., n:, :]), ok


# ---------------------------------------------------------------------------
# scalar API


def eval_lambda(u, roots, params: ModelParams, kind: str, twist=None):
    """The transfer-matrix eigenvalue Lambda(u) built from Bethe roots.

    Lambda(u) = a(u) Q(u/q)/Q(u) + d(u) Q(u q)/Q(u).
    """
    (term_a, term_d), _, ok = _lambda_terms(
        np.array([[complex(u)]]), _one_tuple(roots), params, kind,
        None if twist is None else [twist],
    )
    if not ok[0, 0]:
        raise DomainError(f"Lambda has a pole at u = {u}")
    return complex(term_a[0, 0] + term_d[0, 0])


def bethe_residuals(
    roots, params: ModelParams, kind: str, twist=None, scaled: bool = False
):
    """Cleared-denominator Bethe-equation residuals A_k - B_k, one per root.

    A_k and B_k are given in ``bethe_sides``; the closed chain needs the
    twist kappa.  With ``scaled`` each residual is divided by
    1 + |A_k| + |B_k|.
    """
    _check_kind(kind)
    kappa = None
    if kind == "closed":
        if twist is None:
            raise DomainError("closed-chain residuals need the twist kappa")
        kappa = np.array([complex(twist)])
    a, b, _ = bethe_sides(_one_tuple(roots), params, kind, kappa)
    res = a[0] - b[0]
    if scaled:
        res = res / (1.0 + np.abs(a[0]) + np.abs(b[0]))
    return res


def energy(roots, params: ModelParams):
    """Open-chain energy carried by a set of Bethe roots.

    E = (1/2) omega(q) sum_j [omega(u_j^2)/omega(u_j)^2
                              - omega(u_j^2 q^2)/omega(u_j q)^2].
    """
    q = params.q
    total = 0.0 + 0.0j
    for r in roots:
        r = complex(r)
        total += omega(r * r) / omega(r) ** 2 - omega(r * r * q * q) / omega(r * q) ** 2
    return 0.5 * omega(q) * total


def twist_from_roots(roots, sector: int, params: ModelParams):
    """Closed-chain twist kappa determined by the roots and momentum label.

    ``roots`` is one tuple (a complex result) or a (b, m) batch (shape (b,)).
    """
    u = np.asarray(roots, dtype=complex)
    kappa = _twist(u, sector_phase(sector, params), params.q)
    return kappa if u.ndim == 2 else complex(kappa)


def shift_eigenvalue(solution: BetheSolution, params: ModelParams):
    """Eigenvalue of the one-site shift operator on the solution's line."""
    if solution.kind != "closed":
        raise DomainError("the shift operator only exists on the closed chain")
    out = solution.twist * pi_phase(params.twice_spin * params.n_sites / 2.0)
    for r in solution.roots:
        out *= omega(params.q * r) / omega(r)
    return complex(out)
