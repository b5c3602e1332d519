"""Model parameters and the scalar functions everything else is built from.

The chain is a spin-s generalization of the Temperley-Lieb loop model.  Two
deformation parameters enter: ``q`` fixes the loop weight

    c = -(q + 1/q),

and the site-level parameter ``Q`` (``big_q``) is tied to it through the
quantum dimension of the spin-s site,

    sum_{k=-s}^{s} Q^{2k} = c.

Spins are carried everywhere as the integer ``twice_spin`` (= 2s) so that
half-integer values stay exact.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "DomainError",
    "SolverError",
    "ModelParams",
    "omega",
    "zeta",
    "loop_parameter",
    "solve_deformation",
    "deformation_residual",
    "pi_phase",
    "parse_spin",
    "format_spin",
    "functional_rhs",
    "scaled_residual",
]

#: |omega(x)| below this counts as "at a pole" for guarded evaluations.
POLE_TOL = 1e-8
#: ``solve_deformation`` drops companion-matrix roots with |Q| at most
#: ROOT_FLOOR, and fails when its pick misses the quantum-dimension relation
#: by more than SOLVE_TOL relative (``deformation_residual``).
ROOT_FLOOR = 1e-13
SOLVE_TOL = 1e-10
#: ``ModelParams`` rejects a big_q that misses the relation by more than
#: DEFORMATION_TOL relative, and site weights with a ratio th_i/th_j within
#: THETA_RATIO_SCREEN of q^k for k in {-2, -1, 1, 2}.
DEFORMATION_TOL = 1e-12
THETA_RATIO_SCREEN = 1e-9
#: ``parse_spin`` accepts a decimal spin within SPIN_PARSE_TOL of a half-integer.
SPIN_PARSE_TOL = 1e-12


class DomainError(ValueError):
    """Evaluation at (or too close to) a pole or otherwise invalid input."""


class SolverError(RuntimeError):
    """A numerical search failed to produce a usable result."""


def omega(u):
    """omega(u) = u - 1/u.  Odd, and omega(1/u) = -omega(u)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim == 0 and u == 0:
        raise DomainError("omega undefined at u = 0")
    out = u - 1.0 / u
    return out if out.ndim else complex(out)


def omega_prime(u):
    """Derivative of omega: 1 + 1/u^2."""
    u = np.asarray(u, dtype=complex)
    if u.ndim == 0 and u == 0:
        raise DomainError("omega derivative undefined at u = 0")
    out = 1.0 + 1.0 / (u * u)
    return out if out.ndim else complex(out)


def zeta(u, q):
    """Unitarity scalar of the R-matrix: zeta(u) = omega(u/q) * omega(1/(u q)).

    Satisfies R12(u) R21(1/u) = zeta(u) * Id and zeta(u) = zeta(1/u).
    """
    return omega(np.asarray(u, dtype=complex) / q) * omega(1.0 / (np.asarray(u, dtype=complex) * q))


def loop_parameter(q):
    """Loop weight c = -(q + 1/q).  Vanishes at q = +-i; diverges at q = 0."""
    if q == 0:
        raise DomainError("loop parameter undefined at q = 0")
    return -(q + 1.0 / q)


def pi_phase(x):
    """exp(i*pi*x), the principal value of (-1)**x for possibly half-integer x."""
    return cmath.exp(1j * cmath.pi * x)


def deformation_residual(big_q: complex, q: complex, twice_spin: int) -> float:
    """Relative residual of sum_{k=-s}^{s} Q^{2k} = -(q + 1/q)."""
    c = loop_parameter(q)
    ks = np.arange(-twice_spin, twice_spin + 1, 2)  # 2k for k = -s .. s
    total = np.sum(np.asarray(big_q, dtype=complex) ** ks)
    return abs(total - c) / (1.0 + abs(c))


def solve_deformation(q: complex, twice_spin: int, branch="largest") -> complex:
    """Solve sum_{k=-s}^{s} Q^{2k} = -(q + 1/q) for the site parameter Q.

    Clearing denominators gives the degree-4s polynomial
    sum_{j=0}^{2s} Q^{2j} - c Q^{2s} = 0, solved by its companion matrix.
    ``branch`` picks among the roots: "largest" / "smallest" select by modulus
    (ties broken by smallest principal argument), an integer indexes the roots
    sorted by (-|Q|, arg Q).
    """
    if twice_spin < 1:
        raise DomainError("twice_spin must be a positive integer")
    c = loop_parameter(q)
    # coefficients of Q^{4s}, Q^{4s-1}, ..., Q^0 for np.roots; the even powers
    # Q^{2j} carry 1, and the middle power Q^{2s} additionally carries -c
    coeffs = np.zeros(2 * twice_spin + 1, dtype=complex)
    coeffs[::2] = 1.0
    coeffs[twice_spin] -= c
    roots = np.roots(coeffs)
    roots = roots[np.abs(roots) > ROOT_FLOOR]
    order = sorted(range(len(roots)), key=lambda i: (-abs(roots[i]), np.angle(roots[i])))
    ordered = [complex(roots[i]) for i in order]
    if branch == "largest":
        pick = ordered[0]
    elif branch == "smallest":
        pick = ordered[-1]
    elif isinstance(branch, int):
        pick = ordered[branch]
    else:
        raise DomainError(f"unknown branch selector {branch!r}")
    if deformation_residual(pick, q, twice_spin) > SOLVE_TOL:
        raise SolverError("companion-matrix root fails the defining relation")
    return pick


def parse_spin(text) -> int:
    """Parse a spin given as "1/2", "0.5", "1", or "3/2" into twice_spin."""
    if isinstance(text, int):
        frac = Fraction(text)
    else:
        s = str(text).strip()
        try:
            frac = Fraction(s)
        except ValueError:
            frac = Fraction(str(float(s))).limit_denominator(2)
            if abs(float(frac) - float(s)) > SPIN_PARSE_TOL:
                raise DomainError(f"spin {text!r} is not an integer or half-integer")
    twice = frac * 2
    if twice.denominator != 1 or twice <= 0:
        raise DomainError(f"spin {text!r} is not a positive integer or half-integer")
    return int(twice)


def format_spin(twice_spin: int) -> str:
    """Inverse of parse_spin: 1 -> "1/2", 2 -> "1", 3 -> "3/2"."""
    if twice_spin % 2 == 0:
        return str(twice_spin // 2)
    return f"{twice_spin}/2"


@dataclass(frozen=True)
class ModelParams:
    """Immutable description of one chain: size, spin, couplings, impurities.

    ``thetas`` are the per-site inhomogeneities; the homogeneous chain has all
    of them equal to 1.  ``big_q`` must satisfy the quantum-dimension relation
    with ``q`` (checked at construction to DEFORMATION_TOL relative).
    """

    n_sites: int
    twice_spin: int
    q: complex
    big_q: complex
    thetas: tuple = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n_sites < 1:
            raise DomainError("n_sites must be >= 1")
        if self.twice_spin < 1:
            raise DomainError("twice_spin must be >= 1")
        if self.q == 0:
            raise DomainError("q must be nonzero")
        object.__setattr__(self, "q", complex(self.q))
        object.__setattr__(self, "big_q", complex(self.big_q))
        if self.thetas is None:
            object.__setattr__(self, "thetas", (1.0 + 0.0j,) * self.n_sites)
        else:
            ths = tuple(complex(t) for t in self.thetas)
            if len(ths) != self.n_sites:
                raise DomainError("need one theta per site")
            if any(t == 0 for t in ths):
                raise DomainError("thetas must be nonzero")
            for i in range(len(ths)):
                for j in range(len(ths)):
                    if i == j:
                        continue
                    r = ths[i] / ths[j]
                    for k in (-2, -1, 1, 2):
                        if abs(r - self.q**k) < THETA_RATIO_SCREEN:
                            raise DomainError(
                                f"theta ratio {i},{j} within {THETA_RATIO_SCREEN:g} of q^{k}; "
                                "functional-relation identities degenerate there"
                            )
            object.__setattr__(self, "thetas", ths)
        if deformation_residual(self.big_q, self.q, self.twice_spin) > DEFORMATION_TOL:
            raise DomainError(
                "big_q does not satisfy the quantum-dimension relation for this q, spin"
            )

    @classmethod
    def create(cls, n_sites, spin, q=0.5, big_q=None, thetas=None, branch="largest"):
        """Build params, parsing ``spin`` and solving for big_q if not given.

        A bare int is a spin (spin=1 means s=1); strings and floats may name
        half-integers ("1/2", "0.5", 1.5).
        """
        if isinstance(spin, bool):
            raise DomainError("spin must be a number or string")
        if isinstance(spin, int):
            if spin <= 0:
                raise DomainError("spin must be positive")
            twice = 2 * spin
        else:
            twice = parse_spin(spin)
        q = complex(q)
        if big_q is None:
            big_q = solve_deformation(q, twice, branch=branch)
        return cls(n_sites=n_sites, twice_spin=twice, q=q, big_q=big_q, thetas=thetas)

    @property
    def site_dim(self) -> int:
        return self.twice_spin + 1

    @property
    def spin_str(self) -> str:
        return format_spin(self.twice_spin)

    @property
    def coupling(self) -> complex:
        return loop_parameter(self.q)

    @property
    def homogeneous(self) -> bool:
        return all(t == self.thetas[0] for t in self.thetas)

    def site_weights(self) -> np.ndarray:
        """The magnetization values m = -s..s in site-basis order."""
        return (np.arange(self.site_dim) - self.twice_spin / 2.0)


# ---------------------------------------------------------------------------
# Fusion scalars
# ---------------------------------------------------------------------------

def functional_rhs(u, params: ModelParams, kind: str = "open"):
    """Scalar right-hand side F(u) of the transfer-matrix functional relation.

    open:    F(u) = - omega(u^2) omega(u^2 q^4) / (omega(u^2 q) omega(1/(u^2 q^3)))
                    * prod_i omega(u/th_i) omega(u q^2/th_i) omega(u th_i) omega(u q^2 th_i)
    closed:  F(u) = prod_i (-1)^{2s} omega(u/th_i) omega(u q^2/th_i)

    The transfer matrix satisfies t(th_i/q) t(th_i) = F(th_i/q) * Id.
    """
    u = complex(u)
    q = params.q
    if kind == "open":
        den1 = omega(u * u * q)
        den2 = omega(1.0 / (u * u * q**3))
        if abs(den1) < POLE_TOL or abs(den2) < POLE_TOL:
            raise DomainError(f"functional_rhs pole: omega(u^2 q) or omega(u^-2 q^-3) vanishes at u={u}")
        val = -omega(u * u) * omega(u * u * q**4) / (den1 * den2)
        for th in params.thetas:
            val *= omega(u / th) * omega(u * q * q / th) * omega(u * th) * omega(u * q * q * th)
        return val
    if kind == "closed":
        sign = 1.0 if params.twice_spin % 2 == 0 else -1.0
        val = 1.0 + 0.0j
        for th in params.thetas:
            val *= sign * omega(u / th) * omega(u * q * q / th)
        return val
    raise DomainError(f"unknown chain kind {kind!r}")


def scaled_residual(lhs, rhs) -> float:
    """max|lhs - rhs| scaled by 1/(1 + max norm of the operands)."""
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    diff = np.max(np.abs(lhs - rhs)) if lhs.size else 0.0
    scale = 1.0 + max(
        np.max(np.abs(lhs)) if lhs.size else 0.0,
        np.max(np.abs(rhs)) if rhs.size else 0.0,
    )
    return float(diff / scale)
