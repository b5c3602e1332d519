"""Curated reference spectra for small chains.

These tables are the regression baselines the command line tool reproduces:
open-boundary Bethe roots with their measured degeneracies (two to four
sites), the dimension census of the commutant sectors, and the closed-chain
roots with their twists.  Values derived from closed forms are stored at
full precision; values only known as printed decimals carry a tolerance of
0.6 units in the last printed place.
"""

from __future__ import annotations

import math
import cmath
import re
from dataclasses import dataclass, field

__all__ = [
    "Printed",
    "printed",
    "exact",
    "OpenLine",
    "SectorDims",
    "ClosedLine",
    "TableHandle",
    "SPIN_COLUMNS",
    "TABLES",
    "open_table",
    "closed_table",
]

SPIN_COLUMNS = ("1/2", "1", "3/2")

_NUM = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)$")
#: Smallest tolerance of a printed component; a component printed without
#: decimals is taken as exact and carries this floor alone.
PRINTED_TOL_FLOOR = 1e-9
#: Default tolerance of a closed-form value: half a unit in the sixth
#: significant digit, the precision at which the tables display their columns.
DISPLAY_TOL = 5e-6


def _part(text: str):
    if not _NUM.match(text):
        raise ValueError(f"not a printed decimal: {text!r}")
    if "." in text:
        decimals = len(text.split(".", 1)[1])
        tol = 0.6 * 10.0 ** (-decimals)
    else:
        tol = PRINTED_TOL_FLOOR
    return float(text), tol


@dataclass(frozen=True)
class Printed:
    """A published value with a componentwise matching tolerance."""

    text: str
    value: complex
    tol_re: float
    tol_im: float

    def matches(self, z) -> bool:
        z = complex(z)
        return (
            abs(z.real - self.value.real) <= self.tol_re
            and abs(z.imag - self.value.imag) <= self.tol_im
        )

    def distance(self, z) -> float:
        return abs(complex(z) - self.value)


def printed(re_text: str, im_text: str = "0") -> Printed:
    """Reference value transcribed from its printed decimal digits.

    A component written without decimals (usually an implied zero next to
    a six-digit partner) is only pinned down to the precision at which the
    other component is displayed, so it inherits that tolerance.
    """
    re_val, tol_re = _part(re_text)
    im_val, tol_im = _part(im_text)
    if "." not in re_text and "." in im_text:
        tol_re = tol_im
    if "." not in im_text and "." in re_text:
        tol_im = tol_re
    if im_val == 0.0:
        text = re_text
    elif re_val == 0.0:
        text = f"{im_text}i"
    else:
        sign = "+" if not im_text.startswith("-") else ""
        text = f"{re_text}{sign}{im_text}i"
    return Printed(
        text=text,
        value=complex(re_val, im_val),
        tol_re=max(tol_re, PRINTED_TOL_FLOOR),
        tol_im=max(tol_im, PRINTED_TOL_FLOOR),
    )


def exact(value, label: str, tol: float = DISPLAY_TOL) -> Printed:
    """Reference value known in closed form, matched at display precision
    (DISPLAY_TOL by default)."""
    return Printed(text=label, value=complex(value), tol_re=tol, tol_im=tol)


@dataclass(frozen=True)
class OpenLine:
    """One open-chain spectral line: roots plus degeneracy per spin."""

    m: int
    roots: tuple
    degeneracy: dict


@dataclass(frozen=True)
class SectorDims:
    """One commutant sector: label k, multiplicity, irrep dimension."""

    k: int
    multiplicity: int
    dims: dict


@dataclass(frozen=True)
class ClosedLine:
    """One closed-chain spectral line at fixed spin and momentum sector."""

    spin: str
    m: int
    sector: int
    roots: tuple
    twist: Printed
    degeneracy: int


@dataclass(frozen=True)
class TableHandle:
    number: int
    kind: str
    n_sites: int
    lines: tuple = field(repr=False)


_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)
_SQ5 = math.sqrt(5.0)

_OPEN_TABLES = {
    2: (
        OpenLine(0, (), {"1/2": 3, "1": 8, "3/2": 15}),
        OpenLine(
            1, (printed("1.34164", "0.447214"),), {"1/2": 1, "1": 1, "3/2": 1}
        ),
    ),
    3: (
        OpenLine(0, (), {"1/2": 4, "1": 21, "3/2": 56}),
        OpenLine(
            1, (printed("1.22474", "0.707107"),), {"1/2": 2, "1": 3, "3/2": 4}
        ),
        OpenLine(
            1, (printed("1.38873", "0.267261"),), {"1/2": 2, "1": 3, "3/2": 4}
        ),
    ),
    4: (
        OpenLine(0, (), {"1/2": 5, "1": 55, "3/2": 209}),
        OpenLine(
            1, (printed("1.10176", "0.886631"),), {"1/2": 3, "1": 8, "3/2": 15}
        ),
        OpenLine(
            1, (printed("1.34164", "0.447214"),), {"1/2": 3, "1": 8, "3/2": 15}
        ),
        OpenLine(
            1, (printed("1.40092", "0.193427"),), {"1/2": 3, "1": 8, "3/2": 15}
        ),
        OpenLine(
            2,
            (printed("1.81555", "-0.854196"), printed("1.81555", "0.854196")),
            {"1/2": 1, "1": 1, "3/2": 1},
        ),
        OpenLine(
            2,
            (printed("1.28401", "0.592723"), printed("1.3969", "0.220635")),
            {"1/2": 1, "1": 1, "3/2": 1},
        ),
    ),
}

_SECTOR_TABLES = {
    2: (
        SectorDims(0, 1, {"1/2": 1, "1": 1, "3/2": 1}),
        SectorDims(2, 1, {"1/2": 3, "1": 8, "3/2": 15}),
    ),
    3: (
        SectorDims(1, 2, {"1/2": 2, "1": 3, "3/2": 4}),
        SectorDims(3, 1, {"1/2": 4, "1": 21, "3/2": 56}),
    ),
    4: (
        SectorDims(0, 2, {"1/2": 1, "1": 1, "3/2": 1}),
        SectorDims(2, 3, {"1/2": 3, "1": 8, "3/2": 15}),
        SectorDims(4, 1, {"1/2": 5, "1": 55, "3/2": 209}),
    ),
}

# Closed-form root values appearing in the closed-chain tables.
_U_PLUS = complex(_SQ2 * cmath.exp(1j * math.pi / 6))
_U_MINUS = complex(_SQ2 * cmath.exp(-1j * math.pi / 6))
_U_14P = complex(3.0 * _SQ3 + 1.0j) / math.sqrt(14.0)
_U_14M = complex(3.0 * _SQ3 - 1.0j) / math.sqrt(14.0)

_CLOSED_TABLES = {
    2: (
        ClosedLine("1/2", 0, 0, (), exact(-1.0, "-1"), 2),
        ClosedLine(
            "1/2", 1, 1, (printed("0", "1.41421"),), exact(1.0, "1"), 1
        ),
        ClosedLine("1/2", 1, 0, (printed("1.41421"),), exact(1.0, "1"), 1),
        ClosedLine("1", 0, 0, (), exact(1.0, "1"), 5),
        ClosedLine("1", 0, 1, (), exact(-1.0, "-1"), 2),
        ClosedLine(
            "1",
            1,
            0,
            (printed("0.540182"),),
            exact((3.0 - _SQ5) / 2.0, "(3-sqrt(5))/2"),
            1,
        ),
        ClosedLine(
            "1",
            1,
            1,
            (printed("1.21699"),),
            exact((3.0 - _SQ5) / 2.0, "(3-sqrt(5))/2"),
            1,
        ),
        ClosedLine("3/2", 0, 0, (), exact(-1.0, "-1"), 9),
        ClosedLine("3/2", 0, 1, (), exact(1.0, "1"), 5),
        ClosedLine(
            "3/2", 1, 1, (printed("0.732051"),), exact(2.0 - _SQ3, "2-sqrt(3)"), 1
        ),
        ClosedLine(
            "3/2", 1, 0, (printed("1.1638"),), exact(2.0 - _SQ3, "2-sqrt(3)"), 1
        ),
    ),
    3: (
        ClosedLine("1/2", 0, 0, (), exact(1.0j, "i"), 2),
        ClosedLine(
            "1/2",
            1,
            2,
            (exact(_U_PLUS, "sqrt(2)*exp(i*pi/6)"),),
            exact(-1.0j, "-i"),
            2,
        ),
        ClosedLine(
            "1/2",
            1,
            1,
            (exact(_U_MINUS, "sqrt(2)*exp(-i*pi/6)"),),
            exact(-1.0j, "-i"),
            2,
        ),
        ClosedLine(
            "1/2", 1, 0, (exact(_SQ2, "sqrt(2)"),), exact(-1.0j, "-i"), 2
        ),
        ClosedLine("1", 0, 0, (), exact(-1.0, "-1"), 8),
        ClosedLine(
            "1",
            0,
            2,
            (),
            exact(cmath.exp(1j * math.pi / 3), "exp(i*pi/3)"),
            5,
        ),
        ClosedLine(
            "1",
            0,
            1,
            (),
            exact(cmath.exp(-1j * math.pi / 3), "exp(-i*pi/3)"),
            5,
        ),
        ClosedLine(
            "1", 1, 0, (exact(1j * _SQ2, "i*sqrt(2)"),), exact(-1.0, "-1"), 3
        ),
        ClosedLine(
            "1",
            1,
            1,
            (exact(_U_14P, "(3*sqrt(3)+i)/sqrt(14)"),),
            exact(-1.0, "-1"),
            3,
        ),
        ClosedLine(
            "1",
            1,
            2,
            (exact(_U_14M, "(3*sqrt(3)-i)/sqrt(14)"),),
            exact(-1.0, "-1"),
            3,
        ),
        ClosedLine("3/2", 0, 0, (), exact(-1.0j, "-i"), 20),
        ClosedLine(
            "3/2",
            0,
            2,
            (),
            exact(1j * cmath.exp(1j * math.pi / 3), "i*exp(i*pi/3)"),
            16,
        ),
        ClosedLine(
            "3/2",
            0,
            1,
            (),
            exact(1j * cmath.exp(-1j * math.pi / 3), "i*exp(-i*pi/3)"),
            16,
        ),
        ClosedLine(
            "3/2",
            1,
            1,
            (exact(_U_MINUS, "sqrt(2)*exp(-i*pi/6)"),),
            exact(1.0j, "i"),
            4,
        ),
        ClosedLine(
            "3/2",
            1,
            2,
            (exact(_U_PLUS, "sqrt(2)*exp(i*pi/6)"),),
            exact(1.0j, "i"),
            4,
        ),
        ClosedLine(
            "3/2", 1, 0, (exact(_SQ2, "sqrt(2)"),), exact(1.0j, "i"), 4
        ),
    ),
}

TABLES = {
    1: TableHandle(1, "open-spectrum", 2, _OPEN_TABLES[2]),
    2: TableHandle(2, "open-spectrum", 3, _OPEN_TABLES[3]),
    3: TableHandle(3, "open-spectrum", 4, _OPEN_TABLES[4]),
    4: TableHandle(4, "sector-dims", 2, _SECTOR_TABLES[2]),
    5: TableHandle(5, "sector-dims", 3, _SECTOR_TABLES[3]),
    6: TableHandle(6, "sector-dims", 4, _SECTOR_TABLES[4]),
    7: TableHandle(7, "closed-spectrum", 2, _CLOSED_TABLES[2]),
    8: TableHandle(8, "closed-spectrum", 3, _CLOSED_TABLES[3]),
}


def open_table(n_sites: int):
    return _OPEN_TABLES[n_sites]


def closed_table(n_sites: int):
    return _CLOSED_TABLES[n_sites]
