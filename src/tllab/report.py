"""Spectrum reports, reference-table reproduction, and serialization.

Builders run the solver, whose lines arrive with their measured
degeneracies, and package the results as plain records; renderers turn those
into aligned text, JSON payloads (schema tag ``tl-lab/1``), or CSV rows.
Complex numbers serialize as ``{"re": ..., "im": ...}`` and spins as strings
like ``"3/2"``.
"""

from __future__ import annotations

import cmath
import csv
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .core import ModelParams
from .bethe import energy as bethe_energy
from .bethe import shift_eigenvalue
from .solver import (
    RunConfig,
    chebyshev_dim,
    multiplicity,
    predicted_degeneracy,
    solve_all_closed,
    solve_all_open,
)
from .reference import SPIN_COLUMNS, TABLES

__all__ = [
    "SCHEMA",
    "RunConfig",
    "LineRecord",
    "SpectrumReport",
    "LineComparison",
    "TableReport",
    "complex_pair",
    "format_complex",
    "format_phase",
    "format_twist",
    "build_open_spectrum",
    "build_closed_spectrum",
    "build_table_report",
    "spectrum_payload",
    "table_payload",
    "verify_payload",
    "render_spectrum",
    "render_table",
    "render_verify",
    "spectrum_csv_rows",
    "table_csv_rows",
    "write_csv",
]

SCHEMA = "tl-lab/1"


@dataclass(frozen=True)
class LineRecord:
    """One spectral line as reported: roots plus everything measured."""

    kind: str
    m: int
    roots: tuple
    sector: int = None
    twist: complex = None
    shift: complex = None
    energy: complex = None
    residual: float = 0.0
    degeneracy: int = None
    predicted: int = None
    ambiguous: bool = False
    polished: bool = True


@dataclass(frozen=True)
class SpectrumReport:
    kind: str
    n_sites: int
    spin: str
    q: complex
    lines: tuple
    elapsed: float

    @property
    def dimension(self) -> int:
        params = ModelParams.create(self.n_sites, self.spin, q=self.q)
        return params.site_dim**self.n_sites

    @property
    def total_degeneracy(self) -> int:
        return sum(ln.degeneracy for ln in self.lines)


@dataclass(frozen=True)
class LineComparison:
    description: str
    computed: str
    expected: str
    ok: bool


@dataclass(frozen=True)
class TableReport:
    number: int
    kind: str
    n_sites: int
    rows: tuple
    comparisons: tuple
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.comparisons)


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

#: ``format_complex`` prints "0" for any |z| below ZERO_FLOOR.
ZERO_FLOOR = 1e-12


def format_complex(z, digits: int = 6) -> str:
    """Render a complex number, dropping components invisible at ``digits``."""
    z = complex(z)
    scale = abs(z)
    if scale < ZERO_FLOOR:
        return "0"
    chop = 10.0 ** (-digits) * scale
    re, im = z.real, z.imag
    if abs(im) < chop:
        return f"{re:.{digits}g}"
    if abs(re) < chop:
        return f"{im:.{digits}g}i"
    sign = "+" if im >= 0 else "-"
    return f"{re:.{digits}g}{sign}{abs(im):.{digits}g}i"


#: ``format_phase`` labels z only when |z| is within PHASE_TOL of 1 and z
#: within PHASE_TOL of exp(i pi p/r) for a fraction p/r with r <= 12.
PHASE_TOL = 1e-6


def format_phase(z):
    """Label a unit-modulus value with small rational phase, else None."""
    z = complex(z)
    if abs(abs(z) - 1.0) > PHASE_TOL:
        return None
    frac = Fraction(cmath.phase(z) / math.pi).limit_denominator(12)
    if abs(z - cmath.exp(1j * math.pi * float(frac))) > PHASE_TOL:
        return None
    if frac == 0:
        return "1"
    if abs(frac) == 1:
        return "-1"
    if frac == Fraction(1, 2):
        return "i"
    if frac == Fraction(-1, 2):
        return "-i"
    sign = "-" if frac < 0 else ""
    p, qq = abs(frac.numerator), frac.denominator
    if p == 1:
        return f"exp({sign}i*pi/{qq})"
    return f"exp({sign}i*pi*{p}/{qq})"


def format_twist(z) -> str:
    label = format_phase(z)
    return label if label is not None else format_complex(z)


def format_roots(roots) -> str:
    if not roots:
        return "-"
    return "; ".join(format_complex(r) for r in roots)


def complex_pair(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _maybe_pair(z):
    return None if z is None else complex_pair(z)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _spectrum_report(params: ModelParams, kind: str, lines, start) -> SpectrumReport:
    return SpectrumReport(
        kind=kind,
        n_sites=params.n_sites,
        spin=params.spin_str,
        q=params.q,
        lines=tuple(lines),
        elapsed=time.perf_counter() - start,
    )


def build_open_spectrum(params: ModelParams, config: RunConfig = None) -> SpectrumReport:
    """The open spectrum.  The open solve has no search, so ``config`` is
    only accepted for the builders' common signature."""
    start = time.perf_counter()
    lines = [
        LineRecord(
            kind="open",
            m=m,
            roots=sol.roots,
            energy=complex(bethe_energy(sol.roots, params)),
            residual=sol.residual_norm,
            degeneracy=sol.degeneracy,
            predicted=predicted_degeneracy(params, m),
            ambiguous=sol.ambiguous,
            polished=sol.polished,
        )
        for m, sols in sorted(solve_all_open(params).items())
        for sol in sols
    ]
    return _spectrum_report(params, "open", lines, start)


def build_closed_spectrum(params: ModelParams, config: RunConfig = None) -> SpectrumReport:
    config = config or RunConfig()
    start = time.perf_counter()
    lines = [
        LineRecord(
            kind="closed",
            m=m,
            roots=sol.roots,
            sector=sector,
            twist=sol.twist,
            shift=complex(shift_eigenvalue(sol, params)),
            residual=sol.residual_norm,
            degeneracy=sol.degeneracy,
            ambiguous=sol.ambiguous,
            polished=sol.polished,
        )
        for (m, sector), sols in sorted(solve_all_closed(params, config).items())
        for sol in sols
    ]
    return _spectrum_report(params, "closed", lines, start)


def _pair_roots(computed, printed):
    """Greedy one-to-one pairing of computed roots with printed ones."""
    pool = list(computed)
    pairs = []
    for ref in printed:
        if not pool:
            pairs.append((ref, None))
            continue
        best = min(pool, key=lambda z: ref.distance(z))
        pool.remove(best)
        pairs.append((ref, best))
    return pairs


def _match_line(records, line):
    """Closest record with the reference line's M (and sector if set)."""
    cands = [r for r in records if r.m == line.m]
    sector = getattr(line, "sector", None)
    if sector is not None:
        cands = [r for r in cands if r.sector == sector]
    if not cands:
        return None

    def distance(rec):
        if not line.roots:
            return 0.0
        return sum(ref.distance(z) for ref, z in _pair_roots(rec.roots, line.roots))

    return min(cands, key=distance)


def _printed_roots(line) -> str:
    return "; ".join(p.text for p in line.roots)


def _roots_comparison(desc: str, rec: LineRecord, line) -> LineComparison:
    """Do the record's roots pair up one to one with the printed ones?"""
    pairs = _pair_roots(rec.roots, line.roots)
    ok = all(z is not None and ref.matches(z) for ref, z in pairs)
    return LineComparison(desc + ": roots", format_roots(rec.roots), _printed_roots(line), ok)


def _spectra(handle, build, config: RunConfig) -> dict:
    """The table chain's spectrum at every tabulated spin."""
    return {
        spin: build(ModelParams.create(handle.n_sites, spin), config)
        for spin in SPIN_COLUMNS
    }


def _census_comparisons(reports: dict, used: dict) -> list:
    """Per spin: no computed line is left unmatched (``used`` holds the ids
    of the matched records), and the degeneracies fill the dimension."""
    out = []
    for spin, report in reports.items():
        extra = [rec for rec in report.lines if id(rec) not in used[spin]]
        total = report.total_degeneracy
        out += [
            LineComparison(
                f"no unlisted lines at s={spin}", f"{len(extra)} extra", "0 extra", not extra
            ),
            LineComparison(
                f"degeneracies at s={spin} sum to the full dimension",
                str(total),
                str(report.dimension),
                total == report.dimension,
            ),
        ]
    return out


def _table_report(handle, rows, comparisons, start: float) -> TableReport:
    return TableReport(
        number=handle.number,
        kind=handle.kind,
        n_sites=handle.n_sites,
        rows=tuple(tuple(r) for r in rows),
        comparisons=tuple(comparisons),
        elapsed=time.perf_counter() - start,
    )


def _open_table_report(handle, config: RunConfig) -> TableReport:
    start = time.perf_counter()
    reports = _spectra(handle, build_open_spectrum, config)
    comparisons = []
    rows = [["M", "roots"] + [f"deg s={s}" for s in SPIN_COLUMNS] + ["predicted"]]
    used = {spin: set() for spin in SPIN_COLUMNS}
    for line in handle.lines:
        base = _match_line(reports["1/2"].lines, line)
        desc = f"M={line.m} roots [{_printed_roots(line)}]"
        if base is None:
            comparisons.append(LineComparison(desc, "missing", "present", False))
            continue
        comparisons.append(_roots_comparison(desc, base, line))
        row = [str(line.m), format_roots(base.roots)]
        for spin in SPIN_COLUMNS:
            rec = _match_line(reports[spin].lines, line)
            deg = None if rec is None else rec.degeneracy
            if rec is not None:
                used[spin].add(id(rec))
            expected = line.degeneracy[spin]
            comparisons.append(
                LineComparison(
                    desc + f": degeneracy at s={spin}", str(deg), str(expected), deg == expected
                )
            )
            row.append(str(deg))
        row.append(str(base.predicted))
        pred_expected = line.degeneracy["1/2"]
        comparisons.append(
            LineComparison(
                desc + ": predicted degeneracy (s=1/2 column)",
                str(base.predicted),
                str(pred_expected),
                base.predicted == pred_expected,
            )
        )
        rows.append(row)
    comparisons += _census_comparisons(reports, used)
    return _table_report(handle, rows, comparisons, start)


def _sector_table_report(handle, config: RunConfig) -> TableReport:
    start = time.perf_counter()
    n = handle.n_sites
    rows = [["k", "multiplicity"] + [f"dim s={s}" for s in SPIN_COLUMNS]]
    comparisons = []
    for line in handle.lines:
        k = line.k
        mult = multiplicity(n, k)
        comparisons.append(
            LineComparison(
                f"k={k}: multiplicity",
                str(mult),
                str(line.multiplicity),
                mult == line.multiplicity,
            )
        )
        row = [str(k), str(mult)]
        for spin in SPIN_COLUMNS:
            params = ModelParams.create(n, spin)
            dim = int(round(chebyshev_dim(k, params.site_dim)))
            comparisons.append(
                LineComparison(
                    f"k={k}: dimension at s={spin}",
                    str(dim),
                    str(line.dims[spin]),
                    dim == line.dims[spin],
                )
            )
            row.append(str(dim))
        rows.append(row)
    for spin in SPIN_COLUMNS:
        params = ModelParams.create(n, spin)
        total = sum(
            multiplicity(n, line.k)
            * int(round(chebyshev_dim(line.k, params.site_dim)))
            for line in handle.lines
        )
        dim = params.site_dim**n
        comparisons.append(
            LineComparison(
                f"s={spin}: sectors fill the full dimension",
                str(total),
                str(dim),
                total == dim,
            )
        )
    return _table_report(handle, rows, comparisons, start)


def _closed_table_report(handle, config: RunConfig) -> TableReport:
    start = time.perf_counter()
    reports = _spectra(handle, build_closed_spectrum, config)
    rows = [["s", "M", "l", "roots", "twist", "deg"]]
    comparisons = []
    used = {spin: set() for spin in SPIN_COLUMNS}
    for line in handle.lines:
        desc = (
            f"s={line.spin} M={line.m} l={line.sector} "
            f"roots [{_printed_roots(line) or '-'}]"
        )
        rec = _match_line(reports[line.spin].lines, line)
        if rec is None:
            comparisons.append(LineComparison(desc, "missing", "present", False))
            continue
        used[line.spin].add(id(rec))
        if line.roots:
            comparisons.append(_roots_comparison(desc, rec, line))
        comparisons.append(
            LineComparison(
                desc + ": twist",
                format_twist(rec.twist),
                line.twist.text,
                line.twist.matches(rec.twist),
            )
        )
        comparisons.append(
            LineComparison(
                desc + ": degeneracy",
                str(rec.degeneracy),
                str(line.degeneracy),
                rec.degeneracy == line.degeneracy,
            )
        )
        rows.append(
            [
                line.spin,
                str(rec.m),
                str(rec.sector),
                format_roots(rec.roots),
                format_twist(rec.twist),
                str(rec.degeneracy),
            ]
        )
    comparisons += _census_comparisons(reports, used)
    return _table_report(handle, rows, comparisons, start)


def build_table_report(number: int, config: RunConfig = None) -> TableReport:
    config = config or RunConfig()
    handle = TABLES[number]
    if handle.kind == "open-spectrum":
        return _open_table_report(handle, config)
    if handle.kind == "sector-dims":
        return _sector_table_report(handle, config)
    return _closed_table_report(handle, config)


# ---------------------------------------------------------------------------
# Payloads
# ---------------------------------------------------------------------------

def _line_payload(rec: LineRecord) -> dict:
    return {
        "kind": rec.kind,
        "m": rec.m,
        "sector": rec.sector,
        "roots": [complex_pair(r) for r in rec.roots],
        "twist": _maybe_pair(rec.twist),
        "shift": _maybe_pair(rec.shift),
        "energy": _maybe_pair(rec.energy),
        "residual": rec.residual,
        "degeneracy": rec.degeneracy,
        "predicted": rec.predicted,
        "ambiguous": rec.ambiguous,
        "polished": rec.polished,
    }


def spectrum_payload(report: SpectrumReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "spectrum",
        "chain": report.kind,
        "n_sites": report.n_sites,
        "spin": report.spin,
        "q": complex_pair(report.q),
        "dimension": report.dimension,
        "total_degeneracy": report.total_degeneracy,
        "lines": [_line_payload(ln) for ln in report.lines],
        "elapsed_seconds": report.elapsed,
    }


def table_payload(report: TableReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "table",
        "number": report.number,
        "table_kind": report.kind,
        "n_sites": report.n_sites,
        "passed": report.passed,
        "rows": [list(r) for r in report.rows],
        "comparisons": [
            {
                "description": c.description,
                "computed": c.computed,
                "expected": c.expected,
                "ok": c.ok,
            }
            for c in report.comparisons
        ],
        "elapsed_seconds": report.elapsed,
    }


def verify_payload(results) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "verify",
        "passed": all(r.passed for r in results),
        "suites": [
            {
                "name": r.name,
                "passed": r.passed,
                "elapsed_seconds": r.elapsed,
                "checks": [
                    {
                        "label": c.label,
                        "residual": c.residual,
                        "tol": c.tol,
                        "passed": c.passed,
                    }
                    for c in r.checks
                ],
            }
            for r in results
        ],
    }


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def _render_grid(rows) -> str:
    widths = [
        max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))
    ]
    out = []
    for j, row in enumerate(rows):
        out.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
        if j == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def render_spectrum(report: SpectrumReport) -> str:
    head = (
        f"{report.kind} chain, N={report.n_sites}, s={report.spin}, "
        f"q={format_complex(report.q)}"
    )
    rows = [["M", "sector", "roots", "twist", "energy", "deg", "pred", "residual"]]
    for ln in report.lines:
        rows.append(
            [
                ln.m,
                "-" if ln.sector is None else ln.sector,
                format_roots(ln.roots),
                "-" if ln.twist is None else format_twist(ln.twist),
                "-" if ln.energy is None else format_complex(ln.energy),
                ("?" if ln.ambiguous else "") + str(ln.degeneracy),
                "-" if ln.predicted is None else ln.predicted,
                f"{ln.residual:.1e}",
            ]
        )
    tail = f"total degeneracy {report.total_degeneracy} / dimension {report.dimension}"
    return f"{head}\n{_render_grid(rows)}\n{tail}\n"


def render_table(report: TableReport) -> str:
    out = [f"table {report.number} ({report.kind}, N={report.n_sites})"]
    out.append(_render_grid(report.rows))
    out.append("")
    for c in report.comparisons:
        mark = "ok " if c.ok else "FAIL"
        out.append(f"  [{mark}] {c.description}: {c.computed} vs {c.expected}")
    out.append(
        f"table {report.number}: "
        + ("PASS" if report.passed else "FAIL")
        + f" ({report.elapsed:.1f}s)"
    )
    return "\n".join(out) + "\n"


def render_verify(results, verbose: bool = False) -> str:
    out = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        out.append(
            f"suite {r.name}: {mark} "
            f"({len(r.checks)} checks, {r.elapsed:.1f}s)"
        )
        for c in r.checks:
            if verbose or not c.passed:
                cmark = "ok " if c.passed else "FAIL"
                out.append(
                    f"  [{cmark}] {c.label}: residual {c.residual:.3e} "
                    f"(tol {c.tol:.0e})"
                )
    overall = all(r.passed for r in results)
    out.append("verification " + ("PASS" if overall else "FAIL"))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def spectrum_csv_rows(report: SpectrumReport):
    yield [
        "chain",
        "n_sites",
        "spin",
        "m",
        "sector",
        "roots",
        "twist",
        "energy",
        "degeneracy",
        "predicted",
        "residual",
    ]
    for ln in report.lines:
        yield [
            report.kind,
            report.n_sites,
            report.spin,
            ln.m,
            "" if ln.sector is None else ln.sector,
            format_roots(ln.roots),
            "" if ln.twist is None else format_complex(ln.twist),
            "" if ln.energy is None else format_complex(ln.energy),
            ln.degeneracy,
            "" if ln.predicted is None else ln.predicted,
            f"{ln.residual:.3e}",
        ]


def table_csv_rows(report: TableReport):
    yield ["table", "description", "computed", "expected", "ok"]
    for c in report.comparisons:
        yield [report.number, c.description, c.computed, c.expected, c.ok]


def write_csv(rows, stream) -> None:
    writer = csv.writer(stream)
    for row in rows:
        writer.writerow(row)
