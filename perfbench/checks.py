"""Correctness checks of tllab command outputs, kept apart from the solver.

Each checker takes the JSON payload a command printed and returns a list of
problems; an empty list means the output is correct.  Spectra are checked
against properties the method must have, never against stored output:

* Lambda(u0) of every line, evaluated here from the printed roots, is an
  eigenvalue of the dense t(u0) whose multiplicity is the line's measured
  degeneracy, and no line repeats another;
* the degeneracies fill the Hilbert space, sum = (2s+1)^N;
* open chains only: the line count per M is C(N, M) - C(N, M-1), each line's
  degeneracy is p_(N-2M)(2s+1), and every line's energy is an eigenvalue of
  the Hamiltonian built from the TL generators (not from the transfer
  matrix).

Spectrum problems carry a symptom, so that a known fault of the solver can
be told apart from any other error: MISSING (lines absent from a spectrum
that is otherwise right), REPEATED (a line listed more than once) or OTHER.
Table reproductions are checked against the paper's printed tables, and
identity suites by every residual against its stated tolerance.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

#: Spectral point of the spectrum check; away from the program's own probes.
CHECK_PROBE = 1.17 + 0.29j
#: Relative distance at which Lambda(u0) and an eigenvalue count as equal.
SPECTRUM_TOL = 1e-8
#: Relative distance at which an energy counts as a Hamiltonian eigenvalue.
ENERGY_TOL = 1e-8
#: Symptoms of a spectrum problem.
MISSING = "missing lines"
REPEATED = "repeated line"
OTHER = "wrong output"
#: |Q(u0)| below this puts u0 on a pole of Lambda; the probe is then moved.
POLE_TOL = 1e-8


def site_dim(spin: str) -> int:
    return int(2 * Fraction(spin)) + 1


def omega(u: complex) -> complex:
    return u - 1.0 / u


def _complex(pair) -> complex:
    return complex(pair["re"], pair["im"])


def lambda_from_roots(u, roots, q, n_sites, spin, kind, twist=None) -> complex:
    """Lambda(u) = a(u) Q(u/q)/Q(u) + d(u) Q(uq)/Q(u), homogeneous chain."""
    if kind == "open":
        def big_q(x):
            return math.prod((omega(x / r) * omega(x * q * r) for r in roots), start=1.0 + 0j)

        den = omega(u * u * q)
        a = -omega(u * u * q * q) / den * (omega(u * q) ** 2) ** n_sites
        d = -omega(u * u) / den * (omega(u) ** 2) ** n_sites
    else:
        def big_q(x):
            return math.prod((omega(x / r) for r in roots), start=1.0 + 0j)

        sign = cmath.exp(1j * math.pi * (site_dim(spin) - 1) / 2.0)
        a = twist * (sign * omega(u * q)) ** n_sites
        d = (sign * omega(u)) ** n_sites / twist
    qu = big_q(u)
    if abs(qu) < POLE_TOL:
        raise ZeroDivisionError("Q(u) vanishes at the probe")
    return a * big_q(u / q) / qu + d * big_q(u * q) / qu


def lines_per_sector(n_sites: int, m: int) -> int:
    """Open-chain census: number of lines with M roots."""
    return math.comb(n_sites, m) - (math.comb(n_sites, m - 1) if m else 0)


def chebyshev_dim(k: int, x: int) -> int:
    """p_0 = 1, p_1 = x, p_(k+1) = x p_k - p_(k-1)."""
    prev, cur = 1, x
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, x * cur - prev
    return cur


def open_degeneracy(n_sites: int, m: int, spin: str) -> int:
    """Degeneracy of an open-chain line with M roots: p_(N-2M)(2s+1)."""
    return chebyshev_dim(n_sites - 2 * m, site_dim(spin))


def _lambda_values(payload):
    """(u0, Lambda(u0) of every line), u0 moved off the poles of Lambda."""
    n, spin, kind = payload["n_sites"], payload["spin"], payload["chain"]
    q = _complex(payload["q"])
    probe = CHECK_PROBE
    for _ in range(60):
        try:
            return probe, [
                lambda_from_roots(
                    probe, [_complex(r) for r in ln["roots"]], q, n, spin, kind,
                    None if ln["twist"] is None else _complex(ln["twist"]),
                )
                for ln in payload["lines"]
            ]
        except ZeroDivisionError:
            probe *= 1.0003
    return probe, None


def check_spectrum(payload, transfer_eigs, hamiltonian_eigs=None):
    """Problems of one `tllab solve` payload, as (symptom, message) pairs.

    ``transfer_eigs(u0)`` returns the eigenvalues of the dense t(u0);
    ``hamiltonian_eigs`` is the spectrum of H (open chains).  A line whose
    M, sector, twist and Lambda(u0) equal an earlier line's is REPEATED and
    left out of the other checks.  States absent from an otherwise correct
    spectrum (total below the dimension, open census short) are MISSING.
    Anything else is OTHER, including a line whose Lambda(u0) is not an
    eigenvalue of t(u0) with multiplicity equal to its degeneracy.
    """
    n, spin, kind = payload["n_sites"], payload["spin"], payload["chain"]
    dim = site_dim(spin) ** n
    lines = payload["lines"]
    degs = [ln["degeneracy"] for ln in lines]
    if any(not isinstance(g, int) or g < 1 for g in degs):
        return [(OTHER, f"unmeasured or empty degeneracy in {degs}")]
    probe, values = _lambda_values(payload)
    if values is None:
        return [(OTHER, "no pole-free probe for Lambda")]
    eigs = np.asarray(transfer_eigs(probe), dtype=complex)
    tol = SPECTRUM_TOL * (1.0 + np.abs(eigs).max())

    def same_line(a, b):
        la, lb = lines[a], lines[b]
        twists = [None if ln["twist"] is None else _complex(ln["twist"]) for ln in (la, lb)]
        return (
            (la["m"], la.get("sector")) == (lb["m"], lb.get("sector"))
            and (twists[0] is None) == (twists[1] is None)
            and (twists[0] is None or abs(twists[0] - twists[1]) <= SPECTRUM_TOL)
            and abs(values[a] - values[b]) <= tol
        )

    problems = []
    distinct = []
    for i, (ln, value) in enumerate(zip(lines, values)):
        twin = next((j for j in distinct if same_line(j, i)), None)
        if twin is not None:
            symptom = REPEATED if degs[i] == degs[twin] else OTHER
            problems.append((symptom, f"M={ln['m']}: line {i} repeats line {twin}"))
            continue
        distinct.append(i)
        mult = int(np.count_nonzero(np.abs(eigs - value) <= tol))
        if mult != degs[i]:
            problems.append((
                OTHER,
                f"M={ln['m']}: Lambda(u0) = {value:.6g} has multiplicity {mult}"
                f" in eig t(u0), degeneracy {degs[i]}",
            ))
    total = sum(degs[i] for i in distinct)
    if total != dim:
        symptom = MISSING if total < dim else OTHER
        problems.append((symptom, f"total degeneracy {total} != dimension {dim}"))

    if kind == "open":
        for m in range(n // 2 + 1):
            found = sum(1 for i in distinct if lines[i]["m"] == m)
            want = lines_per_sector(n, m)
            if found != want:
                symptom = MISSING if found < want else OTHER
                problems.append((symptom, f"M={m}: {found} lines, census predicts {want}"))
        h_eigs = np.asarray(hamiltonian_eigs)
        scale = 1.0 + np.abs(h_eigs).max()
        for ln in lines:
            want = open_degeneracy(n, ln["m"], spin)
            if ln["degeneracy"] != want:
                problems.append((OTHER, f"M={ln['m']}: degeneracy {ln['degeneracy']}, formula {want}"))
            e = _complex(ln["energy"])
            miss = float(np.abs(h_eigs - e).min()) / scale
            if not miss <= ENERGY_TOL:
                problems.append((OTHER, f"M={ln['m']}: energy {e:.6g} is {miss:.3g} off spec H"))
    return problems


def check_table(payload, handle):
    """Problems of one `tllab reproduce --table k` payload against the
    printed table ``handle`` (a tllab.reference.TableHandle)."""
    problems = [
        f"comparison failed: {c['description']}"
        for c in payload["comparisons"]
        if not c["ok"]
    ]
    if payload["number"] != handle.number:
        problems.append(f"table {payload['number']} returned for {handle.number}")
    n = handle.n_sites
    spins = ("1/2", "1", "3/2")
    body = payload["rows"][1:]
    if len(body) != len(handle.lines):
        return problems + [f"{len(body)} rows for {len(handle.lines)} printed lines"]
    totals = dict.fromkeys(spins, 0)
    if handle.kind == "open-spectrum":
        want = 5 * len(handle.lines) + 2 * len(spins)
        for row, line in zip(body, handle.lines):
            degs = dict(zip(spins, row[2:5]))
            for s in spins:
                if degs[s] != str(line.degeneracy[s]):
                    problems.append(f"M={line.m}, s={s}: degeneracy {degs[s]}")
                if degs[s].isdigit():
                    totals[s] += int(degs[s])
            if row[5] != str(chebyshev_dim(n - 2 * line.m, 2)):
                problems.append(f"M={line.m}: predicted degeneracy {row[5]}")
    elif handle.kind == "sector-dims":
        want = 4 * len(handle.lines) + len(spins)
        for row, line in zip(body, handle.lines):
            mult = lines_per_sector(n, (n - line.k) // 2)
            if row[1] != str(mult) or mult != line.multiplicity:
                problems.append(f"k={line.k}: multiplicity {row[1]}")
            for s, cell in zip(spins, row[2:5]):
                if cell != str(line.dims[s]):
                    problems.append(f"k={line.k}, s={s}: dimension {cell}")
                if cell.isdigit():
                    totals[s] += mult * int(cell)
    else:
        want = sum(2 + bool(line.roots) for line in handle.lines) + 2 * len(spins)
        for row, line in zip(body, handle.lines):
            if row[0] != line.spin or row[5] != str(line.degeneracy):
                problems.append(f"s={line.spin} M={line.m}: row {row}")
            if row[5].isdigit():
                totals[row[0]] += int(row[5])
    if len(payload["comparisons"]) != want:
        problems.append(f"{len(payload['comparisons'])} comparisons, expected {want}")
    for s in spins:
        if totals[s] != site_dim(s) ** n:
            problems.append(f"s={s}: degeneracies sum to {totals[s]}, not {site_dim(s) ** n}")
    return problems


def check_verify(payload, suite: str):
    """Problems of one `tllab verify --suite name` payload."""
    suites = payload["suites"]
    if [s["name"] for s in suites] != [suite]:
        return [f"suites {[s['name'] for s in suites]} returned for {suite}"]
    checks = suites[0]["checks"]
    if not checks:
        return [f"suite {suite} ran no checks"]
    return [
        f"{c['label']}: residual {c['residual']:.3g} > tol {c['tol']:.0g}"
        for c in checks
        if not (math.isfinite(c["residual"]) and c["residual"] <= c["tol"])
    ]
