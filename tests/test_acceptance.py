"""Acceptance gate: one pass or fail line per criterion, at stated tolerance.

Each criterion is a single test so the verbose pytest report shows exactly
one line per criterion.  Every test also prints an ACCEPTANCE summary line
that is visible with ``pytest -s`` and in failure output.
"""

import time
from collections import Counter

import numpy as np

from tllab.bethe import energy, eval_lambda
from tllab.core import DomainError, ModelParams
from tllab.operators import hamiltonian
from tllab.reference import closed_table, open_table
from tllab.report import RunConfig, build_closed_spectrum, build_open_spectrum, build_table_report
from tllab.solver import expected_census, refine, solve_all_open
from tllab.suites import run_suites
from tllab.transfer import hamiltonian_from_transfer, transfer_matrix

SPINS = ("1/2", "1", "3/2")


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} ({name}): {status} - {detail}"
    print(line)
    return line


def test_criterion_1_tables():
    t0 = time.perf_counter()
    failures = []
    total = 0
    for k in range(1, 9):
        rep = build_table_report(k, RunConfig(seed=1234))
        total += len(rep.comparisons)
        if not rep.passed:
            bad = [c.description for c in rep.comparisons if not c.ok]
            failures.append(f"table {k}: {bad[:3]}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    detail = f"8 tables, {total} comparisons, {elapsed:.1f}s"
    if failures:
        detail += "; " + "; ".join(failures)
    line = _report(1, "tables", ok, detail)
    assert ok, line


def test_criterion_2_completeness():
    failures = []
    for n in range(2, 6):
        for spin in SPINS:
            params = ModelParams.create(n, spin)
            rep = build_open_spectrum(params, RunConfig(seed=1234))
            if rep.total_degeneracy != rep.dimension:
                failures.append(
                    f"open N={n} s={spin}: degeneracy "
                    f"{rep.total_degeneracy} != {rep.dimension}"
                )
            counts = Counter(ln.m for ln in rep.lines)
            for cen in expected_census(params):
                m = int(cen.sector.split("=")[1])
                if counts.get(m, 0) != cen.expected:
                    failures.append(
                        f"open N={n} s={spin} M={m}: "
                        f"{counts.get(m, 0)} != {cen.expected}"
                    )
    probes = (0.93 + 0.41j, 1.31 - 0.27j, 0.77 + 0.36j)
    worst = 0.0
    for n in (2, 3):
        for spin in SPINS:
            params = ModelParams.create(n, spin)
            rep = build_closed_spectrum(params, RunConfig(seed=1234))
            for u0 in probes:
                trace = np.trace(transfer_matrix(u0, params, "closed").matrix)
                acc = 0.0 + 0.0j
                for ln in rep.lines:
                    acc += ln.degeneracy * eval_lambda(
                        u0, ln.roots, params, "closed", ln.twist
                    )
                rel = abs(acc - trace) / (1.0 + abs(trace))
                worst = max(worst, rel)
                if rel > 1e-6:
                    failures.append(
                        f"closed N={n} s={spin} trace at {u0}: rel {rel:.2e}"
                    )
    ok = not failures
    detail = (
        f"open census exact for N=2..5 x 3 spins, "
        f"closed trace identity worst rel {worst:.2e}"
    )
    if failures:
        detail = "; ".join(failures[:4])
    line = _report(2, "completeness", ok, detail)
    assert ok, line


def test_criterion_3_matrix_identities():
    names = [
        "tl-algebra",
        "yang-baxter",
        "boundary",
        "transfer",
        "functional",
        "symmetry",
    ]
    t0 = time.perf_counter()
    results = run_suites(names, seed=7)
    elapsed = time.perf_counter() - t0
    failures = []
    worst = 0.0
    for res in results:
        if not res.passed:
            failures.append(f"suite {res.name} failed")
        for chk in res.checks:
            if chk.tol > 1e-9:
                continue
            worst = max(worst, chk.residual)
            if chk.residual > 1e-9:
                failures.append(f"{res.name}:{chk.label} {chk.residual:.2e}")
    if elapsed >= 60.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    ok = not failures
    detail = f"6 suites, worst identity residual {worst:.2e}, {elapsed:.1f}s"
    if failures:
        detail = "; ".join(failures[:4])
    line = _report(3, "matrix identities", ok, detail)
    assert ok, line


def test_criterion_4_hamiltonian():
    failures = []
    worst_entry = 0.0
    for n in (2, 3, 4):
        for spin in ("1/2", "1"):
            params = ModelParams.create(n, spin)
            direct = hamiltonian(params)
            from_transfer = hamiltonian_from_transfer(params)
            diff = np.max(np.abs(direct - from_transfer))
            worst_entry = max(worst_entry, diff)
            if diff > 1e-6:
                failures.append(f"H N={n} s={spin}: entry diff {diff:.2e}")
    worst_energy = 0.0
    checked = 0
    for n in (2, 3, 4):
        for spin in SPINS:
            params = ModelParams.create(n, spin)
            eigs = np.linalg.eigvals(hamiltonian(params))
            for ref_line in open_table(n):
                if ref_line.m == 0:
                    continue
                guess = [p.value for p in ref_line.roots]
                sol = refine(guess, params, "open")
                e_val = energy(sol.roots, params)
                gap = np.min(np.abs(eigs - e_val))
                worst_energy = max(worst_energy, gap)
                checked += 1
                if gap > 1e-6:
                    failures.append(
                        f"energy N={n} s={spin} M={ref_line.m}: gap {gap:.2e}"
                    )
    ok = not failures
    detail = (
        f"entrywise worst {worst_entry:.2e}, "
        f"{checked} on-shell energies worst gap {worst_energy:.2e}"
    )
    if failures:
        detail = "; ".join(failures[:4])
    line = _report(4, "hamiltonian from transfer", ok, detail)
    assert ok, line


def test_criterion_5_algebraic_states():
    names = ["offshell", "highest-weight", "scalar-products"]
    t0 = time.perf_counter()
    results = run_suites(names, seed=7, offshell_configs=50)
    elapsed = time.perf_counter() - t0
    failures = []
    for res in results:
        if not res.passed:
            bad = [c.label for c in res.checks if not c.passed]
            failures.append(f"suite {res.name}: {bad[:3]}")
    if elapsed >= 600.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    ok = not failures
    worst = {res.name: res.worst for res in results}
    detail = ", ".join(
        f"{name} worst {chk.residual:.2e} (tol {chk.tol:.0e})"
        for name, chk in worst.items()
    )
    detail += f", {elapsed:.1f}s"
    if failures:
        detail = "; ".join(failures[:4])
    line = _report(5, "algebraic Bethe states", ok, detail)
    assert ok, line


def test_criterion_6_universality():
    failures = []
    probe = 0.93 + 0.41j
    by_spin = {}
    for spin in SPINS:
        params = ModelParams.create(3, spin)
        solved = solve_all_open(params)
        sectors = {}
        for m, sols in solved.items():
            if m == 0:
                continue
            for sol in sols:
                roots = tuple(sorted(sol.roots, key=lambda z: (z.real, z.imag)))
                lam = eval_lambda(probe, sol.roots, params, "open")
                sectors.setdefault(m, []).append((roots, lam))
        for m in sectors:
            sectors[m].sort(key=lambda item: (item[0][0].real, item[0][0].imag))
        by_spin[spin] = sectors
    base = by_spin["1/2"]
    worst_root = 0.0
    worst_lam = 0.0
    for spin in ("1", "3/2"):
        other = by_spin[spin]
        if set(base) != set(other):
            failures.append(f"s={spin}: sector mismatch {set(other)}")
            continue
        for m in base:
            if len(base[m]) != len(other[m]):
                failures.append(f"s={spin} M={m}: count mismatch")
                continue
            for (r_a, l_a), (r_b, l_b) in zip(base[m], other[m]):
                gap = max(abs(a - b) for a, b in zip(r_a, r_b))
                worst_root = max(worst_root, gap)
                if gap > 1e-8:
                    failures.append(f"s={spin} M={m}: root gap {gap:.2e}")
                rel = abs(l_a - l_b) / (1.0 + abs(l_a))
                worst_lam = max(worst_lam, rel)
                if rel > 1e-8:
                    failures.append(f"s={spin} M={m}: lambda gap {rel:.2e}")
    half = [
        complex(p.value)
        for ln in closed_table(3)
        if ln.spin == "1/2" and ln.m == 1
        for p in ln.roots
    ]
    one = [
        complex(p.value)
        for ln in closed_table(3)
        if ln.spin == "1" and ln.m == 1
        for p in ln.roots
    ]
    closed_gap = min(abs(a - b) for a in half for b in one)
    if closed_gap < 1e-3:
        failures.append(f"closed roots coincide: min gap {closed_gap:.2e}")
    ok = not failures
    detail = (
        f"open roots agree across spins to {worst_root:.2e}, "
        f"eigenvalues to {worst_lam:.2e}, "
        f"closed M=1 root sets differ by {closed_gap:.3f}"
    )
    if failures:
        detail = "; ".join(failures[:4])
    line = _report(6, "universality", ok, detail)
    assert ok, line
