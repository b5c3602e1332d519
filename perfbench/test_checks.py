"""The benchmark's checkers must reject a damaged spectrum, table or suite.

Run with ``python3 -m pytest perfbench``.
"""

import copy
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tllab import ModelParams, hamiltonian, transfer_matrix  # noqa: E402
from tllab.cli import main  # noqa: E402
from tllab.reference import TABLES  # noqa: E402


def _payload(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main([*argv, "--json", "-"])
    return json.loads(buf.getvalue())


def _spectrum_problems(payload):
    params = ModelParams.create(payload["n_sites"], payload["spin"], q=payload["q"]["re"])
    kind = payload["chain"]

    def transfer_eigs(u0):
        return np.linalg.eigvals(transfer_matrix(u0, params, kind).matrix)

    h_eigs = np.linalg.eigvals(hamiltonian(params)) if kind == "open" else None
    return checks.check_spectrum(payload, transfer_eigs, h_eigs)


@pytest.fixture(scope="module", params=[("open", "4", "1/2"), ("closed", "3", "1")])
def spectrum(request):
    chain, n, spin = request.param
    return _payload("solve", "--chain", chain, "--sites", n, "--spin", spin)


def test_complete_spectrum_passes(spectrum):
    assert _spectrum_problems(spectrum) == []


def _with_lines(payload, lines):
    out = copy.deepcopy(payload)
    out["lines"] = lines
    return out


def _symptoms(payload):
    return {symptom for symptom, _ in _spectrum_problems(payload)}


def test_dropped_line_is_missing(spectrum):
    damaged = _with_lines(spectrum, spectrum["lines"][1:])
    assert _symptoms(damaged) == {checks.MISSING}


def test_duplicated_line_is_repeated(spectrum):
    lines = spectrum["lines"]
    damaged = _with_lines(spectrum, lines + [lines[-1]])
    assert _symptoms(damaged) == {checks.REPEATED}


@pytest.mark.parametrize("shift", [1, -1])
def test_changed_degeneracy_is_wrong(spectrum, shift):
    lines = copy.deepcopy(spectrum["lines"])
    line = max(lines, key=lambda ln: ln["degeneracy"])
    line["degeneracy"] += shift
    assert checks.OTHER in _symptoms(_with_lines(spectrum, lines))


def test_repeat_with_other_degeneracy_is_wrong(spectrum):
    lines = copy.deepcopy(spectrum["lines"])
    extra = copy.deepcopy(lines[-1])
    extra["degeneracy"] += 1
    assert checks.OTHER in _symptoms(_with_lines(spectrum, lines + [extra]))


def test_degeneracy_moved_between_lines_is_wrong(spectrum):
    lines = copy.deepcopy(spectrum["lines"])
    lines.sort(key=lambda ln: -ln["degeneracy"])
    lines[0]["degeneracy"] -= 1
    lines[1]["degeneracy"] += 1
    damaged = _with_lines(spectrum, lines)
    assert checks.site_dim(spectrum["spin"]) ** spectrum["n_sites"] == sum(
        ln["degeneracy"] for ln in lines
    )
    assert checks.OTHER in _symptoms(damaged)


def test_moved_root_is_wrong(spectrum):
    lines = copy.deepcopy(spectrum["lines"])
    line = next(ln for ln in lines if ln["roots"])
    root = line["roots"][0]
    root["re"], root["im"] = 1.001 * root["re"], 1.001 * root["im"]
    assert checks.OTHER in _symptoms(_with_lines(spectrum, lines))


def test_dropped_and_moved_is_wrong(spectrum):
    lines = copy.deepcopy(spectrum["lines"][1:])
    line = next(ln for ln in lines if ln["roots"])
    root = line["roots"][0]
    root["re"], root["im"] = 1.001 * root["re"], 1.001 * root["im"]
    assert _symptoms(_with_lines(spectrum, lines)) == {checks.MISSING, checks.OTHER}


def test_wrong_open_energy_fails():
    payload = _payload("solve", "--sites", "3", "--spin", "1/2")
    assert _spectrum_problems(payload) == []
    payload["lines"][-1]["energy"]["re"] += 1e-3
    assert any("energy" in p for _, p in _spectrum_problems(payload))


@pytest.mark.parametrize("number", [2, 5, 7])
def test_table_checker(number):
    payload = _payload("reproduce", "--table", str(number))
    assert checks.check_table(payload, TABLES[number]) == []
    damaged = copy.deepcopy(payload)
    row = damaged["rows"][1]
    cell = -1 if TABLES[number].kind == "closed-spectrum" else 2
    row[cell] = str(int(row[cell]) + 1)
    assert checks.check_table(damaged, TABLES[number])
    dropped = copy.deepcopy(payload)
    dropped["comparisons"] = dropped["comparisons"][1:]
    assert checks.check_table(dropped, TABLES[number])


def test_verify_checker():
    payload = _payload("verify", "--suite", "tl-algebra")
    assert checks.check_verify(payload, "tl-algebra") == []
    damaged = copy.deepcopy(payload)
    check = damaged["suites"][0]["checks"][0]
    check["residual"] = 10 * check["tol"]
    assert checks.check_verify(damaged, "tl-algebra")
    check["residual"] = float("nan")
    assert checks.check_verify(damaged, "tl-algebra")
    damaged["suites"][0]["checks"] = []
    assert checks.check_verify(damaged, "tl-algebra")
