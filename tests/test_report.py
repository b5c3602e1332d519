"""Report builders, formatters, and serialization round trips."""

import io
import json

import numpy as np
import pytest

from tllab.bethe import eval_lambda
from tllab.core import ModelParams
from tllab.reference import exact, printed
from tllab.report import (
    RunConfig,
    build_closed_spectrum,
    build_open_spectrum,
    build_table_report,
    format_complex,
    format_phase,
    format_roots,
    format_twist,
    render_spectrum,
    render_table,
    spectrum_csv_rows,
    spectrum_payload,
    table_csv_rows,
    table_payload,
    write_csv,
)
from tllab.solver import solve_all_closed, solve_all_open
from tllab.symmetry import DEGENERACY_PROBE, measure_degeneracy
from tllab.transfer import transfer_matrix

FAST = RunConfig(seed=1234, n_seeds=400)


def test_format_complex_chops_invisible_components():
    assert format_complex(1.5) == "1.5"
    assert format_complex(1.5 + 1e-12j) == "1.5"
    assert format_complex(0.0 + 2.0j) == "2i"
    assert format_complex(0.0) == "0"
    assert format_complex(1.0 - 2.0j) == "1-2i"
    assert format_complex(1.0 + 2.0j, digits=3) == "1+2i"


def test_format_phase_recognizes_small_rationals():
    assert format_phase(1.0) == "1"
    assert format_phase(-1.0) == "-1"
    assert format_phase(1j) == "i"
    assert format_phase(-1j) == "-i"
    assert format_phase(np.exp(1j * np.pi / 6)) == "exp(i*pi/6)"
    assert format_phase(np.exp(-1j * np.pi / 6)) == "exp(-i*pi/6)"
    assert format_phase(0.5 + 0.5j) is None
    assert format_phase(2.0) is None


def test_format_twist_falls_back_to_decimal():
    assert format_twist(-1.0) == "-1"
    z = 0.6 + 0.8j
    assert format_twist(z) == format_complex(z)


def test_format_roots_empty_marker():
    assert format_roots(()) == "-"
    assert ";" in format_roots((1.0 + 1.0j, 2.0))


def test_printed_tolerance_from_decimal_places():
    ref = printed("1.34164", "0.44721")
    assert ref.matches(1.341641 + 0.447214j)
    assert not ref.matches(1.3417 + 0.447214j)
    assert not ref.matches(1.341641 + 0.4473j)


def test_printed_integer_component_inherits_partner_tolerance():
    ref = printed("0", "1.41421")
    assert ref.matches(3e-6 + 1.414214j)
    assert not ref.matches(1e-3 + 1.414214j)


def test_exact_uses_display_precision():
    ref = exact(1.0, "1")
    assert ref.matches(1.0 + 3e-6)
    assert not ref.matches(1.0 + 1e-4)
    assert ref.text == "1"


def test_open_spectrum_payload_round_trip():
    params = ModelParams.create(2, "1/2")
    report = build_open_spectrum(params, FAST)
    payload = spectrum_payload(report)
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["schema"] == payload["schema"]
    assert back["kind"] == "spectrum"
    assert back["chain"] == "open"
    assert back["n_sites"] == 2
    assert back["dimension"] == 4
    degs = [ln["degeneracy"] for ln in back["lines"]]
    assert sum(degs) == 4
    text_render = render_spectrum(report)
    assert "total degeneracy 4 / dimension 4" in text_render
    assert "1.34164" in text_render


def test_table_report_passes_and_serializes():
    report = build_table_report(4, FAST)
    assert report.passed
    payload = table_payload(report)
    back = json.loads(json.dumps(payload))
    assert back["number"] == 4
    assert all(c["ok"] for c in back["comparisons"])
    rendered = render_table(report)
    assert "PASS" in rendered
    assert "FAIL" not in rendered


def test_csv_rows_align_with_header():
    params = ModelParams.create(2, "1/2")
    report = build_open_spectrum(params, FAST)
    rows = list(spectrum_csv_rows(report))
    header, data = rows[0], rows[1:]
    assert len(data) >= 1
    assert all(len(r) == len(header) for r in data)
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == len(rows)


def test_table_csv_rows_report_status():
    report = build_table_report(4, FAST)
    rows = list(table_csv_rows(report))
    header = rows[0]
    assert "ok" in header
    assert all(len(r) == len(header) for r in rows[1:])


@pytest.mark.parametrize(
    "kind, n_sites, solve, build",
    [
        ("open", 4, solve_all_open, build_open_spectrum),
        ("closed", 3, solve_all_closed, build_closed_spectrum),
    ],
)
def test_each_line_is_measured_once(monkeypatch, kind, n_sites, solve, build):
    # the solver factors t(u0) - lambda once per reported line and for no
    # candidate it drops; the report must reuse it rather than factor again
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return measure_degeneracy(*args, **kwargs)

    monkeypatch.setattr("tllab.symmetry.measure_degeneracy", counted)
    # also counted if the solver ever factors t(u0) - Lambda itself
    monkeypatch.setattr("tllab.solver.measure_degeneracy", counted, raising=False)
    params = ModelParams.create(n_sites, "1/2")
    # the open solve has no search to configure
    lines = solve(params, *(() if kind == "open" else (FAST.search(),)))
    solve_calls = len(calls)
    assert solve_calls == sum(len(sols) for sols in lines.values())
    calls.clear()
    report = build(params, FAST)
    assert len(calls) == solve_calls, f"{len(calls)} QRs for {solve_calls} in the solve"
    assert report.total_degeneracy == report.dimension
    monkeypatch.undo()
    t = transfer_matrix(DEGENERACY_PROBE, params, kind).matrix
    for ln in report.lines:
        lam = eval_lambda(DEGENERACY_PROBE, ln.roots, params, kind, ln.twist)
        assert (ln.degeneracy, ln.ambiguous) == measure_degeneracy(t, lam)
