"""Command line entry points, exit codes, and data output modes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tllab.cli import main
from tllab.report import LineRecord, SpectrumReport


def test_solve_small_chain_exits_clean(capsys):
    code = main(["solve", "--sites", "2", "--spin", "1/2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "total degeneracy 4 / dimension 4" in out


def test_solve_json_stdout_is_pure_json(capsys):
    code = main(["solve", "--sites", "2", "--spin", "1/2", "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["chain"] == "open"
    assert payload["dimension"] == 4


def test_solve_csv_file(tmp_path, capsys):
    target = tmp_path / "lines.csv"
    code = main(
        ["solve", "--sites", "2", "--spin", "1/2", "--csv", str(target)]
    )
    capsys.readouterr()
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert len(lines) >= 3
    assert lines[0].split(",")[0] == "chain"


def test_solve_closed_chain(capsys):
    code = main(
        ["solve", "--chain", "closed", "--sites", "2", "--spin", "1/2", "--json", "-"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["chain"] == "closed"
    assert payload["total_degeneracy"] == payload["dimension"]
    assert all(line["polished"] for line in payload["lines"])


def test_solve_open_chain_off_the_tested_grid(capsys):
    # N=8 at q=0.3 has lines whose roots do not polish; each is still a line
    code = main(
        ["solve", "--chain", "open", "--sites", "8", "--q", "0.3", "--json", "-"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["total_degeneracy"] == 256
    # 18 of its lines report TQ zeros that Newton does not polish
    assert sum(not line["polished"] for line in payload["lines"]) == 18


def test_open_lines_do_not_depend_on_blas_threads():
    # open N=8, q=0.3 at one and at two OpenBLAS threads, each in its own
    # process: the same lines, degeneracies and flags.  Roots and `polished`
    # are left out: on its near-string lines NEWTON_TOL is out of reach in
    # float64, so roundoff, which the thread count changes, decides whether
    # refine converges and hence those two fields
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "tllab", "solve", "--chain", "open", "--sites", "8",
            "--q", "0.3", "--json", "-"]
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = json.loads(proc.stdout)["lines"]
        runs.append(sorted((line["m"], line["degeneracy"], line["ambiguous"]) for line in lines))
    assert len(runs[0]) == 70
    assert runs[0] == runs[1]


def test_solve_takes_complex_q(capsys):
    code = main(
        ["solve", "--chain", "open", "--sites", "4", "--q", "0.4+0.3j", "--json", "-"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["q"] == {"re": 0.4, "im": 0.3}
    assert payload["total_degeneracy"] == 16


def test_solve_takes_negative_complex_q_as_a_separate_value(capsys):
    # argparse alone reads -0.4+0.3j as an option, not as the value of --q
    code = main(
        ["solve", "--chain", "open", "--sites", "3", "--q", "-0.4+0.3j", "--json", "-"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["q"] == {"re": -0.4, "im": 0.3}
    assert (payload["total_degeneracy"], payload["dimension"]) == (8, 8)


@pytest.mark.parametrize(
    "degeneracies, ambiguous, code",
    [
        ((3, 1), False, 0),
        ((3,), False, 1),  # a line missing
        ((3, 1, 1), False, 1),  # a line listed twice
        ((3, 1), True, 1),  # a degeneracy count that could move
    ],
)
def test_solve_exit_code_flags_inconsistent_spectrum(
    monkeypatch, capsys, degeneracies, ambiguous, code
):
    lines = tuple(
        LineRecord(kind="open", m=0, roots=(), degeneracy=d, ambiguous=ambiguous)
        for d in degeneracies
    )
    report = SpectrumReport(
        kind="open", n_sites=2, spin="1/2", q=0.5, lines=lines, elapsed=0.0
    )
    monkeypatch.setattr("tllab.cli.build_open_spectrum", lambda params, config: report)
    assert main(["solve", "--sites", "2", "--spin", "1/2", "--json", "-"]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_degeneracy"] == sum(degeneracies)
    assert payload["dimension"] == 4


def test_solve_rejects_bad_spin(capsys):
    code = main(["solve", "--sites", "2", "--spin", "2/3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err.lower()


def test_reproduce_single_table(capsys):
    code = main(["reproduce", "--table", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_reproduce_json_payload(capsys):
    code = main(["reproduce", "--table", "5", "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["number"] == 5
    assert payload["passed"] is True


def test_verify_single_suite(capsys):
    code = main(["verify", "--suite", "tl-algebra"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tl-algebra" in out
    assert "pass" in out.lower()


def test_verify_json_stdout(capsys):
    code = main(["verify", "--suite", "boundary", "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = [s["name"] for s in payload["suites"]]
    assert names == ["boundary"]


def test_seed_env_variable_sets_default(monkeypatch):
    from tllab.cli import _default_seed

    monkeypatch.setenv("TL_LAB_SEED", "777")
    assert _default_seed() == 777
    monkeypatch.delenv("TL_LAB_SEED")
    assert _default_seed() == 1234
    monkeypatch.setenv("TL_LAB_SEED", "not-a-number")
    assert _default_seed() == 1234


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["solve"])
    assert info.value.code == 2
