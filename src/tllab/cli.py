"""Command line interface: solve spectra, reproduce tables, verify identities.

Exit codes: 0 when everything passed, 1 when a comparison or check failed
(for ``solve``: measured degeneracies that do not sum to the dimension, or
an ambiguous degeneracy count; every line is measured, once, by the solver),
2 on usage or domain errors.  The environment variable ``TL_LAB_SEED``
overrides the default seed for every subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import DomainError, ModelParams, SolverError
from .report import (
    RunConfig,
    build_closed_spectrum,
    build_open_spectrum,
    build_table_report,
    render_spectrum,
    render_table,
    render_verify,
    spectrum_csv_rows,
    spectrum_payload,
    table_csv_rows,
    table_payload,
    verify_payload,
    write_csv,
)
from .reference import TABLES
from .suites import SUITES, run_suites

__all__ = ["main"]


def _default_seed() -> int:
    raw = os.environ.get("TL_LAB_SEED", "")
    try:
        return int(raw)
    except ValueError:
        return 1234


def _write_json(payload, path) -> None:
    if path == "-":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(rows, path) -> None:
    if path == "-":
        write_csv(rows, sys.stdout)
        return
    with open(path, "w", newline="") as fh:
        write_csv(rows, fh)


def _add_output_options(parser) -> None:
    parser.add_argument(
        "--json", metavar="PATH", help="write a JSON payload ('-' for stdout)"
    )
    parser.add_argument(
        "--csv", metavar="PATH", help="write CSV rows ('-' for stdout)"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the run seed"
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tllab",
        description="Verification workbench for the loop-algebra spin chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one chain and print its spectrum")
    solve.add_argument("--chain", choices=["open", "closed"], default="open")
    solve.add_argument("--sites", type=int, required=True, metavar="N")
    solve.add_argument(
        "--spin", default="1/2", metavar="S", help="site spin, e.g. 1/2, 1, 3/2"
    )
    solve.add_argument(
        "--q", type=complex, default=0.5,
        help="deformation parameter, real or complex (e.g. 0.5, 0.4+0.3j)",
    )
    _add_output_options(solve)

    reproduce = sub.add_parser(
        "reproduce", help="rebuild reference tables and compare line by line"
    )
    group = reproduce.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--table", type=int, choices=sorted(TABLES), help="table number"
    )
    group.add_argument("--all", action="store_true", help="reproduce every table")
    _add_output_options(reproduce)

    verify = sub.add_parser("verify", help="run the identity suites")
    verify.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="restrict to one suite (repeatable)",
    )
    verify.add_argument(
        "--quick",
        action="store_true",
        help="reduce the off-shell sampling for a fast smoke run",
    )
    verify.add_argument(
        "--verbose", action="store_true", help="print every check, not just failures"
    )
    verify.add_argument(
        "--json", metavar="PATH", help="write a JSON payload ('-' for stdout)"
    )
    verify.add_argument(
        "--seed", type=int, default=None, help="override the run seed"
    )

    return parser


def _stdout_is_data(args) -> bool:
    return args.json == "-" or args.csv == "-"


def _cmd_solve(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    config = RunConfig(seed=seed)
    params = ModelParams.create(args.sites, args.spin, q=args.q)
    if args.chain == "open":
        report = build_open_spectrum(params, config)
    else:
        report = build_closed_spectrum(params, config)
    if not _stdout_is_data(args):
        sys.stdout.write(render_spectrum(report))
    if args.json:
        _write_json(spectrum_payload(report), args.json)
    if args.csv:
        _write_csv(spectrum_csv_rows(report), args.csv)
    complete = report.total_degeneracy == report.dimension
    return 0 if complete and not any(ln.ambiguous for ln in report.lines) else 1


def _cmd_reproduce(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    config = RunConfig(seed=seed)
    numbers = sorted(TABLES) if args.all else [args.table]
    reports = [build_table_report(k, config) for k in numbers]
    if not _stdout_is_data(args):
        for report in reports:
            sys.stdout.write(render_table(report))
    if args.json:
        payload = (
            table_payload(reports[0])
            if len(reports) == 1
            else {
                "schema": "tl-lab/1",
                "kind": "tables",
                "tables": [table_payload(r) for r in reports],
            }
        )
        _write_json(payload, args.json)
    if args.csv:
        def rows():
            for i, report in enumerate(reports):
                for j, row in enumerate(table_csv_rows(report)):
                    if i == 0 or j > 0:
                        yield row
        _write_csv(rows(), args.csv)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    names = args.suite or None
    configs = 5 if args.quick else 50
    results = run_suites(names, seed=seed, offshell_configs=configs)
    if args.json != "-":
        sys.stdout.write(render_verify(results, verbose=args.verbose))
    if args.json:
        _write_json(verify_payload(results), args.json)
    return 0 if all(r.passed for r in results) else 1


def _attach_q(argv):
    """argv with each ``--q VALUE`` written ``--q=VALUE``: argparse reads a
    value that starts with '-' and is not a plain negative number, such as
    the complex -0.4+0.3j, as an option."""
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg == "--q" else None
        out.append(arg if value is None else f"--q={value}")
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_q(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        return _cmd_verify(args)
    except (DomainError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(
            "error: the dense Hilbert space does not fit in memory;"
            " reduce --sites or --spin",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
