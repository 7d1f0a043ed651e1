"""Command line entry point.

    gentorus run <config.json> [--out DIR] [--format json|csv|table]
                  [--fail-fast] [--tolerance X] [--timings]
    gentorus verify <config.json> <expected-report.json>

Exit codes: 0 when every experiment passes, 2 when an experiment surfaced a
mathematical finding (obstruction or class failure), 1 on operational
errors.  The default output directory can be set with GENTORUS_OUT.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .report import emit_report, report_to_table
from .scenario import ScenarioError, _object, exit_code_for, run_scenario


def _load_json(path: str, what: str):
    """The JSON document in the file ``path``; a ScenarioError names ``what``
    it was meant to be when the file cannot be read or parsed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioError(f"cannot read {what} {path}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"{what} {path} is not valid JSON (line {err.lineno}, col {err.colno}): {err.msg}"
        ) from err


def _load_config(path: str) -> dict:
    return _object(_load_json(path, "config"), "config")


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.tolerance is not None:
        _object(config.setdefault("tolerances", {}), "tolerances")["default"] = args.tolerance
    report, timings = run_scenario(config, fail_fast=args.fail_fast)
    out_dir = args.out or os.environ.get("GENTORUS_OUT") or config.get(
        "output", {}
    ).get("dir")
    formats = [args.format] if args.format else config.get("output", {}).get(
        "formats", ["json"]
    )
    stem = config.get("name", "report").replace("/", "_") or "report"
    if out_dir:
        try:
            paths = emit_report(
                report,
                Path(out_dir),
                formats=formats,
                stem=stem,
                timings=timings if args.timings else None,
            )
        except (OSError, ValueError) as err:
            raise ScenarioError(f"cannot write the report to {out_dir}: {err}") from err
        for p in paths:
            print(p)
    else:
        sys.stdout.write(report_to_table(report))
    summary = report["summary"]
    print(
        f"status: {summary['status']} (pass {summary['pass']}, fail {summary['fail']}, "
        f"findings {summary['finding']}, errors {summary['error']})",
        file=sys.stderr,
    )
    return exit_code_for(report)


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    expected = _object(_load_json(args.expected, "expected report"), "expected report")
    want_exps = expected.get("experiments", [])
    if not isinstance(want_exps, list):
        raise ScenarioError(f"expected report {args.expected} has no 'experiments' list")
    report, _ = run_scenario(config)
    if report == expected:
        print("verify: reports match")
        return 0
    print("verify: reports differ", file=sys.stderr)
    got_exps = report.get("experiments", [])
    if len(got_exps) != len(want_exps):
        print(
            f"  experiment count {len(got_exps)} != {len(want_exps)}", file=sys.stderr
        )
    for i, (got, want) in enumerate(zip(got_exps, want_exps)):
        if got != want:
            print(f"  experiment {i} ({got.get('kind')}) differs", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentorus",
        description="Generalized-complex spinor calculus on flat tori: "
        "identity suites, Hodge tables, deformation criteria and extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config")
    run.add_argument("config", help="scenario JSON file")
    run.add_argument("--out", help="output directory (default: GENTORUS_OUT or stdout)")
    run.add_argument("--format", choices=["json", "csv", "table"], help="output format")
    run.add_argument("--fail-fast", action="store_true", help="stop after the first failure")
    run.add_argument("--tolerance", type=float, help="override the default tolerance")
    run.add_argument("--timings", action="store_true", help="also emit a timings sidecar")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="run a config and compare to a golden report")
    verify.add_argument("config", help="scenario JSON file")
    verify.add_argument("expected", help="expected report JSON file")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
