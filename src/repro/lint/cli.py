"""``repro lint``: run the sdolint invariant checkers.

Exit status is 0 when no *new* error-severity finding exists (warnings and
baselined findings never gate), 1 otherwise.  ``--format json`` emits a
machine-readable report for CI annotation tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TextIO

from repro.lint.baseline import BASELINE_NAME, Baseline
from repro.lint.checkers import CHECKERS
from repro.lint.engine import LintResult, load_context, run_lint
from repro.lint.findings import ERROR


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="restrict reported findings to these files/directories "
             "(analysis always covers the whole tree)",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="repository root (default: auto-detected from this package)",
    )
    parser.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated checker ids to run "
             f"(default: all of {', '.join(sorted(CHECKERS))})",
    )
    parser.add_argument(
        "--format", choices=["human", "json"], default="human",
        help="output format (default human)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"ratchet baseline file (default <root>/{BASELINE_NAME})",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept every current finding into the baseline and exit 0",
    )
    parser.add_argument(
        "--show-baselined", action="store_true",
        help="also print findings already covered by the baseline",
    )


def _detect_root(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit).resolve()
    # src/repro/lint/cli.py -> repo root is four levels up.
    return Path(__file__).resolve().parents[3]


def _report_human(result: LintResult, show_baselined: bool, out: TextIO) -> None:
    for finding in result.diff.new:
        out.write(finding.render() + "\n")
    if show_baselined:
        for finding in result.diff.baselined:
            out.write(f"{finding.render()}  (baselined)\n")
    for fingerprint in result.diff.stale:
        out.write(
            f"note: baseline entry {fingerprint} no longer matches anything — "
            "re-ratchet with --write-baseline\n"
        )
    errors = sum(1 for f in result.diff.new if f.severity == ERROR)
    warnings = len(result.diff.new) - errors
    summary = (
        f"sdolint: {errors} error(s), {warnings} warning(s)"
        f", {len(result.diff.baselined)} baselined"
    )
    if result.suppressed:
        summary += f", {result.suppressed} suppressed inline"
    out.write(summary + "\n")


def _report_json(result: LintResult, out: TextIO) -> None:
    payload = {
        "new": [f.to_dict() for f in result.diff.new],
        "baselined": [f.to_dict() for f in result.diff.baselined],
        "stale_baseline_entries": result.diff.stale,
        "suppressed_inline": result.suppressed,
        "gating": len(result.gating),
    }
    json.dump(payload, out, indent=2)
    out.write("\n")


def run_lint_command(args, out: TextIO | None = None) -> int:
    out = out if out is not None else sys.stdout
    root = _detect_root(args.root)
    ctx = load_context(root, [Path(p) for p in args.paths] or None)

    baseline_path = Path(args.baseline) if args.baseline else root / BASELINE_NAME
    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select
        else None
    )
    try:
        result = run_lint(ctx, Baseline.load(baseline_path), select=select)
    except ValueError as exc:
        out.write(f"sdolint: {exc}\n")
        return 2

    if args.write_baseline:
        Baseline.from_findings(result.findings).write(baseline_path)
        out.write(
            f"baseline with {len(result.findings)} finding(s) written to "
            f"{baseline_path}\n"
        )
        return 0

    if args.format == "json":
        _report_json(result, out)
    else:
        _report_human(result, args.show_baselined, out)
    return 1 if result.gating else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro lint", description=__doc__)
    add_lint_arguments(parser)
    return run_lint_command(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
