#!/usr/bin/env python
"""Fold perfbench result records into a committed BENCH trajectory file.

``perfbench/run.py`` writes one JSON record per run to
``perfbench/out/results/`` (overwriting the previous run of the same
workload, seed and trace setting), and that directory is not committed.
This script keeps the numbers: give it the records of the parent commit's
runs and of the change's runs, and it writes one JSON file holding, per
workload, the median and quartiles of every end-to-end metric that
``BENCHMARK.json`` declares on each side, how many of the run pairs the
change won, and the seed-1 traced per-layer metrics in ``TRACED_METRICS``.

Usage (copy each record aside after its run, since the next run of the
same workload overwrites it; pairs are matched by their order on the
command line):

    python scripts/bench_record.py --out BENCH_<n>.json \\
        --parent parent/cells-live-*.json parent/matrix-cold-*.json \\
        --change change/cells-live-*.json change/matrix-cold-*.json

Untraced records (``trace`` 0) feed the end-to-end statistics; traced
records (``trace`` 1) of seed 1 feed the ``traced_seed1`` section.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = REPO_ROOT / "BENCHMARK.json"

#: Per-layer metrics copied from the seed-1 traced run of each side: the
#: core's per-step cost, a cell's fixed cost (machine build, warm-up, pool
#: settling), and the simulated work, which must not move.
#: ``protection.hook_calls`` counts the calls into hooks the scheme defines:
#: the core never calls a lifecycle hook a scheme inherits as a no-op.
TRACED_METRICS = (
    "core.us_per_step",
    "core.step_self_s",
    "core.steps",
    "execute.build_s",
    "memory.warm_s",
    "engine.settle_lag_s",
    "memory.load_calls",
    "protection.hook_calls",
)
TRACED_SEED = 1


def load_records(paths: list[Path]) -> list[dict]:
    return [json.loads(path.read_text()) for path in paths]


def spread(values: list[float]) -> dict:
    """Median and quartiles (the quartiles equal the median for one run)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3}


def pairs_won(parent: list[float], change: list[float], better: str) -> int:
    """Pairs (matched by position) in which the change is strictly better."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change, strict=True))
    return sum(c < p for p, c in zip(parent, change, strict=True))


def metric_values(records: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def fold(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    workloads = sorted({r["workload"] for r in parent + change})
    out: dict = {}
    for workload in workloads:
        sides = {
            "parent": [r for r in parent if r["workload"] == workload and r["trace"] == 0],
            "change": [r for r in change if r["workload"] == workload and r["trace"] == 0],
        }
        entry: dict = {
            "seeds": {side: [r["seed"] for r in runs] for side, runs in sides.items()},
            "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
            "end_to_end": {},
        }
        for metric in end_to_end:
            name = metric["name"]
            values = {side: metric_values(runs, name) for side, runs in sides.items()}
            if not values["parent"] or not values["change"]:
                continue
            row = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": spread(values["parent"]),
                "change": spread(values["change"]),
            }
            if len(values["parent"]) == len(values["change"]):
                row["pairs_won"] = pairs_won(values["parent"], values["change"], metric["better"])
            entry["end_to_end"][name] = row
        traced = {}
        for side, records in (("parent", parent), ("change", change)):
            for record in records:
                if (
                    record["workload"] == workload
                    and record["trace"] == 1
                    and record["seed"] == TRACED_SEED
                ):
                    metrics = record["metrics"]
                    traced[side] = {
                        name: metrics[name]["value"] for name in TRACED_METRICS if name in metrics
                    }
        if traced:
            entry["traced_seed1"] = traced
        out[workload] = entry
    return out


def host_of(records: list[dict]) -> dict:
    """The host facts the records share (a fact that differs is dropped)."""
    keys = ("nproc", "python", "platform", "jobs")
    facts = {}
    for key in keys:
        values = {json.dumps(r["host"].get(key)) for r in records}
        if len(values) == 1:
            facts[key] = records[0]["host"].get(key)
    return facts


def code_of(records: list[dict]) -> dict:
    """What the records ran: the checkout's commit (null outside git, and
    the parent's for an uncommitted change) and the sources' digest."""
    return {
        key: sorted({r["host"].get(key) for r in records}, key=str)
        for key in ("git_commit", "source_sha256")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    parent = load_records(args.parent)
    change = load_records(args.change)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    payload = {
        "_comment": "Generated by scripts/bench_record.py from perfbench result records.",
        "host": host_of(parent + change),
        "parent": code_of(parent),
        "change": code_of(change),
        "workloads": fold(parent, change, end_to_end),
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({len(parent)} parent and {len(change)} change records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
