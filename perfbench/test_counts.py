"""Self-check of the benchmark's traced run: its exact counts repeat.

Two traced runs of the same workload and seed must report identical call
and step counts, so that a later change may cite them.  Run from the
repository root (each traced run takes up to a minute)::

    python3 -m pytest perfbench/test_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")

EXACT = (
    "core.steps",
    "cache.key_calls",
    "golden.iss_steps",
    "golden.cursor_steps",
    "replay.record_calls",
)


def traced_counts(workload: str) -> dict[str, float]:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name in EXACT or (name.startswith("memory.") and name.endswith("_calls"))
    }


@pytest.mark.parametrize("workload", ["matrix-cold", "matrix-warm", "cells-live"])
def test_traced_counts_repeat_exactly(workload):
    first = traced_counts(workload)
    assert len(first) == len(EXACT) + 6
    assert first == traced_counts(workload)
