#!/usr/bin/env python
"""Anatomy of STT's overhead — and how SDO removes it.

Uses the analysis instruments (`repro.analysis`) to show *why* the Figure 6
numbers happen, on one kernel:

1. the taint-window distribution (how long tainted loads would have to
   wait under STT),
2. memory-level parallelism under Unsafe vs STT vs STT+SDO (the overlap
   STT's delays destroy and SDO restores),
3. a pipeline diagram of the same loop iteration under each scheme.

Run:  python examples/anatomy_of_overhead.py
"""

from repro.analysis import CycleTracer, MlpProbe, TaintWindowProbe, render_timeline
from repro.common import AttackModel, MachineConfig
from repro.core import SdoProtection, make_predictor
from repro.common.config import PredictorKind
from repro.isa import assemble
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core
from repro.stt import SttProtection

import random

rng = random.Random(1)
TABLE = 1 << 20
ITERS = 120
MEMORY = {}
for i in range(ITERS * 3):
    MEMORY[4096 + 8 * i] = rng.randrange(16 * 1024) * 8
for i in range(0, 16 * 1024 * 8, 8):
    MEMORY[TABLE + i] = rng.randrange(1000)

SOURCE = f"""
    li r1, 0
    li r2, {ITERS}
    li r7, 150
    li r12, 3
loop:
    shl r9, r1, r12
    load r5, r9, 4096          ; index (strided)
    load r6, r5, {TABLE}       ; indirect table load (tainted under branches)
    blt r6, r7, taken
    add r3, r3, r6
    jmp merge
taken:
    sub r3, r3, r6
merge:
    addi r1, r1, 1
    blt r1, r2, loop
    store r3, r0, 9000
    halt
"""

WARM = [TABLE + i for i in range(0, 16 * 1024 * 8, 64)] + [
    4096 + 8 * i for i in range(0, ITERS * 3, 8)
]


def build(protection):
    hierarchy = MemoryHierarchy(MachineConfig())
    core = Core(assemble(SOURCE, MEMORY), protection=protection, hierarchy=hierarchy)
    hierarchy.warm(WARM)
    return core


def main() -> None:
    schemes = {
        "Unsafe": None,
        "STT{ld}": SttProtection(AttackModel.SPECTRE),
        "STT+SDO (Hybrid)": SdoProtection(
            make_predictor(PredictorKind.HYBRID), AttackModel.SPECTRE,
            fp_transmitters=True,
        ),
    }
    print(f"{'scheme':18s} {'cycles':>7s} {'mean MLP':>9s} {'peak':>5s} "
          f"{'taint windows (mean/p90)':>26s}")
    traces = {}
    for name, protection in schemes.items():
        core = build(protection)
        mlp = MlpProbe(core)
        windows = TaintWindowProbe(core) if protection else None
        tracer = CycleTracer().attach(core)
        result = core.run()
        tracer.close()
        traces[name] = tracer.records()
        if windows and windows.windows.count:
            window_text = f"{windows.mean_window:8.1f} / {windows.percentile(0.9):4d}"
        else:
            window_text = "        - /    -"
        print(f"{name:18s} {result.cycles:7d} {mlp.mean_mlp:9.2f} "
              f"{mlp.peak_mlp:5d} {window_text:>26s}")

    print("\nPipeline diagram: one window of the loop under STT+SDO")
    print("(F fetch, D dispatch, I issue, C complete, R retire; O = Obl-Ld)\n")
    print(render_timeline(traces["STT+SDO (Hybrid)"], first=40, count=14, width=60))
    print(
        "\nReading: STT's taint windows are dead time for every tainted load;"
        "\nSDO issues those loads obliviously inside the window, so the miss"
        "\noverlap (MLP) returns to the insecure baseline's level."
    )


if __name__ == "__main__":
    main()
