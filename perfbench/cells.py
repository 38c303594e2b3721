"""The benchmark's workloads: seeded kernels and the cells run over them.

Every kernel is built by a :mod:`repro.workloads.generators` function with
the parameters :mod:`repro.workloads.spec17` uses for it (or, for the
throughput kernel, ``benchmarks/test_simulator_throughput.py``).  Only the
generator seeds change: each is derived from the benchmark's ``--seed`` and
the kernel's name, so one seed always yields the same inputs and the
simulator sees nothing but the generated programs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.common.config import AttackModel
from repro.sim.api import RunMetrics, RunRequest
from repro.sim.configs import config_by_name
from repro.workloads.generators import (
    make_compute_kernel,
    make_fp_dense,
    make_indirect_stream,
    make_mixed_kernel,
    make_pointer_chase,
)

#: The three protection designs both kinds of workload run: the insecure
#: baseline, STT protecting loads and FP transmitters, and SDO with the
#: hybrid location predictor.  Every cell runs under the Spectre model.  The
#: full matrix (eleven configs, both models) does not fit the run-time
#: budget: hashing mcf_like's memory image costs ~1 s per cache lookup, and
#: each extra mcf_like cell adds two lookups to the parent's serial work.
CONFIGS = ("Unsafe", "STT{ld+fp}", "Hybrid")

#: Metric-name suffix per config (metric names allow no braces or `+`).
CONFIG_SLUGS = {"Unsafe": "unsafe", "STT{ld+fp}": "stt-ld-fp", "Hybrid": "hybrid"}

#: Iteration scale for the spec17 kernels (``spec17.suite(scale)`` rule).
MATRIX_SCALE = 0.2
LIVE_SCALE = 0.2


def derive_seed(seed: int, kernel: str) -> int:
    """The generator seed for ``kernel`` under benchmark seed ``seed``."""
    digest = hashlib.sha256(f"{seed}/{kernel}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _iterations(count: int, scale: float) -> int:
    return max(60, int(count * scale))


def matrix_kernels(seed: int):
    """mcf_like, omnetpp_like, namd_like, deepsjeng_like and exchange2_like:
    the L3/DRAM, L2, L1-FP, L1-branchy and no-memory corners of the suite.
    mcf_like's 320k-word table is what exposes the cost of hashing a
    request's memory image.  An odd kernel count keeps the median cell
    inside one kernel's group instead of on the edge between two."""
    def n(count):
        return _iterations(count, MATRIX_SCALE)

    return (
        make_indirect_stream(
            "mcf_like", table_words=320 * 1024, iterations=n(140),
            branch_taken_prob=0.15, unroll=3, pad_ops=6,
            seed=derive_seed(seed, "mcf_like"),
        ),
        make_pointer_chase(
            "omnetpp_like", nodes=6 * 1024, iterations=n(700), pad_ops=2,
            seed=derive_seed(seed, "omnetpp_like"),
        ),
        make_fp_dense(
            "namd_like", elems=2 * 1024, iterations=n(600), subnormal_frac=0.002,
            seed=derive_seed(seed, "namd_like"),
        ),
        make_indirect_stream(
            "deepsjeng_like", table_words=2 * 1024, iterations=n(800),
            branch_taken_prob=0.4, unroll=1, seed=derive_seed(seed, "deepsjeng_like"),
        ),
        make_compute_kernel("exchange2_like", iterations=n(900)),
    )


def live_kernels(seed: int):
    """The throughput kernel, a pointer chase that starts with every node in
    DRAM, gcc_like and namd_like: pipeline-, memory-, branch- and FP-bound
    cells for measuring per-cycle cost."""
    def n(count):
        return _iterations(count, LIVE_SCALE)

    return (
        make_indirect_stream(
            "throughput_kernel", table_words=8192, iterations=250,
            seed=derive_seed(seed, "throughput_kernel"),
        ),
        make_pointer_chase(
            "dram_chase", nodes=6 * 1024, iterations=n(700), pad_ops=2,
            warm_table=False, seed=derive_seed(seed, "dram_chase"),
        ),
        make_mixed_kernel(
            "gcc_like", table_words=16 * 1024, iterations=n(700),
            seed=derive_seed(seed, "gcc_like"),
        ),
        make_fp_dense(
            "namd_like", elems=2 * 1024, iterations=n(600), subnormal_frac=0.002,
            seed=derive_seed(seed, "namd_like"),
        ),
    )


@dataclass(frozen=True)
class CellSet:
    """The requests of one workload, in sweep order."""

    requests: tuple[RunRequest, ...]

    def labels(self) -> list[str]:
        return [cell_label(request) for request in self.requests]


def build_cells(workload: str, seed: int) -> CellSet:
    """Every (kernel, config) request of benchmark ``workload``."""
    kernels = live_kernels(seed) if workload == "cells-live" else matrix_kernels(seed)
    requests = tuple(
        RunRequest(
            workload=kernel, config=config_by_name(config), attack_model=AttackModel.SPECTRE
        )
        for kernel in kernels
        for config in CONFIGS
    )
    return CellSet(requests)


def cell_label(request: RunRequest) -> str:
    return f"{request.attack_model.value}/{request.workload.name}/{request.config.name}"


def digest(metrics: RunMetrics) -> str:
    """SHA-256 of the canonical JSON of ``metrics.to_dict()``."""
    blob = json.dumps(metrics.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
