"""The named SPEC CPU2017-like suite used by the evaluation harness.

Sizing notes (64B lines; L1 32KB = 4K words, L2 256KB = 32K words,
L3 2MB = 256K words):

* L1-resident tables: 2K words (16KB)
* L2-resident tables: 16K words (128KB)
* L3-resident tables: 96K words (768KB)
* DRAM: 1M words (8MB), unwarmed

Iteration counts are chosen so each run commits roughly 4k-10k instructions
— enough for the predictors and branch predictor to train, small enough that
the full Figure-6 sweep (8 configurations x 2 attack models x 10 workloads)
completes in minutes on a laptop.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, partial

from repro.workloads.generators import (
    make_compute_kernel,
    make_fp_dense,
    make_fp_stream,
    make_hash_probe,
    make_indirect_stream,
    make_mixed_kernel,
    make_pointer_chase,
    make_stream_kernel,
    make_stride_reuse,
)
from repro.workloads.workload import Workload

_L1_WORDS = 2 * 1024
_L2_WORDS = 16 * 1024
_L3_WORDS = 96 * 1024
_DRAM_WORDS = 1024 * 1024


def _builders(scale: float) -> dict[str, Callable[[str], Workload]]:
    """Each kernel's builder at ``scale``, keyed by name in suite order.

    A builder takes the kernel's name and draws its memory image from its
    own seed, so building one kernel neither needs nor disturbs another.
    """

    def n(iterations: int) -> int:
        """Scale an iteration count (minimum kept high enough to train)."""
        return max(60, int(iterations * scale))

    return {
        "mcf_like": partial(
            make_indirect_stream,
            table_words=320 * 1024,  # 2.5MB warmed: ~3/4 L3, 1/4 DRAM
            iterations=n(140),
            branch_taken_prob=0.15,  # mostly predictable value branches
            unroll=3,
            pad_ops=6,
            seed=11,
            description="L3/DRAM indirect accesses under value branches "
            "(MLP-bound; SDO limited by the no-DRAM-DO-variant rule)",
        ),
        "omnetpp_like": partial(
            make_pointer_chase,
            nodes=6 * 1024,  # 96KB of nodes: L2-resident
            iterations=n(700),
            pad_ops=2,
            seed=12,
            description="L2-resident pointer chasing with value branches",
        ),
        "xalancbmk_like": partial(
            make_hash_probe,
            buckets=_L2_WORDS,
            iterations=n(550),
            pad_ops=4,
            seed=13,
            description="hash-table probing, L2-resident buckets",
        ),
        "gcc_like": partial(
            make_mixed_kernel,
            table_words=_L2_WORDS,
            iterations=n(700),
            seed=14,
            description="mixed stride/indirect with data-dependent branches",
        ),
        "deepsjeng_like": partial(
            make_indirect_stream,
            table_words=_L1_WORDS,
            iterations=n(800),
            branch_taken_prob=0.4,
            unroll=1,
            seed=15,
            description="branchy search over an L1-resident table",
        ),
        "lbm_like": partial(
            make_stream_kernel,
            words=32 * 1024,
            iterations=n(900),
            description="streaming: one L1 miss per 8 accesses (loop pattern)",
        ),
        "x264_like": partial(
            make_stride_reuse,
            block_words=_L2_WORDS,
            passes=1,
            stride=13,
            pad_ops=2,
            seed=16,
            description="strided block reuse, L2-resident",
        ),
        "namd_like": partial(
            make_fp_dense,
            elems=_L1_WORDS,
            iterations=n(600),
            subnormal_frac=0.002,
            seed=17,
            description="FP-dense compute, L1-resident operands",
        ),
        "bwaves_like": partial(
            make_fp_stream,
            words=_L2_WORDS,
            iterations=n(600),
            subnormal_frac=0.002,
            seed=18,
            description="FP streaming with indirect coefficients",
        ),
        "exchange2_like": partial(
            make_compute_kernel,
            iterations=n(900),
            description="integer compute, negligible memory traffic",
        ),
        "xz_like": partial(
            make_indirect_stream,
            table_words=_L3_WORDS,
            iterations=n(200),
            branch_taken_prob=0.2,
            unroll=3,
            pad_ops=4,
            seed=19,
            description="L3-resident indirect accesses (match-finder-like)",
        ),
    }


#: The suite's kernel names, in suite order; listing them builds nothing.
SPEC17_NAMES: tuple[str, ...] = tuple(_builders(1.0))


@cache
def workload_by_name(name: str) -> Workload:
    """The scale-1.0 kernel ``name``, built on first use and kept."""
    return _build(name, 1.0)


def scaled_workload(name: str, scale: float = 1.0) -> Workload:
    """The kernel ``name`` at ``scale``: the kept one of
    :func:`workload_by_name` at 1.0, built afresh at any other scale."""
    if scale == 1.0:
        return workload_by_name(name)
    return _build(name, scale)


def _build(name: str, scale: float) -> Workload:
    builder = _builders(scale).get(name)
    if builder is None:
        raise KeyError(f"no workload named {name!r}; available: {list(SPEC17_NAMES)}")
    return builder(name)


def suite(scale: float = 1.0) -> tuple[Workload, ...]:
    """The evaluation suite; ``scale`` shrinks iteration counts uniformly
    (used by the CI-speed benchmark harness; 1.0 = the reported runs).

    At scale 1.0 the members are the kept kernels of
    :func:`workload_by_name`, so every call returns the same objects; any
    other scale builds afresh.
    """
    return tuple(scaled_workload(name, scale) for name in SPEC17_NAMES)
