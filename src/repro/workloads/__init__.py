"""Synthetic SPEC CPU2017-like workloads.

The paper evaluates on SPEC CPU2017 reference inputs via SimPoint.  Neither
the binaries nor a cycle-accurate simulator fast enough for 10M-instruction
fragments is available here, so (per DESIGN.md §2) the suite substitutes
parameterised kernels — one per memory-behaviour class that drives the
paper's results:

==================  ==========================================================
``mcf_like``        DRAM-heavy pointer chasing with value-dependent branches
                    (STT's worst case; SDO limited by the no-DRAM-variant rule)
``omnetpp_like``    L2-resident pointer chasing, value branches — the case SDO
                    recovers almost entirely
``xalancbmk_like``  hash-table probing: index load -> bucket load -> compare
``gcc_like``        mixed stride/indirect loads, moderate branching
``deepsjeng_like``  branchy search over a small (L1) table
``lbm_like``        streaming stride loads/stores over a large array
                    (the loop-predictor pattern: one miss per N accesses)
``x264_like``       strided block reuse, L2-resident, data-dependent branches
``namd_like``       FP-dense compute on L1-resident data (FP transmitters)
``bwaves_like``     FP streaming with indirect indexing
``exchange2_like``  integer compute, tiny footprint, computed branches
==================  ==========================================================

Every workload declares the addresses to pre-warm into the hierarchy so that
measurement starts from a steady state (the stand-in for SimPoint's
checkpoint warmup).
"""

from repro.workloads.workload import Workload
from repro.workloads.generators import (
    make_compute_kernel,
    make_fp_stream,
    make_fp_dense,
    make_hash_probe,
    make_indirect_stream,
    make_mixed_kernel,
    make_pointer_chase,
    make_stream_kernel,
    make_stride_reuse,
)
from repro.workloads.spec17 import SPEC17_NAMES, suite, workload_by_name

__all__ = [
    "SPEC17_NAMES",
    "Workload",
    "make_compute_kernel",
    "make_fp_dense",
    "make_fp_stream",
    "make_hash_probe",
    "make_indirect_stream",
    "make_mixed_kernel",
    "make_pointer_chase",
    "make_stream_kernel",
    "make_stride_reuse",
    "suite",
    "workload_by_name",
]
