"""Machine configuration.

The defaults in :class:`MachineConfig` reproduce Table I of the paper
("Simulated architecture parameters"):

=====================  =========================================================
Pipeline               8 fetch/decode/issue/commit, 32/32 SQ/LQ entries,
                       192 ROB, 16 MSHRs, tournament branch predictor
L1 I-Cache             32KB, 64B line, 4-way, 2-cycle latency
L1 D-Cache             32KB, 64B line, 8-way, 2-cycle latency
L2 Cache               256KB, 64B line, 8-way, 12-cycle latency
L3 Cache               2MB, 64B line, 8-way, 40-cycle latency
Network                4x2 mesh, 128b link width, 1 cycle latency per hop
Coherence protocol     directory-based MESI
DRAM                   50ns latency after L2 (100 cycles at the 2GHz we assume)
=====================  =========================================================

Protection configuration (:class:`ProtectionConfig`) selects between the
design variants of Table II: ``Unsafe``, ``STT{ld}``, ``STT{ld+fp}``, and the
SDO variants (``Static L1/L2/L3``, ``Hybrid``, ``Perfect``), each under either
the *Spectre* or *Futuristic* attack model.

Every config class is a :class:`~repro.common.codec.Codec`: its
``to_dict``/``from_dict`` JSON form (enums by value, nested configs
recursively) is what the result cache keys a machine and its configuration
on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.common.codec import Codec


class MemLevel(enum.IntEnum):
    """Levels of the memory hierarchy, ordered nearest-first.

    The integer values matter: the location predictor predicts a level ``j``
    and an Obl-Ld looks up every level ``<= j`` (Section V-B).  ``i <= j``
    means the prediction was *accurate*; ``i == j`` means it was also
    *precise* (Section V-D).
    """

    L1 = 1
    L2 = 2
    L3 = 3
    DRAM = 4

    @property
    def pretty(self) -> str:
        return {1: "L1", 2: "L2", 3: "L3", 4: "DRAM"}[int(self)]


class AttackModel(enum.Enum):
    """STT attack models (Section III).

    * ``SPECTRE`` covers control-flow speculation only: an access
      instruction's output untaints once all older control-flow instructions
      have resolved.
    * ``FUTURISTIC`` covers all speculation: the output untaints only once the
      access instruction can no longer be squashed for any reason.
    """

    SPECTRE = "spectre"
    FUTURISTIC = "futuristic"


class ProtectionKind(enum.Enum):
    """Top-level protection scheme (Table II rows, plus the competing
    published baselines evaluated alongside them)."""

    UNSAFE = "unsafe"
    STT = "stt"
    STT_SDO = "stt+sdo"
    #: SpecBox-style label-based transparent speculation (arXiv 2107.08367).
    SPECBOX = "specbox"
    #: Delay-on-miss / InvisiSpec-style: speculative L1 misses are delayed
    #: to the visibility point, speculative L1 hits proceed.
    DELAY_ON_MISS = "delay-on-miss"
    #: Fence-on-every-load: every speculative load is delayed to its
    #: visibility point — the worst-case conservative baseline.
    FENCE = "fence"


class PredictorKind(enum.Enum):
    """Location-predictor flavours evaluated in the paper (Table II)."""

    STATIC_L1 = "static-l1"
    STATIC_L2 = "static-l2"
    STATIC_L3 = "static-l3"
    HYBRID = "hybrid"
    PERFECT = "perfect"


@dataclass(frozen=True)
class CacheConfig(Codec):
    """One cache level.  Sizes in bytes."""

    name: str
    size: int
    line_size: int
    assoc: int
    latency: int
    banks: int = 4
    mshrs: int = 16
    ports: int = 2
    slices: int = 1  # >1 only for the shared, sliced L3

    def __post_init__(self) -> None:
        if self.size % (self.line_size * self.assoc) != 0:
            raise ValueError(
                f"{self.name}: size {self.size} not divisible by "
                f"line_size*assoc = {self.line_size * self.assoc}"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{self.name}: number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.assoc)


@dataclass(frozen=True)
class TlbConfig(Codec):
    """L1 TLB parameters.  SDO only ever looks up the L1 TLB (Section V-B).

    The default uses 64KB pages (large-page mappings for data regions, as
    SPEC-class memory-bound workloads commonly get from the OS), giving the
    128-entry TLB an 8MB reach.  The paper's design leans on L1 TLB miss
    rates being low; with 4KB pages and scatter access our synthetic tables
    would overwhelm the TLB and every Obl-Ld would fail on the DO TLB probe,
    which is a TLB artifact rather than the phenomenon under study.  The
    ``tlb_pressure`` ablation benchmark flips this back to 4KB to quantify
    exactly that effect.
    """

    entries: int = 128
    assoc: int = 8
    page_size: int = 65536
    hit_latency: int = 1
    walk_latency: int = 30


@dataclass(frozen=True)
class DramConfig(Codec):
    """DRAM behind the L3.

    The paper specifies "50ns latency after L2"; at our nominal 2GHz that is
    100 cycles added on top of the L2 round trip.  The row-buffer model gives
    a discount on consecutive hits to an open row, which is exactly the
    address-dependent timing a DO DRAM variant would have to hide
    (Section VI-B2) — and the reason the paper chooses *not* to build one.
    """

    latency: int = 100
    row_buffer_hit_latency: int = 60
    row_size: int = 8192
    banks: int = 8


@dataclass(frozen=True)
class CoreConfig(Codec):
    """Out-of-order core parameters (Table I, "Pipeline" row)."""

    fetch_width: int = 8
    decode_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    rob_entries: int = 192
    lq_entries: int = 32
    sq_entries: int = 32
    iq_entries: int = 64
    phys_int_regs: int = 300
    phys_fp_regs: int = 300
    fetch_to_decode_latency: int = 3
    mispredict_penalty: int = 2  # redirect bubble on top of refill latency
    int_alu_units: int = 6
    int_mul_units: int = 2
    fp_units: int = 4
    mem_ports: int = 2


@dataclass(frozen=True)
class ProtectionConfig(Codec):
    """Selects a Table II design variant + attack model.

    ``fp_transmitters`` distinguishes STT{ld} from STT{ld+fp}: when true,
    fmul/fdiv/fsqrt micro-ops are treated as transmitters too.  For SDO
    configurations ``fp_transmitters`` enables the Obl-FP operation (statically
    predicting normal operands) rather than delaying.
    """

    kind: ProtectionKind = ProtectionKind.UNSAFE
    attack_model: AttackModel = AttackModel.SPECTRE
    predictor: PredictorKind | None = None
    fp_transmitters: bool = False
    # Section VI-B2: no DO variant for DRAM; a DRAM prediction reverts to
    # STT-style delay.  Kept as a knob so the ablation bench can flip it.
    dram_do_variant: bool = False
    # Section V-C2 "Early forwarding from wait buffer" optimization.
    early_forwarding: bool = True

    def __post_init__(self) -> None:
        if self.kind is ProtectionKind.STT_SDO and self.predictor is None:
            raise ValueError("STT+SDO configuration requires a predictor kind")
        if self.kind is not ProtectionKind.STT_SDO and self.predictor is not None:
            raise ValueError(f"{self.kind} does not take a predictor")

    @property
    def label(self) -> str:
        """Human-readable Table II style label."""
        if self.kind is ProtectionKind.UNSAFE:
            return "Unsafe"
        if self.kind is ProtectionKind.SPECBOX:
            return "SpecBox"
        if self.kind is ProtectionKind.DELAY_ON_MISS:
            return "DelayOnMiss"
        if self.kind is ProtectionKind.FENCE:
            return "Fence"
        suffix = "{ld+fp}" if self.fp_transmitters else "{ld}"
        if self.kind is ProtectionKind.STT:
            return f"STT{suffix}"
        names = {
            PredictorKind.STATIC_L1: "Static L1",
            PredictorKind.STATIC_L2: "Static L2",
            PredictorKind.STATIC_L3: "Static L3",
            PredictorKind.HYBRID: "Hybrid",
            PredictorKind.PERFECT: "Perfect",
        }
        return names[self.predictor]


def _default_l1i() -> CacheConfig:
    return CacheConfig("L1I", 32 * 1024, 64, 4, 2)


def _default_l1d() -> CacheConfig:
    return CacheConfig("L1D", 32 * 1024, 64, 8, 2, banks=4, ports=2)


def _default_l2() -> CacheConfig:
    return CacheConfig("L2", 256 * 1024, 64, 8, 12, banks=8)


def _default_l3() -> CacheConfig:
    return CacheConfig("L3", 2 * 1024 * 1024, 64, 8, 40, banks=8, slices=8)


@dataclass(frozen=True)
class MachineConfig(Codec):
    """The full simulated machine: Table I defaults."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(default_factory=_default_l1i)
    l1d: CacheConfig = field(default_factory=_default_l1d)
    l2: CacheConfig = field(default_factory=_default_l2)
    l3: CacheConfig = field(default_factory=_default_l3)
    tlb: TlbConfig = field(default_factory=TlbConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    protection: ProtectionConfig = field(default_factory=ProtectionConfig)
    mesh_hop_latency: int = 1
    mesh_dims: tuple[int, int] = (4, 2)

    def with_protection(self, protection: ProtectionConfig) -> "MachineConfig":
        """Return a copy of this machine with a different protection scheme."""
        return replace(self, protection=protection)

    @property
    def line_size(self) -> int:
        return self.l1d.line_size

    def level_latency(self, level: MemLevel) -> int:
        """Round-trip latency of a *hit* at ``level``, as seen by the core.

        Lookup latencies accumulate down the hierarchy: a hit in the L2 pays
        the L1 lookup plus the L2 lookup, and so on.  DRAM pays the whole
        cache stack plus the DRAM access itself.
        """
        if level is MemLevel.L1:
            return self.l1d.latency
        if level is MemLevel.L2:
            return self.l1d.latency + self.l2.latency
        if level is MemLevel.L3:
            return self.l1d.latency + self.l2.latency + self.l3.latency
        return (
            self.l1d.latency + self.l2.latency + self.l3.latency + self.dram.latency
        )
