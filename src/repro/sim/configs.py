"""The evaluated design variants (Table II, plus competing baselines).

==============  ==============================================================
Unsafe          an unmodified insecure processor
STT{ld}         STT, delaying the execution of unsafe loads only
STT{ld+fp}      STT, delaying unsafe loads and fmul/fdiv/fsqrt micro-ops
Static L1/2/3   SDO with a predictor always predicting that cache level
Hybrid          SDO with the hybrid location predictor (Section V-D)
Perfect         SDO with an oracle predictor
SpecBox         label-based transparent speculation (speculative buffer)
DelayOnMiss     speculative L1 misses delayed to the visibility point
Fence           every speculative load delayed to the visibility point
==============  ==============================================================

Per Section VIII-A, every SDO configuration also protects FP transmitters by
statically predicting normal inputs (Obl-FP), and handles virtual memory
with the single L1-TLB DO variant.  Each configuration can be instantiated
under either attack model.  The last three rows are not from the paper:
they are published competing schemes (plus the fence-every-load worst
case) added as first-class baselines so the figure matrix and the
security harnesses can compare against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.codec import Codec
from repro.common.config import (
    AttackModel,
    PredictorKind,
    ProtectionConfig,
    ProtectionKind,
)
from repro.baselines import (
    DelayOnMissProtection,
    FenceProtection,
    SpecBoxProtection,
)
from repro.core.predictors import make_predictor
from repro.core.protection import SdoProtection
from repro.pipeline.protection import ProtectionScheme, UnsafeProtection
from repro.stt.protection import SttProtection


@dataclass(frozen=True)
class EvaluatedConfig(Codec):
    """One Table II row."""

    name: str
    kind: ProtectionKind
    predictor: PredictorKind | None = None
    fp_transmitters: bool = False
    description: str = ""

    def protection_config(self, attack_model: AttackModel) -> ProtectionConfig:
        return ProtectionConfig(
            kind=self.kind,
            attack_model=attack_model,
            predictor=self.predictor,
            fp_transmitters=self.fp_transmitters,
        )



EVALUATED_CONFIGS: tuple[EvaluatedConfig, ...] = (
    EvaluatedConfig(
        "Unsafe", ProtectionKind.UNSAFE,
        description="An unmodified insecure processor",
    ),
    EvaluatedConfig(
        "STT{ld}", ProtectionKind.STT,
        description="STT, delaying the execution of unsafe loads only",
    ),
    EvaluatedConfig(
        "STT{ld+fp}", ProtectionKind.STT, fp_transmitters=True,
        description="STT, delaying unsafe loads and fmul/div/fsqrt micro-ops",
    ),
    EvaluatedConfig(
        "Static L1", ProtectionKind.STT_SDO, PredictorKind.STATIC_L1,
        fp_transmitters=True,
        description="SDO with predictor always predicting L1 D-Cache",
    ),
    EvaluatedConfig(
        "Static L2", ProtectionKind.STT_SDO, PredictorKind.STATIC_L2,
        fp_transmitters=True,
        description="SDO with predictor always predicting L2",
    ),
    EvaluatedConfig(
        "Static L3", ProtectionKind.STT_SDO, PredictorKind.STATIC_L3,
        fp_transmitters=True,
        description="SDO with predictor always predicting L3",
    ),
    EvaluatedConfig(
        "Hybrid", ProtectionKind.STT_SDO, PredictorKind.HYBRID,
        fp_transmitters=True,
        description="SDO with proposed hybrid location predictor",
    ),
    EvaluatedConfig(
        "Perfect", ProtectionKind.STT_SDO, PredictorKind.PERFECT,
        fp_transmitters=True,
        description="SDO with oracle predictor always predicting correctly",
    ),
    EvaluatedConfig(
        "SpecBox", ProtectionKind.SPECBOX,
        description="Label-based transparent speculation: speculative loads "
                    "fill a speculative buffer, released into the caches at "
                    "commit and dropped on squash",
    ),
    EvaluatedConfig(
        "DelayOnMiss", ProtectionKind.DELAY_ON_MISS,
        description="Speculative loads that miss the L1 are delayed to the "
                    "visibility point; L1 hits proceed",
    ),
    EvaluatedConfig(
        "Fence", ProtectionKind.FENCE,
        description="Fence on every load: every speculative load is delayed "
                    "to its visibility point — the worst-case conservative "
                    "baseline",
    ),
)

#: The SDO rows of Table II (used by Figure 8 / Table III harnesses).
SDO_CONFIG_NAMES: tuple[str, ...] = (
    "Static L1", "Static L2", "Static L3", "Hybrid", "Perfect",
)


#: Name → config index, built once (``config_by_name`` is on the hot path of
#: request construction for every sweep cell).
_CONFIGS_BY_NAME: dict[str, EvaluatedConfig] = {c.name: c for c in EVALUATED_CONFIGS}


def config_by_name(name: str) -> EvaluatedConfig:
    try:
        return _CONFIGS_BY_NAME[name]
    except KeyError:
        import difflib

        close = difflib.get_close_matches(name, _CONFIGS_BY_NAME, n=1, cutoff=0.5)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise KeyError(
            f"no configuration named {name!r}{hint}; available: "
            f"{[c.name for c in EVALUATED_CONFIGS]}"
        ) from None


def make_protection(
    config: EvaluatedConfig,
    attack_model: AttackModel,
    dram_do_variant: bool = False,
) -> ProtectionScheme:
    """Instantiate a fresh protection scheme for one run.

    ``dram_do_variant`` is the Section VI-B2 ablation knob (a DO variant for
    DRAM); the paper's evaluated designs all leave it off.
    """
    if config.kind is ProtectionKind.UNSAFE:
        return UnsafeProtection()
    if config.kind is ProtectionKind.STT:
        return SttProtection(
            attack_model=attack_model, fp_transmitters=config.fp_transmitters
        )
    if config.kind is ProtectionKind.SPECBOX:
        return SpecBoxProtection(attack_model=attack_model)
    if config.kind is ProtectionKind.DELAY_ON_MISS:
        return DelayOnMissProtection(attack_model=attack_model)
    if config.kind is ProtectionKind.FENCE:
        return FenceProtection(attack_model=attack_model)
    return SdoProtection(
        make_predictor(config.predictor),
        attack_model=attack_model,
        fp_transmitters=config.fp_transmitters,
        dram_do_variant=dram_do_variant,
    )
