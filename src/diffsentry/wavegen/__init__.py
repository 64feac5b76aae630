"""Synthetic waveform generation: transformer model, faults, disturbances, corpora."""

from .transformer import (
    InductanceMatrix,
    TwoWindingParams,
    build_two_winding_L,
)
from .faults import UNIT_PRESETS, simulate_internal_fault
from .disturbances import generate_disturbance, saturation_current
from .noise import add_noise
from .corpus import (
    ClassPlan,
    CorpusPlan,
    generate_corpus,
    load_manifest,
    reference_plan,
)

__all__ = [
    "InductanceMatrix",
    "TwoWindingParams",
    "build_two_winding_L",
    "UNIT_PRESETS",
    "simulate_internal_fault",
    "generate_disturbance",
    "saturation_current",
    "add_noise",
    "ClassPlan",
    "CorpusPlan",
    "generate_corpus",
    "load_manifest",
    "reference_plan",
]
