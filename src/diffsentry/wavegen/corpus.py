"""Corpus plans: parameter grids per event class, enumeration, and generation.

A plan is a list of per-class parameter grids. Enumeration is the full
cross-product in declared key order; a per-class cap subsamples the grid
with a seeded draw. Generation writes one CSV per waveform plus a manifest,
and is byte-identical across reruns of the same (plan, seed).
"""

from __future__ import annotations

import itertools
import json
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import IoFailure, ParameterOutOfRange, PlanEmpty
from ..sampling import (
    PHASES,
    DisturbanceType,
    EventKind,
    EventLabel,
    FaultType,
    SamplingSpec,
    Unit,
    Waveform,
    write_waveform_csv,
)
from . import disturbances as dist
from .disturbances import generate_disturbance
from .faults import PARAMETERS as FAULT_PARAMETERS
from .faults import SHIFTS, FaultSpec, UNIT_PRESETS, simulate_internal_fault
from .parameters import check_parameters

_INCEPTION_BASE_CYCLES = 2
_DURATION_CYCLES = 8


@dataclass(frozen=True)
class ClassPlan:
    """Grid of generator parameters for one event class."""

    name: str                       # 'InternalFault' or a DisturbanceType value
    grid: dict
    cap: Optional[int] = None

    def __post_init__(self):
        known = [EventKind.INTERNAL_FAULT.value,
                 *(kind.value for kind in DisturbanceType)]
        if self.name not in known:
            raise ParameterOutOfRange(f"no event class {self.name!r}; the "
                                      f"classes are {', '.join(known)}")
        if self.cap is not None and not (
                isinstance(self.cap, numbers.Integral) and self.cap >= 0):
            raise ParameterOutOfRange(
                f"{self.name}: cap must be None or a count >= 0, not {self.cap!r}")

    def enumerate_cases(self) -> list[dict]:
        keys = list(self.grid.keys())
        value_lists = [list(self.grid[k]) for k in keys]
        return [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]


@dataclass(frozen=True)
class CorpusPlan:
    classes: tuple[ClassPlan, ...]
    duration_cycles: int = _DURATION_CYCLES


def _case_seed(master_seed: int, class_idx: int, case_idx: int) -> int:
    # simple documented derivation; independent of generation order
    return (master_seed * 1_000_003 + class_idx * 10_007 + case_idx) % (2**31 - 1)


def _inception(spec: SamplingSpec, step, divisions: int,
               duration_cycles: int) -> int:
    """The sample of inception step ``step``, in ``divisions`` per cycle
    from two cycles in. A step that is not an integer >= 0, or that leaves
    fewer than 3 cycles of a ``duration_cycles`` record after it, is a
    ParameterOutOfRange."""
    spc = spec.samples_per_cycle
    if (isinstance(step, numbers.Integral) and not isinstance(step, (bool, np.bool_))
            and step >= 0):
        index = _INCEPTION_BASE_CYCLES * spc + int(round(step * spc / divisions))
        if index <= (duration_cycles - 3) * spc:
            return index
    raise ParameterOutOfRange(
        f"inception_step must be an integer >= 0 that leaves 3 cycles of a "
        f"{duration_cycles}-cycle record after it, not {step!r}")


def check_case(class_name: str, params: dict, spec: SamplingSpec,
               duration_cycles: int) -> tuple[int, dict]:
    """(inception index, generator parameters) of one enumerated plan case,
    checked against its class's table (``faults.PARAMETERS`` or
    ``disturbances.PARAMETERS``): a key the class does not take, a bad
    value or a bad ``inception_step`` is a ParameterOutOfRange naming the
    key (a winding percentage outside [0, 100] a FaultFractionOutOfRange)."""
    p = dict(params)
    step = p.pop("inception_step", 0)
    if class_name == EventKind.INTERNAL_FAULT.value:
        divisions, table = 12, FAULT_PARAMETERS
    else:
        kind = DisturbanceType(class_name)
        divisions = 24 if kind is DisturbanceType.FERRORESONANCE else 12
        table = dist.PARAMETERS[kind]
    return (_inception(spec, step, divisions, duration_cycles),
            check_parameters(class_name, table, p))


def build_case(class_name: str, params: dict, spec: SamplingSpec,
               duration_cycles: int) -> Waveform:
    """Synthesize the waveform for one enumerated plan case, checked by
    ``check_case``."""
    inception, p = check_case(class_name, params, spec, duration_cycles)
    if class_name == EventKind.INTERNAL_FAULT.value:
        fault = FaultSpec(**p)
        return simulate_internal_fault(
            UNIT_PRESETS[fault.unit], fault, spec,
            duration_cycles=duration_cycles, inception_index=inception,
        )
    return generate_disturbance(class_name, p, spec, inception_index=inception,
                                duration_cycles=duration_cycles)


def generate_corpus(plan: CorpusPlan, seed: int, out_dir) -> list[dict]:
    """Write waveform CSVs and `manifest.json` under ``out_dir``.

    Returns the manifest rows (sorted by file name). Identical plan + seed
    produce byte-identical directory trees.
    """
    cases = enumerate_plan(plan, seed)
    if not cases:
        raise PlanEmpty("corpus plan enumerates no cases")
    spec = SamplingSpec()
    # a bad case anywhere in the plan fails before the first write
    for _, class_name, _, params, _ in cases:
        check_case(class_name, params, spec, plan.duration_cycles)
    wave_dir = os.path.join(out_dir, "waveforms")
    os.makedirs(wave_dir, exist_ok=True)

    manifest = []
    for class_idx, class_name, case_idx, params, case_seed in cases:
        wave = build_case(class_name, params, spec, plan.duration_cycles)
        slug = class_name.lower()
        fname = f"{slug}_{case_idx:05d}.csv"
        write_waveform_csv(wave, os.path.join(wave_dir, fname))
        row = {
            "file": f"waveforms/{fname}",
            **wave.label.to_dict(),
            "inception_index": wave.inception_index,
            "provenance": wave.provenance,
            "seed": case_seed,
        }
        manifest.append(row)

    manifest.sort(key=lambda r: r["file"])
    try:
        with open(os.path.join(out_dir, "manifest.json"), "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write manifest: {exc}") from exc
    return manifest


def enumerate_plan(plan: CorpusPlan, seed: int):
    """(class_idx, class_name, case_idx, params, case_seed) for every kept case."""
    out = []
    for class_idx, cp in enumerate(plan.classes):
        all_cases = cp.enumerate_cases()
        if not all_cases:
            continue
        keep = np.arange(len(all_cases))
        if cp.cap is not None and cp.cap < len(all_cases):
            rng = np.random.default_rng([seed, class_idx])
            keep = np.sort(rng.choice(len(all_cases), size=cp.cap, replace=False))
        for case_idx, orig_idx in enumerate(keep):
            out.append(
                (
                    class_idx,
                    cp.name,
                    case_idx,
                    all_cases[int(orig_idx)],
                    _case_seed(seed, class_idx, case_idx),
                )
            )
    return out


#: keys every manifest row must carry; the label keys may hold null
_MANIFEST_KEYS = ("file", "kind", "inception_index", "unit", "fault_type",
                  "disturbance_type")


def load_manifest(corpus_dir) -> list[dict]:
    """Read ``manifest.json``; any unreadable or malformed row, or a second
    row naming a row's file, is an IoFailure."""
    path = os.path.join(corpus_dir, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read manifest at {path}: {exc}") from exc
    except ValueError as exc:
        raise IoFailure(f"manifest at {path} is not valid JSON: {exc}") from exc
    if not (isinstance(manifest, list)
            and all(isinstance(row, dict) for row in manifest)):
        raise IoFailure(f"manifest at {path} must hold a list of JSON objects")
    first_row = {}  # file -> the index of the row that names it first
    for idx, row in enumerate(manifest):
        missing = [key for key in _MANIFEST_KEYS if key not in row]
        if missing:
            raise IoFailure(
                f"manifest at {path}: row {idx} lacks {', '.join(missing)}")
        file, inception = row["file"], row["inception_index"]
        if not (isinstance(file, str) and file):
            raise IoFailure(f"manifest at {path}: row {idx} has file {file!r}, "
                            "not a non-empty string")
        # one record in two rows could land in both training and holdout
        if first_row.setdefault(file, idx) != idx:
            raise IoFailure(f"manifest at {path}: rows {first_row[file]} and "
                            f"{idx} both name file {file!r}")
        if not isinstance(inception, int) or isinstance(inception, bool):
            raise IoFailure(f"manifest at {path}: row {idx} has inception_index "
                            f"{inception!r}, not an integer")
        try:
            EventLabel.from_dict(row)
        except ValueError as exc:
            raise IoFailure(
                f"manifest at {path}: row {idx} has a bad label: {exc}") from exc
    return manifest


# -- stock plans ---------------------------------------------------------------

def reference_plan(cases_per_class: int = 120, fault_cases: int = 468) -> CorpusPlan:
    """Desk-scale seeded corpus covering all 7 classes and all fault types."""
    fault = ClassPlan(
        name=EventKind.INTERNAL_FAULT.value,
        grid={
            "unit": tuple(u.value for u in Unit),
            "fault_type": tuple(ft.value for ft in FaultType),
            "resistance_ohm": dist.FAULT_RESISTANCES_OHM,
            "pct_winding": (20.0, 80.0),
            "inception_step": (0, 6),
            "side": ("primary",),
            "shift": ("forward",),
            "tap": (1.0,),
        },
        cap=fault_cases,
    )
    inrush = ClassPlan(
        name=DisturbanceType.MAGNETIZING_INRUSH.value,
        grid={
            "residual_flux_pct": dist.RESIDUAL_FLUX_PCT,
            "pattern": dist.RESIDUAL_PATTERNS,
            "inception_step": tuple(range(12)),
            "tap": (0.6, 1.0),
            "shift": SHIFTS,
        },
        cap=cases_per_class,
    )
    sympathetic = ClassPlan(
        name=DisturbanceType.SYMPATHETIC_INRUSH.value,
        grid=dict(inrush.grid),
        cap=cases_per_class,
    )
    ctsat = ClassPlan(
        name=DisturbanceType.EXTERNAL_FAULT_CT_SAT.value,
        grid={
            "resistance_ohm": dist.FAULT_RESISTANCES_OHM,
            "fault_name": dist.EXT_FAULT_NAMES,
            "bus_kv": dist.BUSES_KV,
            "inception_step": (0, 3, 6, 9),
            "tap": (1.0,),
            "shift": ("forward",),
        },
        cap=cases_per_class,
    )
    capacitor = ClassPlan(
        name=DisturbanceType.CAPACITOR_SWITCHING.value,
        grid={
            "legs": dist.CAP_LEGS,
            "inception_step": tuple(range(12)),
            "shift": SHIFTS,
            "tap": dist.TAPS,
        },
        cap=cases_per_class,
    )
    nonlinear = ClassPlan(
        name=DisturbanceType.NONLINEAR_LOAD_SWITCHING.value,
        grid={
            "firing_angle_deg": dist.FIRING_DEG,
            "inception_step": tuple(range(12)),
            "tap": dist.TAPS,
        },
        cap=cases_per_class,
    )
    ferro = ClassPlan(
        name=DisturbanceType.FERRORESONANCE.value,
        grid={
            "grading_uf": dist.GRADING_UF,
            "phase": PHASES,
            "inception_step": tuple(range(24)),
        },
        cap=cases_per_class,
    )
    return CorpusPlan(
        classes=(fault, inrush, sympathetic, ctsat, capacitor, nonlinear, ferro)
    )
