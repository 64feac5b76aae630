"""Internal-fault waveform synthesis from the split-winding transformer bank.

Fault types are expressed as extra mesh loops over the 12 sub-windings
(three phases x [x, y, z, w]): ground and turn-to-turn faults short the
tapped fraction of one winding, phase-to-phase faults connect two phases'
taps, and winding-to-winding faults bridge primary and secondary taps.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, replace

import numpy as np

from ..errors import FaultFractionOutOfRange, SingularMatrix
from ..sampling import (PHASES, EventKind, EventLabel, FaultType, SamplingSpec,
                        Unit, Waveform)
from .circuit import reduce_meshes, run_piecewise
from .parameters import Interval, check_parameters
from .transformer import TwoWindingParams, build_two_winding_L

#: Ratings used for the three protected units. Distinct impedances and
#: ratios keep the units' fault signatures distinguishable downstream.
UNIT_PRESETS = {
    Unit.PT: TwoWindingParams(mva=500.0, v1=500.0, v2=230.0, xl=0.10, im=0.03),
    Unit.SERIES: TwoWindingParams(mva=500.0, v1=230.0, v2=230.0, xl=0.08, im=0.025),
    Unit.EXCITING: TwoWindingParams(mva=300.0, v1=230.0, v2=138.0, xl=0.12, im=0.04),
}

_SOURCE_R_PU = 0.04
_WINDING_R_PU = 0.003
_LOAD_PU = 0.85
_GROUND_R_OHM = 0.5

SHIFTS = ("forward", "backward")   # phase-shift directions


#: {parameter: (type, allowed values or Interval, default)}: the one list
#: of what a fault takes; ``simulate_internal_fault`` checks its case by it
PARAMETERS = {
    "fault_type": (FaultType, tuple(FaultType), MISSING),
    "unit": (Unit, tuple(Unit), Unit.PT),
    # inf is the open fault
    "resistance_ohm": (float, Interval(0.0, math.inf), 0.01),
    "pct_winding": (float, Interval(0.0, 100.0, error=FaultFractionOutOfRange),
                    50.0),
    "side": (str, ("primary", "secondary"), "primary"),
    "phase": (str, PHASES, "a"),                     # TurnToTurn, WindingToWinding
    "tap": (float, Interval(0.0, 1.0, open_low=True), 1.0),   # LTC position
    "shift": (str, SHIFTS, "forward"),               # phase-shift direction
}


def _phase_offsets(shift: str) -> np.ndarray:
    seq = -2.0 * math.pi / 3.0 if shift == "forward" else 2.0 * math.pi / 3.0
    return np.array([0.0, seq, -seq])


def _tap_drive(tap: float) -> float:
    # LTC position scales the driving voltage seen by the protected unit.
    return 0.4 + 0.6 * tap


def _fault_phases(fault: dict):
    """(grounded phases, ungrounded tap-to-tap pairs, same-phase w-w phases)."""
    ft = fault["fault_type"]
    name = ft.value
    if ft is FaultType.TURN_TO_TURN:
        return [], [], [(fault["phase"], "turn")]
    if ft is FaultType.WINDING_TO_WINDING:
        return [], [], [(fault["phase"], "ww")]
    phases = [p[1] for p in name.split("-") if p.startswith("w")]
    grounded = name.endswith("-g")
    if grounded:
        return phases, [], []
    # ungrounded multi-phase faults close tap-to-tap loops between
    # consecutive involved phases
    pairs = [(phases[i], phases[i + 1]) for i in range(len(phases) - 1)]
    return [], pairs, []


def _fault_mesh_columns(fault: dict, n_windings: int):
    """Incidence columns and lumped resistances for the fault meshes."""
    # sub-winding index layout: 4*phase + (0:x, 1:y, 2:z, 3:w)
    tapped = 0 if fault["side"] == "primary" else 2
    r_fault = fault["resistance_ohm"]
    grounded, pairs, local = _fault_phases(fault)
    cols, resistances = [], []
    for ph in grounded:
        col = np.zeros(n_windings)
        col[4 * PHASES.index(ph) + tapped] = -1.0
        cols.append(col)
        resistances.append(r_fault + _GROUND_R_OHM)
    for ph1, ph2 in pairs:
        col = np.zeros(n_windings)
        col[4 * PHASES.index(ph1) + tapped] = -1.0
        col[4 * PHASES.index(ph2) + tapped] = 1.0
        cols.append(col)
        resistances.append(r_fault)
    for ph, kind in local:
        col = np.zeros(n_windings)
        if kind == "turn":
            col[4 * PHASES.index(ph) + tapped] = -1.0
        else:  # winding-to-winding: bridge primary tap to secondary tap
            col[4 * PHASES.index(ph) + 0] = -1.0
            col[4 * PHASES.index(ph) + 2] = 1.0
        cols.append(col)
        resistances.append(r_fault)
    return cols, resistances


def _bank_matrices(p: TwoWindingParams):
    """12x12 inductance and per-sub-winding resistance for the 3-phase bank."""
    l4 = build_two_winding_L(p).entries
    l_bank = np.kron(np.eye(3), l4)
    z1 = p.v1 * p.v1 / p.mva
    z2 = p.v2 * p.v2 / p.mva
    fa = p.fault1 * 0.01
    fc = p.fault2 * 0.01
    r_phase = np.array(
        [
            _WINDING_R_PU * z1 * fa,
            _WINDING_R_PU * z1 * (1.0 - fa),
            _WINDING_R_PU * z2 * fc,
            _WINDING_R_PU * z2 * (1.0 - fc),
        ]
    )
    return l_bank, np.tile(r_phase, 3)


def _service_meshes(n_windings: int):
    """Incidence for the six always-present meshes (3 source, 3 load)."""
    inc = np.zeros((n_windings, 6))
    for ph in range(3):
        inc[4 * ph + 0, ph] = 1.0  # x in the source loop
        inc[4 * ph + 1, ph] = 1.0  # y in the source loop
        inc[4 * ph + 2, 3 + ph] = 1.0  # z in the load loop
        inc[4 * ph + 3, 3 + ph] = 1.0  # w in the load loop
    return inc


def simulate_internal_fault(
    params: dict,
    spec: SamplingSpec = SamplingSpec(),
    duration_cycles: int = 8,
    inception_index: int | None = None,
) -> Waveform:
    """Solve the faulted bank of ``params``'s unit and return per-unit
    differential currents.

    ``params`` is a case of ``PARAMETERS`` (``fault_type`` required), checked
    by ``check_parameters``. The fault meshes are switched in at
    ``inception_index``; before that the state sits on the exact periodic
    orbit of the discrete system. A fault resistance of ``math.inf`` leaves
    the fault branch open (no-fault limit).
    """
    spc = spec.samples_per_cycle
    n = duration_cycles * spc
    if inception_index is None:
        inception_index = 2 * spc
    if not 0 <= inception_index <= n - 3 * spc:
        raise ValueError("inception must leave at least 3 post-fault cycles")

    fault = check_parameters(EventKind.INTERNAL_FAULT.value, PARAMETERS, params)
    unit, fault_type = fault["unit"], fault["fault_type"]
    pct = fault["pct_winding"]
    p = UNIT_PRESETS[unit]
    if fault_type is FaultType.WINDING_TO_WINDING:
        # contact points at different fractions of each winding, so the
        # bridged taps sit at different potentials even for a 1:1 ratio
        p_run = replace(p, fault1=pct, fault2=pct * 0.5)
    elif fault["side"] == "primary":
        p_run = replace(p, fault1=pct, fault2=50.0)
    else:
        p_run = replace(p, fault1=50.0, fault2=pct)

    l_bank, r_windings = _bank_matrices(p_run)
    n_w = l_bank.shape[0]
    inc_pre = _service_meshes(n_w)
    z1 = p_run.v1 * p_run.v1 / p_run.mva
    z2 = p_run.v2 * p_run.v2 / p_run.mva
    extra_pre = np.array([_SOURCE_R_PU * z1] * 3 + [z2 / _LOAD_PU] * 3)
    src_pre = np.zeros((6, 3))
    src_pre[:3, :3] = np.eye(3)
    sys_pre = reduce_meshes(l_bank, r_windings, inc_pre, extra_pre, src_pre)

    # 3-phase source v[n] = amp * sin(theta * n + offs) = Re(phasors * z^n),
    # one cycle == spc samples exactly
    theta = 2.0 * math.pi / spc
    offs = _phase_offsets(fault["shift"])
    amp = math.sqrt(2.0) * p_run.v1 * _tap_drive(fault["tap"])
    phasors = amp * np.exp(1j * (offs - math.pi / 2.0))

    h = spec.dt
    open_fault = math.isinf(fault["resistance_ohm"])
    if open_fault:
        segments = [(0, sys_pre)]
    else:
        cols, res = _fault_mesh_columns(fault, n_w)
        inc_post = np.column_stack([inc_pre] + cols)
        extra_post = np.concatenate([extra_pre, np.asarray(res)])
        src_post = np.vstack([src_pre, np.zeros((len(cols), 3))])
        sys_post = reduce_meshes(l_bank, r_windings, inc_post, extra_post, src_post)
        segments = [(0, sys_pre), (inception_index, sys_post)]

    try:
        traj = run_piecewise(segments, h, phasors, theta, n)
    except SingularMatrix as exc:
        raise SingularMatrix(
            f"{exc} [unit={unit.value} fault={fault_type.value} "
            f"pct={pct} side={fault['side']}]"
        ) from exc

    base1 = math.sqrt(2.0) * p_run.mva / p_run.v1
    base2 = math.sqrt(2.0) * p_run.mva / p_run.v2
    diff = traj[:, 0:3] / base1 + traj[:, 3:6] / base2

    label = EventLabel(
        kind=EventKind.INTERNAL_FAULT, unit=unit, fault_type=fault_type
    )
    provenance = {
        **fault, "unit": unit.value, "fault_type": fault_type.value,
        "generator": "internal_fault", "mva": p_run.mva, "v1": p_run.v1,
        "v2": p_run.v2, "duration_cycles": duration_cycles,
    }
    return Waveform(
        spec=spec,
        samples=diff,
        label=label,
        inception_index=inception_index,
        provenance=provenance,
    )
