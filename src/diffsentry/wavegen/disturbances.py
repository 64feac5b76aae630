"""Analytic waveform templates for the six non-fault transient classes.

Each class synthesizes the differential-current signature that defines it:
magnetizing inrush and sympathetic inrush drive a piecewise-linear
saturation curve from a flux trajectory with a decaying (respectively
growing) offset; external faults with CT saturation clip one CT through a
flux-limited integrator; capacitor switching rings at high frequency;
non-linear load switching injects the 6-pulse harmonic set; ferroresonance
sustains odd-harmonic distortion. All amplitudes are per-unit.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import UnknownDisturbance
from ..sampling import (PHASES, DisturbanceType, EventKind, EventLabel,
                        SamplingSpec, Waveform, check_inception)
from .faults import SHIFTS, _phase_offsets, _tap_drive
from .parameters import check_parameters

# saturation curve: knee at 1.2 pu flux, unsaturated magnetizing slope set
# for a few-percent magnetizing current, saturated slope 100x steeper
_FLUX_KNEE = 1.2
_L_UNSAT = 33.0
_L_SAT = _L_UNSAT / 100.0
# the CT core's flux limit, and the share of current it passes saturated
_CT_FLUX_LIMIT = 0.55
_CT_RESIDUAL_GAIN = 0.05

# the settings the paper's cases sweep; reference_plan draws its grids here
TAPS = (0.2, 0.4, 0.6, 0.8, 1.0)
RESIDUAL_FLUX_PCT = (-80.0, -40.0, 0.0, 40.0, 80.0)
RESIDUAL_PATTERNS = (0, 1, 2)     # the phase that carries the set residual
FAULT_RESISTANCES_OHM = (0.01, 0.5, 10.0)
EXT_FAULT_NAMES = ("lg-a", "lg-b", "lg-c", "llg-ab", "llg-ac", "llg-bc",
                   "ll-ab", "ll-ac", "ll-bc", "lll", "lllg")
BUSES_KV = (230.0, 500.0)
CAP_LEGS = (1, 2, 3)
FIRING_DEG = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
GRADING_UF = tuple(round(0.02 * k, 2) for k in range(1, 11))

_SWITCHING = {"tap": (float, TAPS, 1.0), "shift": (str, SHIFTS, "forward")}
_INRUSH = {"residual_flux_pct": (float, RESIDUAL_FLUX_PCT, 80.0),
           "pattern": (int, RESIDUAL_PATTERNS, 0), **_SWITCHING}

#: {class: {parameter: (type, allowed values, default)}}: the one list of
#: what each disturbance generator takes
PARAMETERS = {
    DisturbanceType.MAGNETIZING_INRUSH: _INRUSH,
    DisturbanceType.SYMPATHETIC_INRUSH: _INRUSH,
    DisturbanceType.EXTERNAL_FAULT_CT_SAT: {
        "resistance_ohm": (float, FAULT_RESISTANCES_OHM, 0.01),
        "fault_name": (str, EXT_FAULT_NAMES, "lll"),
        "bus_kv": (float, BUSES_KV, 230.0), **_SWITCHING},
    DisturbanceType.CAPACITOR_SWITCHING: {"legs": (int, CAP_LEGS, 1), **_SWITCHING},
    DisturbanceType.NONLINEAR_LOAD_SWITCHING: {
        "firing_angle_deg": (float, FIRING_DEG, 0.0), **_SWITCHING},
    DisturbanceType.FERRORESONANCE: {
        "grading_uf": (float, GRADING_UF, 0.02),
        "phase": (str, PHASES, "a"), **_SWITCHING},
}


def saturation_current(flux):
    """Two-slope B-H magnetizing current for a flux trajectory (per-unit)."""
    flux = np.asarray(flux, dtype=np.float64)
    mag = np.abs(flux)
    lin = mag / _L_UNSAT
    sat = _FLUX_KNEE / _L_UNSAT + (mag - _FLUX_KNEE) / _L_SAT
    return np.sign(flux) * np.where(mag <= _FLUX_KNEE, lin, sat)


def ct_saturating_clipper(current: np.ndarray, spc: int) -> np.ndarray:
    """Flux-limited integrator CT model: faithful until the core flux limit,
    then collapsed transmission until the flux integrates back down."""
    out = np.empty_like(current)
    lam = 0.0
    step = 1.0 / spc
    for n, i_in in enumerate(current):
        trial = lam + step * i_in
        if abs(trial) <= _CT_FLUX_LIMIT:
            out[n] = i_in
            lam = trial
        else:
            out[n] = i_in * _CT_RESIDUAL_GAIN
            lam = math.copysign(_CT_FLUX_LIMIT, trial)
    return out


def _residual_pattern(residual_pct: float, pattern: int) -> np.ndarray:
    """Per-phase residual flux: one phase carries the set value, the other
    two balance it with the opposite half (three-limb core closure)."""
    phi = residual_pct / 100.0
    out = np.full(3, -phi / 2.0)
    out[pattern] = phi
    return out


def generate_disturbance(
    kind,
    params: dict,
    spec: SamplingSpec = SamplingSpec(),
    inception_index: int | None = None,
    duration_cycles: int = 8,
) -> Waveform:
    """Synthesize a labeled disturbance record of ``duration_cycles`` cycles."""
    try:
        kind = DisturbanceType(kind)
    except ValueError as exc:
        raise UnknownDisturbance(f"unknown disturbance kind {kind!r}") from exc

    spc = spec.samples_per_cycle
    n = duration_cycles * spc
    k0 = 2 * spc if inception_index is None else inception_index
    check_inception(k0, n, spec)

    prov = check_parameters(kind.value, PARAMETERS[kind], params)
    samples = _BUILDERS[kind](prov, spec, n, k0)
    label = EventLabel(kind=EventKind.DISTURBANCE, disturbance_type=kind)
    prov.update({"generator": kind.value, "duration_cycles": duration_cycles})
    return Waveform(
        spec=spec, samples=samples, label=label,
        inception_index=k0, provenance=prov,
    )


def _angles(spec: SamplingSpec, n: int, offs: np.ndarray) -> np.ndarray:
    theta = 2.0 * math.pi / spec.samples_per_cycle
    return theta * np.arange(n)[:, None] + offs[None, :]


def _magnetizing_inrush(p, spec, n, k0):
    phi_r = _residual_pattern(p["residual_flux_pct"], p["pattern"])
    phi_m = _tap_drive(p["tap"])

    spc = spec.samples_per_cycle
    ang = _angles(spec, n, _phase_offsets(p["shift"]))
    tau = (np.arange(n)[:, None] - k0) / spc  # cycles since switching
    decay = np.exp(-np.maximum(tau, 0.0) / 9.0)

    offset = (phi_r[None, :] + phi_m * np.cos(ang[k0])[None, :]) * decay
    flux = offset - phi_m * np.cos(ang)
    current = saturation_current(flux)
    current[:k0] = 0.0  # de-energized before switching
    return current


def _sympathetic_inrush(p, spec, n, k0):
    phi_r = _residual_pattern(p["residual_flux_pct"], p["pattern"])
    phi_m = _tap_drive(p["tap"])

    spc = spec.samples_per_cycle
    ang = _angles(spec, n, _phase_offsets(p["shift"]))
    tau = np.maximum((np.arange(n)[:, None] - k0) / spc, 0.0)

    # severity of the incoming unit's inrush drives the in-service unit's
    # flux toward the opposite polarity, growing over a few cycles
    severity = phi_r[None, :] + phi_m * np.cos(ang[k0])[None, :]
    grow = (1.0 - np.exp(-tau / 5.0)) * np.exp(-tau / 30.0)
    offset = -0.9 * severity * grow
    flux = offset - phi_m * np.cos(ang)
    return saturation_current(flux)


def _external_fault_ct_sat(p, spec, n, k0):
    name, bus = p["fault_name"], p["bus_kv"]
    spc = spec.samples_per_cycle
    ang = _angles(spec, n, _phase_offsets(p["shift"]))
    z_base = bus * bus / 500.0
    amp = _tap_drive(p["tap"]) / (0.08 + p["resistance_ohm"] / z_base)
    amp = min(amp, 10.0)

    if name in ("lll", "lllg"):
        involved = {"a": 1.0, "b": 1.0, "c": 1.0}
    elif name.startswith("lg"):
        involved = {name[-1]: 1.0}
    else:  # llg-xy / ll-xy
        p1, p2 = name.split("-")[1]
        involved = {p1: 1.0, p2: -1.0}

    tau = np.maximum((np.arange(n) - k0) / spc, 0.0)
    dc_decay = np.exp(-tau / 1.5)
    samples = np.zeros((n, 3))
    baseline = 0.005 * np.sin(ang)
    for ph, sign in involved.items():
        j = PHASES.index(ph)
        through = sign * amp * (np.sin(ang[:, j]) - np.sin(ang[k0, j]) * dc_decay)
        through[:k0] = 0.0
        measured = ct_saturating_clipper(through, spc)
        samples[:, j] = through - measured
    return samples + baseline


def _capacitor_switching(p, spec, n, k0):
    legs = p["legs"]
    p["rating_mvar"] = 500 * legs

    spc = spec.samples_per_cycle
    offs = _phase_offsets(p["shift"])
    ang = _angles(spec, n, offs)
    f_osc = 900.0 / math.sqrt(legs)
    amp = (0.8 + 0.25 * legs) * _tap_drive(p["tap"])
    tau_s = np.maximum(np.arange(n) - k0, 0) * spec.dt
    envelope = amp * np.exp(-tau_s / (1.3 * spc * spec.dt))
    ring = envelope[:, None] * np.sin(
        2.0 * math.pi * f_osc * tau_s[:, None] + offs[None, :]
    )
    ring[:k0] = 0.0
    return 0.01 * np.sin(ang) + ring


def _nonlinear_load_switching(p, spec, n, k0):
    firing, drive = p["firing_angle_deg"], _tap_drive(p["tap"])
    ang = _angles(spec, n, _phase_offsets(p["shift"]))
    spc = spec.samples_per_cycle
    tau = np.maximum((np.arange(n)[:, None] - k0) / spc, 0.0)
    ramp = 1.0 - np.exp(-tau / 1.0)
    a1 = 0.4 * drive * (0.8 + 0.4 * firing / 50.0)
    alpha = math.radians(firing)

    sig = np.zeros((n, 3))
    for h in (5, 7, 11, 13):
        sig += (a1 / h) * np.sin(h * ang + h * alpha)
    dc = 0.2 * drive * np.exp(-tau / 1.0)
    sig = ramp * (sig + 0.05 * np.sin(ang)) + np.where(tau > 0, dc, 0.0)
    sig[:k0] = 0.0
    return 0.01 * np.sin(ang) + sig


def _ferroresonance(p, spec, n, k0):
    ang = _angles(spec, n, _phase_offsets(p["shift"]))
    scale = 0.5 + 3.0 * p["grading_uf"]
    weights = np.full(3, 0.1)
    weights[PHASES.index(p["phase"])] = 1.0

    sig = np.zeros((n, 3))
    for h, b in ((1, 0.7), (3, 0.45), (5, 0.28), (7, 0.12)):
        sig += b * scale * np.sin(h * ang + 0.3 * h)
    sig *= weights[None, :]
    sig[:k0] = 0.0
    return 0.01 * np.sin(ang) + sig


#: each builder takes the checked parameters ``p`` (the record's provenance,
#: to which it may add derived values) and returns the (n, 3) samples
_BUILDERS = {
    DisturbanceType.MAGNETIZING_INRUSH: _magnetizing_inrush,
    DisturbanceType.SYMPATHETIC_INRUSH: _sympathetic_inrush,
    DisturbanceType.EXTERNAL_FAULT_CT_SAT: _external_fault_ct_sat,
    DisturbanceType.CAPACITOR_SWITCHING: _capacitor_switching,
    DisturbanceType.NONLINEAR_LOAD_SWITCHING: _nonlinear_load_switching,
    DisturbanceType.FERRORESONANCE: _ferroresonance,
}
