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

from ..errors import ParameterOutOfRange, UnknownDisturbance
from ..sampling import (
    DisturbanceType,
    EventKind,
    EventLabel,
    SamplingSpec,
    Waveform,
)
from .faults import _PHASE_IDX, _phase_offsets, _tap_drive

# saturation curve: knee at 1.2 pu flux, unsaturated magnetizing slope set
# for a few-percent magnetizing current, saturated slope 100x steeper
_FLUX_KNEE = 1.2
_L_UNSAT = 33.0
_L_SAT = _L_UNSAT / 100.0

_RESIDUAL_FLUX_PCT = (-80.0, -40.0, 0.0, 40.0, 80.0)
_TAPS = (0.2, 0.4, 0.6, 0.8, 1.0)
_FIRING_DEG = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
_CAP_LEGS = (1, 2, 3)


def inrush_flux(t, phi_r: float, phi_m: float, t_switch: float, omega: float):
    """Core flux after switching: phi_r + phi_m cos(w t') - phi_m cos(w (t + t'))."""
    t = np.asarray(t, dtype=np.float64)
    return phi_r + phi_m * math.cos(omega * t_switch) - phi_m * np.cos(omega * (t + t_switch))


def saturation_current(flux, knee: float = _FLUX_KNEE,
                       l_unsat: float = _L_UNSAT, l_sat: float = _L_SAT):
    """Two-slope B-H magnetizing current for a flux trajectory (per-unit)."""
    flux = np.asarray(flux, dtype=np.float64)
    mag = np.abs(flux)
    lin = mag / l_unsat
    sat = knee / l_unsat + (mag - knee) / l_sat
    return np.sign(flux) * np.where(mag <= knee, lin, sat)


def ct_saturating_clipper(current: np.ndarray, spc: int,
                          flux_limit: float = 0.55,
                          residual_gain: float = 0.05) -> np.ndarray:
    """Flux-limited integrator CT model: faithful until the core flux limit,
    then collapsed transmission until the flux integrates back down."""
    out = np.empty_like(current)
    lam = 0.0
    step = 1.0 / spc
    for n, i_in in enumerate(current):
        trial = lam + step * i_in
        if abs(trial) <= flux_limit:
            out[n] = i_in
            lam = trial
        else:
            out[n] = i_in * residual_gain
            lam = math.copysign(flux_limit, trial)
    return out


def _require(cond: bool, message: str):
    if not cond:
        raise ParameterOutOfRange(message)


def _common(params: dict):
    tap = float(params.get("tap", 1.0))
    shift = params.get("shift", "forward")
    _require(any(math.isclose(tap, t) for t in _TAPS),
             f"tap must be one of {_TAPS}, got {tap}")
    _require(shift in ("forward", "backward"),
             f"shift must be forward or backward, got {shift}")
    return tap, shift


def _residual_pattern(residual_pct: float, pattern: int) -> np.ndarray:
    """Per-phase residual flux: one phase carries the set value, the other
    two balance it with the opposite half (three-limb core closure)."""
    _require(any(math.isclose(residual_pct, v) for v in _RESIDUAL_FLUX_PCT),
             f"residual_flux_pct must be one of {_RESIDUAL_FLUX_PCT}, got {residual_pct}")
    _require(pattern in (0, 1, 2), f"pattern must be 0, 1 or 2, got {pattern}")
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
    if isinstance(kind, str):
        try:
            kind = DisturbanceType(kind)
        except ValueError as exc:
            raise UnknownDisturbance(f"unknown disturbance kind {kind!r}") from exc
    if not isinstance(kind, DisturbanceType):
        raise UnknownDisturbance(f"unknown disturbance kind {kind!r}")

    spc = spec.samples_per_cycle
    n = duration_cycles * spc
    k0 = 2 * spc if inception_index is None else inception_index
    if not 0 <= k0 <= n - 3 * spc:
        raise ValueError("inception must leave at least 3 post-event cycles")

    builder = _BUILDERS[kind]
    samples, prov = builder(dict(params), spec, n, k0)
    label = EventLabel(kind=EventKind.DISTURBANCE, disturbance_type=kind)
    prov.update({"generator": kind.value, "duration_cycles": duration_cycles})
    return Waveform(
        spec=spec, samples=samples, label=label,
        inception_index=k0, provenance=prov,
    )


def _angles(spec: SamplingSpec, n: int, offs: np.ndarray) -> np.ndarray:
    theta = 2.0 * math.pi / spec.samples_per_cycle
    return theta * np.arange(n)[:, None] + offs[None, :]


def _magnetizing_inrush(params, spec, n, k0):
    tap, shift = _common(params)
    residual = float(params.get("residual_flux_pct", 80.0))
    pattern = int(params.get("pattern", 0))
    phi_r = _residual_pattern(residual, pattern)
    phi_m = _tap_drive(tap)

    spc = spec.samples_per_cycle
    offs = _phase_offsets(shift)
    ang = _angles(spec, n, offs)
    tau = (np.arange(n)[:, None] - k0) / spc  # cycles since switching
    decay = np.exp(-np.maximum(tau, 0.0) / 9.0)

    offset = (phi_r[None, :] + phi_m * np.cos(ang[k0])[None, :]) * decay
    flux = offset - phi_m * np.cos(ang)
    current = saturation_current(flux)
    current[:k0] = 0.0  # de-energized before switching
    prov = {"residual_flux_pct": residual, "pattern": pattern,
            "tap": tap, "shift": shift}
    return current, prov


def _sympathetic_inrush(params, spec, n, k0):
    tap, shift = _common(params)
    residual = float(params.get("residual_flux_pct", 80.0))
    pattern = int(params.get("pattern", 0))
    phi_r = _residual_pattern(residual, pattern)
    phi_m = _tap_drive(tap)

    spc = spec.samples_per_cycle
    offs = _phase_offsets(shift)
    ang = _angles(spec, n, offs)
    tau = np.maximum((np.arange(n)[:, None] - k0) / spc, 0.0)

    # severity of the incoming unit's inrush drives the in-service unit's
    # flux toward the opposite polarity, growing over a few cycles
    severity = phi_r[None, :] + phi_m * np.cos(ang[k0])[None, :]
    grow = (1.0 - np.exp(-tau / 5.0)) * np.exp(-tau / 30.0)
    offset = -0.9 * severity * grow
    flux = offset - phi_m * np.cos(ang)
    current = saturation_current(flux)
    prov = {"residual_flux_pct": residual, "pattern": pattern,
            "tap": tap, "shift": shift}
    return current, prov


_EXT_FAULT_NAMES = (
    "lg-a", "lg-b", "lg-c", "llg-ab", "llg-ac", "llg-bc",
    "ll-ab", "ll-ac", "ll-bc", "lll", "lllg",
)
_EXT_RESISTANCES = (0.01, 0.5, 10.0)
_EXT_BUSES = (230.0, 500.0)


def _external_fault_ct_sat(params, spec, n, k0):
    tap, shift = _common(params)
    rf = float(params.get("resistance_ohm", 0.01))
    name = params.get("fault_name", "lll")
    bus = float(params.get("bus_kv", 230.0))
    _require(any(math.isclose(rf, r) for r in _EXT_RESISTANCES),
             f"resistance_ohm must be one of {_EXT_RESISTANCES}, got {rf}")
    _require(name in _EXT_FAULT_NAMES,
             f"fault_name must be one of {_EXT_FAULT_NAMES}, got {name}")
    _require(any(math.isclose(bus, b) for b in _EXT_BUSES),
             f"bus_kv must be 230 or 500, got {bus}")

    spc = spec.samples_per_cycle
    offs = _phase_offsets(shift)
    ang = _angles(spec, n, offs)
    z_base = bus * bus / 500.0
    amp = _tap_drive(tap) / (0.08 + rf / z_base)
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
        j = _PHASE_IDX[ph]
        through = sign * amp * (np.sin(ang[:, j]) - np.sin(ang[k0, j]) * dc_decay)
        through[:k0] = 0.0
        measured = ct_saturating_clipper(through, spc)
        samples[:, j] = through - measured
    samples += baseline
    prov = {"resistance_ohm": rf, "fault_name": name, "bus_kv": bus,
            "tap": tap, "shift": shift}
    return samples, prov


def _capacitor_switching(params, spec, n, k0):
    tap, shift = _common(params)
    legs = int(params.get("legs", 1))
    _require(legs in _CAP_LEGS, f"legs must be one of {_CAP_LEGS}, got {legs}")

    spc = spec.samples_per_cycle
    offs = _phase_offsets(shift)
    ang = _angles(spec, n, offs)
    f_osc = 900.0 / math.sqrt(legs)
    amp = (0.8 + 0.25 * legs) * _tap_drive(tap)
    tau_s = np.maximum(np.arange(n) - k0, 0) * spec.dt
    envelope = amp * np.exp(-tau_s / (1.3 * spc * spec.dt))
    ring = envelope[:, None] * np.sin(
        2.0 * math.pi * f_osc * tau_s[:, None] + offs[None, :]
    )
    ring[:k0] = 0.0
    samples = 0.01 * np.sin(ang) + ring
    prov = {"legs": legs, "rating_mvar": 500 * legs, "tap": tap, "shift": shift}
    return samples, prov


def _nonlinear_load_switching(params, spec, n, k0):
    tap, shift = _common(params)
    firing = float(params.get("firing_angle_deg", 0.0))
    _require(any(math.isclose(firing, f) for f in _FIRING_DEG),
             f"firing_angle_deg must be one of {_FIRING_DEG}, got {firing}")

    offs = _phase_offsets(shift)
    ang = _angles(spec, n, offs)
    spc = spec.samples_per_cycle
    tau = np.maximum((np.arange(n)[:, None] - k0) / spc, 0.0)
    ramp = 1.0 - np.exp(-tau / 1.0)
    a1 = 0.4 * _tap_drive(tap) * (0.8 + 0.4 * firing / 50.0)
    alpha = math.radians(firing)

    sig = np.zeros((n, 3))
    for h in (5, 7, 11, 13):
        sig += (a1 / h) * np.sin(h * ang + h * alpha)
    dc = 0.2 * _tap_drive(tap) * np.exp(-tau / 1.0)
    sig = ramp * (sig + 0.05 * np.sin(ang)) + np.where(tau > 0, dc, 0.0)
    sig[:k0] = 0.0
    samples = 0.01 * np.sin(ang) + sig
    prov = {"firing_angle_deg": firing, "tap": tap, "shift": shift}
    return samples, prov


_GRADING_UF = tuple(round(0.02 * k, 2) for k in range(1, 11))


def _ferroresonance(params, spec, n, k0):
    tap, shift = _common(params)
    grading = float(params.get("grading_uf", 0.02))
    phase = params.get("phase", "a")
    _require(any(math.isclose(grading, g) for g in _GRADING_UF),
             f"grading_uf must be one of {_GRADING_UF}, got {grading}")
    _require(phase in _PHASE_IDX, f"phase must be a, b or c, got {phase}")

    offs = _phase_offsets(shift)
    ang = _angles(spec, n, offs)
    scale = 0.5 + 3.0 * grading
    weights = np.full(3, 0.1)
    weights[_PHASE_IDX[phase]] = 1.0

    sig = np.zeros((n, 3))
    for h, b in ((1, 0.7), (3, 0.45), (5, 0.28), (7, 0.12)):
        sig += b * scale * np.sin(h * ang + 0.3 * h)
    sig *= weights[None, :]
    sig[:k0] = 0.0
    samples = 0.01 * np.sin(ang) + sig
    prov = {"grading_uf": grading, "phase": phase, "tap": tap, "shift": shift}
    return samples, prov


_BUILDERS = {
    DisturbanceType.MAGNETIZING_INRUSH: _magnetizing_inrush,
    DisturbanceType.SYMPATHETIC_INRUSH: _sympathetic_inrush,
    DisturbanceType.EXTERNAL_FAULT_CT_SAT: _external_fault_ct_sat,
    DisturbanceType.CAPACITOR_SWITCHING: _capacitor_switching,
    DisturbanceType.NONLINEAR_LOAD_SWITCHING: _nonlinear_load_switching,
    DisturbanceType.FERRORESONANCE: _ferroresonance,
}
