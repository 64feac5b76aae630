"""Disturbance template contracts: saturation curve, class signatures, ranges."""

import numpy as np
import pytest

from diffsentry.errors import ParameterOutOfRange, UnknownDisturbance
from diffsentry.detector import detect
from diffsentry.sampling import DisturbanceType, SamplingSpec
from diffsentry.wavegen.corpus import enumerate_plan, reference_plan, build_case
from diffsentry.wavegen.disturbances import generate_disturbance, saturation_current

from signature_oracle import classify_by_signature

SPEC = SamplingSpec()
SPC = SPEC.samples_per_cycle


def test_saturation_current_two_slopes():
    assert saturation_current(0.0) == 0.0
    lin = saturation_current(1.0)
    assert lin == pytest.approx(1.0 / 33.0)
    deep = saturation_current(2.0)
    assert deep > 50 * lin
    assert saturation_current(-2.0) == pytest.approx(-deep)


def test_zero_residual_peak_switching_minimizes_inrush():
    # sweep the 15 residual-flux combinations with switching fixed at the
    # phase-a voltage peak, and measure the switched phase: its flux offset
    # is exactly the residual, so zero residual must be the argmin (the
    # other two phases always carry prospective-flux offsets of their own)
    k_peak = 2 * SPC + round(SPC / 4)  # angle ~90 deg after a zero crossing
    peaks = {}
    for residual in (-80.0, -40.0, 0.0, 40.0, 80.0):
        for pattern in (0, 1, 2):
            w = generate_disturbance(
                DisturbanceType.MAGNETIZING_INRUSH,
                {"residual_flux_pct": residual, "pattern": pattern, "tap": 1.0},
                SPEC, inception_index=k_peak,
            )
            peaks[(residual, pattern)] = np.abs(w.samples[k_peak:, 0]).max()
    zero_cases = [v for (r, _), v in peaks.items() if r == 0.0]
    others = [v for (r, _), v in peaks.items() if r != 0.0]
    assert max(zero_cases) < min(others)


def test_nonlinear_load_harmonic_set():
    w = generate_disturbance(
        DisturbanceType.NONLINEAR_LOAD_SWITCHING,
        {"firing_angle_deg": 20.0, "tap": 1.0},
        SPEC, inception_index=2 * SPC,
    )
    # steady post-transient cycles: the ramp and dc have died off
    start = w.inception_index + 4 * SPC
    seg = w.samples[start: start + 2 * SPC, 0]
    coef = np.abs(np.fft.rfft(seg))
    h4, h5, h6 = coef[8], coef[10], coef[12]  # bins h*cycles with 2 cycles
    assert h5 >= 10 * h4
    assert h5 >= 10 * h6


def test_capacitor_ring_is_high_frequency_and_damped():
    w = generate_disturbance(
        DisturbanceType.CAPACITOR_SWITCHING, {"legs": 3, "tap": 1.0},
        SPEC, inception_index=2 * SPC,
    )
    k0 = w.inception_index
    first = w.samples[k0: k0 + SPC, 0]
    power = np.abs(np.fft.rfft(first)) ** 2
    freqs = np.fft.rfftfreq(SPC, d=SPEC.dt)
    assert power[freqs >= 300].sum() > 0.5 * power[1:].sum()
    late = np.abs(w.samples[k0 + 5 * SPC:, 0]).max()
    early = np.abs(first).max()
    assert late < 0.1 * early


def test_ct_saturation_spurious_differential():
    w = generate_disturbance(
        DisturbanceType.EXTERNAL_FAULT_CT_SAT,
        {"resistance_ohm": 0.01, "fault_name": "lg-a", "bus_kv": 230.0, "tap": 1.0},
        SPEC, inception_index=2 * SPC,
    )
    pre = np.abs(w.samples[: 2 * SPC, 0]).max()
    post = np.abs(w.samples[2 * SPC:, 0]).max()
    assert pre < 0.05
    assert post > 1.0


def test_sympathetic_grows_with_opposite_polarity():
    w = generate_disturbance(
        DisturbanceType.SYMPATHETIC_INRUSH,
        {"residual_flux_pct": 80.0, "pattern": 0, "tap": 1.0},
        SPEC, inception_index=2 * SPC, duration_cycles=8,
    )
    k0 = w.inception_index
    x = w.samples[:, 0]
    cyc = lambda c: x[k0 + c * SPC: k0 + (c + 1) * SPC]
    assert np.abs(cyc(4)).max() > 1.2 * np.abs(cyc(0)).max()
    # positive residual drives the in-service unit toward negative flux
    body = x[k0 + 2 * SPC: k0 + 5 * SPC]
    assert body.min() < -0.2
    assert abs(body.min()) > abs(body.max())


@pytest.mark.parametrize("kind", list(DisturbanceType))
def test_pre_inception_periodicity(kind):
    params = {
        DisturbanceType.MAGNETIZING_INRUSH: {"residual_flux_pct": 80.0, "pattern": 0},
        DisturbanceType.SYMPATHETIC_INRUSH: {"residual_flux_pct": -40.0, "pattern": 1},
        DisturbanceType.EXTERNAL_FAULT_CT_SAT: {"fault_name": "ll-ab"},
        DisturbanceType.CAPACITOR_SWITCHING: {"legs": 2},
        DisturbanceType.NONLINEAR_LOAD_SWITCHING: {"firing_angle_deg": 30.0},
        DisturbanceType.FERRORESONANCE: {"grading_uf": 0.1, "phase": "b"},
    }[kind]
    w = generate_disturbance(kind, params, SPEC, inception_index=2 * SPC)
    pre = w.samples[: 2 * SPC]
    assert np.abs(pre[:SPC] - pre[SPC:]).max() <= 1e-9


def test_unknown_disturbance_rejected():
    with pytest.raises(UnknownDisturbance):
        generate_disturbance("GremlinSwitching", {}, SPEC, 2 * SPC)


@pytest.mark.parametrize("kind,params", [
    (DisturbanceType.MAGNETIZING_INRUSH, {"residual_flux_pct": 55.0}),
    (DisturbanceType.MAGNETIZING_INRUSH, {"residual_flux_pct": 80.0, "pattern": 5}),
    (DisturbanceType.CAPACITOR_SWITCHING, {"legs": 4}),
    (DisturbanceType.NONLINEAR_LOAD_SWITCHING, {"firing_angle_deg": 55.0}),
    (DisturbanceType.FERRORESONANCE, {"grading_uf": 0.3}),
    (DisturbanceType.EXTERNAL_FAULT_CT_SAT, {"resistance_ohm": 2.0}),
    (DisturbanceType.MAGNETIZING_INRUSH, {"tap": 0.3}),
    (DisturbanceType.MAGNETIZING_INRUSH, {"shift": "sideways"}),
    # a misspelt key is refused, not replaced by its default
    (DisturbanceType.MAGNETIZING_INRUSH, {"residual_flux": 80.0}),
    (DisturbanceType.SYMPATHETIC_INRUSH, {"patern": 1}),
    (DisturbanceType.EXTERNAL_FAULT_CT_SAT, {"resistence_ohm": 10.0}),
    (DisturbanceType.CAPACITOR_SWITCHING, {"legz": 3}),
    (DisturbanceType.NONLINEAR_LOAD_SWITCHING, {"firing_deg": 20.0}),
    (DisturbanceType.FERRORESONANCE, {"phase_name": "b"}),
    # a value is refused, not cast, when its type is wrong
    (DisturbanceType.CAPACITOR_SWITCHING, {"legs": 2.5}),
    (DisturbanceType.CAPACITOR_SWITCHING, {"legs": True}),
    (DisturbanceType.MAGNETIZING_INRUSH, {"tap": "0.6"}),
    (DisturbanceType.MAGNETIZING_INRUSH, {"pattern": True}),
])
def test_table_ranges_enforced(kind, params):
    # the error names the offending key
    with pytest.raises(ParameterOutOfRange, match=rf"\b{list(params)[-1]}\b"):
        generate_disturbance(kind, params, SPEC, 2 * SPC)


def test_an_int_is_taken_for_a_float_parameter():
    wave = generate_disturbance(DisturbanceType.MAGNETIZING_INRUSH, {"tap": 1},
                                SPEC, 2 * SPC)
    assert wave.provenance["tap"] == 1.0
    assert isinstance(wave.provenance["tap"], float)


def test_signature_oracle_reidentifies_detected_disturbances():
    """Scripted harmonic/polarity oracle recovers >= 99% of the noise-free
    disturbances the change detector registers."""
    plan = reference_plan(cases_per_class=60, fault_cases=1)
    total, correct = 0, 0
    for _, name, _, params, _ in enumerate_plan(plan, seed=3):
        if name == "InternalFault":
            continue
        wave = build_case(name, params, SPEC, 8)
        if not detect(wave).triggered:
            continue  # no registered signature to identify
        total += 1
        if classify_by_signature(wave) == name:
            correct += 1
    assert total >= 300
    assert correct / total >= 0.99
