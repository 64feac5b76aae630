"""Internal-fault generator contracts: limits, determinism, monotonicity."""

import math

import numpy as np
import pytest

from diffsentry.errors import ParameterOutOfRange
from diffsentry.sampling import FaultType, SamplingSpec, Unit
from diffsentry.wavegen.faults import simulate_internal_fault

SPEC = SamplingSpec()
SPC = SPEC.samples_per_cycle


def _simulate(ft=FaultType.WA_G, unit=Unit.PT, rf=0.01, pct=80.0, **kw):
    fault = {"fault_type": ft, "unit": unit, "resistance_ohm": rf,
             "pct_winding": pct, **kw}
    return simulate_internal_fault(fault, SPEC, duration_cycles=8,
                                   inception_index=2 * SPC)


def test_open_fault_branch_is_the_no_fault_limit():
    w = _simulate(rf=math.inf)
    post = w.samples[2 * SPC: 5 * SPC]
    pre_shifted = w.samples[SPC: 4 * SPC]
    assert np.abs(post - pre_shifted).max() <= 1e-6


def test_determinism_bit_identical():
    a = _simulate()
    b = _simulate()
    assert np.array_equal(a.samples, b.samples)
    assert a.provenance == b.provenance


def test_low_resistance_beats_high_resistance():
    lo = _simulate(rf=0.01)
    hi = _simulate(rf=10.0)
    peak = lambda w: np.abs(w.samples[2 * SPC:]).max()
    assert peak(lo) > peak(hi)


@pytest.mark.parametrize("fault_type", list(FaultType))
def test_peak_monotone_in_resistance_for_every_fault_type(fault_type):
    peaks = []
    for rf in (0.01, 0.5, 10.0):
        w = _simulate(ft=fault_type, rf=rf, pct=50.0)
        peaks.append(np.abs(w.samples[2 * SPC:]).max())
    assert peaks[0] >= peaks[1] >= peaks[2]


@pytest.mark.parametrize("fault_type", [
    FaultType.WA_G, FaultType.WA_WB, FaultType.WA_WB_WC_G,
    FaultType.TURN_TO_TURN, FaultType.WINDING_TO_WINDING,
])
def test_pre_inception_periodicity(fault_type):
    w = _simulate(ft=fault_type)
    pre = w.samples[: 2 * SPC]
    assert np.abs(pre[:SPC] - pre[SPC: 2 * SPC]).max() <= 1e-9


@pytest.mark.parametrize("unit", list(Unit))
@pytest.mark.parametrize("side", ["primary", "secondary"])
def test_every_unit_and_side_produces_an_event(unit, side):
    w = _simulate(unit=unit, side=side, pct=50.0)
    pre_peak = np.abs(w.samples[: 2 * SPC]).max()
    post_peak = np.abs(w.samples[2 * SPC:]).max()
    assert post_peak > 5 * pre_peak
    assert w.label.unit is unit
    assert w.label.kind.value == "InternalFault"


def test_faulted_phase_selectivity():
    w = _simulate(ft=FaultType.WB_G, pct=80.0)
    post = np.abs(w.samples[2 * SPC:]).max(axis=0)
    assert post[1] > 10 * post[0]
    assert post[1] > 10 * post[2]


def test_phase_to_phase_fault_involves_both_phases():
    w = _simulate(ft=FaultType.WA_WC, pct=80.0)
    post = np.abs(w.samples[2 * SPC:]).max(axis=0)
    assert post[0] > 5 * post[1]
    assert post[2] > 5 * post[1]


def test_provenance_round_trips_parameters():
    w = _simulate(ft=FaultType.TURN_TO_TURN, pct=40.0, tap=0.6, phase="b")
    prov = w.provenance
    assert prov["fault_type"] == "TurnToTurn"
    assert prov["pct_winding"] == 40.0
    assert prov["tap"] == 0.6
    assert prov["phase"] == "b"


def test_inception_bounds_validated():
    fault = {"fault_type": FaultType.WA_G, "unit": Unit.PT}
    with pytest.raises(ValueError):
        simulate_internal_fault(fault, SPEC, duration_cycles=8,
                                inception_index=8 * SPC)


@pytest.mark.parametrize("rf", [-1.0, math.nan], ids=["negative", "nan"])
def test_bad_fault_resistance_rejected(rf):
    # the closed-form solution needs a positive definite mesh R; inf (the
    # open fault) stays valid
    with pytest.raises(ParameterOutOfRange, match="resistance_ohm"):
        _simulate(rf=rf)
