"""Noise injection: SNR definition, pass-through, determinism."""

import math

import numpy as np

from diffsentry.sampling import SamplingSpec, FaultType, Unit
from diffsentry.wavegen.faults import simulate_internal_fault
from diffsentry.wavegen.noise import add_noise

SPEC = SamplingSpec()
SPC = SPEC.samples_per_cycle


def _wave(duration_cycles=8):
    fault = {"fault_type": FaultType.WA_G, "unit": Unit.PT, "pct_winding": 50.0}
    return simulate_internal_fault(fault, SPEC, duration_cycles=duration_cycles,
                                   inception_index=2 * SPC)


def test_infinite_snr_is_identity():
    w = _wave()
    out = add_noise(w, math.inf, seed=1)
    assert np.array_equal(out.samples, w.samples)


def test_noise_power_matches_definition():
    w = _wave(duration_cycles=20)
    snr_db = 10.0
    out = add_noise(w, snr_db, seed=5)
    noise = out.samples - w.samples
    post = w.samples[w.inception_index:]
    assert noise.shape[0] * 3 >= 10_000
    for ch in range(3):
        target = np.mean(post[:, ch] ** 2) / 10 ** (snr_db / 10)
        measured = np.mean(noise[:, ch] ** 2)
        assert abs(measured - target) <= 0.05 * target


def test_same_seed_identical():
    w = _wave()
    a = add_noise(w, 20.0, seed=99)
    b = add_noise(w, 20.0, seed=99)
    assert np.array_equal(a.samples, b.samples)
    c = add_noise(w, 20.0, seed=100)
    assert not np.array_equal(a.samples, c.samples)


def test_label_and_inception_preserved():
    w = _wave()
    out = add_noise(w, 30.0, seed=0)
    assert out.label == w.label
    assert out.inception_index == w.inception_index
    assert out.provenance["snr_db"] == 30.0
