"""White Gaussian measurement noise at a target signal-to-noise ratio."""

from __future__ import annotations

import math

import numpy as np

from ..sampling import Waveform


def add_noise(wave: Waveform, snr_db: float, seed: int) -> Waveform:
    """Add zero-mean white Gaussian noise per channel.

    Noise variance is signal_power / 10**(snr_db/10) with signal power
    measured per channel over the post-inception window. ``snr_db = inf``
    passes the waveform through unchanged. Deterministic under ``seed``.
    """
    prov = dict(wave.provenance)
    if math.isinf(snr_db) and snr_db > 0:
        samples = wave.samples.copy()
        prov["snr_db"] = "inf"
    else:
        rng = np.random.default_rng(seed)
        post = wave.samples[wave.inception_index:]
        power = np.mean(post * post, axis=0)  # per channel
        sigma = np.sqrt(power / (10.0 ** (snr_db / 10.0)))
        noise = rng.standard_normal(wave.samples.shape) * sigma[None, :]
        samples = wave.samples + noise
        prov["snr_db"] = snr_db
        prov["noise_seed"] = int(seed)
    return Waveform(spec=wave.spec, samples=samples, label=wave.label,
                    inception_index=wave.inception_index, provenance=prov)
