"""Cycle-difference change detection and event window registration.

The change index compares the modulus sum of the current cycle against the
previous cycle, per phase:

    CDF(t) = sum |Id(x)|, x in [n_c + t, 2 n_c + t)  -  same sum one cycle back

with exactly n_c samples per window (half-open), so any signal that is
periodic with the cycle length scores identically zero. An event is
registered at the first sample whose arrival pushes any phase's index above
the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteSample, TooShort, WrongShape
from .sampling import PHASES, SamplingSpec, Waveform


@dataclass(frozen=True)
class CdfConfig:
    threshold: float = 0.05
    cycle_samples: int = SamplingSpec().samples_per_cycle
    pre_cycles: float = 0.5
    post_cycles_detect: int = 1
    post_cycles_classify: int = 3

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.cycle_samples < 2:
            raise ValueError("cycle_samples must be at least 2")

    @property
    def detect_window_len(self) -> int:
        return round((self.pre_cycles + self.post_cycles_detect) * self.cycle_samples)

    @property
    def pre_samples(self) -> int:
        return self.detect_window_len - self.post_cycles_detect * self.cycle_samples

    @property
    def classify_window_len(self) -> int:
        return self.post_cycles_classify * self.cycle_samples


@dataclass
class DetectionEvent:
    triggered: bool
    trigger_index: Optional[int] = None
    trigger_phase: Optional[str] = None
    detect_window: Optional[np.ndarray] = None     # (detect_window_len, 3)
    classify_window: Optional[np.ndarray] = None   # (3 * n_c, 3)
    deferred_samples: int = 0


def cdf_series(values, n_c: int) -> np.ndarray:
    """Change index for one phase; output length is len(values) - 2 n_c + 1."""
    x = np.abs(np.asarray(values, dtype=np.float64))
    n = x.shape[0]
    if n < 2 * n_c + 1:
        raise TooShort(f"need at least {2 * n_c + 1} samples, got {n}")
    csum = np.concatenate(([0.0], np.cumsum(x)))
    win = csum[n_c:] - csum[:-n_c]          # win[s] = sum over [s, s + n_c)
    return win[n_c:] - win[: n - 2 * n_c + 1]


def detect(wave, cfg: CdfConfig = CdfConfig()) -> DetectionEvent:
    """Run the change filter over all phases and slice the event windows.

    ``wave`` may be a Waveform or a bare (N, 3) sample array. Non-detection
    is a value, not an error; an array of another shape raises
    ``WrongShape`` and a NaN or infinite sample ``NonFiniteSample``, since
    either would otherwise hide an event. The trigger index is the sample
    whose arrival completed the first above-threshold window; if the
    half-cycle pre-window does not fit, detection is deferred until it does.
    """
    n_c = cfg.cycle_samples
    samples = wave.samples if isinstance(wave, Waveform) else np.asarray(wave, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise WrongShape(f"samples must have shape (N, 3), got {samples.shape}")
    bad = ~np.isfinite(samples)
    if bad.any():
        i, p = np.argwhere(bad)[0]
        raise NonFiniteSample(
            f"sample {i} phase {PHASES[p]} is {samples[i, p]}"
        )
    n = samples.shape[0]
    series = np.stack([cdf_series(samples[:, p], n_c) for p in range(3)], axis=1)
    over = series > cfg.threshold
    hits = np.nonzero(over.any(axis=1))[0]
    if hits.size == 0:
        return DetectionEvent(triggered=False)

    j = int(hits[0])
    phase_idx = int(np.argmax(over[j]))  # ties resolve a < b < c
    raw_trigger = 2 * n_c + j - 1
    trigger = max(raw_trigger, cfg.pre_samples)
    if trigger + cfg.classify_window_len > n:
        raise TooShort(
            "waveform too short for the classification window after the trigger"
        )
    start = trigger - cfg.pre_samples
    return DetectionEvent(
        triggered=True,
        trigger_index=trigger,
        trigger_phase=PHASES[phase_idx],
        detect_window=samples[start: start + cfg.detect_window_len].copy(),
        classify_window=samples[trigger: trigger + cfg.classify_window_len].copy(),
        deferred_samples=trigger - raw_trigger,
    )


class StreamingDetector:
    """Push-one-sample change detection with O(1) rolling-sum updates.

    ``push`` returns a DetectionEvent exactly once, at the sample that
    completes the classification window; until then it returns None.
    A single writer owns a stream.
    """

    def __init__(self, cfg: CdfConfig = CdfConfig()):
        self.cfg = cfg
        n_c = cfg.cycle_samples
        self._abs = np.zeros((2 * n_c, 3))     # ring buffer of |sample|
        self._sum_cur = np.zeros(3)            # last n_c samples
        self._sum_prev = np.zeros(3)           # the n_c before those
        keep = cfg.pre_samples + cfg.classify_window_len + 2 * n_c
        self._history = np.zeros((keep, 3))
        self._count = 0
        self._trigger: Optional[int] = None
        self._raw_trigger: Optional[int] = None
        self._trigger_phase: Optional[str] = None
        self._emitted = False

    @property
    def samples_seen(self) -> int:
        return self._count

    @property
    def pending_trigger(self) -> Optional[int]:
        """Latched trigger index, available before the event is emitted."""
        return self._trigger

    def slice_window(self, start: int, length: int) -> np.ndarray:
        """Copy of buffered samples [start, start + length); the span must
        lie within the retained history."""
        if start < 0 or start + length > self._count:
            raise ValueError("requested window is outside the buffered stream")
        if self._count - start > self._history.shape[0]:
            raise ValueError("requested window is older than the history buffer")
        return self._window(start, length)

    def push(self, sample) -> Optional[DetectionEvent]:
        cfg = self.cfg
        n_c = cfg.cycle_samples
        s = np.asarray(sample, dtype=np.float64)
        idx = self._count
        ring_pos = idx % (2 * n_c)
        leaving_cur = self._abs[(idx - n_c) % (2 * n_c)] if idx >= n_c else 0.0
        leaving_prev = self._abs[ring_pos] if idx >= 2 * n_c else 0.0
        a = np.abs(s)
        self._sum_cur += a - leaving_cur
        self._sum_prev += (leaving_cur if idx >= n_c else 0.0) - leaving_prev
        self._abs[ring_pos] = a
        self._history[idx % self._history.shape[0]] = s
        self._count += 1

        if self._trigger is None and idx >= 2 * n_c - 1:
            cdf = self._sum_cur - self._sum_prev
            over = cdf > cfg.threshold
            if over.any():
                self._raw_trigger = idx
                self._trigger = max(idx, cfg.pre_samples)
                self._trigger_phase = PHASES[int(np.argmax(over))]

        if (
            self._trigger is not None
            and not self._emitted
            and idx == self._trigger + cfg.classify_window_len - 1
        ):
            self._emitted = True
            return self._make_event()
        return None

    def _window(self, start: int, length: int) -> np.ndarray:
        rows = (np.arange(start, start + length)) % self._history.shape[0]
        return self._history[rows].copy()

    def _make_event(self) -> DetectionEvent:
        cfg = self.cfg
        t = self._trigger
        return DetectionEvent(
            triggered=True,
            trigger_index=t,
            trigger_phase=self._trigger_phase,
            detect_window=self._window(t - cfg.pre_samples, cfg.detect_window_len),
            classify_window=self._window(t, cfg.classify_window_len),
            deferred_samples=t - self._raw_trigger,
        )
