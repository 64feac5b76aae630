"""Cycle-difference change detection and event window registration.

The change index compares the modulus sum of the current cycle against the
previous cycle, per phase:

    CDF(t) = sum |Id(x)|, x in [n_c + t, 2 n_c + t)  -  same sum one cycle back

with exactly n_c samples per window (half-open), so any signal that is
periodic with the cycle length scores identically zero. An event is
registered at the first sample whose arrival pushes any phase's index above
the fixed pickup ``THRESHOLD``.

Batch and stream share one arithmetic: running sums of per-sample
differences over a zero-started history, in sample order, so they agree bit
for bit. Both cut windows with ``event_windows``: ``detect``'s are views of
its input, the stream's are copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteSample, TooShort, WrongShape
from .sampling import PHASES, SamplingSpec, Waveform


#: One cycle of the 10 kHz / 60 Hz grid the feature set is frozen for.
CYCLE = SamplingSpec().samples_per_cycle
#: The registered 1.5-cycle window: PRE samples before the trigger, one
#: cycle from it.
DETECT_LEN = round(1.5 * CYCLE)
PRE = DETECT_LEN - CYCLE
#: The 3-cycle drill-down window, from the trigger.
CLASSIFY_LEN = 3 * CYCLE
# the earliest trigger, sample 2 * CYCLE - 1, has PRE samples before it, so
# the registered window never waits for its pre-window

#: The relay pickup: an event is registered when any phase's change index
#: exceeds it. Every trained slot learned the windows this pickup cut.
THRESHOLD = 0.05


@dataclass
class DetectionEvent:
    triggered: bool
    trigger_index: Optional[int] = None
    trigger_phase: Optional[str] = None
    detect_window: Optional[np.ndarray] = None     # (DETECT_LEN, 3)
    classify_window: Optional[np.ndarray] = None   # (CLASSIFY_LEN, 3)


def cdf_series(values, n_c: int) -> np.ndarray:
    """Change index of ``values`` (n,) or (n, 3) along axis 0, the stream's
    running sums over the record; output length is n - 2 n_c + 1."""
    x = np.abs(np.asarray(values, dtype=np.float64))
    n = x.shape[0]
    if n < 2 * n_c + 1:
        raise TooShort(f"need at least {2 * n_c + 1} samples, got {n}")
    a = np.concatenate((np.zeros((2 * n_c, *x.shape[1:])), x))
    cur = np.cumsum(a[2 * n_c:] - a[n_c:-n_c], axis=0)
    prev = np.cumsum(a[n_c:-n_c] - a[:-2 * n_c], axis=0)
    return (cur - prev)[2 * n_c - 1:]


def refuse_non_finite(samples: np.ndarray) -> None:
    """Raise ``NonFiniteSample`` naming the first NaN or infinite sample of
    samples (N, 3) or (m, N, 3) by window (in a stack), index and phase."""
    bad = ~np.isfinite(samples)
    if bad.any():
        *window, i, p = np.argwhere(bad)[0]
        where = f"window {window[0]} " if window else ""
        raise NonFiniteSample(
            f"{where}sample {i} phase {PHASES[p]} is {samples[(*window, i, p)]}")


def detect(wave) -> DetectionEvent:
    """Run the change filter over all phases and slice the event windows.

    ``wave`` may be a Waveform or a bare (N, 3) sample array. Non-detection
    is a value, not an error; an array of another shape raises
    ``WrongShape`` and a NaN or infinite sample ``NonFiniteSample``, since
    either would otherwise hide an event. The trigger index is the sample
    whose arrival completed the first above-threshold window. The windows
    are views of the samples.
    """
    samples = (wave.samples if isinstance(wave, Waveform)
               else np.asarray(wave, dtype=np.float64))
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise WrongShape(f"samples must have shape (N, 3), got {samples.shape}")
    refuse_non_finite(samples)
    n = samples.shape[0]
    over = cdf_series(samples, CYCLE) > THRESHOLD
    hits = np.nonzero(over.any(axis=1))[0]
    if hits.size == 0:
        return DetectionEvent(triggered=False)

    j = int(hits[0])
    phase_idx = int(np.argmax(over[j]))  # ties resolve a < b < c
    trigger = 2 * CYCLE + j - 1
    if trigger + CLASSIFY_LEN > n:
        raise TooShort(
            "waveform too short for the classification window after the trigger"
        )
    return DetectionEvent(True, trigger, PHASES[phase_idx],
                          *event_windows(samples, trigger))


def event_windows(samples: np.ndarray, trigger_index: int):
    """(detect window, classify window) of the event registered at
    ``trigger_index``, as views of the (N, 3) ``samples``."""
    start = trigger_index - PRE
    return (samples[start: start + DETECT_LEN],
            samples[trigger_index: trigger_index + CLASSIFY_LEN])


class StreamingDetector:
    """Push-one-sample change detection with O(1) rolling-sum updates.

    Its ring starts as zeros, the history ``cdf_series`` pads with. ``push``
    takes one (3,) sample and returns a DetectionEvent at two samples of a
    stream and None at every other: at trigger + ``CYCLE`` - 1, when the
    registered 1.5-cycle window closes (``classify_window`` is None), and
    at trigger + ``CLASSIFY_LEN`` - 1 with both windows, copied from the
    history. The trigger latches, so a stream gives one such pair. A single
    writer owns a stream.
    """

    def __init__(self):
        self._abs = np.zeros((2 * CYCLE, 3))   # ring buffer of |sample|
        self._sum_cur = np.zeros(3)            # last CYCLE samples
        self._sum_prev = np.zeros(3)           # the CYCLE before those
        self._history = np.zeros((PRE + CLASSIFY_LEN, 3))  # a full event's span
        self._count = 0
        self._trigger: Optional[int] = None
        self._trigger_phase: Optional[str] = None

    @property
    def samples_seen(self) -> int:
        return self._count

    def push(self, sample) -> Optional[DetectionEvent]:
        n_c = CYCLE
        s = np.asarray(sample, dtype=np.float64)
        if s.shape != (3,):
            raise WrongShape(f"a sample must have shape (3,), got {s.shape}")
        idx = self._count
        ring_pos = idx % (2 * n_c)
        leaving_cur = self._abs[(idx - n_c) % (2 * n_c)]
        leaving_prev = self._abs[ring_pos]
        a = np.abs(s)
        self._sum_cur += a - leaving_cur
        self._sum_prev += leaving_cur - leaving_prev
        self._abs[ring_pos] = a
        self._history[idx % self._history.shape[0]] = s
        self._count += 1

        if self._trigger is None:
            if idx >= 2 * n_c - 1:
                cdf = self._sum_cur - self._sum_prev
                over = cdf > THRESHOLD
                if over.any():
                    self._trigger = idx
                    self._trigger_phase = PHASES[int(np.argmax(over))]
            return None
        since = idx - self._trigger
        if since == CYCLE - 1:
            return self._make_event(full=False)
        if since == CLASSIFY_LEN - 1:
            return self._make_event(full=True)
        return None

    def _make_event(self, full: bool) -> DetectionEvent:
        history = np.roll(self._history, -self._count, axis=0)  # oldest first
        detect_window, classify_window = event_windows(
            history, len(history) - (self._count - self._trigger))
        return DetectionEvent(True, self._trigger, self._trigger_phase,
                              detect_window, classify_window if full else None)
