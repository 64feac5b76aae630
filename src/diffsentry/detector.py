"""Cycle-difference change detection and event window registration.

The change index compares the modulus sum of the current cycle against the
previous cycle, per phase:

    CDF(t) = sum |Id(x)|, x in [n_c + t, 2 n_c + t)  -  same sum one cycle back

with exactly n_c samples per window (half-open), so any signal that is
periodic with the cycle length scores identically zero. An event is
registered at the first sample whose arrival pushes any phase's index above
the fixed pickup ``THRESHOLD``.

Batch detection (``detect``) is a fresh ``StreamingDetector`` fed one block,
which adds the per-sample differences in sample order, as ``push`` does.
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
_EARLIEST = 2 * CYCLE - 1   # the earliest trigger: PRE samples already precede it

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


def _running_sums(a, sum_cur, sum_prev, n_c: int):
    """The running sums after each new row of ``a`` (the |x| of 2 ``n_c``
    samples, then of the new ones) from the sums given, in sample order."""
    leaving = a[n_c:-n_c]
    cur, prev = a[2 * n_c:] - leaving, leaving - a[:-2 * n_c]
    cur[0] += sum_cur   # addition commutes, so this is push's first sum
    prev[0] += sum_prev
    return np.cumsum(cur, axis=0, out=cur), np.cumsum(prev, axis=0, out=prev)


def cdf_series(values, n_c: int) -> np.ndarray:
    """Change index of ``values`` (n,) or (n, 3) along axis 0, the running
    sums of a fresh stream over the record; output length is n - 2 n_c + 1."""
    x = np.abs(np.asarray(values, dtype=np.float64))
    n = x.shape[0]
    if n < 2 * n_c + 1:
        raise TooShort(f"need at least {2 * n_c + 1} samples, got {n}")
    cur, prev = _running_sums(np.concatenate((np.zeros_like(x[:2 * n_c]), x)),
                              0.0, 0.0, n_c)
    return (cur - prev)[2 * n_c - 1:]


def refuse_non_finite(samples: np.ndarray, first: int) -> None:
    """Raise ``NonFiniteSample`` naming the first NaN or infinite sample of
    samples (N, 3) or (m, N, 3): window (in a stack), index from ``first``, phase."""
    bad = ~np.isfinite(samples)
    if bad.any():
        *window, i, p = np.argwhere(bad)[0]
        where = f"window {window[0]} " if window else ""
        raise NonFiniteSample(f"{where}sample {first + i} phase {PHASES[p]} "
                              f"is {samples[(*window, i, p)]}")


def detect(wave) -> DetectionEvent:
    """The full event of a fresh ``StreamingDetector`` fed ``wave`` (a
    Waveform or (N, 3) samples) as one block, or an untriggered event. Fewer
    than 2 ``CYCLE`` + 1 samples, or an unclosed window, is a ``TooShort``."""
    stream = StreamingDetector()
    events = stream.push_block(wave.samples if isinstance(wave, Waveform) else wave)
    if stream._due or stream.samples_seen < 2 * CYCLE + 1:
        raise TooShort(f"too short for event windows: {stream.samples_seen} samples")
    return events[-1][1] if events else DetectionEvent(triggered=False)


def _into_ring(ring: np.ndarray, rows: np.ndarray, end: int) -> None:
    """Write ``rows``, the samples before ``end``, into ``ring`` at index % length."""
    rows = rows[-len(ring):]
    k = (end - len(rows)) % len(ring)
    n = min(len(rows), len(ring) - k)
    ring[k: k + n], ring[: len(rows) - n] = rows[:n], rows[n:]


class StreamingDetector:
    """Change detection over a stream, one sample or one block at a time.

    Its rings start as zeros, the history ``cdf_series`` pads with. ``push``
    takes one (3,) sample (else ``WrongShape``) in O(1) and returns the event
    closing at it or None. Events close at trigger + ``CYCLE`` - 1 with the
    1.5-cycle window (``classify_window`` None) and at trigger +
    ``CLASSIFY_LEN`` - 1 with both, copied from the history unless a block
    holds them. The trigger latches, so a stream gives one such pair. A
    single writer owns a stream.
    """

    def __init__(self):
        self._abs = np.zeros((2 * CYCLE, 3))   # ring buffer of |sample|
        self._sum_cur = np.zeros(3)            # last CYCLE samples
        self._sum_prev = np.zeros(3)           # the CYCLE before those
        self._history = np.zeros((PRE + CLASSIFY_LEN, 3))  # a full event's span
        self._count = 0
        self._trigger: Optional[int] = None
        self._trigger_phase: Optional[str] = None
        self._due = []   # (sample index, full) of each event still to emit

    @property
    def samples_seen(self) -> int:
        return self._count

    def push(self, sample) -> Optional[DetectionEvent]:
        n_c = CYCLE
        try:
            s = np.asarray(sample, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise WrongShape(f"a sample must be 3 numbers, got {sample!r}") from exc
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
        self._count += 1

        event = None
        if self._trigger is None and idx >= _EARLIEST:   # spares most samples the latch
            cdf = self._sum_cur - self._sum_prev
            if (cdf > THRESHOLD).any():
                self._latch(cdf[None], idx)
        elif self._due and self._due[0][0] == idx:
            [(_, event)] = self._emit(s[None], idx)
        self._history[idx % len(self._history)] = s
        return event

    def push_block(self, samples) -> list:
        """Push a block (b, 3), b >= 1, as b pushes would; return (sample index,
        event) of each event closing in it. Another shape is a ``WrongShape``,
        a NaN or inf a ``NonFiniteSample`` by stream index, before any change."""
        try:
            block = np.asarray(samples, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise WrongShape(f"a block must be (N, 3) numbers: {exc}") from exc
        if block.ndim != 2 or block.shape[1] != 3 or not len(block):
            raise WrongShape(f"a block must be (N, 3), N >= 1, got {block.shape}")
        start, end = self._count, self._count + len(block)
        refuse_non_finite(block, start)
        k = start % len(self._abs)   # the oldest |sample| of the ring
        a = np.concatenate((self._abs[k:], self._abs[:k], np.abs(block)))
        cur, prev = _running_sums(a, self._sum_cur, self._sum_prev, CYCLE)
        if self._trigger is None:
            self._latch(cur - prev, start)
        events = self._emit(block, start)
        self._sum_cur, self._sum_prev = cur[-1].copy(), prev[-1].copy()
        _into_ring(self._abs, a, end)
        _into_ring(self._history, block, end)   # after the cut, which reads it
        self._count = end
        return events

    def _latch(self, cdf, first: int) -> None:
        """Latch the first sample from ``_EARLIEST`` on whose change index in
        ``cdf`` (k, 3, from sample ``first`` on) exceeds ``THRESHOLD``."""
        skip = max(_EARLIEST - first, 0)
        hits = np.flatnonzero(cdf[skip:] > THRESHOLD)   # ties resolve a < b < c
        if hits.size:
            t = self._trigger = first + skip + int(hits[0]) // 3
            self._trigger_phase = PHASES[int(hits[0]) % 3]
            self._due = [(t + CYCLE - 1, False), (t + CLASSIFY_LEN - 1, True)]

    def _emit(self, block: np.ndarray, start: int) -> list:
        """(sample index, event) of each due event closing in ``block``, the
        samples from ``start`` on, cut from it or, before it, the history."""
        out = []
        while self._due and self._due[0][0] < start + len(block):
            at, full = self._due.pop(0)
            lo, span = self._trigger - PRE - start, block
            if lo < 0:   # the history before the block, oldest first, then it
                lo += len(self._history)
                span = np.concatenate((np.roll(self._history, -start, axis=0), block))
            out.append((at, DetectionEvent(
                True, self._trigger, self._trigger_phase, span[lo: lo + DETECT_LEN],
                span[lo + PRE: lo + PRE + CLASSIFY_LEN] if full else None)))
        return out
