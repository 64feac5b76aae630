"""Change-detection filter: hand cases, invariance, windows, streaming."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffsentry import detector
from diffsentry.detector import (
    CLASSIFY_LEN,
    CYCLE,
    DETECT_LEN,
    PRE,
    StreamingDetector,
    cdf_series,
    detect,
)
from diffsentry.errors import NonFiniteSample, TooShort, WrongShape
from diffsentry.features import Task, task_window_len
from diffsentry.sampling import (PHASES, FaultType, SamplingSpec, Unit,
                                 read_waveform_csv)
from diffsentry.wavegen.faults import simulate_internal_fault

SPEC = SamplingSpec()
SPC = SPEC.samples_per_cycle


def test_hand_case():
    out = cdf_series([0, 0, 0, 0, 1, 1, 1, 1], n_c=2)
    assert np.array_equal(out, [0.0, 1.0, 2.0, 1.0, 0.0])


def test_periodic_inputs_score_zero():
    # both running sums add the same cycle of |x| in the same order, so a
    # periodic input scores exactly zero
    rng = np.random.default_rng(123)
    for _ in range(100):
        n_c = int(rng.integers(2, 40))
        cycles = int(rng.integers(3, 8))
        base = rng.normal(scale=float(rng.uniform(0.1, 50.0)), size=(n_c, 3))
        x = np.tile(base, (cycles, 1))
        assert not cdf_series(x, n_c).any()
        assert not cdf_series(x[:, 0], n_c).any()


def test_positive_scaling_linearity():
    rng = np.random.default_rng(7)
    x = rng.normal(size=100)
    k = 3.7
    assert np.allclose(cdf_series(k * x, 10), k * cdf_series(x, 10), rtol=1e-12)


def test_output_length():
    x = np.arange(50.0)
    assert cdf_series(x, 10).shape[0] == 50 - 20 + 1


def test_too_short_rejected():
    with pytest.raises(TooShort):
        cdf_series(np.zeros(20), 10)


def _steady_waveform(amplitude=1.0):
    n = 8 * SPC
    theta = 2 * np.pi * np.arange(n)[:, None] / SPC
    offs = np.array([0.0, -2 * np.pi / 3, 2 * np.pi / 3])
    return amplitude * np.sin(theta + offs)


def test_steady_sinusoid_never_triggers():
    event = detect(_steady_waveform())
    assert not event.triggered
    assert event.trigger_index is None


def _step_waveform():
    x = _steady_waveform()
    x[4 * SPC:] *= 3.0
    return x


def test_step_triggers():
    assert detect(_step_waveform()).triggered


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_before_an_event_is_an_error(value):
    # a NaN row would poison the cumulative sums and hide the step
    x = _step_waveform()
    x[2 * SPC] = value
    x[2 * SPC + 5, 2] = value
    with pytest.raises(NonFiniteSample, match=f"sample {2 * SPC} phase a is"):
        detect(x)


@pytest.mark.parametrize("shape", [(8 * SPC, 2), (8 * SPC,), (8 * SPC, 4)])
def test_samples_not_n_by_3_are_an_error(shape):
    with pytest.raises(WrongShape, match=r"\(N, 3\)"):
        detect(np.zeros(shape))


def _fault_wave(rf=0.01, pct=80.0, inception=2 * SPC, ft=FaultType.WA_G):
    fault = {"fault_type": ft, "unit": Unit.PT, "resistance_ohm": rf,
             "pct_winding": pct}
    return simulate_internal_fault(fault, SPEC, duration_cycles=8,
                                   inception_index=inception)


def test_fault_triggers_within_one_cycle_of_inception():
    w = _fault_wave()
    event = detect(w)
    assert event.triggered
    assert abs(event.trigger_index - w.inception_index) <= SPC


def test_window_lengths_exact():
    # the paper's 1.5 cycles (half a cycle before the trigger, one after)
    # and 3 cycles on the 10 kHz / 60 Hz grid
    assert (CYCLE, DETECT_LEN, PRE, CLASSIFY_LEN) == (SPC, 250, 83, 501)
    assert task_window_len(Task.DETECT_FAULT) == DETECT_LEN
    assert {task_window_len(t) for t in Task if t is not Task.DETECT_FAULT} == {501}
    event = detect(_fault_wave())
    assert event.detect_window.shape == (250, 3)
    assert event.classify_window.shape == (3 * SPC, 3)


def test_window_alignment():
    w = _fault_wave()
    event = detect(w)
    t = event.trigger_index
    assert np.array_equal(event.detect_window, w.samples[t - PRE: t - PRE + 250])
    assert np.array_equal(event.classify_window, w.samples[t: t + 3 * SPC])


def test_translation_equivariance_arbitrary_shift():
    # zero background makes prepending zeros an exact time shift
    n = 8 * SPC
    x = np.zeros((n, 3))
    x[3 * SPC:, 1] = np.sin(2 * np.pi * np.arange(n - 3 * SPC) / SPC)
    base = detect(x)
    k = 37
    shifted = np.vstack([np.zeros((k, 3)), x[: n - k]])
    moved = detect(shifted)
    assert moved.trigger_index == base.trigger_index + k


def test_translation_equivariance_whole_cycle():
    # moving the inception one full cycle shifts the whole record by one
    # cycle (the pre-event background is cycle-periodic)
    early = detect(_fault_wave(inception=2 * SPC))
    late = detect(_fault_wave(inception=3 * SPC))
    assert late.trigger_index == early.trigger_index + SPC


def test_never_triggers_before_inception():
    for ft in (FaultType.WA_G, FaultType.WB_WC, FaultType.TURN_TO_TURN):
        w = _fault_wave(ft=ft)
        event = detect(w)
        assert event.triggered
        assert event.trigger_index >= w.inception_index - 1


def test_detection_deferred_when_pre_window_does_not_fit():
    n = 8 * SPC
    x = np.zeros((n, 3))
    x[2 * SPC - 10:, 0] = 1.0  # step very close to the earliest possible window
    event = detect(x)
    assert event.triggered
    # the earliest possible trigger already has the pre-window before it
    assert event.trigger_index == 2 * SPC - 1 >= PRE


def test_weak_turn_to_turn_corner_is_recorded_not_fatal():
    """The hardest sweep corner (20% turns, 10 ohm, lowest tap) may or may
    not clear the threshold; non-detection is an accepted outcome."""
    fault = {"fault_type": FaultType.TURN_TO_TURN, "unit": Unit.EXCITING,
             "resistance_ohm": 10.0, "pct_winding": 20.0, "tap": 0.5}
    w = simulate_internal_fault(fault, SPEC, duration_cycles=8,
                                inception_index=2 * SPC)
    event = detect(w)
    assert event.triggered in (True, False)
    if event.triggered:
        assert event.trigger_index >= w.inception_index - 1


def _stream_events(samples, chunks):
    """(sample index, event) of each event of a fresh stream fed ``samples``
    in ``chunks``, cycled: 0 is one ``push``, k a ``push_block`` of k."""
    stream, events, i = StreamingDetector(), [], 0
    for k in itertools.cycle(chunks):
        if i == len(samples):
            return events
        if k == 0:
            if (e := stream.push(samples[i])) is not None:
                events.append((i, e))
            k = 1
        else:
            events += stream.push_block(samples[i: i + k])
        i = min(i + k, len(samples))


def _assert_stream_matches_batch(samples, chunks=(0,)):
    """Both stream events carry batch detect's trigger, phase and window
    bytes, at the samples where the 1.5- and 3-cycle windows close."""
    batch = detect(samples)
    events = _stream_events(samples, chunks)
    t = batch.trigger_index
    assert [i for i, _ in events] == [t + CYCLE - 1, t + CLASSIFY_LEN - 1]
    (_, verdict), (_, full) = events
    assert verdict.classify_window is None
    for ev in (verdict, full):
        assert ev.trigger_index == t
        assert ev.trigger_phase == batch.trigger_phase
        assert ev.detect_window.tobytes() == batch.detect_window.tobytes()
    assert full.classify_window.tobytes() == batch.classify_window.tobytes()


def test_streaming_matches_batch():
    _assert_stream_matches_batch(_fault_wave().samples)


def test_streaming_matches_batch_on_every_class(reference_corpus):
    # every triggered record of the reference corpus, all seven classes
    corpus_dir, manifest, _ = reference_corpus
    checked = set()
    for row in manifest:
        samples = read_waveform_csv(os.path.join(corpus_dir, row["file"]))
        if detect(samples).triggered:
            _assert_stream_matches_batch(samples)
            checked.add(row["disturbance_type"] or row["kind"])
    assert len(checked) == 7


#: the drawn pickup lies among the first PICKUP_SPAN change-index samples
PICKUP_SPAN = 2 * CYCLE
PICKUP_LEN = 2 * CYCLE - 1 + PICKUP_SPAN + CLASSIFY_LEN


def _drawn_samples(seed, scale, noise, n=PICKUP_LEN):
    """A steady three-phase sinusoid of amplitude ``scale`` with Gaussian
    noise of ``noise`` times that, (n, 3)."""
    rng = np.random.default_rng(seed)
    theta = 2 * np.pi * np.arange(n)[:, None] / CYCLE
    offs = np.array([0.0, -2 * np.pi / 3, 2 * np.pi / 3])
    return scale * (np.sin(theta + offs) + noise * rng.standard_normal((n, 3)))


_draws = dict(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
              noise=st.floats(1e-6, 10.0))


@settings(max_examples=60, deadline=None)
@given(**_draws, drawn=st.integers(0, PICKUP_SPAN - 1),
       chunks=st.lists(st.integers(0, 399), min_size=1, max_size=8))
def test_stream_and_batch_trigger_alike_at_the_pickup(seed, scale, noise,
                                                      drawn, chunks):
    # the pickup is one ulp below the largest index value up to the drawn
    # sample, so the trigger lands on the first sample reaching it and a
    # one-ulp difference between batch and stream moves it; the stream is
    # fed per sample and in the drawn mix of blocks and single pushes
    samples = _drawn_samples(seed, scale, noise)
    series = np.stack([cdf_series(samples[:, p], CYCLE) for p in range(3)],
                      axis=1)
    j = int(np.argmax(series[: drawn + 1].max(axis=1)))
    phase = int(np.argmax(series[j]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector, "THRESHOLD",
                   np.nextafter(series[j, phase], -np.inf))
        batch = detect(samples)
        _assert_stream_matches_batch(samples)
        _assert_stream_matches_batch(samples, chunks)
    assert batch.trigger_index == 2 * CYCLE - 1 + j
    assert batch.trigger_phase == PHASES[phase]


@settings(max_examples=30, deadline=None)
@given(**_draws)
def test_cdf_series_of_three_columns_equals_each_column(seed, scale, noise):
    wide = _drawn_samples(seed, scale, noise, n=2 * PICKUP_LEN)
    wide = np.hstack([wide, -wide])
    strided = wide[::2, ::2]                 # a non-contiguous (n, 3) view
    for samples in (np.ascontiguousarray(strided),
                    np.asfortranarray(strided), strided):
        columns = np.stack([cdf_series(samples[:, p], CYCLE)
                            for p in range(3)], axis=1)
        assert cdf_series(samples, CYCLE).tobytes() == columns.tobytes()


@pytest.mark.parametrize("shape", [(), (1,), (2,), (4,), (3, 1)])
def test_sample_not_of_three_phases_is_an_error(shape):
    stream = StreamingDetector()
    with pytest.raises(WrongShape, match=r"\(3,\)"):
        stream.push(np.full(shape, 5.0))
    assert stream.samples_seen == 0


@pytest.mark.parametrize("sample", ["abc", [1.0, "x", 2.0], {"a": 1}, object()],
                         ids=["string", "string_phase", "dict", "object"])
def test_non_numeric_sample_is_a_wrong_shape(sample):
    stream = StreamingDetector()
    stream.push(np.zeros(3))
    with pytest.raises(WrongShape, match="3 numbers"):
        stream.push(sample)
    assert stream.samples_seen == 1


def _state(stream):
    return (stream.samples_seen, stream._sum_cur.tobytes(),
            stream._sum_prev.tobytes(), stream._abs.tobytes(),
            stream._history.tobytes())


def _nan_at_37(block):
    block = block.copy()
    block[37, 1] = np.nan
    return block


@pytest.mark.parametrize("bad, error, match", [
    (lambda b: b[:, :2], WrongShape, r"\(N, 3\), N >= 1, got \(200, 2\)"),
    (lambda b: b[:, 0], WrongShape, r"\(N, 3\), N >= 1, got \(200,\)"),
    (lambda b: b[:0], WrongShape, r"\(N, 3\), N >= 1, got \(0, 3\)"),
    (_nan_at_37, NonFiniteSample, "sample 137 phase b is nan"),
], ids=["two_phases", "one_dimension", "empty", "nan"])
def test_bad_block_is_refused_before_any_change(bad, error, match):
    # the NaN is named by its index in the stream, after an earlier block
    x = _step_waveform()
    stream = StreamingDetector()
    stream.push_block(x[:100])
    before = _state(stream)
    with pytest.raises(error, match=match):
        stream.push_block(bad(x[100:300]))
    assert _state(stream) == before


def test_streaming_no_event_on_steady_stream():
    stream = StreamingDetector()
    for s in _steady_waveform():
        assert stream.push(s) is None
