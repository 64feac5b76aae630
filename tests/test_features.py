"""Feature ops against independent brute-force oracles, plus task vectors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffsentry.detector import CLASSIFY_LEN, CYCLE, DETECT_LEN
from diffsentry.errors import (
    IndexOutOfRange,
    NonFiniteSample,
    SingularDesign,
    TooShort,
    WrongWindowLength,
)
from diffsentry.features import (
    Task,
    _ar_feature,
    _eval_spec,
    agg_linear_trend,
    ar_coefficients,
    change_quantile,
    dft_coefficient,
    extract,
    extract_many,
    extract_tasks,
    schema_hash,
    task_specs,
    task_window_len,
    welch_density,
)
from diffsentry.sampling import PHASES


# -- brute-force oracles (kept deliberately plain and loop-based) -----------------

def oracle_change_quantile(x, ql, qh):
    x = np.asarray(x, dtype=float)
    lo, hi = np.quantile(x, ql), np.quantile(x, qh)
    diffs = []
    for t in range(len(x) - 1):
        if lo <= x[t] <= hi and lo <= x[t + 1] <= hi:
            diffs.append(abs(x[t + 1] - x[t]))
    return sum(diffs) / len(diffs) if diffs else 0.0


def oracle_dft(x, k):
    x = np.asarray(x, dtype=float)
    n = len(x)
    total = 0j
    for t in range(n):
        total += x[t] * np.exp(-2j * np.pi * k * t / n)
    return total


def oracle_trend(x, w, statistic, aggregator):
    x = np.asarray(x, dtype=float)
    stats = []
    for i in range(len(x) // w):
        seg = x[i * w:(i + 1) * w]
        t = np.arange(w)
        tm, ym = t.mean(), seg.mean()
        sxx = ((t - tm) ** 2).sum()
        slope = ((t - tm) * (seg - ym)).sum() / sxx
        intercept = ym - slope * tm
        if w == 2:
            stderr = 0.0
        else:
            resid = seg - (intercept + slope * t)
            stderr = np.sqrt((resid ** 2).sum() / (w - 2) / sxx)
        stats.append({"slope": slope, "intercept": intercept, "stderr": stderr}[statistic])
    agg = {"mean": np.mean, "min": np.min, "max": np.max, "var": np.var}[aggregator]
    return float(agg(stats))


def oracle_welch(x, bin_index, seg_len):
    x = np.asarray(x, dtype=float)
    window = np.array([0.5 - 0.5 * np.cos(2 * np.pi * j / seg_len)
                       for j in range(seg_len)])
    periodograms = []
    start = 0
    while start + seg_len <= len(x):
        seg = x[start: start + seg_len] * window
        spectrum = [abs(oracle_dft(seg, k)) ** 2 for k in range(seg_len // 2 + 1)]
        periodograms.append(spectrum)
        start += seg_len // 2
    avg = np.mean(periodograms, axis=0) / (window ** 2).sum()
    avg[1: seg_len // 2] *= 2.0
    return float(avg[bin_index])


def oracle_ar(x, order):
    x = np.asarray(x, dtype=float)
    rows = len(x) - order
    design = np.ones((rows, order + 1))
    for lag in range(1, order + 1):
        design[:, lag] = x[order - lag: len(x) - lag]
    sol, *_ = np.linalg.lstsq(design, x[order:], rcond=None)
    return sol


# -- change quantile -----------------------------------------------------------------

def test_change_quantile_constant_is_zero():
    assert change_quantile(np.full(20, 3.3), 0.1, 0.9) == 0.0


def test_change_quantile_alternating():
    assert change_quantile([0, 1, 0, 1], 0.0, 1.0) == 1.0


def test_change_quantile_band_example():
    x = [0, 5, 1, 2, 1, 5]
    got = change_quantile(x, 0.0, 0.5)
    assert got == pytest.approx(oracle_change_quantile(x, 0.0, 0.5), rel=1e-12)


def test_change_quantile_randomized_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 512))
        x = rng.normal(scale=rng.uniform(0.1, 10), size=n)
        ql = float(rng.uniform(0, 0.8))
        qh = float(rng.uniform(ql + 0.05, 1.0))
        got = change_quantile(x, ql, qh)
        want = oracle_change_quantile(x, ql, qh)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_change_quantile_shift_invariant():
    rng = np.random.default_rng(5)
    x = rng.normal(size=200)
    a = change_quantile(x, 0.2, 0.8)
    b = change_quantile(x + 123.456, 0.2, 0.8)
    assert b == pytest.approx(a, rel=1e-9)


def test_change_quantile_validation():
    with pytest.raises(TooShort):
        change_quantile([1.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        change_quantile([1.0, 2.0], 0.8, 0.2)


# -- DFT coefficient -----------------------------------------------------------------

def test_dft_dc_and_orthogonality():
    assert dft_coefficient([1, 1, 1, 1], 0, "abs") == pytest.approx(4.0)
    assert dft_coefficient([1, 1, 1, 1], 1, "abs") == pytest.approx(0.0, abs=1e-12)


def test_dft_pure_tone():
    n = 32
    x = np.cos(2 * np.pi * 3 * np.arange(n) / n)
    assert dft_coefficient(x, 3, "abs") == pytest.approx(16.0, rel=1e-12)


def test_dft_randomized_against_direct_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(4, 512))
        x = rng.normal(size=n)
        k = int(rng.integers(0, n // 2 + 1))
        want = oracle_dft(x, k)
        for part, val in (("abs", abs(want)), ("real", want.real), ("imag", want.imag)):
            assert dft_coefficient(x, k, part) == pytest.approx(
                val, rel=1e-9, abs=1e-9
            )


def test_dft_index_validation():
    with pytest.raises(IndexOutOfRange):
        dft_coefficient([1, 2, 3, 4], 3, "abs")


# -- aggregated linear trend ------------------------------------------------------------

def test_trend_exact_line():
    assert agg_linear_trend([0, 1, 2, 3, 4], 5, "slope", "mean") == pytest.approx(1.0)
    assert agg_linear_trend([0, 1, 2, 3, 4], 5, "stderr", "mean") == 0.0


def test_trend_up_down_cancels():
    x = [0, 1, 2, 3, 4, 4, 3, 2, 1, 0]
    assert agg_linear_trend(x, 5, "slope", "mean") == pytest.approx(0.0, abs=1e-12)


def test_trend_randomized_against_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(4, 512))
        w = int(rng.integers(2, max(3, n // 2 + 1)))
        x = rng.normal(size=n)
        statistic = rng.choice(["slope", "intercept", "stderr"])
        aggregator = rng.choice(["mean", "min", "max", "var"])
        got = agg_linear_trend(x, w, statistic, aggregator)
        want = oracle_trend(x, w, statistic, aggregator)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_trend_slope_scales_with_amplitude():
    rng = np.random.default_rng(29)
    x = rng.normal(size=100)
    a = agg_linear_trend(x, 10, "slope", "mean")
    b = agg_linear_trend(4.0 * x, 10, "slope", "mean")
    assert b == pytest.approx(4.0 * a, rel=1e-9, abs=1e-12)


# -- Welch density -----------------------------------------------------------------------

def test_welch_zero_signal():
    for b in (0, 1, 7, 32):
        assert welch_density(np.zeros(256), b, 64) == 0.0


def test_welch_constant_concentrates_at_dc():
    # a Hann window leaks a DC signal into bin 1 (one quarter amplitude by
    # construction); every bin from 2 up must be numerically zero
    vals = [welch_density(np.full(256, 5.0), b, 64) for b in range(33)]
    assert vals[0] > 0
    for b in range(2, 33):
        assert vals[0] > 1e6 * vals[b]
    assert vals[1] == pytest.approx(vals[0] / 2.0, rel=1e-9)


def test_welch_peak_bin_location():
    for m in (3, 7, 15):
        x = np.sin(2 * np.pi * m * np.arange(320) / 64)
        vals = [welch_density(x, b, 64) for b in range(33)]
        assert int(np.argmax(vals)) == m


def test_welch_randomized_against_oracle():
    rng = np.random.default_rng(31)
    for _ in range(40):
        seg = int(rng.choice([16, 32, 64]))
        n = int(rng.integers(seg, 512))
        x = rng.normal(size=n)
        b = int(rng.integers(0, seg // 2 + 1))
        assert welch_density(x, b, seg) == pytest.approx(
            oracle_welch(x, b, seg), rel=1e-9, abs=1e-12
        )


def test_welch_validation():
    with pytest.raises(TooShort):
        welch_density(np.zeros(32), 0, 64)
    with pytest.raises(ValueError):
        welch_density(np.zeros(256), 0, 48)
    with pytest.raises(IndexOutOfRange):
        welch_density(np.zeros(256), 33, 64)


# -- autoregressive coefficients ------------------------------------------------------------

def test_ar_exact_first_order():
    x = np.array([0.8 ** t for t in range(30)])
    phi = ar_coefficients(x, 1)
    assert phi[0] == pytest.approx(0.0, abs=1e-9)
    assert phi[1] == pytest.approx(0.8, rel=1e-9)


def test_ar_constant_is_singular():
    with pytest.raises(SingularDesign, match="design is rank deficient"):
        ar_coefficients(np.ones(40), 2)


def test_ar_recovers_known_process():
    rng = np.random.default_rng(37)
    n = 4000
    x = np.zeros(n)
    for t in range(2, n):
        x[t] = 0.6 * x[t - 1] - 0.3 * x[t - 2] + rng.normal(scale=1e-3)
    x[:2] = rng.normal(size=2)
    phi = ar_coefficients(x[100:], 2)
    assert phi[1] == pytest.approx(0.6, abs=1e-2)
    assert phi[2] == pytest.approx(-0.3, abs=1e-2)


def test_ar_randomized_against_lstsq_oracle():
    rng = np.random.default_rng(41)
    for _ in range(100):
        order = int(rng.integers(1, 6))
        n = int(rng.integers(2 * (order + 1) + 5, 512))
        x = rng.normal(size=n)
        got = ar_coefficients(x, order)
        want = oracle_ar(x, order)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def test_ar_too_short():
    with pytest.raises(TooShort):
        ar_coefficients(np.arange(5.0), 2)


def test_ar_of_a_stack_is_each_series():
    rng = np.random.default_rng(43)
    stack = rng.normal(size=(2, 3, 60))
    got = ar_coefficients(stack, 3)
    assert got.shape == (2, 3, 4)
    for idx in np.ndindex(stack.shape[:-1]):
        assert got[idx].tobytes() == ar_coefficients(stack[idx], 3).tobytes()
    stack[1, 2] = 1.0
    with pytest.raises(SingularDesign):
        ar_coefficients(stack, 3)


# -- oracle: the per-series AR solve the stacked one replaced ---------------------

def oracle_ar_row(x, order):
    """Coefficients of one series by its own normal equations, or None when
    its Gram matrix is rank deficient."""
    n = x.shape[0]
    design = np.empty((n - order, order + 1))
    design[:, 0] = 1.0
    for lag in range(1, order + 1):
        design[:, lag] = x[order - lag: n - lag]
    gram = design.T @ design
    rank = np.linalg.matrix_rank(gram, tol=1e-9 * max(1.0, np.abs(gram).max()))
    if rank < order + 1:
        return None
    return np.linalg.solve(gram, design.T @ x[order:])


def oracle_ar_feature(x, order, coeff):
    """(values, fallback) of x (..., n), one series (a view of x) at a time."""
    values = np.empty(x.shape[:-1])
    fallback = np.zeros(x.shape[:-1], dtype=bool)
    for idx in np.ndindex(x.shape[:-1]):
        phi = oracle_ar_row(x[idx], order)
        values[idx], fallback[idx] = (0.0, True) if phi is None else (phi[coeff], False)
    return values, fallback


def _assert_ar_matches_oracle(x, order, coeff):
    got, flags = _ar_feature(x, order, coeff)
    want, want_flags = oracle_ar_feature(x, order, coeff)
    assert np.asarray(got).tobytes() == want.tobytes()
    assert np.array_equal(flags, want_flags)


_AR_ROW_KINDS = ["noise", "sine", "sine_noise", "sine_dc", "constant"]


@st.composite
def _ar_stacks(draw):
    """(m, 2n, 3) windows, one kind per window, so singular and full-rank
    rows share a stack."""
    m = draw(st.integers(1, 7))
    n = draw(st.sampled_from([40, DETECT_LEN, CLASSIFY_LEN]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(2 * n)[:, None]
    offs = np.array([0.0, -2 * np.pi / 3, 2 * np.pi / 3])
    sine = np.sin(2 * np.pi * t / CYCLE + offs)
    rows = []
    for kind in draw(st.lists(st.sampled_from(_AR_ROW_KINDS), min_size=m,
                              max_size=m)):
        scale = 10.0 ** draw(st.integers(-5, 5))
        w = {"noise": lambda: rng.normal(size=(2 * n, 3)),
             "sine": lambda: sine,
             "sine_noise": lambda: sine + 10.0 ** -rng.uniform(1, 8)
             * rng.normal(size=(2 * n, 3)),
             "sine_dc": lambda: sine + np.exp(-t / 80.0),
             "constant": lambda: np.full((2 * n, 3), rng.normal())}[kind]()
        rows.append(scale * w)
    return np.stack(rows), n


@settings(deadline=None, max_examples=60)
@given(case=_ar_stacks(), order=st.integers(1, 5), data=st.data())
def test_stacked_ar_equals_per_series_oracle(case, order, data):
    stack, n = case
    coeff = data.draw(st.integers(0, order))
    ph = data.draw(st.integers(0, 2))
    views = {
        "phase_column": stack[:, :n, ph],
        "reversed": stack[::-1, n - 1::-1, ph],
        "step_sliced": stack[:, ::2, ph],
        "contiguous": np.ascontiguousarray(stack[:, :n, ph]),
        "windows": stack[:, :n].swapaxes(1, 2),
    }
    for x in views.values():
        _assert_ar_matches_oracle(x, order, coeff)
    for r in range(stack.shape[0]):
        _assert_ar_matches_oracle(stack[r, :n, ph], order, coeff)


def _linalg_calls(stack, task):
    counts = {"matrix_rank": 0, "solve": 0}

    def counting(name):
        real = getattr(np.linalg, name)

        def call(*a, **kw):
            counts[name] += 1
            return real(*a, **kw)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in counts:
            mp.setattr(np.linalg, name, counting(name))
        extract_many(stack, task)
    return counts


@pytest.mark.parametrize("m", [1, 40])
def test_extract_many_solves_ar_once_per_phase(m):
    rng = np.random.default_rng(47)
    stack = rng.normal(size=(m, task_window_len(Task.DETECT_FAULT), 3))
    stack[::2, :, 1] = 2.0  # singular rows in phase b
    counts = _linalg_calls(stack, Task.DETECT_FAULT)
    assert all(1 <= c <= len(PHASES) for c in counts.values()), counts


# -- non-finite input -----------------------------------------------------------------

def test_ar_refuses_a_non_finite_sample():
    x = np.random.default_rng(53).normal(size=(2, 40))
    x[1, 7] = np.nan
    with pytest.raises(NonFiniteSample, match=r"sample \[7\] is nan"):
        ar_coefficients(x[1], 2)
    with pytest.raises(NonFiniteSample, match=r"sample \[1, 7\] is nan"):
        ar_coefficients(x, 2)


def test_extract_refuses_a_non_finite_sample():
    window = np.ones((task_window_len(Task.DETECT_FAULT), 3))
    window[12, 2] = -np.inf
    with pytest.raises(NonFiniteSample, match="sample 12 phase c is -inf"):
        extract(window, Task.DETECT_FAULT)


def test_extract_many_refuses_a_non_finite_sample():
    stack = np.ones((3, task_window_len(Task.LOCATE_UNIT), 3))
    stack[2, 40, 1] = np.nan
    with pytest.raises(NonFiniteSample, match="window 2 sample 40 phase b is nan"):
        extract_many(stack, Task.LOCATE_UNIT)


# -- task vectors ---------------------------------------------------------------------------

@pytest.mark.parametrize("task,length", [
    (Task.DETECT_FAULT, 18),
    (Task.LOCATE_UNIT, 18),
    (Task.IDENTIFY_SERIES, 21),
    (Task.IDENTIFY_EXCITING, 21),
    (Task.IDENTIFY_PT, 21),
    (Task.IDENTIFY_DISTURBANCE, 15),
])
def test_vector_lengths(task, length):
    n = task_window_len(task)
    window = np.random.default_rng(1).normal(size=(n, 3))
    vec = extract(window, task)
    assert vec.values.shape == (length,)
    assert len(vec.spec_list) == length
    # identical per-phase structure: a third of the specs per phase
    per_phase = length // 3
    phases = [ph for ph, _ in vec.spec_list]
    assert phases == ["a"] * per_phase + ["b"] * per_phase + ["c"] * per_phase


def test_per_task_family_counts_are_frozen():
    counts = {
        Task.DETECT_FAULT: (2, 1, 1, 1, 1),
        Task.LOCATE_UNIT: (2, 2, 2, 0, 0),
        Task.IDENTIFY_SERIES: (3, 1, 2, 1, 0),
        Task.IDENTIFY_EXCITING: (3, 2, 2, 0, 0),
        Task.IDENTIFY_PT: (3, 2, 2, 0, 0),
        Task.IDENTIFY_DISTURBANCE: (2, 1, 1, 0, 1),
    }
    families = ["change_quantile", "dft_coefficient", "agg_linear_trend",
                "welch_density", "ar_coefficients"]
    for task, expected in counts.items():
        specs = task_specs(task)
        got = tuple(sum(1 for s in specs if s.family == fam) for fam in families)
        assert got == expected


def test_zero_window_fallbacks():
    n = task_window_len(Task.DETECT_FAULT)
    vec = extract(np.zeros((n, 3)), Task.DETECT_FAULT)
    assert vec.ar_fallback
    assert np.all(np.isfinite(vec.values))
    assert np.all(vec.values == 0.0)


def test_extract_is_pure():
    n = task_window_len(Task.IDENTIFY_DISTURBANCE)
    window = np.random.default_rng(3).normal(size=(n, 3))
    a = extract(window, Task.IDENTIFY_DISTURBANCE)
    b = extract(window.copy(), Task.IDENTIFY_DISTURBANCE)
    assert np.array_equal(a.values, b.values)


def test_wrong_window_length_rejected():
    with pytest.raises(WrongWindowLength):
        extract(np.zeros((100, 3)), Task.DETECT_FAULT)
    with pytest.raises(WrongWindowLength):
        extract(np.zeros((250, 2)), Task.DETECT_FAULT)


#: the hashes every trained model file carries; the fixed window geometry
#: and the frozen specs must keep them
SCHEMA_HASHES = {
    Task.DETECT_FAULT: "f036462105f8f410",
    Task.LOCATE_UNIT: "ce11254d8064d36c",
    Task.IDENTIFY_SERIES: "95395c7c0d6162b0",
    Task.IDENTIFY_EXCITING: "27f88a6794fd2734",
    Task.IDENTIFY_PT: "27660445b7d79724",
    Task.IDENTIFY_DISTURBANCE: "cdcffcca6cccd17c",
}


def test_schema_hash_distinguishes_tasks():
    hashes = {schema_hash(t) for t in Task}
    assert len(hashes) == len(list(Task))
    assert {t: schema_hash(t) for t in Task} == SCHEMA_HASHES


@pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
def test_cached_schema_hash_equals_a_fresh_digest(task):
    import hashlib
    import json

    payload = {
        "task": task.value,
        "window_len": task_window_len(task),
        "specs": [{"phase": ph, "family": s.family, "params": s.params}
                  for ph in PHASES for s in task_specs(task)],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    fresh = hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert schema_hash(task) == fresh
    assert schema_hash(task) == fresh          # the cached second read
    assert extract(np.zeros((task_window_len(task), 3)), task).schema == fresh


def test_feature_names_carry_phase_and_family():
    n = task_window_len(Task.DETECT_FAULT)
    vec = extract(np.random.default_rng(0).normal(size=(n, 3)), Task.DETECT_FAULT)
    names = vec.names()
    assert names[0].startswith("a_change_quantile_")
    assert names[-1].startswith("c_ar_coefficients_")
    assert len(set(names)) == len(names)


# -- a stack of windows at once ----------------------------------------------------

def _per_spec_loop(window, task):
    """Values and fallback flag of one task, one spec at a time."""
    values, fallback = [], False
    for ph_idx in range(len(PHASES)):
        for spec in task_specs(task):
            val, fb = _eval_spec(spec, window[:, ph_idx])
            values.append(val)
            fallback = fallback or fb
    return np.asarray(values, dtype=np.float64), fallback


def _assert_rows_match(windows, tasks):
    """extract_many over the stacked windows equals extract on each window,
    bit for bit, for every task that takes their length."""
    stack = np.stack(windows)
    for task in tasks:
        if stack.shape[1] != task_window_len(task):
            continue
        values, fallback = extract_many(stack, task)
        assert values.shape == (len(windows), 3 * len(task_specs(task)))
        assert fallback.dtype == bool and fallback.shape == (len(windows),)
        for row, flag, window in zip(values, fallback, windows):
            alone = extract(window, task)
            assert row.tobytes() == alone.values.tobytes()
            assert bool(flag) is alone.ar_fallback


@st.composite
def _windows(draw, n):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-5, 5))
    kind = draw(st.sampled_from(["noise", "sine", "sine_dc", "steps", "zeros"]))
    t = np.arange(n)[:, None]
    offs = np.array([0.0, -2 * np.pi / 3, 2 * np.pi / 3])
    if kind == "noise":
        w = rng.normal(size=(n, 3))
    elif kind == "sine":
        w = np.sin(2 * np.pi * t / CYCLE + offs)
    elif kind == "sine_dc":  # exact low-order recurrences: singular AR
        w = np.sin(2 * np.pi * t / CYCLE + offs) + np.exp(-t / 80.0)
    elif kind == "steps":  # many tied values
        w = np.round(rng.normal(size=(n, 3)), 1)
    else:
        w = np.zeros((n, 3))
    return scale * w


@st.composite
def _window_stacks(draw):
    """Several windows of one task's length, of mixed kinds."""
    n = task_window_len(draw(st.sampled_from([Task.DETECT_FAULT, Task.LOCATE_UNIT])))
    return draw(st.lists(_windows(n), min_size=1, max_size=6))


@settings(deadline=None, max_examples=25)
@given(windows=_window_stacks())
def test_extract_many_rows_equal_extract(windows):
    for window in windows:
        for task in Task:
            if window.shape[0] == task_window_len(task):
                values, fallback = _per_spec_loop(window, task)
                alone = extract(window, task)
                assert alone.values.tobytes() == values.tobytes()
                assert alone.ar_fallback is bool(fallback)
    _assert_rows_match(windows, list(Task))


def test_extract_many_equals_extract_on_corpus(reference_corpus):
    """Every detect and classify window of the reference corpus, clean and
    at 10 dB: DetectFault on the detect windows, and on the classify windows
    tasks that hold every classify spec (row r of a stack is checked against
    extract on window r, and a task's row is its specs' values)."""
    from diffsentry.detector import detect
    from diffsentry.pipeline import load_corpus_waveforms
    from diffsentry.wavegen.noise import add_noise

    cover = (Task.IDENTIFY_SERIES, Task.IDENTIFY_EXCITING,
             Task.IDENTIFY_DISTURBANCE)
    classify_tasks = [t for t in Task if t is not Task.DETECT_FAULT]
    assert ({spec.key() for t in cover for spec in task_specs(t)}
            == {spec.key() for t in classify_tasks for spec in task_specs(t)})
    corpus_dir, manifest, _ = reference_corpus
    detect_windows, classify_windows = [], []
    for i, (_, wave) in enumerate(load_corpus_waveforms(corpus_dir, manifest)):
        for copy in (wave, add_noise(wave, 10.0, seed=i)):
            event = detect(copy)
            if event.triggered:
                detect_windows.append(event.detect_window)
                classify_windows.append(event.classify_window)
    assert len(detect_windows) > len(manifest)
    _assert_rows_match(detect_windows, [Task.DETECT_FAULT])
    _assert_rows_match(classify_windows, cover)
    # the AR columns against the per-series solve, one phase at a time
    for windows, task in [(detect_windows, Task.DETECT_FAULT),
                          (classify_windows, Task.IDENTIFY_DISTURBANCE)]:
        stack = np.stack(windows)
        specs = task_specs(task)
        j = next(i for i, s in enumerate(specs) if s.family == "ar_coefficients")
        values, fallback = extract_many(stack, task)
        flags = np.zeros(len(windows), dtype=bool)
        for ph in range(len(PHASES)):
            want, want_flags = oracle_ar_feature(stack[..., ph], **specs[j].params)
            assert values[:, ph * len(specs) + j].tobytes() == want.tobytes()
            flags |= want_flags
        assert np.array_equal(fallback, flags)


def test_extract_many_rejects_a_wrong_stack():
    n = task_window_len(Task.LOCATE_UNIT)
    with pytest.raises(WrongWindowLength):
        extract_many(np.zeros((2, n, 3)), Task.DETECT_FAULT)
    with pytest.raises(WrongWindowLength):
        extract_many(np.zeros((n, 3)), Task.LOCATE_UNIT)
    with pytest.raises(WrongWindowLength):
        extract_many(np.zeros((2, n, 2)), Task.LOCATE_UNIT)


def test_extract_many_of_no_windows_is_empty():
    n = task_window_len(Task.IDENTIFY_DISTURBANCE)
    values, fallback = extract_many(np.zeros((0, n, 3)), Task.IDENTIFY_DISTURBANCE)
    assert values.shape == (0, 15) and fallback.shape == (0,)


# -- several tasks of one window length at once --------------------------------------

_TASKS_OF_LENGTH = {n: [t for t in Task if task_window_len(t) == n]
                    for n in (DETECT_LEN, CLASSIFY_LEN)}


@st.composite
def _task_stacks(draw):
    """A non-empty tuple of tasks of one window length, duplicates allowed,
    and a stack of 0-7 of their windows: contiguous, every other window of
    a stack twice as large, or a Fortran-ordered copy."""
    n = draw(st.sampled_from(sorted(_TASKS_OF_LENGTH)))
    tasks = tuple(draw(st.lists(st.sampled_from(_TASKS_OF_LENGTH[n]),
                                min_size=1, max_size=6)))
    m = draw(st.integers(0, 7))
    layout = draw(st.sampled_from(["contiguous", "every_other", "fortran"]))
    windows = [draw(_windows(n)) for _ in range(2 * m if layout == "every_other" else m)]
    stack = np.stack(windows) if windows else np.empty((0, n, 3))
    if layout == "every_other":
        stack = stack[::2]
    elif layout == "fortran":
        stack = np.asfortranarray(stack)
    return tasks, stack


@settings(deadline=None, max_examples=30)
@given(case=_task_stacks())
def test_extract_tasks_rows_equal_extract(case):
    tasks, windows = case
    out = extract_tasks(windows, tasks)
    assert set(out) == set(tasks)
    m = windows.shape[0]
    for task, (values, fallback) in out.items():
        assert values.shape == (m, 3 * len(task_specs(task)))
        assert fallback.dtype == bool and fallback.shape == (m,)
        for r in range(m):
            alone = extract(windows[r], task)
            assert values[r].tobytes() == alone.values.tobytes()
            assert bool(fallback[r]) is alone.ar_fallback


def test_extract_tasks_evaluates_each_spec_of_the_union_once(monkeypatch):
    """LocateUnit and the three Identify tasks share 8 distinct specs: one
    call each per phase, where one task at a time makes 27."""
    from diffsentry import features

    calls = []

    def counted(spec, x):
        calls.append(spec)
        return _eval_spec(spec, x)

    monkeypatch.setattr(features, "_eval_spec", counted)
    tasks = (Task.LOCATE_UNIT, Task.IDENTIFY_EXCITING, Task.IDENTIFY_SERIES,
             Task.IDENTIFY_PT)
    windows = np.random.default_rng(3).normal(size=(4, CLASSIFY_LEN, 3))
    extract_tasks(windows, tasks)
    assert len(calls) == 3 * 8
    calls.clear()
    for task in tasks:
        extract_many(windows, task)
    assert len(calls) == 3 * sum(len(task_specs(t)) for t in tasks) == 3 * 27


@pytest.mark.parametrize("tasks", [
    (Task.DETECT_FAULT, Task.LOCATE_UNIT),
    (Task.IDENTIFY_PT, Task.IDENTIFY_PT, Task.DETECT_FAULT),
])
def test_extract_tasks_refuses_tasks_of_different_window_lengths(tasks):
    with pytest.raises(WrongWindowLength) as err:
        extract_tasks(np.zeros((1, CLASSIFY_LEN, 3)), tasks)
    for task in set(tasks):
        assert task.value in str(err.value)


def test_extract_tasks_refuses_no_task():
    with pytest.raises(ValueError, match="at least one task"):
        extract_tasks(np.zeros((1, CLASSIFY_LEN, 3)), ())


def test_unknown_family_is_a_value_error():
    from diffsentry.features import FeatureSpec

    with pytest.raises(ValueError, match="unknown feature family"):
        _eval_spec(FeatureSpec("wavelet", {}), np.zeros(10))
