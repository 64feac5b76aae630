"""Time and frequency domain feature families and per-task feature vectors.

Five families are implemented, each per phase:

* change quantile: mean absolute consecutive change inside a quantile band
* DFT coefficient: one coefficient of the length-n discrete transform
* aggregated linear trend: per-window least-squares statistic, aggregated
* Welch density: averaged-periodogram spectral density at one bin
  (Hann window, 50% overlap, no detrending)
* autoregressive coefficients: conditional least squares with intercept

Every op reads its series along the last axis: it takes one series (n,)
or a stack (..., n) and returns a value per series, with one
implementation for both. Row r of a stack gets the same bits as series r
on its own. AR makes one rank test and one solve per stack, on products of
the input's strided view (``_ar_solve``); a rank-deficient series is a
``SingularDesign`` error, or 0 and an AR-fallback flag in a task vector.

Task vectors apply a frozen parameter list identically to each phase and
concatenate phase a, then b, then c. ``extract`` cuts one window's vector;
``extract_many`` runs the same spec loop over a stack of windows (m, n, 3),
one op call per spec and phase for the whole stack. ``extract_tasks`` does
so for several tasks of one window length at once, each distinct spec of
their union once per phase.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .detector import CLASSIFY_LEN, DETECT_LEN, refuse_non_finite
from .errors import (IndexOutOfRange, NonFiniteSample, SingularDesign, TooShort,
                     WrongWindowLength)
from .sampling import PHASES


class Task(enum.Enum):
    DETECT_FAULT = "DetectFault"
    LOCATE_UNIT = "LocateUnit"
    IDENTIFY_SERIES = "IdentifySeries"
    IDENTIFY_EXCITING = "IdentifyExciting"
    IDENTIFY_PT = "IdentifyPT"
    IDENTIFY_DISTURBANCE = "IdentifyDisturbance"


@dataclass(frozen=True)
class FeatureSpec:
    family: str
    params: dict

    def key(self) -> str:
        blob = json.dumps(self.params, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(f"{self.family}:{blob}".encode()).hexdigest()[:8]
        return f"{self.family}_{digest}"


# -- feature operations --------------------------------------------------------
#
# ``values`` is one series (n,) or a stack (..., n); the result has the
# leading shape, a float for one series.

def change_quantile(values, ql: float, qh: float):
    """Mean |x[t+1] - x[t]| over pairs whose both samples lie in the
    [quantile(ql), quantile(qh)] band; 0 when no pair qualifies."""
    x = np.asarray(values, dtype=np.float64)
    if x.shape[-1] < 2:
        raise TooShort("change_quantile needs at least 2 samples")
    if not 0.0 <= ql < qh <= 1.0:
        raise ValueError(f"need 0 <= ql < qh <= 1, got ({ql}, {qh})")
    lo = np.quantile(x, ql, axis=-1)[..., None]
    hi = np.quantile(x, qh, axis=-1)[..., None]
    inside = (x >= lo) & (x <= hi)
    both = (inside[..., :-1] & inside[..., 1:]).reshape(-1, x.shape[-1] - 1)
    steps = np.abs(np.diff(x, axis=-1)).reshape(both.shape)
    # compress each row before its mean: a masked sum adds in another order
    out = np.array([np.mean(s[b]) if b.any() else 0.0
                    for s, b in zip(steps, both)])
    return out.reshape(x.shape[:-1])[()]


_DFT_PARTS = {"abs": np.abs, "real": np.real, "imag": np.imag}


def dft_coefficient(values, k: int, part: str = "abs"):
    """Requested part of X_k = sum_t x_t exp(-j 2 pi k t / n)."""
    x = np.asarray(values, dtype=np.float64)
    n = x.shape[-1]
    if not 0 <= k <= n // 2:
        raise IndexOutOfRange(f"coefficient {k} outside [0, {n // 2}]")
    if part not in _DFT_PARTS:
        raise ValueError(f"part must be abs, real or imag, got {part!r}")
    return _DFT_PARTS[part](np.fft.rfft(x, axis=-1)[..., k])[()]


def _ols_line(y: np.ndarray):
    """Least-squares y = a + b t on t = 0..w-1 along the last axis of y
    (..., w); returns (slope, intercept, stderr of the slope), each of the
    leading shape. Exact two-point fits have zero stderr."""
    w = y.shape[-1]
    t = np.arange(w, dtype=np.float64)
    t_mean = t.mean()
    t_dev = t - t_mean
    y_mean = y.mean(axis=-1)
    sxx = np.sum(t_dev ** 2)
    b = np.sum(t_dev * (y - y_mean[..., None]), axis=-1) / sxx
    a = y_mean - b * t_mean
    if w == 2:
        return b, a, np.zeros_like(b)
    resid = y - (a[..., None] + b[..., None] * t)
    s2 = np.sum(resid * resid, axis=-1) / (w - 2)
    return b, a, np.sqrt(s2 / sxx)


_TREND_STATS = ("slope", "intercept", "stderr")
_TREND_AGGS = {"mean": np.mean, "min": np.min, "max": np.max, "var": np.var}


def agg_linear_trend(values, window_len: int, statistic: str, aggregator: str):
    """Aggregate a per-window regression statistic over consecutive
    non-overlapping windows (trailing partial window discarded)."""
    x = np.asarray(values, dtype=np.float64)
    if window_len < 2:
        raise ValueError("window_len must be at least 2")
    if x.shape[-1] < window_len:
        raise TooShort(f"need at least {window_len} samples, got {x.shape[-1]}")
    if statistic not in _TREND_STATS:
        raise ValueError(f"statistic must be one of {_TREND_STATS}")
    if aggregator not in _TREND_AGGS:
        raise ValueError(f"aggregator must be one of {tuple(_TREND_AGGS)}")
    n_win = x.shape[-1] // window_len
    pick = _TREND_STATS.index(statistic)
    stats = np.empty(x.shape[:-1] + (n_win,))
    for i in range(n_win):
        block = x[..., i * window_len:(i + 1) * window_len]
        stats[..., i] = _ols_line(block)[pick]
    return _TREND_AGGS[aggregator](stats, axis=-1)[()]


def welch_density(values, bin_index: int, segment_len: int = 64):
    """Welch power spectral density at one bin: Hann-windowed segments with
    50% overlap, periodogram averaging, one-sided, unit sample rate, no
    detrending."""
    x = np.asarray(values, dtype=np.float64)
    n = x.shape[-1]
    if segment_len > n:
        raise TooShort(f"segment_len {segment_len} exceeds signal length {n}")
    if segment_len & (segment_len - 1):
        raise ValueError("segment_len must be a power of two")
    if not 0 <= bin_index <= segment_len // 2:
        raise IndexOutOfRange(f"bin {bin_index} outside [0, {segment_len // 2}]")
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    norm = np.sum(window * window)
    step = segment_len // 2
    psd = np.zeros(x.shape[:-1] + (segment_len // 2 + 1,))
    count = 0
    for start in range(0, n - segment_len + 1, step):
        seg = x[..., start: start + segment_len] * window
        spec = np.abs(np.fft.rfft(seg, axis=-1)) ** 2
        psd += spec
        count += 1
    psd /= count * norm
    psd[..., 1: segment_len // 2] *= 2.0  # one-sided, DC and Nyquist unscaled
    return psd[..., bin_index][()]


def ar_coefficients(values, order: int) -> np.ndarray:
    """(phi_0 .. phi_P) minimizing the conditional least-squares criterion
    sum_t (x_t - phi_0 - sum_i phi_i x_{t-i})^2 via the normal equations,
    per series of x (..., n). A rank-deficient design raises
    ``SingularDesign``, a NaN or infinite sample ``NonFiniteSample``."""
    x = np.asarray(values, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        raise NonFiniteSample(f"sample {bad[0].tolist()} is {x[tuple(bad[0])]}")
    coeffs, singular = _ar_solve(x, order)
    if singular.any():
        raise SingularDesign("autoregressive design is rank deficient")
    return coeffs


def _ar_solve(x: np.ndarray, order: int):
    """Coefficients (..., P+1) of every series of x (..., n), and per series
    whether its Gram matrix is rank deficient (coefficients then 0). Both
    products are formed on x's strided view before the singular series are
    masked out: ``x[full]`` would copy them to contiguous memory, where
    BLAS's matrix-vector product rounds differently from the series alone."""
    if order < 1:
        raise ValueError("order must be >= 1")
    n = x.shape[-1]
    if n < 2 * (order + 1):
        raise TooShort(f"need at least {2 * (order + 1)} samples, got {n}")
    design = np.empty(x.shape[:-1] + (n - order, order + 1))
    design[..., 0] = 1.0
    for lag in range(1, order + 1):
        design[..., lag] = x[..., order - lag: n - lag]
    target = x[..., order:]

    gram = design.mT @ design
    moment = design.mT @ target[..., None]
    tol = 1e-9 * np.maximum(1.0, np.abs(gram).max(axis=(-2, -1)))
    singular = np.linalg.matrix_rank(gram, tol=tol) < order + 1
    coeffs = np.zeros(moment.shape[:-1])
    full = ~singular
    coeffs[full] = np.linalg.solve(gram[full], moment[full])[..., 0]
    return coeffs, singular


# -- task vectors ----------------------------------------------------------------

_CHANGE_QUANTILE_POOL = [
    FeatureSpec("change_quantile", {"ql": 0.4, "qh": 0.8}),
    FeatureSpec("change_quantile", {"ql": 0.2, "qh": 0.8}),
    FeatureSpec("change_quantile", {"ql": 0.0, "qh": 0.6}),
]
_DFT_POOL = [
    FeatureSpec("dft_coefficient", {"k": 1, "part": "abs"}),
    FeatureSpec("dft_coefficient", {"k": 2, "part": "abs"}),
]
_TREND_POOL = [
    FeatureSpec("agg_linear_trend", {"window_len": 10, "statistic": "slope", "aggregator": "mean"}),
    FeatureSpec("agg_linear_trend", {"window_len": 10, "statistic": "stderr", "aggregator": "mean"}),
]
_WELCH_POOL = [
    # segment 64 at 10 kHz: bin 1 is the bin nearest twice the fundamental
    FeatureSpec("welch_density", {"bin_index": 1, "segment_len": 64}),
]
_AR_POOL = [
    FeatureSpec("ar_coefficients", {"order": 4, "coeff": 1}),
]

#: frozen per-task family counts: (change quantile, DFT coefficient,
#: linear trend, Welch density, AR coefficient)
_TASK_COUNTS = {
    Task.DETECT_FAULT: (2, 1, 1, 1, 1),
    Task.LOCATE_UNIT: (2, 2, 2, 0, 0),
    Task.IDENTIFY_SERIES: (3, 1, 2, 1, 0),
    Task.IDENTIFY_EXCITING: (3, 2, 2, 0, 0),
    Task.IDENTIFY_PT: (3, 2, 2, 0, 0),
    Task.IDENTIFY_DISTURBANCE: (2, 1, 1, 0, 1),
}

_POOLS = (_CHANGE_QUANTILE_POOL, _DFT_POOL, _TREND_POOL, _WELCH_POOL, _AR_POOL)


def task_specs(task: Task) -> list[FeatureSpec]:
    counts = _TASK_COUNTS[task]
    specs: list[FeatureSpec] = []
    for pool, count in zip(_POOLS, counts):
        specs.extend(pool[:count])
    return specs


def task_window_len(task: Task) -> int:
    """The detector's 1.5-cycle window for DetectFault, its 3-cycle window
    for every other task."""
    return DETECT_LEN if task is Task.DETECT_FAULT else CLASSIFY_LEN


@functools.cache
def schema_hash(task: Task) -> str:
    payload = {
        "task": task.value,
        "window_len": task_window_len(task),
        "specs": [
            {"phase": ph, "family": s.family, "params": s.params}
            for ph in PHASES
            for s in task_specs(task)
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class FeatureVector:
    task: Task
    values: np.ndarray
    spec_list: list = field(default_factory=list)   # [(phase, FeatureSpec)]
    ar_fallback: bool = False                       # singular AR replaced by 0

    @property
    def schema(self) -> str:
        return schema_hash(self.task)

    def names(self) -> list[str]:
        return [f"{ph}_{spec.key()}" for ph, spec in self.spec_list]


def _ar_feature(x: np.ndarray, order: int, coeff: int):
    """One AR coefficient per series of x (..., n), and per series whether a
    singular design made it 0 (degenerate windows must not abort a decision)."""
    coeffs, singular = _ar_solve(x, order)
    return coeffs[..., coeff][()], singular[()]


#: family -> op(x (..., n), params) -> (values (...), AR fallback)
_OPS = {
    "change_quantile": lambda x, p: (change_quantile(x, p["ql"], p["qh"]), False),
    "dft_coefficient": lambda x, p: (dft_coefficient(x, p["k"], p["part"]), False),
    "agg_linear_trend": lambda x, p: (agg_linear_trend(
        x, p["window_len"], p["statistic"], p["aggregator"]), False),
    "welch_density": lambda x, p: (
        welch_density(x, p["bin_index"], p["segment_len"]), False),
    "ar_coefficients": lambda x, p: _ar_feature(x, p["order"], p["coeff"]),
}


def _eval_spec(spec: FeatureSpec, x: np.ndarray):
    """(values, fallback) of one spec over the series x (..., n)."""
    op = _OPS.get(spec.family)
    if op is None:
        raise ValueError(f"unknown feature family {spec.family!r}")
    return op(x, spec.params)


_WINDOW_SHAPES = {2: "(n, 3)", 3: "(m, n, 3)"}


@functools.cache
def _layout(tasks: tuple):
    """(window length, the distinct specs of the tasks' union in order of
    first use, (task, the index of each of its specs in that union) per
    distinct task) of tasks that share a window length."""
    if not tasks:
        raise ValueError("need at least one task")
    first = tasks[0]
    for task in tasks[1:]:
        if task_window_len(task) != task_window_len(first):
            raise WrongWindowLength(
                f"{first.value} and {task.value} take windows of different "
                f"lengths ({task_window_len(first)} and {task_window_len(task)} "
                "samples)")
    union, columns = [], {}
    for task in tasks:
        for spec in task_specs(task):
            if spec not in union:
                union.append(spec)
        cols = np.array([union.index(spec) for spec in task_specs(task)])
        cols.flags.writeable = False   # shared by every call on these tasks
        columns[task] = cols
    return task_window_len(first), tuple(union), tuple(columns.items())


def _tasks_values(windows: np.ndarray, tasks: tuple, ndim: int) -> dict:
    """{task: (values (..., k), ar_fallback (...))} of tasks sharing a
    window length over windows (..., n, 3) of ``ndim`` dimensions. Each
    distinct spec of their union runs once per phase; each task takes its
    own specs' values, phase a, then b, then c."""
    expected, union, columns = _layout(tasks)
    # C order, so a window's bits do not depend on the layout it came in:
    # a reduction along a strided axis sums in another order
    windows = np.ascontiguousarray(windows, dtype=np.float64)
    if windows.ndim != ndim or windows.shape[-1] != 3:
        raise WrongWindowLength(f"window must have shape {_WINDOW_SHAPES[ndim]}")
    if windows.shape[-2] != expected:
        raise WrongWindowLength(
            f"{tasks[0].value} needs a {expected}-sample window, "
            f"got {windows.shape[-2]}"
        )
    refuse_non_finite(windows, 0)
    lead = windows.shape[:-2]
    values = np.empty(lead + (len(PHASES), len(union)))
    flags = [False] * len(union)   # per spec: False, or its AR flags (...)
    for ph_idx in range(len(PHASES)):
        x = windows[..., ph_idx]
        out = values[..., ph_idx, :]
        for j, spec in enumerate(union):
            out[..., j], fb = _eval_spec(spec, x)
            flags[j] = flags[j] | fb
    result = {}
    for task, cols in columns:
        fallback = np.zeros(lead, dtype=bool)
        for j in cols:
            if flags[j] is not False:   # an array op only where a flag can be set
                fallback |= flags[j]
        result[task] = (values[..., cols].reshape(lead + (len(PHASES) * len(cols),)),
                        fallback)
    return result


def extract(window: np.ndarray, task: Task) -> FeatureVector:
    """Fixed per-task feature vector over a 3-phase window (shape (n, 3))."""
    values, fallback = _tasks_values(window, (task,), 2)[task]
    return FeatureVector(
        task=task,
        values=values,
        spec_list=[(ph, spec) for ph in PHASES for spec in task_specs(task)],
        ar_fallback=bool(fallback),
    )


def extract_many(windows: np.ndarray, task: Task):
    """(values (m, k), ar_fallback (m,)) of one task over a stack of m
    windows (m, n, 3). Row r is bit for bit ``extract(windows[r], task)``."""
    return _tasks_values(windows, (task,), 3)[task]


def extract_tasks(windows: np.ndarray, tasks) -> dict:
    """{task: (values (m, k), ar_fallback (m,))} of each of several tasks
    that share a window length over a stack of m windows (m, n, 3), each
    distinct spec of their union evaluated once per phase. Every task's
    result equals ``extract_many(windows, task)`` bit for bit."""
    return _tasks_values(windows, tuple(tasks), 3)
