"""Time and frequency domain feature families and per-task feature vectors.

Five families are implemented, each per phase:

* change quantile: mean absolute consecutive change inside a quantile band
* DFT coefficient: one coefficient of the length-n discrete transform
* aggregated linear trend: per-window least-squares statistic, aggregated
* Welch density: averaged-periodogram spectral density at one bin
  (Hann window, 50% overlap, no detrending)
* autoregressive coefficients: conditional least squares with intercept

Task vectors apply a frozen parameter list identically to each phase and
concatenate phase a, then b, then c.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .detector import CLASSIFY_LEN, DETECT_LEN
from .errors import IndexOutOfRange, SingularDesign, TooShort, WrongWindowLength
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

def change_quantile(values, ql: float, qh: float) -> float:
    """Mean |x[t+1] - x[t]| over pairs whose both samples lie in the
    [quantile(ql), quantile(qh)] band; 0 when no pair qualifies."""
    x = np.asarray(values, dtype=np.float64)
    if x.shape[0] < 2:
        raise TooShort("change_quantile needs at least 2 samples")
    if not 0.0 <= ql < qh <= 1.0:
        raise ValueError(f"need 0 <= ql < qh <= 1, got ({ql}, {qh})")
    lo = np.quantile(x, ql)
    hi = np.quantile(x, qh)
    inside = (x >= lo) & (x <= hi)
    both = inside[:-1] & inside[1:]
    if not both.any():
        return 0.0
    return float(np.mean(np.abs(np.diff(x))[both]))


def dft_coefficient(values, k: int, part: str = "abs") -> float:
    """Requested part of X_k = sum_t x_t exp(-j 2 pi k t / n)."""
    x = np.asarray(values, dtype=np.float64)
    n = x.shape[0]
    if not 0 <= k <= n // 2:
        raise IndexOutOfRange(f"coefficient {k} outside [0, {n // 2}]")
    coef = np.fft.rfft(x)[k]
    if part == "abs":
        return float(np.abs(coef))
    if part == "real":
        return float(coef.real)
    if part == "imag":
        return float(coef.imag)
    raise ValueError(f"part must be abs, real or imag, got {part!r}")


def _ols_line(y: np.ndarray):
    """Least-squares y = a + b t on t = 0..len-1; returns (slope, intercept,
    stderr of the slope). Exact two-point fits have zero stderr."""
    w = y.shape[0]
    t = np.arange(w, dtype=np.float64)
    t_mean = t.mean()
    y_mean = y.mean()
    sxx = np.sum((t - t_mean) ** 2)
    b = np.sum((t - t_mean) * (y - y_mean)) / sxx
    a = y_mean - b * t_mean
    if w == 2:
        return b, a, 0.0
    resid = y - (a + b * t)
    s2 = np.sum(resid * resid) / (w - 2)
    return b, a, float(np.sqrt(s2 / sxx))


_TREND_STATS = ("slope", "intercept", "stderr")
_TREND_AGGS = {"mean": np.mean, "min": np.min, "max": np.max, "var": np.var}


def agg_linear_trend(values, window_len: int, statistic: str, aggregator: str) -> float:
    """Aggregate a per-window regression statistic over consecutive
    non-overlapping windows (trailing partial window discarded)."""
    x = np.asarray(values, dtype=np.float64)
    if window_len < 2:
        raise ValueError("window_len must be at least 2")
    if x.shape[0] < window_len:
        raise TooShort(f"need at least {window_len} samples, got {x.shape[0]}")
    if statistic not in _TREND_STATS:
        raise ValueError(f"statistic must be one of {_TREND_STATS}")
    if aggregator not in _TREND_AGGS:
        raise ValueError(f"aggregator must be one of {tuple(_TREND_AGGS)}")
    n_win = x.shape[0] // window_len
    stats = np.empty(n_win)
    for i in range(n_win):
        slope, intercept, stderr = _ols_line(x[i * window_len:(i + 1) * window_len])
        stats[i] = {"slope": slope, "intercept": intercept, "stderr": stderr}[statistic]
    return float(_TREND_AGGS[aggregator](stats))


def welch_density(values, bin_index: int, segment_len: int = 64) -> float:
    """Welch power spectral density at one bin: Hann-windowed segments with
    50% overlap, periodogram averaging, one-sided, unit sample rate, no
    detrending."""
    x = np.asarray(values, dtype=np.float64)
    n = x.shape[0]
    if segment_len > n:
        raise TooShort(f"segment_len {segment_len} exceeds signal length {n}")
    if segment_len & (segment_len - 1):
        raise ValueError("segment_len must be a power of two")
    if not 0 <= bin_index <= segment_len // 2:
        raise IndexOutOfRange(f"bin {bin_index} outside [0, {segment_len // 2}]")
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    norm = np.sum(window * window)
    step = segment_len // 2
    psd = np.zeros(segment_len // 2 + 1)
    count = 0
    for start in range(0, n - segment_len + 1, step):
        seg = x[start: start + segment_len] * window
        spec = np.abs(np.fft.rfft(seg)) ** 2
        psd += spec
        count += 1
    psd /= count * norm
    psd[1: segment_len // 2] *= 2.0  # one-sided, DC and Nyquist unscaled
    return float(psd[bin_index])


def ar_coefficients(values, order: int) -> np.ndarray:
    """(phi_0 .. phi_P) minimizing the conditional least-squares criterion
    sum_t (x_t - phi_0 - sum_i phi_i x_{t-i})^2 via the normal equations."""
    x = np.asarray(values, dtype=np.float64)
    n = x.shape[0]
    if order < 1:
        raise ValueError("order must be >= 1")
    if n < 2 * (order + 1):
        raise TooShort(f"need at least {2 * (order + 1)} samples, got {n}")
    rows = n - order
    design = np.empty((rows, order + 1))
    design[:, 0] = 1.0
    for lag in range(1, order + 1):
        design[:, lag] = x[order - lag: n - lag]
    target = x[order:]

    gram = design.T @ design
    rank = np.linalg.matrix_rank(gram, tol=1e-9 * max(1.0, np.abs(gram).max()))
    if rank < order + 1:
        colliding = _colliding_lags(design)
        raise SingularDesign(
            f"autoregressive design is rank deficient (collinear lags {colliding})",
            colliding_lags=colliding,
        )
    return np.linalg.solve(gram, design.T @ target)


def _colliding_lags(design: np.ndarray):
    """Columns (by lag index, 0 = intercept) dependent on earlier columns."""
    out = []
    for col in range(1, design.shape[1]):
        if np.linalg.matrix_rank(design[:, : col + 1]) <= np.linalg.matrix_rank(
            design[:, :col]
        ):
            out.append(col)
    return out


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


def _eval_spec(spec: FeatureSpec, x: np.ndarray):
    p = spec.params
    if spec.family == "change_quantile":
        return change_quantile(x, p["ql"], p["qh"]), False
    if spec.family == "dft_coefficient":
        return dft_coefficient(x, p["k"], p["part"]), False
    if spec.family == "agg_linear_trend":
        return agg_linear_trend(x, p["window_len"], p["statistic"], p["aggregator"]), False
    if spec.family == "welch_density":
        return welch_density(x, p["bin_index"], p["segment_len"]), False
    if spec.family == "ar_coefficients":
        try:
            return float(ar_coefficients(x, p["order"])[p["coeff"]]), False
        except SingularDesign:
            return 0.0, True  # degenerate windows must not abort a decision
    raise ValueError(f"unknown feature family {spec.family!r}")


def extract_tasks(window: np.ndarray, tasks) -> dict:
    """{task: FeatureVector} for several tasks over one shared 3-phase window.

    The union of the tasks' specs (first-seen order, by ``FeatureSpec``
    equality) is evaluated once per phase; each task's vector is then cut
    out in its own frozen order, so it is bit-identical to evaluating that
    task alone. Every task must take the window's length.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2 or window.shape[1] != 3:
        raise WrongWindowLength("window must have shape (n, 3)")
    for task in tasks:
        expected = task_window_len(task)
        if window.shape[0] != expected:
            raise WrongWindowLength(
                f"{task.value} needs a {expected}-sample window, got {window.shape[0]}"
            )
    per_task = [task_specs(task) for task in tasks]
    if len(per_task) == 1:
        union, columns = per_task[0], [range(len(per_task[0]))]
    else:
        union, columns = [], []
        for specs in per_task:
            for spec in specs:
                if spec not in union:
                    union.append(spec)
            columns.append([union.index(spec) for spec in specs])
    evaluated = []  # (value, fallback) per phase and union spec
    for ph_idx in range(len(PHASES)):
        x = window[:, ph_idx]
        evaluated.append([_eval_spec(spec, x) for spec in union])
    out = {}
    for task, specs, cols in zip(tasks, per_task, columns):
        picked = [row[j] for row in evaluated for j in cols]
        out[task] = FeatureVector(
            task=task,
            values=np.asarray([val for val, _ in picked], dtype=np.float64),
            spec_list=[(ph, spec) for ph in PHASES for spec in specs],
            ar_fallback=any(fb for _, fb in picked),
        )
    return out


def extract(window: np.ndarray, task: Task) -> FeatureVector:
    """Fixed per-task feature vector over a 3-phase window (shape (n, 3))."""
    return extract_tasks(window, (task,))[task]
