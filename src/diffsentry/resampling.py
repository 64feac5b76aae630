"""Class-imbalance handling: SMOTE over-sampling and NearMiss-1 under-sampling.

Distances are Euclidean on per-feature z-scores computed from the data being
resampled; synthetic points are interpolated in the original feature space.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import EmptyMinority, TooFewSamples


class Strategy(enum.Enum):
    SMOTE_ONLY = "SmoteOnly"
    NEARMISS_ONLY = "NearMissOnly"
    COMBINED = "Combined"


#: SMOTE moves each synthetic row toward one of this many nearest minority
#: rows (all but the row itself, in a smaller class)
K_NEIGHBORS = 5


def _zscore_params(X: np.ndarray):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    return mean, std


def smote(X_minority, k: int, n_synthetic: int, seed: int) -> np.ndarray:
    """Each synthetic row is x + u * (x_nn - x) for a uniform u in [0, 1] and
    x_nn one of x's k nearest minority neighbours.

    Synthetic row i depends only on (seed, i) and the minority matrix, via
    the per-row stream default_rng([seed, i]): draws are (base row index,
    neighbour choice, u), in that order.
    """
    X = np.asarray(X_minority, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise TooFewSamples("SMOTE needs at least 2 minority samples")
    if k > n - 1:
        raise TooFewSamples(f"k={k} exceeds available neighbours ({n - 1})")
    if n_synthetic == 0:
        return np.empty((0, X.shape[1]))

    mean, std = _zscore_params(X)
    Z = (X - mean) / std
    d2 = np.sum((Z[:, None, :] - Z[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    neighbours = np.argsort(d2, axis=1, kind="stable")[:, :k]

    out = np.empty((n_synthetic, X.shape[1]))
    for i in range(n_synthetic):
        rng = np.random.default_rng([seed, i])
        base = int(rng.integers(n))
        pick = neighbours[base, int(rng.integers(k))]
        u = rng.random()
        out[i] = X[base] + u * (X[pick] - X[base])
    return out


def nearmiss(X_majority, X_minority, n_keep: int) -> np.ndarray:
    """NearMiss-1: keep the majority rows with the smallest mean distance to
    their three nearest minority rows; ties broken by lower index. Returns kept
    indices in ascending order of (mean distance, index)."""
    X_maj = np.asarray(X_majority, dtype=np.float64)
    X_min = np.asarray(X_minority, dtype=np.float64)
    if X_min.shape[0] == 0:
        raise EmptyMinority("NearMiss needs a non-empty minority reference set")
    if n_keep > X_maj.shape[0]:
        raise ValueError("n_keep exceeds the majority size")

    stacked = np.vstack([X_maj, X_min])
    mean, std = _zscore_params(stacked)
    zm = (X_maj - mean) / std
    zn = (X_min - mean) / std
    d = np.sqrt(np.sum((zm[:, None, :] - zn[None, :, :]) ** 2, axis=2))
    m = min(3, X_min.shape[0])
    nearest = np.sort(d, axis=1)[:, :m]
    score = nearest.mean(axis=1)
    order = np.lexsort((np.arange(len(score)), score))
    return np.sort(order[:n_keep])


def apply_plan(X, y, strategy: Strategy, seed: int):
    """Resample (X, y) toward a per-class target, the median class count.

    The combined strategy hits the target exactly: classes above it are
    NearMiss-1 undersampled against the pooled other classes, classes below
    it are topped up with SMOTE rows.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    target = int(np.median(counts))

    keep_x, keep_y = [], []
    for cls_idx, cls in enumerate(classes):
        mask = y == cls
        rows = X[mask]
        n = rows.shape[0]
        under = strategy in (Strategy.NEARMISS_ONLY, Strategy.COMBINED)
        over = strategy in (Strategy.SMOTE_ONLY, Strategy.COMBINED)
        if n > target and under:
            others = X[~mask]
            kept = nearmiss(rows, others, target)
            rows = rows[kept]
        elif n < target and over:
            k = min(K_NEIGHBORS, n - 1)
            if k >= 1:
                extra = smote(rows, k, target - n, seed=seed + cls_idx)
                rows = np.vstack([rows, extra])
        keep_x.append(rows)
        keep_y.append(np.full(rows.shape[0], cls, dtype=y.dtype))
    return np.vstack(keep_x), np.concatenate(keep_y)
