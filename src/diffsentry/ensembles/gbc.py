"""Stagewise gradient boosting for the multinomial deviance.

Per-class raw scores start at the log class priors. Every iteration fits
one least-squares regression tree per class to the residual (one-hot minus
softmax probability) on the chosen subsample; leaf values take the one-step
Newton update for the multinomial loss, and scores move by the learning
rate. Training deviance is recorded per iteration on the full data.

The trees come from ``cart.grow_tree`` with ``_scan_sse`` as the scan: per
node, one array pass over all columns computes the residual's running sum
and sum of squares in each column's sorted order and returns the split
(sse reduction, column, threshold) of largest reduction, ties going to the
lower threshold and then the lower column. A fit sorts each column once; a
subsampled stage compresses that order to its own rows, and the K trees of
a stage share it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteLoss, SingleClass
from .cart import (PackedTrees, _best_split, _require_integers, compress_order,
                   grow_tree, node_lists, training_matrix)

#: hyperparameter grids: the full-scale search and a desk-scale one
GBC_GRID_FULL = {
    "n_estimators": [5000, 7000, 10000, 12000, 15000],
    "max_depth": [3, 5, 7, 10, 15],
    "learning_rate": [0.01, 0.05, 0.07, 0.1],
}
GBC_GRID_SMALL = {
    "n_estimators": [50, 100, 200],
    "max_depth": [3],
    "learning_rate": [0.1],
}


@dataclass(frozen=True)
class GbcConfig:
    n_estimators: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    subsample: float = 1.0
    min_samples_split: int = 2
    seed: int = 0

    def __post_init__(self):
        _require_integers(self, "n_estimators", "max_depth", "min_samples_split")
        if not (isinstance(self.learning_rate, numbers.Real)
                and not isinstance(self.learning_rate, bool)):
            raise TypeError(
                f"learning_rate must be a number, not {self.learning_rate!r}")
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def multinomial_deviance(y_codes: np.ndarray, scores: np.ndarray) -> float:
    """Mean negative log-likelihood of the true classes under softmax(scores)."""
    p = softmax(scores)
    picked = p[np.arange(y_codes.shape[0]), y_codes]
    return float(-np.mean(np.log(np.clip(picked, 1e-300, None))))


def _scan_sse(xs: np.ndarray, rs: np.ndarray):
    """Best (sse_reduction, column, threshold) of a least-squares split over
    the columns ``xs``, each sorted, with ``rs`` the residuals in each
    column's order (see ``cart._best_split``)."""
    n = xs.shape[0]
    csum = np.cumsum(rs, axis=0)
    csum2 = np.cumsum(rs * rs, axis=0)
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    sum_l = csum[:-1]
    sum_r = csum[-1] - sum_l
    sse_l = csum2[:-1] - sum_l * sum_l / nl
    sse_r = (csum2[-1] - csum2[:-1]) - sum_r * sum_r / nr
    sse_parent = csum2[-1] - csum[-1] * csum[-1] / n
    return _best_split(xs, sse_parent - sse_l - sse_r)


def _newton_leaf(r: np.ndarray, k: int) -> float:
    """One-step Newton value for a terminal region of the multinomial loss."""
    num = r.sum()
    den = np.sum(np.abs(r) * (1.0 - np.abs(r)))
    if den < 1e-12:
        return 0.0
    return (k - 1.0) / k * num / den


def gbc_fit(X, y, cfg: GbcConfig = GbcConfig()):
    """Functional gradient descent on the multinomial deviance."""
    from .model import TreeEnsembleModel

    X = training_matrix(X)
    y = np.asarray(y)
    codebook, y_codes = np.unique(y, return_inverse=True)
    k = len(codebook)
    if k < 2:
        raise SingleClass("gradient boosting needs at least two classes")

    n = X.shape[0]
    priors = np.bincount(y_codes, minlength=k) / n
    init_raw = np.log(priors)
    scores = np.tile(init_raw, (n, 1))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y_codes] = 1.0

    rng = np.random.default_rng(cfg.seed)
    order = np.argsort(X, axis=0, kind="stable")

    def newton_leaf(r):
        return [_newton_leaf(r, k)]

    nodes, offsets = node_lists(), [0]  # k trees per stage, stage by stage
    deviance: list[float] = []
    n_sub = max(1, int(round(cfg.subsample * n)))

    for m in range(cfg.n_estimators):
        p = softmax(scores)
        residual = onehot - p
        if n_sub < n:
            rows = np.sort(rng.choice(n, size=n_sub, replace=False))
            drawn = np.zeros(n, dtype=bool)
            drawn[rows] = True
            stage_order = compress_order(order, drawn[order])
        else:
            rows, stage_order = np.arange(n), order
        for cls in range(k):
            grow_tree(X, rows, stage_order, residual[:, cls], _scan_sse,
                      newton_leaf, cfg.max_depth, cfg.min_samples_split, nodes)
            offsets.append(len(nodes["feature"]))
        stage = PackedTrees.from_nodes(nodes, offsets[-k - 1:], 1)
        # each class's tree moves only its own column of scores
        scores += cfg.learning_rate * stage.leaf_values(X)[:, :, 0].T
        dev = multinomial_deviance(y_codes, scores)
        if not np.isfinite(dev):
            raise NonFiniteLoss(f"training deviance became non-finite at iteration {m}")
        deviance.append(dev)

    return TreeEnsembleModel(
        kind="GBC",
        packed=PackedTrees.from_nodes(nodes, offsets, 1),
        codebook=[c.item() if hasattr(c, "item") else c for c in codebook],
        config={
            "n_estimators": cfg.n_estimators,
            "max_depth": cfg.max_depth,
            "learning_rate": cfg.learning_rate,
            "subsample": cfg.subsample,
            "min_samples_split": cfg.min_samples_split,
        },
        n_features=X.shape[1],
        metadata={
            "seed": cfg.seed,
            "init_raw": [float(v) for v in init_raw],
            "train_deviance": deviance,
        },
    )
