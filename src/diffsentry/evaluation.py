"""Metrics, stratified cross-validation, grid search, and a timing harness."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ClassTooSmall, EmptyCounts, ZeroSupportClass


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary one-vs-rest counts per class, keyed by class label."""

    per_class: dict   # label -> {"tp": int, "fn": int, "fp": int, "tn": int}

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "ConfusionCounts":
        y_true = np.asarray(y_true)
        y_pred = np.asarray(y_pred)
        if y_true.shape[0] == 0:
            raise EmptyCounts("no predictions to score")
        labels = sorted(set(y_true) | set(y_pred), key=str)
        table = {}
        for lab in labels:
            tp = int(np.sum((y_true == lab) & (y_pred == lab)))
            fn = int(np.sum((y_true == lab) & (y_pred != lab)))
            fp = int(np.sum((y_true != lab) & (y_pred == lab)))
            tn = int(np.sum((y_true != lab) & (y_pred != lab)))
            table[lab] = {"tp": tp, "fn": fn, "fp": fp, "tn": tn}
        return cls(per_class=table)

    @classmethod
    def binary(cls, tp: int, fn: int, tn: int, fp: int,
               positive="positive", negative="negative") -> "ConfusionCounts":
        return cls(per_class={
            positive: {"tp": tp, "fn": fn, "fp": fp, "tn": tn},
            negative: {"tp": tn, "fn": fp, "fp": fn, "tn": tp},
        })


def balanced_accuracy(counts: ConfusionCounts) -> float:
    """Mean of per-class recalls (the binary form is the average of the
    true-positive and true-negative rates)."""
    recalls = []
    for lab, c in counts.per_class.items():
        support = c["tp"] + c["fn"]
        if support == 0:
            raise ZeroSupportClass(f"class {lab!r} has no true members")
        recalls.append(c["tp"] / support)
    return float(np.mean(recalls))


def accuracy(counts: ConfusionCounts) -> float:
    """(TP + TN) / total on the binary view; equals the multiclass fraction
    correct when counts come from predictions."""
    if not counts.per_class:
        raise EmptyCounts("no classes in the confusion counts")
    total_tp = sum(c["tp"] for c in counts.per_class.values())
    total = sum(c["tp"] + c["fn"] for c in counts.per_class.values())
    if total == 0:
        raise EmptyCounts("no samples in the confusion counts")
    return total_tp / total


def stratified_kfold(labels, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """k (train, test) index splits preserving class proportions per fold.

    Folds partition the index set; each class's members are shuffled under
    the seed and dealt round-robin, so per-fold class counts differ from the
    exact proportion by at most one sample.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("k must be at least 2 (no held-out fold otherwise)")
    classes, counts = np.unique(labels, return_counts=True)
    too_small = [str(c) for c, n in zip(classes, counts) if n < k]
    if too_small:
        raise ClassTooSmall(
            f"classes {too_small} have fewer than k={k} members"
        )
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for cls in classes:
        idx = np.nonzero(labels == cls)[0]
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[pos % k].append(int(i))
    out = []
    all_idx = np.arange(labels.shape[0])
    for f in range(k):
        test = np.sort(np.asarray(folds[f], dtype=int))
        train = np.setdiff1d(all_idx, test)
        out.append((train, test))
    return out


def train_test_split(labels, test_fraction: float, seed: int):
    """Stratified single split (train_idx, test_idx); 4:1 at 0.2."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    test_idx = []
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        rng.shuffle(idx)
        n_test = max(1, int(round(test_fraction * idx.shape[0])))
        test_idx.extend(idx[:n_test].tolist())
    test = np.sort(np.asarray(test_idx, dtype=int))
    train = np.setdiff1d(np.arange(labels.shape[0]), test)
    return train, test


@dataclass
class GridSearchResult:
    best_config: dict
    best_score: float
    table: list          # [{"config": dict, "mean_balanced_accuracy": float}]
    model: object = None


def _tie_key(config: dict, score: float):
    # canonical argmax: higher score, then fewer estimators, shallower
    # trees, larger learning rate, so grid order cannot matter
    return (
        -score,
        config["n_estimators"],
        config.get("max_depth") if config.get("max_depth") is not None else float("inf"),
        -config.get("learning_rate", 0.0),
    )


def grid_search(
    X,
    y,
    fit_fn: Callable[..., object],
    grid: dict,
    cv_k: int = 3,
    seed: int = 0,
) -> GridSearchResult:
    """Mean-CV balanced accuracy over the grid cross-product.

    ``fit_fn(X, y, **config, seed=...)`` must return a model exposing
    predict_labels and ``first_stages(n)``; the winning config is refit on
    all rows. The grid must hold ``n_estimators``: grid points that differ
    only in it share one fit per fold at their largest ``n_estimators``,
    and each smaller value is scored on that model's ``first_stages(n)``,
    which equals the fit at ``n``.
    """
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ValueError("grid must be non-empty")
    if "n_estimators" not in grid:
        raise ValueError("grid must hold n_estimators")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    folds = stratified_kfold(y, cv_k, seed)
    keys = list(grid.keys())
    configs = [dict(zip(keys, combo))
               for combo in itertools.product(*(grid[k] for k in keys))]
    groups = {}  # the config without n_estimators -> indices into configs
    for i, config in enumerate(configs):
        rest = tuple((k, v) for k, v in config.items() if k != "n_estimators")
        groups.setdefault(rest, []).append(i)
    scores = [[] for _ in configs]
    for members in groups.values():
        fit_config = {**configs[members[0]], "n_estimators": max(
            configs[i]["n_estimators"] for i in members)}
        for train_idx, test_idx in folds:
            model = fit_fn(X[train_idx], y[train_idx], seed=seed, **fit_config)
            for i in members:
                scored = model.first_stages(configs[i]["n_estimators"])
                counts = ConfusionCounts.from_predictions(
                    y[test_idx], scored.predict_labels(X[test_idx]))
                scores[i].append(balanced_accuracy(counts))
    table = []
    best = None
    for config, fold_scores in zip(configs, scores):
        mean_score = float(np.mean(fold_scores))
        table.append({"config": config, "mean_balanced_accuracy": mean_score})
        if best is None or _tie_key(config, mean_score) < _tie_key(best[0], best[1]):
            best = (config, mean_score)
    final = fit_fn(X, y, seed=seed, **best[0])
    return GridSearchResult(
        best_config=best[0], best_score=best[1], table=table, model=final
    )


def time_report(stages: dict, repeats: int = 10) -> dict:
    """Median and mean wall-clock seconds per named stage closure."""
    out = {}
    for name, fn in stages.items():
        samples = []
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        out[name] = {
            "median_s": float(np.median(samples)),
            "mean_s": float(np.mean(samples)),
            "runs": len(samples),
        }
    return out
