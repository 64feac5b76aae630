"""Metrics, stratified splits, and a timing harness."""

from __future__ import annotations

import time
from dataclasses import dataclass

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
    def binary(cls, tp: int, fn: int, tn: int, fp: int) -> "ConfusionCounts":
        return cls(per_class={
            "positive": {"tp": tp, "fn": fn, "fp": fp, "tn": tn},
            "negative": {"tp": tn, "fn": fp, "fp": fn, "tn": tp},
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
