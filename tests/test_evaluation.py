"""Metrics, stratified folds, the staged grid search, and harness plumbing."""

import itertools
import json

import numpy as np
import pytest

from diffsentry import pipeline
from diffsentry.ensembles import GbcConfig, gbc_fit
from diffsentry.ensembles.model import model_to_dict
from diffsentry.errors import ClassTooSmall, EmptyCounts, ZeroSupportClass
from diffsentry.evaluation import (
    ConfusionCounts,
    accuracy,
    balanced_accuracy,
    stratified_kfold,
    time_report,
    train_test_split,
)
from diffsentry.pipeline import TrainConfig, _tie_key, grid_search


def test_reference_detection_counts():
    # TP 2105, FN 2, TN 1852, FP 0 -> 99.95% within 0.01 percentage points
    counts = ConfusionCounts.binary(tp=2105, fn=2, tn=1852, fp=0)
    got = balanced_accuracy(counts)
    assert abs(got - 0.9995) <= 1e-4


def test_perfect_classifier():
    counts = ConfusionCounts.from_predictions([0, 1, 1, 0], [0, 1, 1, 0])
    assert balanced_accuracy(counts) == 1.0
    assert accuracy(counts) == 1.0


def test_constant_predictor_scores_half():
    y_true = [0] * 30 + [1] * 10
    y_pred = [0] * 40
    counts = ConfusionCounts.from_predictions(y_true, y_pred)
    assert balanced_accuracy(counts) == pytest.approx(0.5)


def test_zero_support_class_rejected():
    counts = ConfusionCounts.binary(tp=0, fn=0, tn=5, fp=1)
    with pytest.raises(ZeroSupportClass):
        balanced_accuracy(counts)


def test_empty_counts_rejected():
    with pytest.raises(EmptyCounts):
        ConfusionCounts.from_predictions([], [])
    with pytest.raises(EmptyCounts):
        accuracy(ConfusionCounts(per_class={}))


def test_reference_localization_recall():
    # 7287 true positives and no misses for one unit: recall exactly 1
    counts = ConfusionCounts.binary(tp=7287, fn=0, tn=10339, fp=32)
    assert counts.per_class["positive"] == {"tp": 7287, "fn": 0, "fp": 32,
                                            "tn": 10339}
    # mean of the unit's recall (exactly 1) and the rest's (10339 / 10371)
    assert balanced_accuracy(counts) == pytest.approx((1.0 + 10339 / 10371) / 2)


def test_balanced_equals_plain_accuracy_on_equal_supports():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        per = int(rng.integers(3, 20))
        y_true = np.repeat(np.arange(k), per)
        y_pred = rng.integers(0, k, size=k * per)
        counts = ConfusionCounts.from_predictions(y_true, y_pred)
        assert balanced_accuracy(counts) == pytest.approx(accuracy(counts), abs=1e-12)


def test_kfold_even_classes():
    labels = [0] * 10 + [1] * 10
    folds = stratified_kfold(labels, k=10, seed=0)
    for train, test in folds:
        assert len(test) == 2
        assert sorted(np.asarray(labels)[test]) == [0, 1]


def test_kfold_k1_rejected():
    with pytest.raises(ValueError):
        stratified_kfold([0, 0, 1, 1], k=1, seed=0)


def test_kfold_class_too_small():
    with pytest.raises(ClassTooSmall):
        stratified_kfold([0] * 10 + [1] * 2, k=3, seed=0)


def test_kfold_imbalanced_minority_spread():
    labels = [0] * 97 + [1] * 3
    folds = stratified_kfold(labels, k=3, seed=1)
    for _, test in folds:
        minority = sum(1 for i in test if labels[i] == 1)
        assert minority == 1


def test_kfold_partitions_and_reproducible():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=60)
    a = stratified_kfold(labels, 4, seed=5)
    b = stratified_kfold(labels, 4, seed=5)
    all_test = np.sort(np.concatenate([t for _, t in a]))
    assert np.array_equal(all_test, np.arange(60))
    for (tr1, te1), (tr2, te2) in zip(a, b):
        assert np.array_equal(te1, te2)
        assert np.array_equal(tr1, tr2)
        assert np.intersect1d(tr1, te1).size == 0


def test_train_test_split_is_stratified():
    labels = np.array(["a"] * 40 + ["b"] * 10)
    train, test = train_test_split(labels, 0.2, seed=2)
    assert len(test) == 10
    assert np.sum(labels[test] == "b") == 2
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(50))


def _toy_task(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(90, 3))
    y = (X[:, 0] > 0).astype(int)
    return X, y


def _fit(X, y, seed, n_estimators, max_depth, learning_rate):
    return gbc_fit(X, y, GbcConfig(n_estimators=n_estimators,
                                   max_depth=max_depth,
                                   learning_rate=learning_rate, seed=seed))


def test_grid_search_runs_every_point():
    X, y = _toy_task()
    grid = {"n_estimators": [5, 10], "max_depth": [1, 2], "learning_rate": [0.1]}
    result = grid_search(X, y, TrainConfig(grid=grid, cv_k=3, seed=0))
    assert len(result.table) == 4
    assert result.best_config in [row["config"] for row in result.table]


def test_grid_search_single_point():
    X, y = _toy_task(1)
    grid = {"n_estimators": [8], "max_depth": [2], "learning_rate": [0.1]}
    result = grid_search(X, y, TrainConfig(grid=grid, cv_k=3, seed=0))
    assert result.best_config == {"n_estimators": 8, "max_depth": 2,
                                  "learning_rate": 0.1}


def test_grid_search_selects_the_argmax():
    X, y = _toy_task(2)
    grid = {"n_estimators": [1, 20], "max_depth": [2], "learning_rate": [0.1]}
    result = grid_search(X, y, TrainConfig(grid=grid, cv_k=3, seed=0))
    best = max(row["mean_balanced_accuracy"] for row in result.table)
    assert result.best_score == best
    for row in result.table:
        assert result.best_score >= row["mean_balanced_accuracy"]


def test_grid_search_order_invariant():
    X, y = _toy_task(3)
    g1 = {"n_estimators": [5, 10, 20], "max_depth": [1, 3], "learning_rate": [0.1]}
    g2 = {"n_estimators": [20, 5, 10], "max_depth": [3, 1], "learning_rate": [0.1]}
    r1 = grid_search(X, y, TrainConfig(grid=g1, cv_k=3, seed=4))
    r2 = grid_search(X, y, TrainConfig(grid=g2, cv_k=3, seed=4))
    assert r1.best_config == r2.best_config
    assert r1.best_score == r2.best_score


def _grid_search_per_point(X, y, fit_fn, grid, cv_k, seed):
    """Oracle: one fit per grid point and fold, no shared stages."""
    folds = stratified_kfold(y, cv_k, seed)
    keys = list(grid)
    table, best = [], None
    for combo in itertools.product(*(grid[k] for k in keys)):
        config = dict(zip(keys, combo))
        scores = []
        for train_idx, test_idx in folds:
            model = fit_fn(X[train_idx], y[train_idx], seed=seed, **config)
            codes = np.argmax(model.predict_proba(X[test_idx]), axis=1)
            preds = np.asarray([model.codebook[c] for c in codes])
            scores.append(balanced_accuracy(
                ConfusionCounts.from_predictions(y[test_idx], preds)))
        mean_score = float(np.mean(scores))
        table.append({"config": config, "mean_balanced_accuracy": mean_score})
        if best is None or _tie_key(config, mean_score) < _tie_key(*best):
            best = (config, mean_score)
    return table, best[0], best[1], fit_fn(X, y, seed=seed, **best[0])


def _three_class_task(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(72, 4))
    y = np.digitize(X[:, 0] + 0.7 * X[:, 1] + 0.5 * rng.normal(size=72),
                    [-0.5, 0.5])
    return X, y


@pytest.mark.parametrize("grid", [
    {"n_estimators": [6, 0, 3, 9], "max_depth": [2, 1], "learning_rate": [0.1]},
    {"learning_rate": [0.3, 0.1], "n_estimators": [4, 2, 4], "max_depth": [1]},
], ids=["unsorted_with_zero", "duplicate_n"])
def test_staged_grid_search_equals_one_fit_per_point(grid, monkeypatch):
    X, y = _three_class_task(6)
    fits = []

    def counted_fit(X, y, config):
        fits.append(config.n_estimators)
        return gbc_fit(X, y, config)

    monkeypatch.setattr(pipeline, "gbc_fit", counted_fit)
    result = grid_search(X, y, TrainConfig(grid=grid, cv_k=3, seed=2))
    table, config, score, model = _grid_search_per_point(X, y, _fit, grid, 3, 2)
    assert result.table == table
    assert result.best_config == config
    assert result.best_score == score
    assert (json.dumps(model_to_dict(result.model))
            == json.dumps(model_to_dict(model)))
    groups = len(table) // len(grid["n_estimators"])
    assert fits == [max(grid["n_estimators"])] * (groups * 3) + [
        config["n_estimators"]]


def test_time_report_noop_stage():
    report = time_report({"noop": lambda: None}, repeats=10)
    assert report["noop"]["runs"] == 10
    assert report["noop"]["median_s"] < 0.01
    assert set(report["noop"]) == {"median_s", "mean_s", "runs"}
