"""Random forest: bagging behavior and determinism."""

import numpy as np
import pytest

from diffsentry.ensembles import (
    CartConfig,
    ForestConfig,
    cart_fit,
    forest_fit,
)
from diffsentry.errors import EmptyDataset


def _blobs(n=200, seed=1):
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(loc=(-1.0, 0.0), scale=0.8, size=(half, 2))
    b = rng.normal(loc=(1.0, 0.5), scale=0.8, size=(half, 2))
    X = np.vstack([a, b])
    y = np.array([0] * half + [1] * half)
    return X, y


def test_single_tree_no_bootstrap_reduces_to_cart():
    X, y = _blobs(120, seed=4)
    forest = forest_fit(X, y, ForestConfig(n_estimators=1, max_features=None,
                                           bootstrap=False, seed=9))
    cart = cart_fit(X, y, CartConfig())
    assert np.array_equal(forest.predict_proba(X), cart.predict_proba(X))


def test_single_class_predicts_it_certainly():
    X = np.random.default_rng(0).normal(size=(30, 2))
    y = np.full(30, 7)
    model = forest_fit(X, y, ForestConfig(n_estimators=5, seed=1))
    probs = model.predict_proba(X)
    assert np.all(probs == 1.0)
    assert model.codebook == [7]


def test_forest_not_much_worse_than_single_tree_on_holdout():
    X, y = _blobs(200, seed=2)
    X_test, y_test = _blobs(200, seed=77)
    tree = cart_fit(X, y, CartConfig())
    forest = forest_fit(X, y, ForestConfig(n_estimators=30, seed=3))
    acc = lambda m: float(np.mean(np.argmax(m.predict_proba(X_test), 1) == y_test))
    assert acc(forest) >= acc(tree) - 0.02


def test_deterministic_under_seed():
    X, y = _blobs(150, seed=5)
    a = forest_fit(X, y, ForestConfig(n_estimators=10, seed=21))
    b = forest_fit(X, y, ForestConfig(n_estimators=10, seed=21))
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
    c = forest_fit(X, y, ForestConfig(n_estimators=10, seed=22))
    assert not np.array_equal(a.predict_proba(X), c.predict_proba(X))


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        forest_fit(np.empty((0, 3)), np.empty(0), ForestConfig())

