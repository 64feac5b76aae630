"""Recorded trees of small seeded CART and GBC fits.

The fixture ``data/tree_regression.json`` holds the trees these fits grew
before the tree kinds were folded onto one grower and one walker, and
``gbc_thirteen_classes`` as grown before the grower took one presort per
fit. Split structure must match exactly: the pre-order feature index, the
threshold as ``float.hex`` (thresholds are midpoints of data values, so
they do not depend on the machine) and the node sizes. Split gains and leaf
payloads must match to 1e-12 relative.
"""

import json
import math
import os

import numpy as np
import pytest

from diffsentry.ensembles import (
    CartConfig,
    GbcConfig,
    cart_fit,
    gbc_fit,
)
from diffsentry.errors import EmptyChild

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tree_regression.json")


def _data(seed=23, n=90, k=3, d=5):
    """Blobs rounded to one decimal, so tied feature values occur."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=0.6, size=(k, d))
    X = np.vstack([rng.normal(loc=c, size=(n // k, d)) for c in centers])
    y = np.repeat(np.arange(k), n // k)
    return np.round(X, 1), y


def _adjacent_floats():
    """Feature 0 takes two adjacent floats whose midpoint rounds onto the
    upper one, so its split sends every row left and leaves an empty child."""
    lo = np.nextafter(1.0, 2.0)
    hi = np.nextafter(lo, 2.0)
    assert 0.5 * (lo + hi) == hi
    rng = np.random.default_rng(29)
    y = np.repeat(np.arange(2), 20)
    X = np.column_stack([np.where(y == 0, lo, hi), np.round(rng.normal(size=40), 1)])
    return X, y


FITS = {
    "cart_gini_depth3": (_data, lambda X, y: cart_fit(
        X, y, CartConfig(max_depth=3, min_samples_split=4))),
    "gbc_subsample": (_data, lambda X, y: gbc_fit(
        X, y, GbcConfig(n_estimators=6, max_depth=3, subsample=0.7, seed=5))),
    "gbc_empty_child": (_adjacent_floats, lambda X, y: gbc_fit(
        X, y, GbcConfig(n_estimators=2, max_depth=3, seed=0))),
    # an Identify slot's shape: 13 classes of 3 rows, no subsample
    "gbc_thirteen_classes": (lambda: _data(seed=41, n=39, k=13, d=6),
                             lambda X, y: gbc_fit(X, y, GbcConfig(
                                 n_estimators=4, max_depth=3, seed=3))),
}


def _preorder(p, i):
    """Node ``i`` of packed trees ``p`` and its subtree as
    ``["split", feature, hex threshold, n, gain]`` or ``["leaf", n, payload]``,
    in pre-order."""
    if p.feature[i] < 0:
        return [["leaf", int(p.n[i]), p.value[i].tolist()]]
    return (
        [["split", int(p.feature[i]), float(p.threshold[i]).hex(), int(p.n[i]),
          float(p.gain[i])]]
        + _preorder(p, p.left[i])
        + _preorder(p, p.right[i])
    )


def record(model):
    return [_preorder(model.packed, root) for root in model.packed.offsets[:-1]]


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(FITS))
def test_trees_match_recording(name, recorded):
    data, fit = FITS[name]
    got = record(fit(*data()))
    want = recorded[name]
    assert len(got) == len(want)
    for tree_got, tree_want in zip(got, want):
        assert len(tree_got) == len(tree_want)
        for node_got, node_want in zip(tree_got, tree_want):
            assert node_got[0] == node_want[0]
            if node_got[0] == "split":
                assert node_got[1:4] == node_want[1:4]
                assert _close(node_got[4], node_want[4])
            else:
                assert node_got[1] == node_want[1]
                assert len(node_got[2]) == len(node_want[2])
                assert all(_close(a, b) for a, b in zip(node_got[2], node_want[2]))


def test_classification_tree_rejects_an_empty_child():
    # GBC keeps an empty leaf (see gbc_empty_child); a class-probability
    # leaf on no rows is undefined
    with pytest.raises(EmptyChild):
        cart_fit(*_adjacent_floats(), CartConfig(max_depth=3))
