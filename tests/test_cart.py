"""Classification tree: impurity arithmetic and brute-force parity."""

import itertools

import numpy as np
import pytest

from diffsentry.ensembles import CartConfig, cart_fit
from diffsentry.ensembles.cart import gini_impurity
from diffsentry.ensembles.model import model_from_dict, model_to_dict
from diffsentry.errors import EmptyDataset, SchemaMismatch


def test_impurity_functions():
    assert gini_impurity([2, 2]) == pytest.approx(0.5)
    assert gini_impurity([4, 0]) == 0.0


def test_separable_line_gives_depth_one_perfect_tree():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    model = cart_fit(X, y, CartConfig(max_depth=8))
    p = model.packed
    assert p.feature[0] >= 0
    assert p.feature[p.left[0]] == p.feature[p.right[0]] == -1
    preds = np.argmax(model.predict_proba(X), axis=1)
    assert np.array_equal(preds, y)


def test_xor_needs_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    model = cart_fit(X, y, CartConfig(max_depth=2))
    preds = np.argmax(model.predict_proba(X), axis=1)
    assert np.array_equal(preds, y)


def test_depth_zero_is_majority_leaf():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1, 1, 0])
    model = cart_fit(X, y, CartConfig(max_depth=0))
    assert model.packed.feature.tolist() == [-1]
    probs = model.packed.value[0]
    label = model.codebook[int(np.argmax(probs))]
    assert label == 1
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        cart_fit(np.empty((0, 2)), np.empty(0))


def test_leaf_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 3))
    y = rng.integers(0, 3, size=60)
    model = cart_fit(X, y, CartConfig(max_depth=4))
    probs = model.predict_proba(X)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_scaling_single_feature_preserves_predictions():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 4))
    y = (X[:, 1] + 0.3 * X[:, 2] > 0).astype(int)
    base = cart_fit(X, y, CartConfig(max_depth=4))
    scaled_X = X.copy()
    scaled_X[:, 1] *= 7.3
    scaled = cart_fit(scaled_X, y, CartConfig(max_depth=4))
    assert np.array_equal(
        np.argmax(base.predict_proba(X), axis=1),
        np.argmax(scaled.predict_proba(scaled_X), axis=1),
    )


# -- exhaustive depth-2 parity ------------------------------------------------------

def _weighted_leaf_gini(labels_by_leaf):
    total = sum(len(leaf) for leaf in labels_by_leaf)
    out = 0.0
    for leaf in labels_by_leaf:
        if len(leaf) == 0:
            continue
        counts = np.bincount(leaf, minlength=2)
        out += len(leaf) / total * gini_impurity(counts)
    return out


def _exhaustive_best_depth2(cells):
    """cells[f0][f1] holds the list of labels at that corner. Returns the
    minimum training impurity over every tree of depth <= 2."""
    all_labels = [l for row in cells for cell in row for l in cell]
    best = _weighted_leaf_gini([np.asarray(all_labels, dtype=int)])

    def side(feature, value):
        if feature == 0:
            return [l for cell in cells[value] for l in cell]
        return [l for row in cells for l in row[value]]

    def cell_pair(feature, value):
        # the two cells within one side, split by the other feature
        if feature == 0:
            return cells[value][0], cells[value][1]
        return cells[0][value], cells[1][value]

    for root in (0, 1):
        left, right = side(root, 0), side(root, 1)
        if not left or not right:
            continue
        for split_left in (False, True):
            for split_right in (False, True):
                leaves = []
                for value, do_split in ((0, split_left), (1, split_right)):
                    a, b = cell_pair(root, value)
                    if do_split:
                        if not a or not b:
                            break
                        leaves.extend([a, b])
                    else:
                        leaves.append(side(root, value))
                else:
                    score = _weighted_leaf_gini(
                        [np.asarray(l, dtype=int) for l in leaves]
                    )
                    best = min(best, score)
    return best


def _greedy_training_impurity(model, X, y):
    # group rows by the leaf they reach: the node index from the walker, not
    # the probability vector, which two leaves can share
    leaves = {}
    for leaf, label in zip(model.packed.leaf_index(X)[0].tolist(), y):
        leaves.setdefault(leaf, []).append(label)
    return _weighted_leaf_gini([np.asarray(v, dtype=int) for v in leaves.values()])


def _iter_binary_datasets(max_per_cell, max_total=12):
    """Multisets of labeled corners (f0, f1, y): every (cell, label) count up
    to max_per_cell, total size in [1, max_total]."""
    for counts in itertools.product(range(max_per_cell + 1), repeat=8):
        n = sum(counts)
        if not 1 <= n <= max_total:
            continue
        yield counts


def test_greedy_matches_exhaustive_depth2_on_binary_grids():
    checked = 0
    for counts in _iter_binary_datasets(2):
        cells = [[[], []], [[], []]]
        X_rows, y_rows = [], []
        for idx, count in enumerate(counts):
            f0, f1, lab = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
            cells[f0][f1].extend([lab] * count)
            X_rows.extend([[float(f0), float(f1)]] * count)
            y_rows.extend([lab] * count)
        y = np.asarray(y_rows, dtype=int)
        if len(set(y_rows)) == 0:
            continue
        X = np.asarray(X_rows, dtype=float)
        model = cart_fit(X, y, CartConfig(max_depth=2))
        greedy = _greedy_training_impurity(model, X, y)
        exhaustive = _exhaustive_best_depth2(cells)
        assert greedy == pytest.approx(exhaustive, abs=1e-12), counts
        checked += 1
    assert checked > 5000


def test_greedy_matches_exhaustive_on_random_larger_sets():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        X = rng.integers(0, 2, size=(n, 2)).astype(float)
        y = rng.integers(0, 2, size=n)
        cells = [[[], []], [[], []]]
        for row, lab in zip(X, y):
            cells[int(row[0])][int(row[1])].append(int(lab))
        model = cart_fit(X, y, CartConfig(max_depth=2))
        greedy = _greedy_training_impurity(model, X, y.astype(int))
        exhaustive = _exhaustive_best_depth2(cells)
        assert greedy == pytest.approx(exhaustive, abs=1e-12)


def test_leaf_width_other_than_class_count_is_a_schema_mismatch():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    d = model_to_dict(cart_fit(X, np.array([0, 1, 2, 2])))
    model_from_dict(d)
    trees = d["trees"]
    leaf = trees["feature"].index(-1)
    trees["value"].pop(3 * leaf)  # the first leaf holds 2 values, not 3
    with pytest.raises(SchemaMismatch):
        model_from_dict(d)


@pytest.mark.parametrize("field,value", [
    ("max_depth", 1.5), ("min_samples_split", 2.5), ("max_depth", True),
    ("min_samples_split", "2"),
])
def test_non_integer_config_rejected(field, value):
    # a float or bool depth would train and land in the model file
    with pytest.raises(TypeError, match=field):
        CartConfig(**{field: value})
