"""The packed tree arrays: walker parity with a row-by-row walk, the stage
view and the file round trip."""

import json

import numpy as np
import pytest

from diffsentry.ensembles import CartConfig, GbcConfig, cart_fit, gbc_fit, softmax
from diffsentry.ensembles.model import model_from_dict, model_to_dict


def _leaf_value(packed, tree, x):
    """The payload of the leaf row ``x`` reaches in tree ``tree``, one node
    at a time."""
    i = packed.offsets[tree]
    while packed.feature[i] >= 0:
        go_left = x[packed.feature[i]] <= packed.threshold[i]
        i = packed.left[i] if go_left else packed.right[i]
    return packed.value[i]


def _node_walk_proba(model, X):
    """Oracle: the row-by-row walk and stage-by-stage score update the model
    used before its trees were walked all at once."""
    p = model.packed
    if model.kind == "CART":
        return np.array([_leaf_value(p, 0, row) for row in X]).reshape(
            X.shape[0], len(model.codebook))
    scores = np.tile(np.asarray(model.metadata["init_raw"]), (X.shape[0], 1))
    lr = model.config["learning_rate"]
    for stage in model.trees:
        for cls, tree in enumerate(stage):
            leaf = np.array([_leaf_value(p, tree, row)[0] for row in X])
            scores[:, cls] += lr * leaf
    return softmax(scores)


def _blobs(n=150, k=4, d=5, seed=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=1.5, size=(k, d))
    X = np.vstack([rng.normal(loc=c, size=(n // k, d)) for c in centers])
    return X, np.repeat(np.arange(k), n // k)


FITS = {
    "cart_depth3": lambda X, y: cart_fit(X, y, CartConfig(max_depth=3)),
    "cart_unbounded": lambda X, y: cart_fit(X, y, CartConfig()),
    "gbc": lambda X, y: gbc_fit(X, y, GbcConfig(n_estimators=12, max_depth=3,
                                                learning_rate=0.3, seed=2)),
    "gbc_subsample": lambda X, y: gbc_fit(X, y, GbcConfig(
        n_estimators=8, max_depth=2, subsample=0.6, seed=9)),
}


@pytest.fixture(scope="module", params=sorted(FITS))
def fitted(request):
    return FITS[request.param](*_blobs())


@pytest.mark.parametrize("rows", [0, 1, 300])
def test_packed_walk_equals_the_node_walk_bit_for_bit(fitted, rows):
    probe = np.random.default_rng(rows).normal(scale=2.0, size=(rows, 5))
    got = fitted.predict_proba(probe)
    want = _node_walk_proba(fitted, probe)
    assert got.shape == want.shape == (rows, len(fitted.codebook))
    assert got.tobytes() == want.tobytes()


def test_training_rows_reach_leaves_of_their_own_size(fitted):
    # every training row lands in a leaf; a CART leaf counts them all
    X, _ = _blobs()
    leaves = fitted.packed.leaf_index(X)
    assert (fitted.packed.feature[leaves] == -1).all()
    if fitted.kind == "CART":
        ids, counts = np.unique(leaves[0], return_counts=True)
        assert np.array_equal(fitted.packed.n[ids], counts)


def test_file_round_trip_is_byte_identical(fitted):
    text = json.dumps(model_to_dict(fitted), sort_keys=True)
    loaded = model_from_dict(json.loads(text))
    assert json.dumps(model_to_dict(loaded), sort_keys=True) == text
    probe = np.random.default_rng(4).normal(size=(50, 5))
    assert (loaded.predict_proba(probe).tobytes()
            == fitted.predict_proba(probe).tobytes())


def test_decoded_view_groups_one_root_per_class_per_stage():
    X, y = _blobs()
    model = gbc_fit(X, y, GbcConfig(n_estimators=3, max_depth=2))
    assert [list(stage) for stage in model.trees] == [
        [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    assert model.packed.n_trees == 12
    assert cart_fit(X, y).trees == [range(1)]
