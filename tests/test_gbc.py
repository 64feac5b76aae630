"""Gradient boosting: loss gradient numerics, monotone deviance, round trips."""

import json

import numpy as np
import pytest

from diffsentry.ensembles import (
    GbcConfig,
    gbc_fit,
    multinomial_deviance,
    softmax,
)
from diffsentry.ensembles.model import model_from_dict, model_to_dict
from diffsentry.errors import SchemaMismatch, SingleClass
from diffsentry.features import Task, schema_hash
from diffsentry.pipeline import PipelineModel, load_pipeline, save_pipeline


def _loss(scores, onehot):
    p = softmax(scores)
    return -np.sum(onehot * np.log(p))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        scores = rng.normal(size=(1, k))
        onehot = np.zeros((1, k))
        onehot[0, rng.integers(k)] = 1.0
        analytic = softmax(scores) - onehot
        h = 1e-6
        for j in range(k):
            up = scores.copy(); up[0, j] += h
            dn = scores.copy(); dn[0, j] -= h
            fd = (_loss(up, onehot) - _loss(dn, onehot)) / (2 * h)
            rel = abs(fd - analytic[0, j]) / max(abs(analytic[0, j]), 1e-3)
            worst = max(worst, rel)
    assert worst <= 1e-6


def _blobs(n=120, k=3, seed=31):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(k, 4))
    X = np.vstack([rng.normal(loc=c, size=(n // k, 4)) for c in centers])
    y = np.repeat(np.arange(k), n // k)
    return X, y


def test_deviance_non_increasing_full_subsample():
    X, y = _blobs()
    model = gbc_fit(X, y, GbcConfig(n_estimators=60, max_depth=3,
                                    learning_rate=0.1, subsample=1.0, seed=0))
    dev = model.metadata["train_deviance"]
    assert len(dev) == 60
    assert all(dev[i + 1] <= dev[i] + 1e-12 for i in range(len(dev) - 1))


def test_zero_iterations_returns_priors():
    X, y = _blobs(90, 3)
    model = gbc_fit(X, y, GbcConfig(n_estimators=0))
    probs = model.predict_proba(X[:7])
    priors = np.bincount(y) / len(y)
    assert np.allclose(probs, priors[None, :], atol=1e-12)


def test_xor_is_learned():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    model = gbc_fit(X, y, GbcConfig(n_estimators=100, max_depth=2,
                                    learning_rate=0.1, seed=0))
    preds = np.argmax(model.predict_proba(X), axis=1)
    assert np.array_equal(preds, y)


def test_single_class_rejected():
    X = np.zeros((10, 2))
    with pytest.raises(SingleClass):
        gbc_fit(X, np.zeros(10), GbcConfig(n_estimators=1))


def test_subsample_deterministic_under_seed():
    X, y = _blobs(150, 3, seed=5)
    cfg = GbcConfig(n_estimators=30, max_depth=2, subsample=0.7, seed=12)
    a = gbc_fit(X, y, cfg)
    b = gbc_fit(X, y, cfg)
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))


def test_probabilities_sum_to_one():
    X, y = _blobs(120, 4, seed=8)
    model = gbc_fit(X, y, GbcConfig(n_estimators=20, max_depth=2, seed=0))
    probs = model.predict_proba(X)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_serialization_round_trip_bit_identical():
    X, y = _blobs(120, 3, seed=9)
    model = gbc_fit(X, y, GbcConfig(n_estimators=25, max_depth=3, seed=2))
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    rng = np.random.default_rng(10)
    probe = rng.normal(size=(1000, 4))
    assert np.array_equal(model.predict_proba(probe), loaded.predict_proba(probe))


def test_schema_hash_checked_on_load(tmp_path):
    X, y = _blobs(60, 2, seed=11)
    # a DetectFault slot's classes, which load_pipeline also checks
    y = np.array(["disturbance", "fault"])[y]
    model = gbc_fit(X, y, GbcConfig(n_estimators=5, seed=0))
    expected = schema_hash(Task.DETECT_FAULT)
    model.schema_hash = expected
    path = tmp_path / "pipeline.json"
    save_pipeline(PipelineModel({Task.DETECT_FAULT: model}), path)
    assert load_pipeline(path).slots[Task.DETECT_FAULT].schema_hash == expected
    model.schema_hash = "something-else"
    save_pipeline(PipelineModel({Task.DETECT_FAULT: model}), path)
    with pytest.raises(SchemaMismatch):
        load_pipeline(path)


def _root(d, name, value):
    """Set one array entry of the first tree's root, a split node."""
    trees = d["trees"]
    assert trees["feature"][0] >= 0
    trees[name][0] = value


def _first_leaf(d):
    return d["trees"]["feature"].index(-1)


def _child_to_parent(d):
    """Point a split's left child, itself a split, back at that split."""
    t = d["trees"]
    i = next(i for i, f in enumerate(t["feature"])
             if f >= 0 and t["feature"][t["left"][i]] >= 0)
    t["left"][t["left"][i]] = i


TAMPERS = {
    "feature_past_the_end": lambda d: _root(d, "feature", d["n_features"]),
    "negative_feature": lambda d: _root(d, "feature", -1),
    "float_feature": lambda d: _root(d, "feature", 1.0),
    "nan_threshold": lambda d: _root(d, "threshold", float("nan")),
    "infinite_threshold": lambda d: _root(d, "threshold", float("inf")),
    "wide_leaf": lambda d: d["trees"]["value"].insert(_first_leaf(d), 0.0),
    "narrow_stage": lambda d: d["trees"]["offsets"].pop(1),
    "short_init_raw": lambda d: d["metadata"]["init_raw"].pop(),
    "unknown_kind": lambda d: d.update(kind="XGB"),
    "child_outside_tree": lambda d: _root(d, "right", d["trees"]["offsets"][1]),
    "child_to_parent": _child_to_parent,
    "offsets_overrun": lambda d: d["trees"]["offsets"].append(
        d["trees"]["offsets"][-1] + 5),
    "empty_codebook": lambda d: (d.update(codebook=[]),
                                 d["metadata"].update(init_raw=[])),
    # predict_proba reads the rate and the priors on every call
    "no_learning_rate": lambda d: d["config"].pop("learning_rate"),
    "string_learning_rate": lambda d: d["config"].update(learning_rate="x"),
    "string_init_raw": lambda d: d["metadata"]["init_raw"].__setitem__(0, "x"),
    "nan_init_raw": lambda d: d["metadata"]["init_raw"].__setitem__(0, float("nan")),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_tampered_model_file_is_a_schema_mismatch(tamper):
    X, y = _blobs(60, 3, seed=11)
    d = model_to_dict(gbc_fit(X, y, GbcConfig(n_estimators=3, seed=0)))
    model_from_dict(json.loads(json.dumps(d)))
    TAMPERS[tamper](d)
    with pytest.raises(SchemaMismatch):
        model_from_dict(d)


def test_version_1_model_is_a_schema_mismatch_naming_the_version():
    # the nested node layout of version 1 files is no longer read
    d = {"version": 1, "kind": "GBC", "codebook": [0, 1], "n_features": 1,
         "config": {"learning_rate": 0.1, "n_estimators": 1},
         "metadata": {"init_raw": [-0.7, -0.7], "train_deviance": [0.6]},
         "trees": [[{"value": [0.5], "n": 4}, {"value": [-0.5], "n": 4}]]}
    with pytest.raises(SchemaMismatch, match="version 1"):
        model_from_dict(d)


def test_predict_returns_label_and_probabilities():
    X, y = _blobs(90, 3, seed=13)
    model = gbc_fit(X, y, GbcConfig(n_estimators=20, max_depth=2, seed=1))
    [label], [probs] = model.predict(X[0])
    assert label in model.codebook
    assert probs.shape == (3,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_predict_on_a_batch_is_predict_on_each_row_and_checks_the_schema():
    X, y = _blobs(90, 3, seed=13)
    model = gbc_fit(X, y, GbcConfig(n_estimators=20, max_depth=2, seed=1))
    model.schema_hash = "layout-a"
    labels, probs = model.predict(X[:5], "layout-a")
    assert np.array_equal(probs, model.predict_proba(X[:5]))
    for i in range(5):
        [label], [row] = model.predict(X[i], "layout-a")
        assert label == labels[i]
        assert np.array_equal(row, probs[i])
    assert model.predict(X[:5])[0] == labels  # width check only
    with pytest.raises(SchemaMismatch, match="layout-b"):
        model.predict(X[:5], "layout-b")
    with pytest.raises(SchemaMismatch, match="4 features"):
        model.predict(X[:5, :3], "layout-a")


def test_deviance_definition():
    scores = np.array([[2.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    p = softmax(scores)
    want = -np.mean([np.log(p[0, 0]), np.log(p[1, 1])])
    assert multinomial_deviance(y, scores) == pytest.approx(want, rel=1e-12)


def _model_bytes(model):
    return json.dumps(model_to_dict(model)).encode()


@pytest.mark.parametrize("subsample", [1.0, 0.7])
def test_first_stages_equals_the_shorter_fit(subsample):
    X, y = _blobs(90, 3, seed=12)
    cfg = GbcConfig(n_estimators=7, max_depth=2, subsample=subsample, seed=4)
    full = gbc_fit(X, y, cfg)
    loaded = model_from_dict(json.loads(_model_bytes(full)))
    probe = np.random.default_rng(1).normal(size=(40, 4))
    for n in (0, 1, 4, 7):
        short = gbc_fit(X, y, GbcConfig(n_estimators=n, max_depth=2,
                                        subsample=subsample, seed=4))
        assert _model_bytes(full.first_stages(n)) == _model_bytes(short)
        assert _model_bytes(loaded.first_stages(n)) == _model_bytes(short)
        assert (loaded.first_stages(n).predict_proba(probe).tobytes()
                == short.predict_proba(probe).tobytes())
    assert _model_bytes(full) == _model_bytes(gbc_fit(X, y, cfg))  # untouched


def test_a_single_row_is_a_leaf_and_the_model_file_keeps_the_split_rule():
    # a node of two rows or more may split; a stage drawn on one row grows
    # only leaves, and the model file still records the rule
    X, y = _blobs(2, 2, seed=3)
    model = gbc_fit(X, y, GbcConfig(n_estimators=3, max_depth=2,
                                    subsample=0.4, seed=1))
    assert model.config["min_samples_split"] == 2
    assert np.all(model.packed.feature == -1)


@pytest.mark.parametrize("value", [None, 3.0])
def test_max_depth_must_be_an_integer(value):
    # no unbounded depth: trees grow level by level down to a bound, and an
    # adjacent-float split could otherwise repeat without end
    with pytest.raises(TypeError, match="max_depth"):
        GbcConfig(max_depth=value)


@pytest.mark.parametrize("value, error", [
    (-1, ValueError), (1.5, TypeError), (True, TypeError), ("0", TypeError),
    (None, TypeError),
])
def test_seed_must_be_a_non_negative_integer(value, error):
    # numpy's generators would refuse it only inside the fit
    with pytest.raises(error, match="seed"):
        GbcConfig(seed=value)


@pytest.mark.parametrize("n", [-1, 8])
def test_first_stages_outside_the_fit_rejected(n):
    X, y = _blobs(60, 3, seed=13)
    model = gbc_fit(X, y, GbcConfig(n_estimators=7, max_depth=2))
    with pytest.raises(ValueError):
        model.first_stages(n)


def _argmax_labels(model, X):
    """Oracle: the argmax-to-codebook loop the callers used to spell out."""
    codes = np.argmax(model.predict_proba(X), axis=1)
    return [model.codebook[int(c)] for c in codes]


@pytest.mark.parametrize("kind", ["GBC", "CART"])
@pytest.mark.parametrize("names", [False, True], ids=["int", "str"])
@pytest.mark.parametrize("rows", [0, 1, 40])
def test_predict_labels_equals_argmax_over_codebook(kind, names, rows):
    from diffsentry.ensembles import CartConfig, cart_fit

    X, y = _blobs(n=90, k=3, seed=8)
    if names:
        y = np.asarray(["wa-g", "PT", "fault"])[y]
    model = (gbc_fit(X, y, GbcConfig(n_estimators=5, max_depth=2, seed=1))
             if kind == "GBC" else cart_fit(X, y, CartConfig(max_depth=3)))
    probe = np.random.default_rng(rows).normal(scale=3.0, size=(rows, 4))
    got, probs = model.predict(probe)
    want = _argmax_labels(model, probe)
    assert probs.tobytes() == model.predict_proba(probe).tobytes()
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    assert len(got) == rows


@pytest.fixture(scope="module")
def thirteen_class_model():
    X, y = _blobs(n=260, k=13, seed=5)
    model = gbc_fit(X, y, GbcConfig(n_estimators=6, max_depth=3, seed=2))
    probe = np.random.default_rng(6).normal(scale=3.0, size=(14, 4))
    return model, probe


@pytest.mark.parametrize("layout", ["c", "every_other_row", "fortran"])
@pytest.mark.parametrize("rows", range(1, 8))
def test_batch_row_probabilities_equal_the_single_row(thirteen_class_model,
                                                      layout, rows):
    # a 13-class softmax sums each row; a batch row must add in the order
    # the row alone does, whatever the layout of the rows
    model, probe = thirteen_class_model
    X = {"c": probe[:rows],
         "every_other_row": probe[: 2 * rows: 2],
         "fortran": np.asfortranarray(probe[:rows])}[layout]
    batch = model.predict_proba(X)
    for i in range(rows):
        alone = model.predict_proba(np.ascontiguousarray(X[i: i + 1]))[0]
        assert batch[i].tobytes() == alone.tobytes(), i
