"""SMOTE and NearMiss-1 resampling contracts."""

import numpy as np
import pytest

from diffsentry.errors import EmptyMinority, TooFewSamples
from diffsentry.resampling import Strategy, apply_plan, nearmiss, smote


def test_two_point_segment_geometry():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    out = smote(X, k=1, n_synthetic=50, seed=3)
    assert out.shape == (50, 2)
    # every synthetic point is (u, u) for some u in [0, 1]
    assert np.allclose(out[:, 0], out[:, 1], atol=1e-12)
    assert np.all(out >= -1e-12) and np.all(out <= 1 + 1e-12)


def test_zero_synthetic_rows():
    X = np.array([[0.0], [1.0]])
    assert smote(X, 1, 0, seed=0).shape == (0, 1)


def test_synthetic_points_lie_on_segments_between_originals():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(10, 3)) * 0.3 + 5.0
    out = smote(X, k=3, n_synthetic=200, seed=9)
    for s in out:
        found = False
        for i in range(len(X)):
            for j in range(len(X)):
                if i == j:
                    continue
                d = X[j] - X[i]
                denom = float(d @ d)
                u = float((s - X[i]) @ d) / denom
                if -1e-9 <= u <= 1 + 1e-9 and np.allclose(
                    s, X[i] + u * d, atol=1e-9
                ):
                    found = True
                    break
            if found:
                break
        assert found  # segment membership implies convex-hull membership


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        smote(np.array([[1.0, 2.0]]), 1, 5, seed=0)
    with pytest.raises(TooFewSamples):
        smote(np.array([[1.0], [2.0]]), k=5, n_synthetic=2, seed=0)


def test_smote_deterministic_and_rowwise_seeded():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    a = smote(X, 2, 20, seed=5)
    b = smote(X, 2, 20, seed=5)
    assert np.array_equal(a, b)

    # documented derivation: row i draws (base, neighbour, u) from
    # default_rng([seed, i]); reproduce one row by hand
    rng = np.random.default_rng([5, 3])
    base = int(rng.integers(4))
    nn_choice = int(rng.integers(2))
    u = rng.random()
    mean = X.mean(axis=0)
    std = X.std(axis=0); std[std == 0] = 1.0
    Z = (X - mean) / std
    d2 = ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nn = np.argsort(d2, axis=1, kind="stable")[:, :2]
    expected = X[base] + u * (X[nn[base, nn_choice]] - X[base])
    assert np.allclose(a[3], expected, atol=1e-12)


def test_permuting_rows_changes_output_only_via_row_lookup():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(8, 2))
    perm = rng.permutation(8)
    a = smote(X, 3, 10, seed=2)
    b = smote(X[perm], 3, 10, seed=2)
    # same per-row streams: recompute expected rows against the permuted
    # matrix and its own neighbour table
    mean = X[perm].mean(axis=0)
    std = X[perm].std(axis=0); std[std == 0] = 1.0
    Z = (X[perm] - mean) / std
    d2 = ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nn = np.argsort(d2, axis=1, kind="stable")[:, :3]
    for i in range(10):
        r = np.random.default_rng([2, i])
        base = int(r.integers(8))
        pick = nn[base, int(r.integers(3))]
        u = r.random()
        expected = X[perm][base] + u * (X[perm][pick] - X[perm][base])
        assert np.allclose(b[i], expected, atol=1e-12)
    assert not np.array_equal(a, b)


def test_nearmiss_identity_when_keeping_all():
    X_maj = np.arange(10.0).reshape(5, 2)
    X_min = np.array([[0.0, 0.0]])
    kept = nearmiss(X_maj, X_min, n_keep=5)
    assert np.array_equal(kept, np.arange(5))


def test_nearmiss_keeps_nearest():
    X_min = np.array([[0.0]])
    X_maj = np.array([[3.0], [1.0], [2.0]])
    kept = nearmiss(X_maj, X_min, n_keep=1)
    assert np.array_equal(kept, [1])


def test_nearmiss_tie_break_by_index():
    X_min = np.array([[0.0, 0.0]])
    X_maj = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    kept = nearmiss(X_maj, X_min, n_keep=2)
    assert np.array_equal(kept, [0, 1])


def test_nearmiss_empty_minority():
    with pytest.raises(EmptyMinority):
        nearmiss(np.ones((3, 2)), np.empty((0, 2)), 1)


def test_nearmiss_brute_force_oracle():
    rng = np.random.default_rng(21)
    X_maj = rng.normal(size=(40, 3))
    X_min = rng.normal(loc=2.0, size=(15, 3))
    kept = nearmiss(X_maj, X_min, n_keep=12)
    stacked = np.vstack([X_maj, X_min])
    mean, std = stacked.mean(0), stacked.std(0)
    zm, zn = (X_maj - mean) / std, (X_min - mean) / std
    scores = []
    for i in range(40):
        d = np.sqrt(((zm[i] - zn) ** 2).sum(axis=1))
        scores.append(np.sort(d)[:3].mean())
    want = np.sort(np.argsort(np.asarray(scores), kind="stable")[:12])
    assert np.array_equal(kept, want)


def test_combined_plan_hits_exact_targets():
    rng = np.random.default_rng(30)
    X = np.vstack([
        rng.normal(size=(50, 4)),
        rng.normal(loc=3, size=(12, 4)),
        rng.normal(loc=-3, size=(30, 4)),
    ])
    y = np.array([0] * 50 + [1] * 12 + [2] * 30)
    # the median class count, 30, is the target
    X2, y2 = apply_plan(X, y, Strategy.COMBINED, seed=1)
    classes, counts = np.unique(y2, return_counts=True)
    assert np.array_equal(classes, [0, 1, 2])
    assert np.array_equal(counts, [30, 30, 30])


def test_smote_only_plan_never_undersamples():
    rng = np.random.default_rng(33)
    X = np.vstack([rng.normal(size=(60, 2)), rng.normal(loc=4, size=(40, 2)),
                   rng.normal(loc=-4, size=(10, 2))])
    y = np.array([0] * 60 + [1] * 40 + [2] * 10)
    # the median class count, 40, is the target: class 0 keeps its 60 rows
    X2, y2 = apply_plan(X, y, Strategy.SMOTE_ONLY, seed=0)
    _, counts = np.unique(y2, return_counts=True)
    assert np.array_equal(counts, [60, 40, 40])
    assert np.array_equal(X2[:100], X[:100])
