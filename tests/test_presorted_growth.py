"""Tree growth against the per-node-sort grower it replaced.

A boosting fit sorts each column of its matrix once, and ``gbc._grow_stage``
grows the K trees of a boosting stage together, level by level, and scans
small nodes in padded blocks; ``cart.grow_tree`` sorts each node's rows
itself. The oracle below is the earlier grower, which grew one tree at a
time node by node, took each node's own matrix and target, let the scanner
argsort every column of it again and gave each leaf its own Newton value. Every fit must give the same model file, byte for
byte, and a boosting fit must sort exactly once.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from diffsentry.ensembles import CartConfig, GbcConfig, PackedTrees, cart, gbc
from diffsentry.ensembles.cart import (_append, _best_split,
                                       _class_probabilities, gini_impurity,
                                       node_lists)
from diffsentry.ensembles.model import model_to_dict

# -- oracle: the per-node-argsort grower and its scanners ----------------------

def _sorted_columns(X):
    order = np.argsort(X, axis=0, kind="stable")
    return order, X[order, np.arange(X.shape[1])]


def _scan_impurity(X, y_codes, k):
    order, xs = _sorted_columns(X)
    n = X.shape[0]
    cum = np.cumsum(y_codes[order][..., None] == np.arange(k), axis=0,
                    dtype=np.float64)
    left = cum[:-1]
    total = cum[-1, 0]
    right = total - left
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl

    def imp(counts, sizes):
        p = counts / sizes[..., None]
        return 1.0 - np.sum(p * p, axis=-1)

    parent = gini_impurity(total)
    gains = parent - (nl / n) * imp(left, nl) - (nr / n) * imp(right, nr)
    return _best_split(xs, gains)


def _scan_sse(X, r):
    order, xs = _sorted_columns(X)
    rs = r[order]
    n = X.shape[0]
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


def _newton_leaf(r, k):
    """One-step Newton value for a terminal region of the multinomial loss."""
    num = r.sum()
    den = np.sum(np.abs(r) * (1.0 - np.abs(r)))
    if den < 1e-12:
        return 0.0
    return (k - 1.0) / k * num / den


def _grow_tree(X, target, scan, leaf, max_depth, min_samples_split, nodes,
               depth=0):
    n = target.shape[0]
    best = None
    if not (
        (max_depth is not None and depth >= max_depth)
        or n < min_samples_split
        or np.all(target == target[0])
    ):
        best = scan(X, target)
    i = len(nodes["feature"])
    if best is None:
        _append(nodes, -1, 0.0, 0.0, n, leaf(target))
        return i

    gain, f, thr = best
    mask = X[:, f] <= thr
    _append(nodes, f, thr, gain, n, None)
    nodes["left"][i] = _grow_tree(X[mask], target[mask], scan, leaf, max_depth,
                                  min_samples_split, nodes, depth + 1)
    nodes["right"][i] = _grow_tree(X[~mask], target[~mask], scan, leaf,
                                   max_depth, min_samples_split, nodes, depth + 1)
    nodes["value"][i] = [0.0] * len(nodes["value"][i + 1])
    return i


def _oracle_grower(ran):
    """A stand-in for ``cart.grow_tree`` that grows the node matrix
    ``X[rows]`` the old way."""
    def grow(X, rows, y_codes, k, max_depth, min_samples_split, nodes):
        ran.append(rows.shape[0])
        return _grow_tree(X[rows], y_codes[rows],
                          lambda X_, t: _scan_impurity(X_, t, k),
                          lambda t: _class_probabilities(t, k), max_depth,
                          min_samples_split, nodes)
    return grow


def _oracle_stage(ran):
    """A stand-in for ``gbc._grow_stage`` that grows each class's tree of the
    stage alone, the old way, on the node matrix ``X[rows]``, and walks the
    stage's rows down the trees for their leaf values."""
    def grow(XT, rows, order, residual, max_depth):
        ran.append(rows.shape[0])
        X, k = XT.T[rows], residual.shape[1]
        nodes, offsets = node_lists(), [0]
        for c in range(k):
            # a boosting node of two rows or more may split
            _grow_tree(X, residual[rows, c], _scan_sse,
                       lambda t: [_newton_leaf(t, k)], max_depth, 2, nodes)
            offsets.append(len(nodes["feature"]))
        stage = PackedTrees.from_nodes(nodes, offsets, 1)
        step = np.zeros((k, XT.shape[1]))
        step[:, rows] = stage.leaf_values(X)[:, :, 0]
        return stage, step
    return grow


def _file_bytes(fit, *args):
    """The model file of a fit, or the name of the error it raised."""
    try:
        return json.dumps(model_to_dict(fit(*args)), sort_keys=True)
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return type(exc).__name__


def _gbc_both(X, y, cfg):
    got = _file_bytes(gbc.gbc_fit, X, y, cfg)
    ran = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gbc, "_grow_stage", _oracle_stage(ran))
        want = _file_bytes(gbc.gbc_fit, X, y, cfg)
    # one oracle stage per boosting stage, unless the fit failed first
    assert len(ran) == cfg.n_estimators or want == "SingleClass"
    return got, want


def _cart_both(X, y, cfg):
    got = _file_bytes(cart.cart_fit, X, y, cfg)
    ran = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cart, "grow_tree", _oracle_grower(ran))
        want = _file_bytes(cart.cart_fit, X, y, cfg)
    assert len(ran) == 1 or want == "EmptyDataset"
    return got, want


# -- data ----------------------------------------------------------------------

_LO = np.nextafter(1.0, 2.0)
_HI = np.nextafter(_LO, 2.0)  # 0.5 * (_LO + _HI) rounds onto _HI
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, _LO, _HI, -2.5, 3.75]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def fits(draw):
    """A matrix with few distinct values per column (ties, +-0.0, adjacent
    floats), labels of k in 2..13 classes, and tree settings. Up to 300
    rows, so nodes on both sides of ``gbc._BLOCK_ROWS`` occur."""
    n = draw(st.integers(1, 300))
    pool = draw(st.lists(_VALUES, min_size=1, max_size=4))
    X = draw(hnp.arrays(np.float64, (n, draw(st.integers(1, 5))),
                        elements=st.sampled_from(pool)))
    k = draw(st.integers(2, 13))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return (X, y, draw(st.integers(0, 4)), draw(st.integers(2, 5)),
            draw(st.sampled_from([0.4, 0.7, 1.0])), draw(st.integers(0, 9)))


@settings(max_examples=150, deadline=None)
@given(fit=fits())
def test_gbc_fit_equals_the_per_node_sort_grower(fit):
    X, y, max_depth, _, subsample, seed = fit
    got, want = _gbc_both(X, y, GbcConfig(
        n_estimators=3, max_depth=max_depth, subsample=subsample, seed=seed))
    assert got == want


@settings(max_examples=150, deadline=None)
@given(fit=fits())
def test_cart_fit_equals_the_per_node_sort_grower(fit):
    # bounded depth only: unbounded, a no-op split between adjacent floats
    # recurses without end
    X, y, max_depth, min_split, _, _ = fit
    got, want = _cart_both(X, y, CartConfig(max_depth=max_depth,
                                            min_samples_split=min_split))
    assert got == want


@pytest.mark.parametrize("subsample", [0.7, 1.0])
def test_adjacent_floats_keep_the_no_op_split(subsample):
    # column 0's split sends every row left; the left child must get every
    # row of its parent's order under the same <= predicate
    rng = np.random.default_rng(29)
    y = np.repeat(np.arange(2), 20)
    X = np.column_stack([np.where(y == 0, _LO, _HI),
                         np.round(rng.normal(size=40), 1)])
    got, want = _gbc_both(X, y, GbcConfig(n_estimators=2, max_depth=3,
                                          subsample=subsample, seed=0))
    assert got == want


@pytest.mark.parametrize("subsample", [0.7, 1.0])
def test_thirteen_classes_in_an_identify_slot_shape(subsample):
    rng = np.random.default_rng(17)
    X = np.round(rng.normal(size=(39, 8)), 1)
    y = np.repeat(np.arange(13), 3)
    got, want = _gbc_both(X, y, GbcConfig(n_estimators=5, max_depth=3,
                                          subsample=subsample, seed=4))
    assert got == want


# -- one sort per boosting fit -------------------------------------------------

def _argsort_calls(fit, *args):
    calls = []
    argsort = np.argsort

    def counting(*a, **kw):
        calls.append(a[0].shape)
        return argsort(*a, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "argsort", counting)
        fit(*args)
    return calls


@pytest.mark.parametrize("subsample", [0.7, 1.0])
def test_gbc_fit_sorts_once(subsample):
    rng = np.random.default_rng(8)
    X = np.round(rng.normal(size=(80, 5)), 1)
    y = rng.integers(0, 4, size=80)
    calls = _argsort_calls(gbc.gbc_fit, X, y, GbcConfig(
        n_estimators=5, max_depth=3, subsample=subsample, seed=1))
    # the matrix once; besides it, each stage orders its leaves by size
    assert calls[0] == X.shape
    assert len(calls) == 6 and all(len(c) == 1 for c in calls[1:])


# -- Newton leaves, a group of equal-size leaves at a time ----------------------

_RESIDUAL = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                      st.floats(-1.0, 1.0, allow_nan=False))


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 13), leaves=st.lists(st.tuples(
    st.integers(0, 300), st.integers(1, 4)), min_size=1, max_size=5), data=st.data())
def test_grouped_newton_leaves_equal_each_leaf_alone(k, leaves, data):
    # each leaf must be summed as its own residual array is: numpy's
    # pairwise sum, whose order depends on the leaf's length
    sizes = np.repeat(*np.array(sorted(leaves)).T)
    r = data.draw(hnp.arrays(np.float64, int(sizes.sum()), elements=_RESIDUAL))
    got = gbc._newton_leaves(r, sizes, k)
    ends = np.cumsum(sizes)
    assert got.tobytes() == np.array([_newton_leaf(r[e - m:e].copy(), k)
                                      for e, m in zip(ends, sizes)]).tobytes()
