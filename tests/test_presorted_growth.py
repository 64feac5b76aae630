"""Tree growth from one presort against the per-node sorts it replaced.

A fit sorts each column of its matrix once and ``grow_tree`` hands every
node its rows' order in each sorted column. The oracle below is the earlier
grower, which took each node's own matrix and target and let the scanner
argsort every column of it again. Every fit must give the same model file,
byte for byte, and sort exactly once.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from diffsentry.ensembles import CartConfig, GbcConfig, cart, gbc
from diffsentry.ensembles.cart import _append, _best_split, gini_impurity
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


def _oracle_grower(old_scan):
    """A stand-in for ``grow_tree`` that ignores the presorted order and
    grows the node matrix ``X[rows]`` the old way."""
    def grow(X, rows, order, target, scan, leaf, max_depth, min_samples_split,
             nodes):
        return _grow_tree(X[rows], target[rows], old_scan, leaf, max_depth,
                          min_samples_split, nodes)
    return grow


def _file_bytes(fit, *args):
    """The model file of a fit, or the name of the error it raised."""
    try:
        return json.dumps(model_to_dict(fit(*args)), sort_keys=True)
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return type(exc).__name__


def _gbc_both(X, y, cfg):
    got = _file_bytes(gbc.gbc_fit, X, y, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gbc, "grow_tree", _oracle_grower(_scan_sse))
        want = _file_bytes(gbc.gbc_fit, X, y, cfg)
    return got, want


def _cart_both(X, y, cfg):
    got = _file_bytes(cart.cart_fit, X, y, cfg)
    k = len(np.unique(y))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cart, "grow_tree", _oracle_grower(
            lambda X_, t: _scan_impurity(X_, t, k)))
        want = _file_bytes(cart.cart_fit, X, y, cfg)
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
    floats), labels of k in 2..13 classes, and tree settings."""
    n = draw(st.integers(1, 60))
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
    X, y, max_depth, min_split, subsample, seed = fit
    got, want = _gbc_both(X, y, GbcConfig(
        n_estimators=3, max_depth=max_depth, subsample=subsample,
        min_samples_split=min_split, seed=seed))
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


# -- one sort per fit ----------------------------------------------------------

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
    assert calls == [X.shape]


def test_cart_fit_sorts_once():
    rng = np.random.default_rng(9)
    X = np.round(rng.normal(size=(80, 5)), 1)
    y = rng.integers(0, 4, size=80)
    calls = _argsort_calls(cart.cart_fit, X, y, CartConfig(max_depth=4))
    assert calls == [X.shape]
