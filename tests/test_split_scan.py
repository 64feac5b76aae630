"""The batched split scanners against the per-column scanners they replaced.

``cart.grow_tree`` asks ``_scan_impurity`` once per node, and the boosting
stage grower asks ``gbc._scan_block`` once per block of nodes, for the best
(gain, column, threshold) over every column of a node, handing it the node's
columns each sorted ascending and the targets in each column's order;
``_presorted`` below makes that input from a node matrix. The oracles below
are the earlier per-column scanners, run column by column and kept only on a
strictly greater gain, as the grower used to, and the one-node least-squares
scanner ``_scan_sse`` that padded blocks replaced. All must agree bit for
bit, so trees grown by either are identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from diffsentry.ensembles import cart
from diffsentry.ensembles.cart import (
    _best_split,
    _scan_impurity,
    gini_impurity,
    grow_tree,
    node_lists,
)
from diffsentry.ensembles.gbc import _BLOCK_ROWS, _scan_block

# -- oracles: the per-column scanners -----------------------------------------

def _scan_feature(x, y_codes, k):
    """Best (gain, threshold) over this feature's midpoint candidates."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y_codes[order]
    n = xs.shape[0]
    bounds = np.nonzero(xs[:-1] < xs[1:])[0]
    if bounds.size == 0:
        return None
    onehot = np.zeros((n, k))
    onehot[np.arange(n), ys] = 1.0
    cum = np.cumsum(onehot, axis=0)
    left = cum[bounds]
    total = cum[-1]
    right = total[None, :] - left
    nl = (bounds + 1).astype(np.float64)
    nr = n - nl

    def imp(counts, sizes):
        p = counts / sizes[:, None]
        return 1.0 - np.sum(p * p, axis=1)

    parent = gini_impurity(total)
    gains = parent - (nl / n) * imp(left, nl) - (nr / n) * imp(right, nr)
    best = int(np.argmax(gains))  # first max: lowest threshold on ties
    thr = 0.5 * (xs[bounds[best]] + xs[bounds[best] + 1])
    return float(gains[best]), float(thr)


def _scan_feature_sse(x, r):
    """Best (sse_reduction, threshold) for a least-squares split on r."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    rs = r[order]
    n = xs.shape[0]
    bounds = np.nonzero(xs[:-1] < xs[1:])[0]
    if bounds.size == 0:
        return None
    csum = np.cumsum(rs)
    csum2 = np.cumsum(rs * rs)
    nl = (bounds + 1).astype(np.float64)
    nr = n - nl
    sum_l = csum[bounds]
    sum_r = csum[-1] - sum_l
    sse_l = csum2[bounds] - sum_l * sum_l / nl
    sse_r = (csum2[-1] - csum2[bounds]) - sum_r * sum_r / nr
    sse_parent = csum2[-1] - csum[-1] * csum[-1] / n
    red = sse_parent - sse_l - sse_r
    best = int(np.argmax(red))
    thr = 0.5 * (xs[bounds[best]] + xs[bounds[best] + 1])
    return float(red[best]), float(thr)


def _scan_sse(xs, rs):
    """One node's least-squares scan over the columns ``xs``, each sorted,
    with ``rs`` the residuals in each column's order (see ``_best_split``)."""
    n = xs.shape[0]
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


def _oracle(scan_one, X, target, feats):
    """The grower's old per-feature loop: a later feature wins only on a
    strictly greater gain."""
    best = None
    for f in feats:
        found = scan_one(X[:, f], target)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], int(f), found[1])
    return best


# -- data ----------------------------------------------------------------------

_LO = np.nextafter(1.0, 2.0)
_HI = np.nextafter(_LO, 2.0)  # 0.5 * (_LO + _HI) rounds onto _HI
_SPECIAL = st.sampled_from(
    [0.0, -0.0, 1.0, _LO, _HI, -2.5, 3.75, np.nan, np.inf, -np.inf])
_VALUES = st.one_of(
    _SPECIAL, st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def nodes(draw):
    """A node matrix with few distinct values per column (so ties occur),
    some constant columns, a class count k in 2..13, integer targets below
    k, least-squares targets and a sorted feature subset."""
    n = draw(st.integers(1, 40))
    n_feat = draw(st.integers(1, 6))
    pool = draw(st.lists(_VALUES, min_size=1, max_size=6))
    X = draw(hnp.arrays(np.float64, (n, n_feat), elements=st.sampled_from(pool)))
    for j in draw(st.sets(st.integers(0, n_feat - 1), max_size=n_feat)):
        X[:, j] = draw(_VALUES)  # constant column
    k = draw(st.integers(2, 13))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    r = draw(hnp.arrays(np.float64, n, elements=st.floats(
        -1.0, 1.0, allow_nan=False, allow_infinity=False)))
    feats = sorted(draw(st.sets(st.integers(0, n_feat - 1), min_size=1)))
    return X, y, k, r, np.array(feats)


def _presorted(X, target):
    """A node matrix's columns each sorted stably, and the targets in each
    column's order: what the grower hands its scanner."""
    order = np.argsort(X, axis=0, kind="stable")
    return X[order, np.arange(X.shape[1])], target[order]


def _sse(X, r):
    """The stage grower's scan of one node: a block of one, unpadded."""
    xs, rs = _presorted(X, r)
    if xs.shape[0] < 2:  # the grower scans no node of fewer rows
        return None
    gain, col, thr = _scan_block(xs.T[None], rs.T[None], np.array([xs.shape[0]]))
    return None if gain[0] == -np.inf else (gain[0], int(col[0]), thr[0])


def _impurity(X, y_codes, k):
    return _scan_impurity(*_presorted(X, y_codes), k)


def _batched(scan, X, target, feats):
    """The grower's use of a batched scanner on a feature subset."""
    found = scan(X[:, feats], target)
    if found is None:
        return None
    gain, col, thr = found
    return gain, int(feats[col]), thr


def _bits(found):
    if found is None:
        return None
    gain, f, thr = found
    assert isinstance(f, int)
    return float(gain).hex(), f, float(thr).hex()


def _check(kind, X, y, k, r, feats):
    if kind == "sse":
        one, batch, target = _scan_feature_sse, _sse, r
    else:
        def one(x, t):
            return _scan_feature(x, t, k)

        def batch(X_, t):
            return _impurity(X_, t, k)

        target = y
    everything = np.arange(X.shape[1])
    with np.errstate(invalid="ignore"):  # the midpoint of -inf and inf
        assert _bits(batch(X, target)) == _bits(
            _oracle(one, X, target, everything))
        assert _bits(_batched(batch, X, target, feats)) == _bits(
            _oracle(one, X, target, feats))


@pytest.mark.parametrize("kind", ["gini", "sse"])
@settings(max_examples=150, deadline=None)
@given(node=nodes())
def test_batched_scan_matches_per_column_scan(kind, node):
    _check(kind, *node)


@pytest.mark.parametrize("kind", ["gini", "sse"])
@pytest.mark.parametrize("seed", range(4))
def test_many_rows_and_thirteen_classes(kind, seed):
    # long sorts with many ties, and impurity sums over 13 class counts:
    # both only agree bit for bit when the sort is stable and the sums run
    # in the same order
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(300, 5)), 1)
    y = rng.integers(0, 13, size=300)
    _check(kind, X, y, 13, rng.uniform(-1.0, 1.0, size=300), np.array([0, 3, 4]))


@pytest.mark.parametrize("kind", ["gini", "sse"])
@pytest.mark.parametrize("n", [1, 2])
def test_one_or_two_rows(kind, n):
    X = np.array([[_LO, 5.0, 0.0], [_HI, 5.0, -1.0]])[:n]
    _check(kind, X, np.array([0, 1])[:n], 2, np.array([0.5, -0.5])[:n],
           np.array([1, 2]))


@pytest.mark.parametrize("kind", ["gini", "sse"])
def test_constant_columns_never_win(kind):
    X = np.column_stack([np.full(6, 2.0), np.arange(6.0), np.full(6, -1.0)])
    y = np.array([0, 0, 1, 1, 2, 2])
    r = np.array([-1.0, -1.0, 0.0, 0.0, 1.0, 1.0])
    scan = _sse if kind == "sse" else (lambda X_, t: _impurity(X_, t, 3))
    target = r if kind == "sse" else y
    assert scan(X, target)[1] == 1
    assert scan(X[:, [0, 2]], target) is None
    _check(kind, X, y, 3, r, np.array([0, 2]))


def test_ties_keep_the_lowest_column_and_threshold():
    # columns 1 and 2 split the classes equally well at two thresholds each
    X = np.array([[9.0, 0.0, 0.0], [9.0, 1.0, 1.0], [8.0, 2.0, 2.0],
                  [8.0, 3.0, 3.0]])
    y = np.array([0, 1, 1, 0])
    gain, col, thr = _impurity(X, y, 2)
    assert (col, thr) == (1, 0.5)
    _check("gini", X, y, 2, y - 0.5, np.array([1, 2]))


def test_grower_scans_once_per_split_node():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int64) + (X[:, 2] > 0.5)
    calls = []

    def scan(xs, ys, k):
        calls.append(xs.copy())
        return _scan_impurity(xs, ys, k)

    nodes = node_lists()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cart, "_scan_impurity", scan)
        grow_tree(X, np.arange(60), y, 3, None, 2, nodes)
    assert len(calls) == sum(f >= 0 for f in nodes["feature"]) > 0
    assert all(xs.shape[1] == 4 for xs in calls)
    # the scanner sorts nothing itself: each scan gets its columns ascending
    assert all(np.all(xs[:-1] <= xs[1:]) for xs in calls)


# -- padded blocks: many nodes in one scan -------------------------------------

_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, _LO, _HI, -2.5, 3.75]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_RESIDUALS = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def blocks(draw):
    """Nodes of 2.._BLOCK_ROWS rows (the grower scans no smaller node) over
    one feature count, presorted, and padded into one (nodes, F, rows) block
    with finite junk after each node's rows; or, as for a stage's roots, one
    shared set of sorted columns with a residual column per node."""
    n_feat = draw(st.integers(1, 5))
    shared = draw(st.booleans())
    sizes = draw(st.lists(st.integers(2, _BLOCK_ROWS), min_size=1, max_size=6))
    if shared:
        sizes = [sizes[0]] * len(sizes)
    rows = max(sizes) + draw(st.integers(0, 3))
    pool = draw(st.lists(_FINITE, min_size=1, max_size=5))
    xs = draw(hnp.arrays(np.float64, (1 if shared else len(sizes), n_feat, rows),
                         elements=_FINITE))
    rs = draw(hnp.arrays(np.float64, (len(sizes), n_feat, rows),
                         elements=_RESIDUALS))
    nodes = []
    for i, m in enumerate(sizes):
        if not shared or i == 0:
            X = draw(hnp.arrays(np.float64, (m, n_feat),
                                elements=st.sampled_from(pool)))
        r = draw(hnp.arrays(np.float64, m, elements=_RESIDUALS))
        x_sorted, r_sorted = _presorted(X, r)
        xs[0 if shared else i, :, :m] = x_sorted.T
        rs[i, :, :m] = r_sorted.T
        nodes.append((x_sorted, r_sorted))
    return xs, rs, np.array(sizes), nodes


@settings(max_examples=150, deadline=None)
@given(block=blocks())
def test_a_padded_block_scans_each_node_as_alone(block):
    xs, rs, m, nodes = block
    got = [None if g == -np.inf else (g, int(f), t)
           for g, f, t in zip(*_scan_block(xs, rs, m))]
    assert [_bits(b) for b in got] == [_bits(_scan_sse(x, r)) for x, r in nodes]
