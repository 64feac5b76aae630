"""CART trees grown by one recursive best-split search; the packed arrays
every tree kind is read from.

``grow_tree`` grows a CART classification tree straight into flat node
lists, in pre-order; ``PackedTrees.from_nodes`` turns the lists into one
array set, whose ``leaf_index`` walks all of a model's trees at once.
Gradient boosting grows its regression trees with its own stage grower
(``gbc._grow_stage``), into the same layout, and ``PackedTrees.join``
chains its stages.

A node is its rows, ascending. At each node the grower sorts every column
of its rows with one stable argsort, so tied values keep their row order,
and makes one ``_scan_impurity`` call on the sorted columns and class
codes, which scores every column in one array pass (column-wise cumulative
sums, then ``_best_split``) and returns the best (gain, column, threshold).
No workload fits a CART tree (only the tests do), so it keeps no presort;
boosting sorts each column once per fit (``gbc``). Split candidates are
midpoints between consecutive sorted unique feature values; for
classification the split maximizing the Gini impurity decrease wins, with
ties broken by (lower feature index, lower threshold). Nodes keep
splitting while any valid split exists, so zero-gain splits are taken when
descendants can still purify the partition (required for XOR-like data).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import EmptyChild, EmptyDataset, NonFiniteFeature


def gini_impurity(counts) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def _require_integers(config, *names: str) -> None:
    """TypeError unless each named field is an int, not a bool."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class CartConfig:
    max_depth: Optional[int] = None
    min_samples_split: int = 2

    def __post_init__(self):
        _require_integers(self, "min_samples_split")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.max_depth is not None:  # None grows until no split is left
            _require_integers(self, "max_depth")
            if self.max_depth < 0:
                raise ValueError("max_depth must be >= 0")


def _best_split(xs: np.ndarray, gains: np.ndarray):
    """Best (gain, column, threshold) of one node, or None.

    ``xs`` holds each column sorted; ``gains[b, j]`` scores the split of
    column ``j`` between its sorted rows ``b`` and ``b + 1``. Only gaps
    between distinct values are candidates. Ties keep the lowest threshold
    within a column and then the lowest column.
    """
    if xs.shape[0] < 2:
        return None
    gains = np.where(xs[:-1] < xs[1:], gains, -np.inf)
    rows = np.argmax(gains, axis=0)
    col_gains = gains[rows, np.arange(xs.shape[1])]
    col = int(np.argmax(col_gains))
    if col_gains[col] == -np.inf:  # every column is constant
        return None
    b = rows[col]
    return float(col_gains[col]), col, float(0.5 * (xs[b, col] + xs[b + 1, col]))


def _scan_impurity(xs: np.ndarray, ys: np.ndarray, k: int):
    """Best Gini-gain split over the columns ``xs``, each sorted, with
    ``ys`` the class codes in each column's order (see ``_best_split``)."""
    n = xs.shape[0]
    cum = np.cumsum(ys[..., None] == np.arange(k), axis=0, dtype=np.float64)
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


def _class_probabilities(y_codes: np.ndarray, k: int) -> list:
    if y_codes.size == 0:
        # a midpoint between adjacent floats can round onto the upper value
        raise EmptyChild("a split threshold left one child without rows")
    counts = np.bincount(y_codes, minlength=k).astype(np.float64)
    return list(counts / counts.sum())


def node_lists() -> dict:
    """Empty node lists, one per name in ``PackedTrees.NODE_ARRAYS``, for
    ``grow_tree`` to append to."""
    return {a: [] for a in PackedTrees.NODE_ARRAYS}


def grow_tree(X, rows, y_codes, k, max_depth, min_samples_split, nodes) -> int:
    """The recursive best-split grower of a CART tree over ``k`` classes.

    Grows a tree on ``rows`` of ``X`` (ascending). Appends the tree's nodes
    in pre-order to ``nodes`` (see ``node_lists``), in the ``PackedTrees``
    layout, and returns the root's index in them. Each node that is not made
    a leaf first gets one ``_scan_impurity`` call on its columns each sorted
    ascending (a stable argsort of its rows) and its class codes in each
    column's order; a leaf holds its class probabilities. ``max_depth``,
    fewer than ``min_samples_split`` rows or a single class make a leaf,
    checked in that order: a child can be empty when a midpoint threshold
    rounds onto the upper of two adjacent floats. A split sends a row left
    when ``X[row, f] <= thr``.
    """
    cols = np.arange(X.shape[1])

    def grow(rows, depth):
        t = y_codes[rows]
        best = None
        if ((max_depth is None or depth < max_depth)
                and rows.shape[0] >= min_samples_split and not np.all(t == t[0])):
            order = rows[np.argsort(X[rows], axis=0, kind="stable")]
            best = _scan_impurity(X[order, cols], y_codes[order], k)
        i = len(nodes["feature"])
        if best is None:
            _append(nodes, -1, 0.0, 0.0, rows.shape[0],
                    _class_probabilities(t, k))
            return i

        gain, f, thr = best
        _append(nodes, f, thr, gain, rows.shape[0], [0.0] * k)
        left = X[rows, f] <= thr
        nodes["left"][i] = grow(rows[left], depth + 1)
        nodes["right"][i] = grow(rows[~left], depth + 1)
        return i

    return grow(rows, 0)


def _append(nodes, feature, threshold, gain, n, value) -> None:
    for a, v in zip(PackedTrees.NODE_ARRAYS,
                    (feature, threshold, -1, -1, gain, n, value)):
        nodes[a].append(v)


@dataclass(frozen=True)
class PackedTrees:
    """Every node of a model's trees in one set of parallel arrays.

    The trees follow one another, each in pre-order: tree ``t`` holds nodes
    ``offsets[t]`` (its root) to ``offsets[t + 1] - 1``. A leaf has
    ``feature`` -1, ``left`` and ``right`` -1, threshold and gain 0 and its
    payload in ``value``; a split has its children's node indices and a zero
    ``value`` row.
    """

    offsets: np.ndarray    # (n_trees + 1,) int64
    feature: np.ndarray    # (n_nodes,) int64
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray       # (n_nodes,) int64
    right: np.ndarray      # (n_nodes,) int64
    gain: np.ndarray       # (n_nodes,) float64
    n: np.ndarray          # (n_nodes,) int64, training rows at the node
    value: np.ndarray      # (n_nodes, width) float64

    NODE_ARRAYS = ("feature", "threshold", "left", "right", "gain", "n", "value")
    INT_ARRAYS = ("feature", "left", "right", "n")

    @classmethod
    def from_nodes(cls, nodes: dict, offsets: list, width: int) -> "PackedTrees":
        """The trees grown into ``nodes`` with roots at ``offsets[:-1]``, the
        first at 0, tree ``t`` ending before ``offsets[t + 1]``, and leaves of
        ``width`` values."""
        arrays = {a: np.asarray(nodes[a], dtype=np.int64
                                if a in cls.INT_ARRAYS else np.float64)
                  for a in cls.NODE_ARRAYS}
        arrays["value"] = arrays["value"].reshape(-1, width)
        return cls(np.asarray(offsets, dtype=np.int64), **arrays)

    @classmethod
    def join(cls, parts: list, width: int) -> "PackedTrees":
        """The trees of ``parts`` one after another, leaves ``width`` wide."""
        starts = np.cumsum([0] + [p.feature.shape[0] for p in parts])
        arrays = {}
        for a in cls.NODE_ARRAYS:
            chunks = [getattr(p, a) for p in parts]
            if a in ("left", "right"):
                chunks = [np.where(c >= 0, c + s, -1) for c, s in zip(chunks, starts)]
            empty = np.zeros((0, width) if a == "value" else 0, dtype=np.int64
                             if a in cls.INT_ARRAYS else np.float64)
            arrays[a] = np.concatenate([empty, *chunks])
        offsets = [p.offsets[:-1] + s for p, s in zip(parts, starts)]
        return cls(np.concatenate([*offsets, starts[-1:]]), **arrays)

    @property
    def n_trees(self) -> int:
        return self.offsets.shape[0] - 1

    def leaf_index(self, X: np.ndarray) -> np.ndarray:
        """The node index of the leaf each row of X reaches in each tree, as
        an (n_trees, n_rows) array. Every tree and row moves down one level
        per pass, with one gather and one compare."""
        rows = np.arange(X.shape[0])
        idx = np.repeat(self.offsets[:-1, None], X.shape[0], axis=1)
        while True:
            f = self.feature[idx]
            split = f >= 0
            if not split.any():
                return idx
            # a leaf's -1 gathers the last column; its result is discarded
            go_left = X[rows, f] <= self.threshold[idx]
            idx = np.where(split, np.where(go_left, self.left[idx],
                                           self.right[idx]), idx)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf payloads as an (n_trees, n_rows, width) array."""
        return self.value[self.leaf_index(X)]

    def first_trees(self, n: int) -> "PackedTrees":
        """The first ``n`` trees; a prefix keeps every node index valid."""
        end = self.offsets[n]
        return PackedTrees(self.offsets[:n + 1],
                           *(getattr(self, a)[:end] for a in self.NODE_ARRAYS))


def training_matrix(X) -> np.ndarray:
    """``X`` as a float matrix, checked before any tree is grown: a split
    next to a NaN or infinite value would get a non-finite threshold, and
    such a model could not be loaded back."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyDataset("training data must be a non-empty 2-D matrix")
    bad = ~np.isfinite(X)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteFeature(f"feature {j} of training row {i} is {X[i, j]}")
    return X


def cart_fit(X, y, cfg: CartConfig = CartConfig()):
    """Greedy best-split tree; returns a TreeEnsembleModel of kind CART."""
    from .model import TreeEnsembleModel

    X = training_matrix(X)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    codebook, y_codes = np.unique(y, return_inverse=True)
    k = len(codebook)
    nodes = node_lists()
    grow_tree(X, np.arange(X.shape[0]), y_codes, k, cfg.max_depth,
              cfg.min_samples_split, nodes)
    return TreeEnsembleModel(
        kind="CART",
        packed=PackedTrees.from_nodes(nodes, [0, len(nodes["feature"])], k),
        codebook=[c.item() if hasattr(c, "item") else c for c in codebook],
        config={
            "max_depth": cfg.max_depth,
            "min_samples_split": cfg.min_samples_split,
        },
        n_features=X.shape[1],
        metadata={},
    )
