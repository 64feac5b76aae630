"""Trees grown by one recursive best-split search and read by one walker.

``grow_tree`` grows the CART and random-forest classification trees here
and the gradient-boosting regression trees of ``gbc.py``; ``tree_values``
reads all of them. At each node the grower makes one ``scan`` call, which
scores every column of the node's matrix in one array pass (a stable
column-wise argsort, column-wise cumulative sums, then ``_best_split``) and
returns the best (gain, column, threshold). Split candidates are midpoints
between consecutive sorted unique feature values; for classification the
split maximizing information gain wins, with ties broken by (lower feature
index, lower threshold). Nodes keep splitting while any valid split exists,
so zero-gain splits are taken when descendants can still purify the
partition (required for XOR-like data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import EmptyChild, EmptyDataset, NonFiniteFeature, SchemaMismatch


def gini_impurity(counts) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def entropy_impurity(counts) -> float:
    """Shannon entropy in bits."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


_IMPURITY = {"gini": gini_impurity, "entropy": entropy_impurity}


@dataclass
class Node:
    """One tree node; leaves carry a payload (probability vector or score)."""

    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["Node"] = None
    right: Optional["Node"] = None
    value: Optional[list] = None
    n_samples: int = 0
    gain: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value, "n": self.n_samples}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "gain": self.gain,
            "n": self.n_samples,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int, width: int) -> "Node":
        """Rebuild a tree from ``to_dict`` form, raising ``SchemaMismatch``
        for a split feature outside [0, n_features), a non-finite threshold
        or a leaf payload that does not hold ``width`` values."""
        if "feature" not in d:
            if len(d["value"]) != width:
                raise SchemaMismatch(
                    f"leaf holds {len(d['value'])} values, expected {width}")
            return cls(value=d["value"], n_samples=d["n"])
        f, thr = d["feature"], d["threshold"]
        if type(f) is not int or not 0 <= f < n_features:
            raise SchemaMismatch(f"split feature {f!r} outside [0, {n_features})")
        if not math.isfinite(thr):
            raise SchemaMismatch(f"split threshold {thr!r} is not finite")
        return cls(
            feature=f,
            threshold=thr,
            gain=d["gain"],
            n_samples=d["n"],
            left=cls.from_dict(d["left"], n_features, width),
            right=cls.from_dict(d["right"], n_features, width),
        )


@dataclass(frozen=True)
class CartConfig:
    max_depth: Optional[int] = None
    impurity: str = "gini"
    min_samples_split: int = 2

    def __post_init__(self):
        if self.impurity not in _IMPURITY:
            raise ValueError(f"impurity must be one of {tuple(_IMPURITY)}")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


def _sorted_columns(X: np.ndarray):
    """Stable sort order of every column of X and the sorted values."""
    order = np.argsort(X, axis=0, kind="stable")
    return order, X[order, np.arange(X.shape[1])]


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


def _scan_impurity(X: np.ndarray, y_codes: np.ndarray, k: int, kind: str):
    """Best impurity-gain split over all columns of X (see ``_best_split``)."""
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
        if kind == "gini":
            return 1.0 - np.sum(p * p, axis=-1)
        return -np.sum(np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0), axis=-1)

    parent = _IMPURITY[kind](total)
    gains = parent - (nl / n) * imp(left, nl) - (nr / n) * imp(right, nr)
    return _best_split(xs, gains)


def _class_probabilities(y_codes: np.ndarray, k: int) -> list:
    if y_codes.size == 0:
        # a midpoint between adjacent floats can round onto the upper value
        raise EmptyChild("a split threshold left one child without rows")
    counts = np.bincount(y_codes, minlength=k).astype(np.float64)
    return list(counts / counts.sum())


def grow_tree(X, target, scan, leaf, max_depth, min_samples_split, pick=None,
              depth=0) -> Node:
    """The one recursive best-split grower behind CART, RF and GBC trees.

    ``scan(X, target)`` returns the best (gain, column, threshold) over all
    columns of the node's matrix, or None when no column has two distinct
    values; it is called once per node that is not made a leaf first.
    ``leaf(target)`` returns a leaf payload list; ``pick(n_features)`` draws
    the sorted candidate features at each node, in pre-order (None: all of
    them). ``max_depth``, fewer than ``min_samples_split`` rows or a
    constant target make a leaf, checked in that order: a child can be
    empty when a midpoint threshold rounds onto the upper of two adjacent
    floats.
    """
    n = target.shape[0]
    if (
        (max_depth is not None and depth >= max_depth)
        or n < min_samples_split
        or np.all(target == target[0])
    ):
        return Node(value=leaf(target), n_samples=n)

    feats = None if pick is None else pick(X.shape[1])
    best = scan(X if feats is None else X[:, feats], target)
    if best is None:
        return Node(value=leaf(target), n_samples=n)

    gain, f, thr = best
    if feats is not None:
        f = int(feats[f])
    mask = X[:, f] <= thr
    node = Node(feature=f, threshold=thr, gain=gain, n_samples=n)
    node.left = grow_tree(X[mask], target[mask], scan, leaf, max_depth,
                          min_samples_split, pick, depth + 1)
    node.right = grow_tree(X[~mask], target[~mask], scan, leaf, max_depth,
                           min_samples_split, pick, depth + 1)
    return node


def grow_classification_tree(
    X: np.ndarray,
    y_codes: np.ndarray,
    k: int,
    cfg: CartConfig,
    rng: Optional[np.random.Generator] = None,
    max_features: Optional[int] = None,
) -> Node:
    """CART/RF tree: impurity-gain splits, class-probability leaves and,
    when ``max_features`` is below the feature count, a fresh sorted
    feature draw from ``rng`` at every split node (in pre-order)."""
    pick = None
    if max_features is not None and max_features < X.shape[1]:
        def pick(n_feat):
            return np.sort(rng.choice(n_feat, size=max_features, replace=False))
    return grow_tree(
        X, y_codes,
        scan=lambda X_, t: _scan_impurity(X_, t, k, cfg.impurity),
        leaf=lambda t: _class_probabilities(t, k),
        max_depth=cfg.max_depth,
        min_samples_split=cfg.min_samples_split,
        pick=pick,
    )


def _find_leaf(node: Node, x: np.ndarray) -> Node:
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


def tree_values(root: Node, X: np.ndarray) -> np.ndarray:
    """Leaf payloads for every row of X, stacked into an (n, payload) array."""
    values = [_find_leaf(root, row).value for row in X]
    if not values:  # no rows: take the width from the leftmost leaf
        leftmost = _find_leaf(root, np.full(X.shape[1], -np.inf))
        return np.empty((0, len(leftmost.value)))
    return np.array(values, dtype=np.float64)


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
    root = grow_classification_tree(X, y_codes, len(codebook), cfg)
    return TreeEnsembleModel(
        kind="CART",
        trees=[root],
        codebook=[c.item() if hasattr(c, "item") else c for c in codebook],
        config={
            "max_depth": cfg.max_depth,
            "impurity": cfg.impurity,
            "min_samples_split": cfg.min_samples_split,
        },
        n_features=X.shape[1],
        metadata={},
    )
