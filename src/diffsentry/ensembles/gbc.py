"""Stagewise gradient boosting for the multinomial deviance.

Per-class raw scores start at the log class priors. Every iteration fits
one least-squares regression tree per class to the residual (one-hot minus
softmax probability) on the chosen subsample; leaf values take the one-step
Newton update for the multinomial loss, and scores move by the learning
rate. Training deviance is recorded per iteration on the full data.

A stage's K trees grow together, level by level (``_grow_stage``), as in
XGBoost's depthwise policy with exact greedy scans over presorted column
blocks (Chen & Guestrin, KDD 2016). A fit sorts each column once; a
subsampled stage compresses that order to its own rows, and each split
hands its children the compress of its node's order. A node's scan
computes the residual's running sum and sum of squares in each column's
sorted order and takes the split (sse reduction, column, threshold) of
largest reduction, ties going to the lower threshold and then the lower
column. Every scan is a ``_scan_block``: the K roots share their rows and
are scanned in one block; below them the nodes of a level of at most
``_BLOCK_ROWS`` rows, across all K trees, share padded blocks, and a larger
node is a block of its own. Each lane's cumulative sum runs in the order of
the node's own scan, so every tree is bit for bit the tree grown node by
node. Leaf values are computed once per stage, for each group of leaves of
one size.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteLoss, SingleClass
from .cart import PackedTrees, _require_integers, training_matrix

#: hyperparameter grids: the full-scale search and a desk-scale one
GBC_GRID_FULL = {
    "n_estimators": [5000, 7000, 10000, 12000, 15000],
    "max_depth": [3, 5, 7, 10, 15],
    "learning_rate": [0.01, 0.05, 0.07, 0.1],
}
GBC_GRID_SMALL = {
    "n_estimators": [50, 100, 200],
    "max_depth": [3],
    "learning_rate": [0.1],
}


@dataclass(frozen=True)
class GbcConfig:
    n_estimators: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    subsample: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _require_integers(self, "n_estimators", "max_depth", "seed")
        if not (isinstance(self.learning_rate, numbers.Real)
                and not isinstance(self.learning_rate, bool)):
            raise TypeError(
                f"learning_rate must be a number, not {self.learning_rate!r}")
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def multinomial_deviance(y_codes: np.ndarray, scores: np.ndarray) -> float:
    """Mean negative log-likelihood of the true classes under softmax(scores)."""
    p = softmax(scores)
    picked = p[np.arange(y_codes.shape[0]), y_codes]
    return float(-np.mean(np.log(np.clip(picked, 1e-300, None))))


def _scan_block(xs: np.ndarray, rs: np.ndarray, m: np.ndarray):
    """The best least-squares splits of N nodes side by side (see
    ``cart._best_split``).

    Node ``i`` holds its ``m[i]`` rows of sorted feature ``j`` in
    ``xs[i, j, :m[i]]`` (in ``xs[0, j]`` for every node, when ``xs`` is one
    node wide) and their residuals in ``rs[i, j, :m[i]]``; finite padding
    follows. Each lane's cumulative sum runs along the node's rows in sorted
    order and padding only follows them, so every node gets the bits of a
    scan of its own rows alone. Returns the nodes' gains, columns and
    thresholds, a gain of -inf where a node has no split."""
    nodes, rows = np.arange(rs.shape[0]), rs.shape[2]
    csum = np.cumsum(rs, axis=2)
    csum2 = rs * rs
    np.cumsum(csum2, axis=2, out=csum2)
    total = csum[nodes, :, m - 1][..., None]
    total2 = csum2[nodes, :, m - 1][..., None]
    n = m[:, None, None].astype(np.float64)
    nl = np.arange(1.0, rows)
    nr = n - nl
    valid = xs[..., :-1] < xs[..., 1:]
    if m.min() < rows:  # padding gaps are no candidates
        valid = valid & (nl < n)
        nr = np.maximum(nr, 1.0)  # a gap's count only has to be > 0
    # sse_l = csum2_l - sum_l**2 / nl, sse_r = (total2 - csum2_l) -
    # sum_r**2 / nr and gains = (total2 - total**2 / n) - sse_l - sse_r, in
    # place: a block's temporaries are its largest arrays
    sum_l, csum2_l = csum[..., :-1], csum2[..., :-1]
    sse_l = sum_l * sum_l
    sse_l /= nl
    np.subtract(csum2_l, sse_l, out=sse_l)
    sum_r = total - sum_l
    sum_r *= sum_r
    sum_r /= nr
    sse_r = total2 - csum2_l
    sse_r -= sum_r
    gains = np.subtract(total2 - total * total / n, sse_l, out=sse_l)
    gains -= sse_r
    gains = np.where(valid, gains, -np.inf)
    # as _best_split: the first column holding the maximum, and its first
    # row, which is the first maximum of the node's gains in C order
    col, b = np.divmod(gains.reshape(nodes.shape[0], -1).argmax(axis=1), rows - 1)
    at = nodes if xs.shape[0] > 1 else 0
    return (gains[nodes, col, b], col,
            0.5 * (xs[at, col, b] + xs[at, col, b + 1]))


def _newton_leaves(r: np.ndarray, sizes: np.ndarray, k: int) -> np.ndarray:
    """One-step Newton values of the multinomial loss for leaves whose
    residuals follow one another in ``r``, ``sizes[i]`` of leaf ``i``, the
    sizes ascending. Each group of leaves of one size is summed as one
    (leaves, size) block, row by row, which gives each leaf the bits of its
    own array's sum."""
    num, den = np.zeros(sizes.shape[0]), np.zeros(sizes.shape[0])
    q = np.abs(r) * (1.0 - np.abs(r))
    first = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()
    at = 0
    for i, end in zip(first, first[1:] + [sizes.shape[0]]):
        m, g = int(sizes[i]), end - i
        num[i:end] = r[at:at + g * m].reshape(g, m).sum(axis=1)
        den[i:end] = q[at:at + g * m].reshape(g, m).sum(axis=1)
        at += g * m
    flat = den < 1e-12
    return np.where(flat, 0.0, (k - 1.0) / k * num / np.where(flat, 1.0, den))


#: up to this many rows, the nodes of a level share padded blocks, since a
#: small node's own scan is mostly numpy's cost per call; a larger node is
#: scanned alone. Measured on the benchmark corpora's gbc_fit calls (CPU time
#: against this cutoff, median of 11 interleaved rounds, each the best of 3,
#: with size classes in steps of at most 12.5% padding): 32 rows fitted the
#: offline training sets 11% slower; 128 rows was 2-7% faster on each group
#: of fits, inside the rounds' spread.
_BLOCK_ROWS = 64
#: a small node is scanned in the block of the first size that holds it.
#: On the same fits, size classes of 32, 36, 40, 45, 50, 56, 63 and 64 rows
#: were 3-8% slower than these two.
_BLOCK_SIZES = np.array([32, _BLOCK_ROWS])


def _grow_stage(XT, rows, order, residual, max_depth):
    """The K least-squares trees of one boosting stage, grown together level
    by level, as ``PackedTrees``: tree ``c`` fits ``residual[:, c]``, and
    each tree is in pre-order. Also returns ``step``, where ``step[c, i]``
    is the value of the leaf of tree ``c`` that holds stage row ``i``, and 0
    on the rows the stage left out.

    ``XT`` is the training matrix transposed (features by rows) and
    contiguous, ``rows`` the stage's rows ascending, and ``order[j]`` those
    rows in stable ascending order of feature ``j``. Every node gets the
    split and leaf that growing its tree alone, node by node, gave it:
    ``max_depth`` or a constant residual (a single row's too) makes a leaf;
    a split sends a row left when its feature is ``<= thr`` and hands each
    child the compress of its node's order under that predicate. A level
    keeps its nodes side by side in ``lines``: for each node, its order of
    every feature and, in the last line, its rows ascending. The K roots
    share one copy. One compress per level splits all of its nodes at once,
    and the next level holds the left children, then the right ones.
    """
    n = XT.shape[1]
    k = residual.shape[1]
    x_flat = XT.ravel()
    res_flat = np.ascontiguousarray(residual.T).ravel()
    lines = np.vstack([order, rows])
    tree, size = np.arange(k), np.full(k, rows.shape[0])
    start = np.zeros(k, dtype=np.int64)
    levels = []
    for depth in range(max_depth):
        if depth:
            node = np.repeat(np.arange(size.shape[0]), size)  # each column's node
            gain, feature, threshold = _scan_level(
                lines, tree, size, start, node, x_flat, res_flat, n)
        else:
            gain, feature, threshold = _scan_roots(lines, size, x_flat, res_flat, n)
        split = np.flatnonzero(gain > -np.inf)
        levels.append((tree, size, start, lines[-1], split, feature[split],
                       threshold[split], gain[split]))
        if not split.shape[0]:
            break
        # below the last level that may split, only the rows are needed
        lines = lines if depth + 1 < max_depth else lines[-1:]
        if depth:
            on = gain[node] > -np.inf
            if not on.all():
                lines, node = lines[:, on], node[on]
        else:  # each root that splits takes its own copy of the rows
            lines, node = np.tile(lines, split.shape[0]), np.repeat(split, size[0])
        goes = x_flat[lines + (feature * n)[node]] <= threshold[node]
        n_left = np.bincount(node[goes[-1]], minlength=size.shape[0])[split]
        lines = np.concatenate([lines[goes].reshape(lines.shape[0], -1),
                                lines[~goes].reshape(lines.shape[0], -1)], axis=1)
        size = np.concatenate([n_left, size[split] - n_left])
        tree = np.concatenate([tree[split], tree[split]])
        start = np.cumsum(size) - size
    else:  # the nodes at max_depth are leaves
        none = np.zeros(0, dtype=np.int64)
        levels.append((tree, size, start, lines[-1], none, none, none, none))
    return _stage_trees(levels, res_flat, n, k)


def _scan_roots(lines, size, x_flat, res_flat, n):
    """The best split (gain, feature, threshold) of each of the K roots of a
    stage, which share their rows and ``lines`` (see ``_grow_stage``): one
    gather of each tree's residuals, one of the sorted features and one
    ``_scan_block``. A gain of -inf where the residual is constant or no
    split exists."""
    k = size.shape[0]
    rl = res_flat[lines[:-1] + (np.arange(k) * n)[:, None, None]]
    constant = np.all(rl[:, 0] == rl[:, :1, 0], axis=1)
    if constant.all():
        return np.full(k, -np.inf), np.zeros(k, dtype=np.int64), np.zeros(k)
    n_features = lines.shape[0] - 1
    xl = x_flat[lines[:-1] + (np.arange(n_features) * n)[:, None]]
    gain, feature, threshold = _scan_block(xl[None], rl, size)
    gain[constant] = -np.inf
    return gain, feature, threshold


def _scan_level(lines, tree, size, start, node, x_flat, res_flat, n):
    """The best split (gain, feature, threshold) of each node of a level
    below the roots (see ``_grow_stage``), a gain of -inf where the residual
    is constant or no split exists. Nodes of at most ``_BLOCK_ROWS`` rows
    are scanned in padded blocks of similar size; a larger node, or one
    alone in its size, is scanned on its own columns. Every block is one
    ``_scan_block``."""
    count = size.shape[0]
    gain = np.full(count, -np.inf)
    feature, threshold = np.zeros(count, dtype=np.int64), np.zeros(count)
    # every line's feature values and residuals, for all nodes at once
    n_features, width = lines.shape[0] - 1, lines.shape[1]
    xl = x_flat[lines[:-1] + (np.arange(n_features) * n)[:, None]]
    rl = res_flat[lines[:-1] + (tree * n)[node]]
    first = rl[0, np.minimum(start, width - 1)]
    scan = np.bincount(node, weights=rl[0] != first[node], minlength=count) > 0
    block = np.where(size <= _BLOCK_ROWS, np.searchsorted(_BLOCK_SIZES, size),
                     _BLOCK_SIZES.shape[0] + np.arange(count))
    for b in np.unique(block[scan]).tolist():
        sel = np.flatnonzero(scan & (block == b))
        m = size[sel]
        if sel.shape[0] == 1:  # a node alone: its own columns, unpadded
            a = start[sel[0]]
            xs, rs = xl[None, :, a:a + m[0]], rl[None, :, a:a + m[0]]
        else:
            at = np.minimum(start[sel][:, None] + np.arange(m.max()), width - 1)
            at = at[:, None] + (np.arange(n_features) * width)[:, None]
            xs, rs = xl.ravel()[at], rl.ravel()[at]
        gain[sel], feature[sel], threshold[sel] = _scan_block(xs, rs, m)
    return gain, feature, threshold


def _stage_trees(levels, res_flat, n, k):
    """The grown levels (see ``_grow_stage``) as ``PackedTrees``: tree after
    tree, each in pre-order, and every leaf with its Newton value; and the
    (K, n) leaf values of the stage's rows."""
    # subtree sizes, bottom-up: a level's S splits have the next level's
    # first S nodes as left children and the next S as right ones
    subs = [np.ones(levels[-1][1].shape[0], dtype=np.int64)]
    for _, size, _, _, split, *_ in levels[-2::-1]:
        sub = np.ones(size.shape[0], dtype=np.int64)
        sub[split] += subs[0][:split.shape[0]] + subs[0][split.shape[0]:]
        subs.insert(0, sub)
    # each node's place in pre-order, top-down
    places = [np.cumsum(subs[0]) - subs[0]]
    for (*_, split, _, _, _), sub in zip(levels, subs[1:]):
        left = places[-1][split] + 1
        places.append(np.concatenate([left, left + sub[:split.shape[0]]]))
    count = int(subs[0].sum())
    feature, threshold, gain = np.full(count, -1), np.zeros(count), np.zeros(count)
    left, right = np.full(count, -1), np.full(count, -1)
    n_rows, value = np.empty(count, dtype=np.int64), np.zeros(count)
    leaves, offset = [], 0  # per level: leaf places, sizes, trees, first rows
    for i, (tree, size, start, row_line, split, f, thr, g) in enumerate(levels):
        place = places[i]
        n_rows[place] = size
        at = place[split]
        feature[at], threshold[at], gain[at] = f, thr, g
        if split.shape[0]:
            left[at] = places[i + 1][:split.shape[0]]
            right[at] = places[i + 1][split.shape[0]:]
        leaf = np.ones(size.shape[0], dtype=bool)
        leaf[split] = False
        leaves.append((place[leaf], size[leaf], tree[leaf], start[leaf] + offset))
        offset += row_line.shape[0]
    # leaf values once per stage, leaves of one size side by side, each
    # leaf's rows ascending
    place, m, tree, first = (np.concatenate(a) for a in zip(*leaves))
    by_size = np.argsort(m, kind="stable")
    place, m, tree, first = place[by_size], m[by_size], tree[by_size], first[by_size]
    rows = np.concatenate([lv[3] for lv in levels])[
        np.repeat(first - (np.cumsum(m) - m), m) + np.arange(m.sum())]
    value[place] = _newton_leaves(res_flat[rows + np.repeat(tree * n, m)], m, k)
    step = np.zeros((k, n))
    step[np.repeat(tree, m), rows] = np.repeat(value[place], m)
    return PackedTrees(np.append(places[0], count), feature, threshold, left,
                       right, gain, n_rows, value[:, None]), step


def gbc_fit(X, y, cfg: GbcConfig = GbcConfig()):
    """Functional gradient descent on the multinomial deviance."""
    from .model import TreeEnsembleModel

    X = training_matrix(X)
    y = np.asarray(y)
    codebook, y_codes = np.unique(y, return_inverse=True)
    k = len(codebook)
    if k < 2:
        raise SingleClass("gradient boosting needs at least two classes")

    n = X.shape[0]
    priors = np.bincount(y_codes, minlength=k) / n
    init_raw = np.log(priors)
    scores = np.tile(init_raw, (n, 1))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y_codes] = 1.0

    rng = np.random.default_rng(cfg.seed)
    XT = np.ascontiguousarray(X.T)
    order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)

    stages: list[PackedTrees] = []  # k trees per stage, stage by stage
    deviance: list[float] = []
    n_sub = max(1, int(round(cfg.subsample * n)))

    for m in range(cfg.n_estimators):
        p = softmax(scores)
        residual = onehot - p
        if n_sub < n:
            rows = np.sort(rng.choice(n, size=n_sub, replace=False))
            drawn = np.zeros(n, dtype=bool)
            drawn[rows] = True
            stage_order = order[drawn[order]].reshape(order.shape[0], -1)
        else:
            rows, stage_order = np.arange(n), order
        stage, step = _grow_stage(XT, rows, stage_order, residual, cfg.max_depth)
        stages.append(stage)
        if n_sub < n:  # a row the stage left out moves by the leaf it reaches
            rest = np.flatnonzero(~drawn)
            step[:, rest] = stage.leaf_values(X[rest])[:, :, 0]
        # each class's tree moves only its own column of scores
        scores += cfg.learning_rate * step.T
        dev = multinomial_deviance(y_codes, scores)
        if not np.isfinite(dev):
            raise NonFiniteLoss(f"training deviance became non-finite at iteration {m}")
        deviance.append(dev)

    return TreeEnsembleModel(
        kind="GBC",
        packed=PackedTrees.join(stages, 1),
        codebook=[c.item() if hasattr(c, "item") else c for c in codebook],
        config={
            "n_estimators": cfg.n_estimators,
            "max_depth": cfg.max_depth,
            "learning_rate": cfg.learning_rate,
            "subsample": cfg.subsample,
            "min_samples_split": 2,  # a node of two rows or more may split
        },
        n_features=X.shape[1],
        metadata={
            "seed": cfg.seed,
            "init_raw": [float(v) for v in init_raw],
            "train_deviance": deviance,
        },
    )
