"""Shared trained-model container, prediction, and the versioned dict form."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..errors import SchemaMismatch
from .cart import PackedTrees

FILE_VERSION = 2


@dataclass
class TreeEnsembleModel:
    """Trained CART / GBC model with its class codebook and metadata.

    Immutable after fit by convention; safe to share across threads for
    prediction. ``schema_hash`` pins the feature layout the model expects.
    """

    kind: str                    # "CART" | "GBC"
    packed: PackedTrees          # CART: one tree; GBC: one per class per stage
    codebook: list
    config: dict
    n_features: int
    metadata: dict = field(default_factory=dict)
    schema_hash: Optional[str] = None

    @property
    def trees(self) -> list:
        """Each stage's tree indices in ``packed``, as a ``range``: one tree
        per class per GBC stage; CART has one stage of one tree."""
        width = len(self.codebook) if self.kind == "GBC" else 1
        return [range(i, i + width) for i in range(0, self.packed.n_trees, width)]

    def first_stages(self, n: int) -> "TreeEnsembleModel":
        """The first ``n`` boosting stages of a GBC model. A fit is a stage
        prefix of any longer fit with the same data and seed, so this equals
        ``gbc_fit`` at ``n_estimators=n``."""
        k = len(self.codebook)
        stages = self.packed.n_trees // k
        if self.kind != "GBC" or not 0 <= n <= stages:
            raise ValueError(
                f"no {n}-stage prefix of a {self.kind} model with {stages} stages")
        return replace(
            self,
            packed=self.packed.first_trees(n * k),
            config={**self.config, "n_estimators": n},
            metadata={**self.metadata,
                      "train_deviance": self.metadata["train_deviance"][:n]},
        )

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise SchemaMismatch(
                f"model expects {self.n_features} features, got {X.shape[1]}"
            )
        values = self.packed.leaf_values(X)
        if self.kind == "CART":
            return values[0]
        # GBC: raw scores -> softmax. The cumulative sum adds the stages in
        # order, one class per column, exactly as gbc_fit moved its scores.
        from .gbc import softmax

        n_rows, k = X.shape[0], len(self.codebook)
        steps = self.config["learning_rate"] * values[:, :, 0]
        steps = steps.reshape(self.packed.n_trees // k, k, n_rows).transpose(0, 2, 1)
        init = np.broadcast_to(np.asarray(self.metadata["init_raw"]), (1, n_rows, k))
        raw = np.cumsum(np.concatenate([init, steps]), axis=0)[-1]
        # softmax sums each row in memory order: row-major scores give a
        # row of a batch the bits the same row gets on its own
        return softmax(np.ascontiguousarray(raw))

    def predict(self, X, schema: Optional[str] = None):
        """(the codebook label of each row's most probable class, the
        probability rows) for a feature matrix or one feature row.
        ``schema`` is the hash of the rows' feature layout, checked against
        the model's; without it the rows are checked by width only."""
        if schema is not None and self.schema_hash is not None \
                and schema != self.schema_hash:
            raise SchemaMismatch(
                f"feature schema {schema} does not match model schema "
                f"{self.schema_hash}"
            )
        probs = self.predict_proba(X)
        return [self.codebook[int(c)] for c in np.argmax(probs, axis=1)], probs


def model_to_dict(model: TreeEnsembleModel) -> dict:
    """The file form: ``trees`` holds the packed arrays as parallel lists,
    ``value`` flattened to ``width`` numbers per node."""
    p = model.packed
    trees = {a: getattr(p, a).ravel().tolist() for a in PackedTrees.NODE_ARRAYS}
    trees["offsets"] = p.offsets.tolist()
    return {
        "version": FILE_VERSION,
        "kind": model.kind,
        "codebook": list(model.codebook),
        "config": model.config,
        "n_features": model.n_features,
        "schema_hash": model.schema_hash,
        "metadata": model.metadata,
        "trees": trees,
    }


def _array(trees: dict, name: str, integer: bool) -> np.ndarray:
    a = np.asarray(trees[name], dtype=None if integer else np.float64)
    if a.ndim != 1 or (integer and a.size and a.dtype.kind != "i"):
        raise SchemaMismatch(
            f"trees.{name} is not a list of {'integers' if integer else 'numbers'}")
    return a.astype(np.int64) if integer else a


def _packed_from_dict(trees: dict, n_features: int, width: int) -> PackedTrees:
    """The checked arrays of a file's ``trees`` (see ``model_from_dict``)."""
    offsets = _array(trees, "offsets", True)
    arrays = {a: _array(trees, a, a in PackedTrees.INT_ARRAYS)
              for a in PackedTrees.NODE_ARRAYS}
    feature, threshold = arrays["feature"], arrays["threshold"]
    n_nodes = feature.shape[0]
    if any(arrays[a].shape[0] != n_nodes for a in arrays if a != "value"):
        raise SchemaMismatch("the node arrays differ in length")
    if arrays["value"].shape[0] != n_nodes * width:
        raise SchemaMismatch(f"a leaf does not hold {width} values")
    if not np.isfinite(arrays["value"]).all():
        raise SchemaMismatch("a leaf value is not finite")
    arrays["value"] = arrays["value"].reshape(n_nodes, width)
    sizes = np.diff(offsets)
    if offsets.shape[0] < 1 or offsets[0] != 0 or offsets[-1] != n_nodes \
            or (sizes < 1).any():
        raise SchemaMismatch(f"tree offsets do not split {n_nodes} nodes into trees")
    if ((feature < -1) | (feature >= n_features)).any():
        raise SchemaMismatch(f"a split feature is outside [0, {n_features})")
    split = feature >= 0
    if not np.isfinite(threshold[split]).all():
        raise SchemaMismatch("a split threshold is not finite")
    node = np.arange(n_nodes)
    tree_end = np.repeat(offsets[1:], sizes)
    for child in (arrays["left"], arrays["right"]):
        # children come after their split and inside its tree, so every walk
        # ends; a leaf has none
        if (split & ((child <= node) | (child >= tree_end))).any():
            raise SchemaMismatch("a child index is not after its split inside its tree")
        if (~split & (child != -1)).any():
            raise SchemaMismatch("a leaf has a child index")
    return PackedTrees(offsets, **arrays)


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def model_from_dict(d: dict) -> TreeEnsembleModel:
    """Rebuild a model, raising ``SchemaMismatch`` for a version other than
    ``FILE_VERSION``, an unknown kind, an empty codebook, node arrays that
    are not integer or number lists of one length, tree offsets that do not
    split the nodes, a split feature outside [0, n_features), a non-finite
    threshold, a child index that is not after its split inside its tree, a
    leaf with a child, a non-finite leaf value, a leaf width other than the
    class count (CART) or 1 (GBC), a CART model that is not one tree, a GBC
    stage whose width is not the class count, a GBC ``learning_rate`` that
    is not a number in (0, 1], or a GBC ``init_raw`` that is not one finite
    number per class."""
    if d.get("version") != FILE_VERSION:
        raise SchemaMismatch(f"unsupported model file version {d.get('version')!r}")
    kind, n_features, k = d["kind"], d["n_features"], len(d["codebook"])
    if kind not in ("CART", "GBC"):
        raise SchemaMismatch(f"unknown model kind {kind!r}")
    if not k:
        raise SchemaMismatch("the codebook is empty")
    try:
        packed = _packed_from_dict(d["trees"], n_features, 1 if kind == "GBC" else k)
    except SchemaMismatch:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"malformed tree arrays: {exc!r}") from exc
    if kind == "GBC":
        if packed.n_trees % k:
            raise SchemaMismatch(f"a boosting stage is not {k} wide")
        rate, init = d["config"].get("learning_rate"), d["metadata"].get("init_raw")
        if not (_real(rate) and 0 < rate <= 1):
            raise SchemaMismatch(f"learning_rate {rate!r} is not a number in (0, 1]")
        if not (isinstance(init, list) and len(init) == k
                and all(_real(v) and math.isfinite(v) for v in init)):
            raise SchemaMismatch(f"init_raw is not {k} finite numbers")
    elif packed.n_trees != 1:
        raise SchemaMismatch(f"a CART model holds {packed.n_trees} trees, not 1")
    return TreeEnsembleModel(
        kind=kind,
        packed=packed,
        codebook=d["codebook"],
        config=d["config"],
        n_features=n_features,
        metadata=d["metadata"],
        schema_hash=d.get("schema_hash"),
    )
