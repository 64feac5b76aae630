"""Shared trained-model container, prediction, and the versioned dict form."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..errors import SchemaMismatch
from .cart import Node, tree_values

FILE_VERSION = 1


@dataclass
class TreeEnsembleModel:
    """Trained CART / RF / GBC model with its class codebook and metadata.

    Immutable after fit by convention; safe to share across threads for
    prediction. ``schema_hash`` pins the feature layout the model expects.
    """

    kind: str                    # "CART" | "RF" | "GBC"
    trees: list                  # CART/RF: [Node]; GBC: [[Node per class] per stage]
    codebook: list
    config: dict
    n_features: int
    metadata: dict = field(default_factory=dict)
    schema_hash: Optional[str] = None

    def trees_flat(self):
        if self.kind == "GBC":
            for stage in self.trees:
                yield from stage
        else:
            yield from self.trees

    def first_stages(self, n: int) -> "TreeEnsembleModel":
        """The first ``n`` boosting stages of a GBC model. A fit is a stage
        prefix of any longer fit with the same data and seed, so this equals
        ``gbc_fit`` at ``n_estimators=n``."""
        if self.kind != "GBC" or not 0 <= n <= len(self.trees):
            raise ValueError(
                f"no {n}-stage prefix of a {self.kind} model "
                f"with {len(self.trees)} stages")
        return replace(
            self,
            trees=self.trees[:n],
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
        if self.kind == "CART":
            return tree_values(self.trees[0], X)
        if self.kind == "RF":
            acc = np.zeros((X.shape[0], len(self.codebook)))
            for tree in self.trees:
                acc += tree_values(tree, X)
            return acc / len(self.trees)
        # GBC: raw scores -> softmax
        from .gbc import softmax

        scores = np.tile(np.asarray(self.metadata["init_raw"]), (X.shape[0], 1))
        lr = self.config["learning_rate"]
        for stage in self.trees:
            for cls, tree in enumerate(stage):
                scores[:, cls] += lr * tree_values(tree, X)[:, 0]
        return softmax(scores)

    def predict_labels(self, X) -> list:
        """The codebook label of each row's most probable class."""
        codes = np.argmax(self.predict_proba(X), axis=1)
        return [self.codebook[int(c)] for c in codes]


def predict(model: TreeEnsembleModel, features):
    """(predicted label, probability vector) for one feature vector."""
    probs = model.predict_proba(_coerce(model, features))[0]
    return model.codebook[int(np.argmax(probs))], probs


def _coerce(model: TreeEnsembleModel, features):
    # FeatureVector instances carry their own schema hash; raw arrays are
    # checked by width only
    schema = getattr(features, "schema", None)
    if schema is not None:
        if model.schema_hash is not None and schema != model.schema_hash:
            raise SchemaMismatch(
                f"feature schema {schema} does not match model schema "
                f"{model.schema_hash}"
            )
        return np.asarray(features.values, dtype=np.float64)
    return np.asarray(features, dtype=np.float64)


def model_to_dict(model: TreeEnsembleModel) -> dict:
    if model.kind == "GBC":
        trees = [[t.to_dict() for t in stage] for stage in model.trees]
    else:
        trees = [t.to_dict() for t in model.trees]
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


def model_from_dict(d: dict) -> TreeEnsembleModel:
    """Rebuild a model, raising ``SchemaMismatch`` for an unknown version or
    kind, a split feature outside [0, n_features), a non-finite threshold,
    a leaf width other than the class count (CART/RF) or 1 (GBC), or a GBC
    stage or ``init_raw`` whose width is not the class count."""
    if d.get("version") != FILE_VERSION:
        raise SchemaMismatch(f"unsupported model file version {d.get('version')!r}")
    kind, n_features, k = d["kind"], d["n_features"], len(d["codebook"])
    if kind == "GBC":
        stages = d["trees"]
        if len(d["metadata"]["init_raw"]) != k or any(len(s) != k for s in stages):
            raise SchemaMismatch(f"a boosting stage or init_raw is not {k} wide")
        trees = [[Node.from_dict(t, n_features, 1) for t in s] for s in stages]
    elif kind in ("CART", "RF"):
        trees = [Node.from_dict(t, n_features, k) for t in d["trees"]]
    else:
        raise SchemaMismatch(f"unknown model kind {kind!r}")
    return TreeEnsembleModel(
        kind=kind,
        trees=trees,
        codebook=d["codebook"],
        config=d["config"],
        n_features=n_features,
        metadata=d["metadata"],
        schema_hash=d.get("schema_hash"),
    )
