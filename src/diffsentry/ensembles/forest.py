"""Bootstrap-aggregated classification trees with per-node feature subsets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cart import CartConfig, grow_classification_tree, training_matrix


@dataclass(frozen=True)
class ForestConfig:
    n_estimators: int = 50
    max_depth: Optional[int] = None
    max_features: Union[int, str, None] = "sqrt"   # int, "sqrt", or None for all
    bootstrap: bool = True
    seed: int = 0
    impurity: str = "gini"
    min_samples_split: int = 2

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")

    def resolve_max_features(self, n_features: int) -> Optional[int]:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        m = int(self.max_features)
        if m < 1:
            raise ValueError("max_features must be >= 1")
        return min(m, n_features)


def forest_fit(X, y, cfg: ForestConfig = ForestConfig()):
    """Trees on bootstrap resamples; deterministic under cfg.seed because
    every tree draws from its own (seed, tree_index) stream."""
    from .model import TreeEnsembleModel

    X = training_matrix(X)
    y = np.asarray(y)
    codebook, y_codes = np.unique(y, return_inverse=True)
    k = len(codebook)
    cart_cfg = CartConfig(
        max_depth=cfg.max_depth,
        impurity=cfg.impurity,
        min_samples_split=cfg.min_samples_split,
    )
    max_features = cfg.resolve_max_features(X.shape[1])
    n = X.shape[0]
    trees = []
    for t in range(cfg.n_estimators):
        rng = np.random.default_rng([cfg.seed, t])
        rows = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        trees.append(
            grow_classification_tree(
                X[rows], y_codes[rows], k, cart_cfg,
                rng=rng, max_features=max_features,
            )
        )
    return TreeEnsembleModel(
        kind="RF",
        trees=trees,
        codebook=[c.item() if hasattr(c, "item") else c for c in codebook],
        config={
            "n_estimators": cfg.n_estimators,
            "max_depth": cfg.max_depth,
            "max_features": cfg.max_features,
            "bootstrap": cfg.bootstrap,
            "impurity": cfg.impurity,
            "min_samples_split": cfg.min_samples_split,
        },
        n_features=X.shape[1],
        metadata={"seed": cfg.seed},
    )

