"""From-scratch tree ensembles: CART and gradient boosting."""

from .cart import (
    CartConfig,
    Node,
    PackedTrees,
    cart_fit,
    entropy_impurity,
    gini_impurity,
    pack,
)
from .gbc import GBC_GRID_FULL, GBC_GRID_SMALL, GbcConfig, gbc_fit, multinomial_deviance, softmax
from .model import TreeEnsembleModel, predict

__all__ = [
    "CartConfig",
    "Node",
    "PackedTrees",
    "cart_fit",
    "entropy_impurity",
    "gini_impurity",
    "pack",
    "GbcConfig",
    "gbc_fit",
    "softmax",
    "multinomial_deviance",
    "GBC_GRID_SMALL",
    "GBC_GRID_FULL",
    "TreeEnsembleModel",
    "predict",
]
