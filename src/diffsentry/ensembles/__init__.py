"""From-scratch tree ensembles: CART, random forest, gradient boosting."""

from .cart import (
    CartConfig,
    Node,
    cart_fit,
    entropy_impurity,
    gini_impurity,
)
from .forest import ForestConfig, forest_fit
from .gbc import GBC_GRID_FULL, GBC_GRID_SMALL, GbcConfig, gbc_fit, multinomial_deviance, softmax
from .model import TreeEnsembleModel, predict

__all__ = [
    "CartConfig",
    "Node",
    "cart_fit",
    "entropy_impurity",
    "gini_impurity",
    "ForestConfig",
    "forest_fit",
    "GbcConfig",
    "gbc_fit",
    "softmax",
    "multinomial_deviance",
    "GBC_GRID_SMALL",
    "GBC_GRID_FULL",
    "TreeEnsembleModel",
    "predict",
]
