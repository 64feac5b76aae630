"""From-scratch tree ensembles: CART and gradient boosting."""

from .cart import (
    CartConfig,
    PackedTrees,
    cart_fit,
    gini_impurity,
)
from .gbc import GBC_GRID_FULL, GBC_GRID_SMALL, GbcConfig, gbc_fit, multinomial_deviance, softmax
from .model import TreeEnsembleModel

__all__ = [
    "CartConfig",
    "PackedTrees",
    "cart_fit",
    "gini_impurity",
    "GbcConfig",
    "gbc_fit",
    "softmax",
    "multinomial_deviance",
    "GBC_GRID_SMALL",
    "GBC_GRID_FULL",
    "TreeEnsembleModel",
]
