"""The benchmark tracer against the program it wraps: every binding it
installs still exists, and its tree count is the packed tree count."""

import importlib.util
import os

import numpy as np

from diffsentry import pipeline
from diffsentry.ensembles import GbcConfig, gbc_fit

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark",
                       "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_gbc_fit_counts_every_packed_tree():
    tracing = _tracing()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        y = np.arange(40) % 4
        model = pipeline.gbc_fit(X, y, GbcConfig(n_estimators=3, max_depth=2))
    finally:
        installed.remove()
    assert installed.absent_sites == []
    assert pipeline.gbc_fit is gbc_fit
    assert tracer.counts["ensembles.gbc_fit.trees"] == model.packed.n_trees == 12


def test_traced_grid_search_sees_every_fit():
    # two groups of points (max_depth 1 and 2) over two folds, plus the refit
    tracing = _tracing()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 3))
        y = np.arange(30) % 3
        config = pipeline.TrainConfig(grid={"n_estimators": [2, 4],
                                            "max_depth": [1, 2],
                                            "learning_rate": [0.1]}, cv_k=2)
        pipeline.grid_search(X, y, config)
    finally:
        installed.remove()
    assert installed.absent_sites == []
    assert tracer.totals()["ensembles.gbc_fit"][0] == 5
    assert tracer.totals()["evaluation.grid_search"][0] == 1
    assert tracer.counts["evaluation.grid_search.configs"] == 4
