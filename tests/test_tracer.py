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
