"""Shared fixtures: session-scoped reference corpus and trained pipeline.

The reference corpus and the pipeline trained on it are expensive, so they
are built once per session and reused by the pipeline, CLI, and acceptance
tests. Seeds are frozen here; every value asserted downstream is
reproducible from them.
"""

import time

import pytest

from diffsentry.pipeline import TrainConfig, save_pipeline, train_pipeline
from diffsentry.wavegen.corpus import generate_corpus, reference_plan

CORPUS_SEED = 7
TRAIN_SEED = 11
CASES_PER_CLASS = 120
FAULT_CASES = 468


@pytest.fixture(scope="session")
def reference_corpus(tmp_path_factory):
    """Seeded reference corpus; yields (dir, manifest, build_seconds)."""
    out = tmp_path_factory.mktemp("reference_corpus")
    plan = reference_plan(cases_per_class=CASES_PER_CLASS, fault_cases=FAULT_CASES)
    start = time.perf_counter()
    manifest = generate_corpus(plan, CORPUS_SEED, out)
    elapsed = time.perf_counter() - start
    return out, manifest, elapsed


@pytest.fixture(scope="session")
def trained_pipeline(reference_corpus):
    """Pipeline trained on the reference corpus; yields (model, train_seconds)."""
    corpus_dir, manifest, _ = reference_corpus
    config = TrainConfig(seed=TRAIN_SEED)
    start = time.perf_counter()
    model = train_pipeline(corpus_dir, manifest, config)
    elapsed = time.perf_counter() - start
    return model, elapsed


@pytest.fixture(scope="session")
def saved_model(tmp_path_factory, trained_pipeline):
    """The trained reference pipeline saved as a model file; yields its path."""
    model, _ = trained_pipeline
    path = tmp_path_factory.mktemp("model") / "pipeline.json"
    save_pipeline(model, path)
    return path


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """A smaller corpus with full fault-class coverage (uncapped fault grid)."""
    out = tmp_path_factory.mktemp("small_corpus")
    plan = reference_plan(cases_per_class=12, fault_cases=468)
    manifest = generate_corpus(plan, 3, out)
    return out, manifest
