"""Span recording around calls into diffsentry's layers.

Wrappers are installed from outside the package, on the names that callers
actually bind (a module attribute such as ``diffsentry.pipeline.extract``,
or a method on a class). Each call records one span: name, start, end and
parent. Spans live in memory as flat arrays and are written out when the
run ends. Self time is a span's duration minus the time its child spans
cover, so no second is counted in two layers.

A binding that no longer exists (a function renamed or moved by a later
refactor) is skipped, and the metrics it fed are reported as absent; it
never stops the run.
"""

from __future__ import annotations

import array
import functools
import importlib
import os
import time

LAYERS = ("wavegen", "sampling", "detector", "features", "ensembles",
          "evaluation", "pipeline")

TASKS = ("DetectFault", "LocateUnit", "IdentifySeries", "IdentifyExciting",
         "IdentifyPT", "IdentifyDisturbance")


class Tracer:
    """In-memory span store with a stack of open spans.

    Spans are stamped with ``clock``, CPU seconds of the calling thread by
    default, so time the hypervisor gives to other tenants is not charged
    to whichever layer happened to be running.
    """

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.self_time = array.array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []   # [span index, seconds covered by children]

    def open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([len(self.start), 0.0])
        self.end.append(0.0)
        self.self_time.append(0.0)
        self.start.append(self.clock())

    def close(self) -> None:
        now = self.clock()
        idx, child = self._stack.pop()
        self.end[idx] = now
        duration = now - self.start[idx]
        self.self_time[idx] = duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> dict:
        """span name -> (calls, self seconds)."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, st in zip(self.name_id, self.self_time):
            calls[nid] += 1
            self_s[nid] += st
        return {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Dump every span as an ``index,name,start_s,end_s,parent`` row."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", newline="\n") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                    f"{self.parent[i]}\n"
                )


def _spanned(tracer: Tracer, fn, name, after=None):
    """Wrap ``fn`` so each call is one span. ``name`` is a string or a
    function of the call's arguments; ``after(args, kwargs, result)`` adds
    counts once the call has returned."""
    name_of = name if callable(name) else (lambda args, kwargs: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name_of(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _bindings(tracer: Tracer):
    """(owner, attribute, metric prefix, span name, after hook) per site.

    The owner is a module path or ``module.Class``. A span name that depends
    on the arguments is a function; its prefix names the metrics it feeds.
    """

    def extract_name(args, kwargs):
        return "features.extract." + _arg(args, kwargs, 1, "task").value

    def after_extract(args, kwargs, vec):
        tracer.count("features.extract.ar_fallback", int(vec.ar_fallback))

    def after_detect(args, kwargs, event):
        tracer.count("detector.detect.triggered", int(event.triggered))

    def after_write(args, kwargs, result):
        path = _arg(args, kwargs, 1, "path")
        tracer.count("sampling.write_waveform_csv.bytes", os.path.getsize(path))

    def after_read(args, kwargs, samples):
        tracer.count("sampling.read_waveform_csv.rows", samples.shape[0])

    def after_gbc(args, kwargs, model):
        tracer.count("ensembles.gbc_fit.rows", len(_arg(args, kwargs, 0, "X")))
        tracer.count("ensembles.gbc_fit.trees",
                     sum(len(stage) for stage in model.trees))

    def after_grid(args, kwargs, result):
        tracer.count("evaluation.grid_search.configs", len(result.table))

    def after_proba(args, kwargs, probs):
        tracer.count("ensembles.predict_proba.rows", probs.shape[0])

    def after_save(args, kwargs, result):
        # the size of the last model written, not a sum over saves
        tracer.counts["pipeline.model_bytes"] = os.path.getsize(
            _arg(args, kwargs, 1, "path"))

    corpus = "diffsentry.wavegen.corpus"
    pipe = "diffsentry.pipeline"
    cli = "diffsentry.cli"
    sites = [
        (corpus, "simulate_internal_fault", "wavegen.simulate_internal_fault", None),
        (corpus, "generate_disturbance", "wavegen.generate_disturbance", None),
        ("diffsentry.wavegen.faults", "run_piecewise", "wavegen.run_piecewise", None),
        ("diffsentry.wavegen.noise", "add_noise", "wavegen.add_noise", None),
        (corpus, "write_waveform_csv", "sampling.write_waveform_csv", after_write),
        (pipe, "read_waveform_csv", "sampling.read_waveform_csv", after_read),
        (pipe, "detect", "detector.detect", after_detect),
        ("diffsentry.detector.StreamingDetector", "push",
         "detector.StreamingDetector.push", None),
        (pipe, "extract", "features.extract", after_extract),
        (pipe, "gbc_fit", "ensembles.gbc_fit", after_gbc),
        ("diffsentry.ensembles.model.TreeEnsembleModel", "predict_proba",
         "ensembles.predict_proba", after_proba),
        (pipe, "grid_search", "evaluation.grid_search", after_grid),
        (cli, "train_pipeline", "pipeline.train_pipeline", None),
        (pipe, "train_pipeline", "pipeline.train_pipeline", None),
        (cli, "decide", "pipeline.decide", None),
        (pipe, "decide", "pipeline.decide", None),
        ("diffsentry.pipeline.StreamingClassifier", "push",
         "pipeline.StreamingClassifier.push", None),
        (cli, "load_pipeline", "pipeline.load_pipeline", None),
        (pipe, "load_pipeline", "pipeline.load_pipeline", None),
        (cli, "save_pipeline", "pipeline.model_bytes", after_save),
        (pipe, "save_pipeline", "pipeline.model_bytes", after_save),
        (cli, "detect_noise_study", "pipeline.detect_noise_study", None),
    ]
    return [
        (owner, attr, prefix,
         extract_name if prefix == "features.extract" else prefix, after)
        for owner, attr, prefix, after in sites
    ]


def _resolve(dotted: str):
    """Import ``a.b`` as a module, or ``a.b.C`` as class ``C`` of ``a.b``."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Installed:
    """The wrappers :func:`install` put in place, and the sites it missed."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []
        self.absent_sites: list[str] = []
        self.absent_prefixes: set[str] = set()

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def install(tracer: Tracer) -> Installed:
    installed = Installed()
    found, missing = set(), set()
    for owner_path, attr, prefix, name, after in _bindings(tracer):
        try:
            owner = _resolve(owner_path)
            original = (owner.__dict__ if isinstance(owner, type)
                        else vars(owner))[attr]
        except (ImportError, AttributeError, KeyError):
            original = None
        if not callable(original):
            installed.absent_sites.append(f"{owner_path}.{attr}")
            missing.add(prefix)
            continue
        setattr(owner, attr, _spanned(tracer, original, name, after))
        installed.patched.append((owner, attr, original))
        found.add(prefix)
    # a metric fed from two sites is absent only when both are gone
    installed.absent_prefixes = missing - found
    return installed


def span_cost_s(samples: int = 20000) -> float:
    """Median time one wrapper adds to a call, from a throwaway tracer."""
    probe = Tracer()

    def noop():
        return None

    wrapped = _spanned(probe, noop, "probe")
    costs = []
    for _ in range(5):
        t0 = probe.clock()
        for _ in range(samples):
            noop()
        bare = probe.clock() - t0
        t0 = probe.clock()
        for _ in range(samples):
            wrapped()
        costs.append((probe.clock() - t0 - bare) / samples)
    costs.sort()
    return costs[len(costs) // 2]


_SPAN_METRICS = (
    "wavegen.simulate_internal_fault", "wavegen.run_piecewise",
    "wavegen.generate_disturbance", "wavegen.add_noise",
    "sampling.write_waveform_csv", "sampling.read_waveform_csv",
    "detector.detect", "detector.StreamingDetector.push",
    *(f"features.extract.{task}" for task in TASKS),
    "ensembles.gbc_fit", "ensembles.predict_proba", "evaluation.grid_search",
    "pipeline.decide", "pipeline.StreamingClassifier.push",
)
_SELF_ONLY = ("pipeline.train_pipeline", "pipeline.load_pipeline",
              "pipeline.detect_noise_study")
_COUNTS = (
    ("sampling.write_waveform_csv.bytes", "B"),
    ("sampling.read_waveform_csv.rows", "count"),
    ("ensembles.gbc_fit.trees", "count"),
    ("ensembles.gbc_fit.rows", "count"),
    ("ensembles.predict_proba.rows", "count"),
    ("evaluation.grid_search.configs", "count"),
    ("pipeline.model_bytes", "B"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric a traced run reports."""
    specs = []
    for name in _SPAN_METRICS:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    specs += [(f"{name}.self_s", "s", "lower") for name in _SELF_ONLY]
    specs += [(name, unit, "lower") for name, unit in _COUNTS]
    specs += [("detector.detect.triggered_ratio", "ratio", "higher"),
              ("features.extract.ar_fallback_ratio", "ratio", "lower")]
    specs += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [("trace.spans", "count", "lower"), ("trace.span_cost_us", "us", "lower")]
    return specs


def layer_metrics(tracer: Tracer, installed: Installed, span_cost: float):
    """Every per-layer metric derived from the spans and counts.

    Returns ``(values, absent)``: metrics fed only by missing bindings are
    listed in ``absent`` instead of being given a value.
    """
    totals = tracer.totals()
    counts = tracer.counts
    out = {}
    for name in _SPAN_METRICS + _SELF_ONLY:
        calls, self_s = totals.get(name, (0, 0.0))
        if name not in _SELF_ONLY:
            out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name, _ in _COUNTS:
        out[name] = counts.get(name, 0)
    n_detect = totals.get("detector.detect", (0, 0.0))[0]
    out["detector.detect.triggered_ratio"] = (
        counts.get("detector.detect.triggered", 0) / n_detect if n_detect else 0.0)
    n_extract = sum(n for name, (n, _) in totals.items()
                    if name.startswith("features.extract."))
    out["features.extract.ar_fallback_ratio"] = (
        counts.get("features.extract.ar_fallback", 0) / n_extract
        if n_extract else 0.0)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            s for name, (_, s) in totals.items() if name.split(".")[0] == layer)
    out["trace.spans"] = len(tracer)
    out["trace.span_cost_us"] = span_cost * 1e6

    absent = sorted(k for k in out
                    if any(k.startswith(p + ".") for p in installed.absent_prefixes)
                    or k in installed.absent_prefixes)
    return {k: v for k, v in out.items() if k not in absent}, absent
