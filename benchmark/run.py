#!/usr/bin/env python3
"""diffsentry benchmark: the offline research workflow and the relay path.

    python3 benchmark/run.py --workload {offline,relay} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout, in this one single-threaded process; it is driven only from
outside, through ``diffsentry.cli.main`` and public library functions.

Both workloads run the same four steps a user runs (generate a corpus,
train the six-slot pipeline, evaluate it, then decide on waveforms in
batch and as a sample stream), so every end-to-end metric exists on both.
They differ in where the work sits; see benchmark/README.md.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` a wrapper records a
span around each call into a layer and the metrics are the per-layer ones.
The full record of a run (machine, seeds, digests, per-task accuracy,
raw CPU times, every metric) is written to ``.bench_out/``. The exit status
is 1 when a correctness check fails, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

# One thread everywhere: timings must not depend on how many cores a BLAS
# call happens to grab on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Seeds, each overridable. --seed N shifts the seeds of the inputs that
# vary from run to run: the noise evaluate adds (offline) and the relay set
# (relay). The corpus and train seeds fix the corpus and the trained model,
# so the holdout accuracies move only when the code does; a claimed gain is
# confirmed on --seed 1000 .. 1009 with --corpus-seed 1007 (README).
SEED_BASE = {"corpus": 7, "train": 11, "noise": 0, "relay": 101}
INPUT_SEEDS = {"offline": ("noise",), "relay": ("relay",)}

SETUP_REPEATS = {"offline": 7, "relay": 3}
MODEL_LOADS = 30            # model_load_s is the median of this many loads

# offline: the researcher's generate -> train -> evaluate -> classify
OFFLINE_FAULT_GRID = {"resistance_ohm": (0.01, 0.5), "pct_winding": (20.0, 80.0),
                      "inception_step": (0,)}          # 4 per (unit, fault type)
OFFLINE_DISTURBANCES = 20                               # per disturbance class
OFFLINE_CV = 3
OFFLINE_GRID = {"n_estimators": [2, 4, 8], "max_depth": [3],
                "learning_rate": [0.1]}
OFFLINE_SNR = "inf,10"
OFFLINE_CLASSIFY_PASSES = 3                             # over the holdout files

# relay: commission a model once, then decide on unseen waveforms
RELAY_TRAIN_FAULT_GRID = {"resistance_ohm": (0.01, 10.0), "pct_winding": (80.0,),
                          "inception_step": (0, 6)}    # 4 per (unit, fault type)
RELAY_TRAIN_DISTURBANCES = 10
RELAY_CV = 2
RELAY_GRID = {"n_estimators": [10], "max_depth": [3], "learning_rate": [0.1]}
RELAY_SNR = "30"
RELAY_SET = {"cases_per_class": 17, "fault_cases": 102}
RELAY_SET_FAULT_INCEPTION = (3, 9)      # training faults use steps 0 and 6

GATED_TASKS = ("DetectFault", "LocateUnit", "IdentifyDisturbance")
IDENTIFY_TASKS = ("IdentifySeries", "IdentifyExciting", "IdentifyPT")

# name, unit, better, what it measures
END_TO_END = (
    ("setup_s", "s", "lower", "median of the workload's repeated set-up"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory of the process"),
    ("generate_s", "s", "lower", "corpus generation (CSV write)"),
    ("train_s", "s", "lower", "pipeline training"),
    ("evaluate_s", "s", "lower", "`diffsentry evaluate` with a noise sweep"),
    ("model_load_s", "s", "lower", "median load_pipeline"),
    ("holdout_bal_acc_min", "ratio", "higher",
     "min holdout balanced accuracy of DetectFault, LocateUnit, "
     "IdentifyDisturbance"),
    ("holdout_bal_acc_identify", "ratio", "higher",
     "mean holdout balanced accuracy of the three Identify slots"),
    ("trip_decide_ms_p50", "ms", "lower", "decide() returning Trip, p50"),
    ("trip_decide_ms_p90", "ms", "lower", "decide() returning Trip, p90"),
    ("restrain_decide_ms_p50", "ms", "lower", "decide() returning Restrain, p50"),
    ("verdict_stall_ms_p50", "ms", "lower",
     "the push that emits the verdict record, p50"),
    ("verdict_stall_ms_p90", "ms", "lower",
     "the push that emits the verdict record, p90"),
    ("push_us_p50", "us", "lower", "StreamingClassifier.push, p50"),
    ("verdict_accuracy", "ratio", "higher",
     "faults give Trip; disturbances give Restrain or NoEvent"),
)


class Run:
    """What one workload run measured, checked and produced.

    Each timing is kept twice: in reference seconds (``samples``, what the
    metrics report; see speed.py) and in raw CPU seconds (``raw``).
    """

    def __init__(self, speed):
        self.speed = speed
        self.samples: dict[str, list] = {}
        self.raw: dict[str, list] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.holdout: dict[str, float] = {}
        self.verdicts = [0, 0]          # [correct, total] on the first pass
        self.notes: dict[str, object] = {}

    def add(self, key: str, value: float, raw: float) -> None:
        self.samples.setdefault(key, []).append(value)
        self.raw.setdefault(key, []).append(raw)

    def extend(self, key: str, raws: list, factor: float) -> None:
        """Record many raw times that share one rescaling factor."""
        self.raw.setdefault(key, []).extend(raws)
        self.samples.setdefault(key, []).extend(r * factor for r in raws)

    def timed(self, key: str, fn, *args, **kwargs):
        """Run ``fn`` once, record its time under ``key``, return its result."""
        result, value, raw = self.speed.timed(fn, *args, **kwargs)
        self.add(key, value, raw)
        return result

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def digest(self, name: str, data: bytes) -> None:
        """Record a SHA-256; a second value for the same name must agree."""
        value = hashlib.sha256(data).hexdigest()
        if name in self.digests:
            self.check(self.digests[name] == value,
                       f"{name} differs between iterations of one run")
        self.digests[name] = value


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``diffsentry.cli.main`` in-process, capturing what it prints."""
    from diffsentry import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- corpus plans ------------------------------------------------------------

def _plan(fault_grid: dict, fault_cap, disturbances: int, inception_half=None,
          base=None):
    """A slice of the reference plan.

    Faults take the reference grid with ``fault_grid`` substituted; each
    disturbance class keeps its grid, capped at ``disturbances`` seeded
    draws. ``inception_half`` 0 or 1 keeps every other disturbance
    inception step, so plans built from the two halves share no waveform.
    """
    from diffsentry.wavegen.corpus import CorpusPlan, reference_plan

    base = base or reference_plan()
    classes = []
    for i, cp in enumerate(base.classes):
        grid = dict(cp.grid)
        if i == 0:
            grid.update(fault_grid)
        elif inception_half is not None:
            grid["inception_step"] = tuple(grid["inception_step"])[inception_half::2]
        cap = fault_cap if i == 0 else disturbances
        classes.append(dataclasses.replace(cp, grid=grid, cap=cap))
    return CorpusPlan(classes=tuple(classes), duration_cycles=base.duration_cycles)


# -- steps shared by both workloads ------------------------------------------

def _evaluate(run: Run, corpus_dir, model_path, out_dir, seed, snr) -> None:
    rc, text = run.timed("evaluate_s", _quiet_cli, [
        "evaluate", "--corpus", corpus_dir, "--model", model_path,
        "--out", out_dir, "--seed", str(seed), "--snr", snr])
    report_path = os.path.join(out_dir, "report.json")
    report = None
    if os.path.exists(report_path):
        with open(report_path) as fh:
            report = json.load(fh)
    # a missed holdout threshold is a quality result, not a failure
    ok = report is not None and rc == (0 if report["passed"] else 1)
    if not run.check(ok, f"evaluate exited {rc}: {text[-500:]}"):
        return
    run.notes["thresholds_passed"] = report["passed"]
    run.digest("report.json", _file_bytes(report_path))
    run.digest("predictions.csv", _file_bytes(os.path.join(out_dir, "predictions.csv")))
    for task in GATED_TASKS + IDENTIFY_TASKS:
        ba = report["holdout_metrics"].get(task, {}).get("balanced_accuracy")
        if run.check(ba is not None, f"no holdout balanced accuracy for {task}"):
            run.holdout[task] = ba


def _load_model(run: Run, model_path):
    from diffsentry import pipeline

    for _ in range(MODEL_LOADS):
        model = run.timed("model_load_s", pipeline.load_pipeline, model_path)
    return model


def _outcome(record: dict | None) -> tuple:
    """Verdict, unit and type of a decision record; no record is NoEvent."""
    if record is None:
        return ("NoEvent", None, None, None)
    return (record["verdict"], record["fault_unit"], record["fault_type"],
            record["disturbance_type"])


def _classify(run: Run, model, waves, first_pass: bool) -> None:
    """decide() each waveform, then stream it sample by sample.

    ``waves`` holds ``(name, is_fault, samples)``. Every stream's full
    record must match the batch decision.
    """
    from diffsentry import pipeline

    speed = run.speed
    clock = speed.cpu
    records = []
    correct = 0
    mark, mark_cpu = speed.now(), clock()
    for name, is_fault, samples in waves:
        t0 = clock()
        decision = pipeline.decide(samples, model)
        decide_cpu = clock() - t0

        stream = pipeline.StreamingClassifier(model)
        push = stream.push
        full = None
        emitted = []
        pushes = []
        stalls = []
        for row in samples:
            t0 = clock()
            out = push(row)
            took = clock() - t0
            pushes.append(took)
            if out:
                for rec in out:
                    if rec["stage"] == "verdict":
                        stalls.append(took)
                    else:
                        full = rec
                emitted.extend(out)

        # one rescaling factor per waveform, from the kernel samples around it
        previous, previous_cpu = mark, mark_cpu
        mark, mark_cpu = speed.now(), clock()
        factor = (mark - previous) / (mark_cpu - previous_cpu)
        # split by the path taken: a Trip drills down to unit and type, so
        # the two verdicts are two latency modes
        if decision.verdict in ("Trip", "Restrain"):
            key = "trip_decide_ms" if decision.verdict == "Trip" else "restrain_decide_ms"
            run.extend(key, [decide_cpu * 1e3], factor)
        run.extend("push_us", [t * 1e6 for t in pushes], factor)
        run.extend("verdict_stall_ms", [t * 1e3 for t in stalls], factor)

        batch = decision.to_dict()
        run.check(_outcome(full) == _outcome(batch),
                  f"{name}: stream gave {_outcome(full)}, decide {_outcome(batch)}")
        correct += (decision.verdict == "Trip") == is_fault
        if first_pass:
            records.append({"name": name, "decide": batch, "stream": emitted})
    if first_pass:
        run.verdicts[0] += correct
        run.verdicts[1] += len(waves)
        run.digest("decisions.json", json.dumps(records, sort_keys=True).encode())


# -- workloads ---------------------------------------------------------------

def _cold_import():
    """Start a fresh interpreter that imports the CLI, as each command does;
    returns nothing, the child's CPU time is read by the caller."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import diffsentry.cli"], env=env,
                   check=True, timeout=120)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def offline(args, seeds, work, run: Run) -> None:
    """generate -> train -> evaluate -> classify, repeated for --seconds.

    Set-up is the start-up each CLI command pays: a fresh interpreter
    importing ``diffsentry.cli``, which the in-process loop never sees.
    """
    from diffsentry import pipeline
    from diffsentry.sampling import read_waveform_csv
    from diffsentry.wavegen.corpus import generate_corpus

    _cold_import()                        # compile the byte code once
    for _ in range(SETUP_REPEATS["offline"]):
        # the parent waits while the child runs, so the kernel samples around
        # the wait give the speed the child ran at
        run.speed.sample()
        before = _children_cpu_s()
        _cold_import()
        raw = _children_cpu_s() - before
        run.speed.sample()
        run.add("setup_s", raw * run.speed.factor(), raw)

    plan = _plan(OFFLINE_FAULT_GRID, None, OFFLINE_DISTURBANCES)
    grid_path = os.path.join(work, "grid.json")
    with open(grid_path, "w") as fh:
        json.dump({"grid": OFFLINE_GRID}, fh)

    started = time.perf_counter()
    iteration = 0
    while iteration == 0 or time.perf_counter() - started < args.seconds:
        d = os.path.join(work, f"iter{iteration}")
        corpus_dir = os.path.join(d, "corpus")
        model_path = os.path.join(d, "pipeline.json")

        manifest = run.timed("generate_s", generate_corpus, plan, seeds["corpus"],
                             corpus_dir)
        run.digest("manifest.json", _file_bytes(os.path.join(corpus_dir, "manifest.json")))

        rc, text = run.timed("train_s", _quiet_cli, [
            "train", "--corpus", corpus_dir, "--out", model_path,
            "--seed", str(seeds["train"]), "--cv", str(OFFLINE_CV),
            "--config", grid_path])
        if not run.check(rc == 0, f"train exited {rc}: {text[-500:]}"):
            break
        run.digest("pipeline.json", _file_bytes(model_path))

        _evaluate(run, corpus_dir, model_path, os.path.join(d, "report"),
                  seeds["noise"], OFFLINE_SNR)

        model = _load_model(run, model_path)
        holdout = set(model.metadata["holdout_files"])
        waves = [
            (row["file"], row["kind"] == "InternalFault",
             read_waveform_csv(os.path.join(corpus_dir, row["file"])))
            for row in manifest if row["file"] in holdout
        ]
        for p in range(OFFLINE_CLASSIFY_PASSES):
            _classify(run, model, waves, first_pass=iteration == 0 and p == 0)
        shutil.rmtree(d)
        iteration += 1
    run.notes["iterations"] = iteration


def relay(args, seeds, work, run: Run) -> None:
    """Commission a model once, then decide on unseen waveforms for --seconds.

    Commissioning generates a small stratified corpus, trains, saves and
    evaluates. Set-up, repeated, is what a relay does before its first
    sample: load the model file and hold the input waveforms in memory.
    """
    from diffsentry import pipeline
    from diffsentry.sampling import SamplingSpec
    from diffsentry.wavegen.corpus import (build_case, enumerate_plan,
                                           generate_corpus, reference_plan)

    corpus_dir = os.path.join(work, "corpus")
    model_path = os.path.join(work, "pipeline.json")
    train_plan = _plan(RELAY_TRAIN_FAULT_GRID, None, RELAY_TRAIN_DISTURBANCES,
                       inception_half=0)
    manifest = run.timed("generate_s", generate_corpus, train_plan, seeds["corpus"],
                         corpus_dir)
    run.digest("manifest.json", _file_bytes(os.path.join(corpus_dir, "manifest.json")))

    config = pipeline.TrainConfig(grid=RELAY_GRID, cv_k=RELAY_CV, seed=seeds["train"])
    model = run.timed("train_s", pipeline.train_pipeline, corpus_dir, manifest, config)
    pipeline.save_pipeline(model, model_path)
    run.digest("pipeline.json", _file_bytes(model_path))
    _evaluate(run, corpus_dir, model_path, os.path.join(work, "report"),
              seeds["noise"], RELAY_SNR)

    relay_plan = _plan({"inception_step": RELAY_SET_FAULT_INCEPTION},
                       RELAY_SET["fault_cases"], RELAY_SET["cases_per_class"],
                       inception_half=1, base=reference_plan(**RELAY_SET))
    spec = SamplingSpec()

    def set_up():
        model = pipeline.load_pipeline(model_path)
        waves = [
            (f"{class_name}_{case_idx:05d}", class_name == "InternalFault",
             build_case(class_name, params, spec, relay_plan.duration_cycles).samples)
            for _, class_name, case_idx, params, _ in enumerate_plan(relay_plan,
                                                                   seeds["relay"])
        ]
        return model, waves

    for _ in range(SETUP_REPEATS["relay"]):
        model, waves = run.timed("setup_s", set_up)
    _load_model(run, model_path)
    run.notes["relay_faults"] = sum(1 for w in waves if w[1])
    run.notes["relay_disturbances"] = sum(1 for w in waves if not w[1])

    started = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - started < args.seconds:
        _classify(run, model, waves, first_pass=passes == 0)
        passes += 1
    run.notes["passes"] = passes


WORKLOADS = {"offline": offline, "relay": relay}


# -- reporting ---------------------------------------------------------------

def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(run: Run) -> dict:
    s = run.samples

    def med(key):
        return _percentile(s[key], 50)

    return {
        "setup_s": med("setup_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "generate_s": med("generate_s"),
        "train_s": med("train_s"),
        "evaluate_s": med("evaluate_s"),
        "model_load_s": med("model_load_s"),
        "holdout_bal_acc_min": min(run.holdout[t] for t in GATED_TASKS),
        "holdout_bal_acc_identify":
            sum(run.holdout[t] for t in IDENTIFY_TASKS) / len(IDENTIFY_TASKS),
        "trip_decide_ms_p50": med("trip_decide_ms"),
        "trip_decide_ms_p90": _percentile(s["trip_decide_ms"], 90),
        "restrain_decide_ms_p50": med("restrain_decide_ms"),
        "verdict_stall_ms_p50": med("verdict_stall_ms"),
        "verdict_stall_ms_p90": _percentile(s["verdict_stall_ms"], 90),
        "push_us_p50": med("push_us"),
        "verdict_accuracy": run.verdicts[0] / run.verdicts[1],
    }


def machine() -> dict:
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):       # numpy without the dict form
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _code_hash() -> str:
    """Hash of the program and benchmark sources a run's outputs depend on."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "diffsentry"), os.path.dirname(os.path.abspath(__file__))):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fname in sorted(filenames):
                if fname.endswith(".py"):
                    path = os.path.join(dirpath, fname)
                    h.update(os.path.relpath(path, ROOT).encode())
                    h.update(_file_bytes(path))
    return h.hexdigest()


def _compare_with_earlier(run: Run, key: str, trace: int, e2e: dict):
    """Artifacts of the same code and seeds must match byte for byte across
    runs, traced or not. Returns the untraced end-to-end values recorded
    for this key, if any, so a traced run can report its overhead."""
    path = os.path.join(OUT, "digests.json")
    book = {}
    if os.path.exists(path):
        with open(path) as fh:
            book = json.load(fh)
    entry = book.setdefault(key, {"digests": dict(run.digests), "e2e": {}})
    for name, value in run.digests.items():
        earlier = entry["digests"].setdefault(name, value)
        run.check(earlier == value,
                  f"{name} differs from an earlier run of the same code and seeds")
    entry["e2e"][str(trace)] = e2e
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(book, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return entry["e2e"].get("0") if trace else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for name, base in SEED_BASE.items():
        shifted = [w for w, names in INPUT_SEEDS.items() if name in names]
        parser.add_argument(f"--{name}-seed", type=int, help=f"default {base}" + (
            f" (+ --seed on {', '.join(shifted)})" if shifted else ""))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diffsentry", "__init__.py")):
        print(f"benchmark: no diffsentry sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import diffsentry

    if not os.path.abspath(diffsentry.__file__).startswith(SRC + os.sep):
        print(f"benchmark: imported diffsentry from {diffsentry.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import speed
    import tracing

    seeds = {}
    for name, base in SEED_BASE.items():
        given = getattr(args, f"{name}_seed")
        seeds[name] = given if given is not None else (
            base + args.seed if name in INPUT_SEEDS[args.workload] else base)

    run = Run(speed.Speed())
    tracer = installed = None
    span_cost = 0.0
    if args.trace:
        span_cost = tracing.span_cost_s()
        tracer = tracing.Tracer(run.speed.cpu)
        installed = tracing.install(tracer)

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(OUT, exist_ok=True)
    wall = time.perf_counter()
    run.speed.start()
    try:
        WORKLOADS[args.workload](args, seeds, work, run)
    except Exception:   # a crash in the program is a failed run, still reported
        run.check(False, traceback.format_exc(limit=-8))
    finally:
        run.speed.stop()
        if installed is not None:
            installed.remove()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    wall = time.perf_counter() - wall

    try:
        e2e = end_to_end(run)
    except (KeyError, ValueError, ZeroDivisionError, IndexError) as exc:
        run.check(False, f"a metric has no samples: {exc!r}")
        e2e = {}
    key = hashlib.sha256(json.dumps(
        [_code_hash(), args.workload, seeds], sort_keys=True).encode()).hexdigest()[:16]
    untraced = _compare_with_earlier(run, key, args.trace, e2e)

    kernel = run.speed.samples
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall,
        "machine": machine(),
        "code_key": key,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:50],
        "end_to_end": {name: {"value": e2e.get(name), "unit": unit, "better": better,
                              "what": what}
                       for name, unit, better, what in END_TO_END},
        "raw_cpu_median": {k: _percentile(v, 50) for k, v in run.raw.items()},
        "speed_kernel_s": {"reference": speed.REFERENCE_S, "samples": len(kernel),
                           "p10": _percentile(kernel, 10), "p50": _percentile(kernel, 50),
                           "p90": _percentile(kernel, 90)},
        "sample_counts": {k: len(v) for k, v in run.samples.items()},
        "holdout_balanced_accuracy": run.holdout,
        "digests": run.digests,
        "notes": run.notes,
    }
    e2e_units = units = {name: unit for name, unit, _, _ in END_TO_END}
    if args.trace:
        layer, absent = tracing.layer_metrics(tracer, installed, span_cost)
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        record["per_layer"] = layer
        record["absent"] = absent + installed.absent_sites
        if untraced:
            record["tracing_overhead"] = {
                k: e2e[k] - untraced[k] for k in e2e if k in untraced}
        tracer.write(os.path.join(OUT, f"{args.workload}.spans.csv"))
        shown = layer
    else:
        shown = e2e
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, value in shown.items():
        print(f"{name:<44} {value:>14.6g} {units[name]}")
    for name, value in record.get("tracing_overhead", {}).items():
        print(f"overhead {name:<35} {value:>14.6g} {e2e_units[name]}")
    for name in record.get("absent", []):
        print(f"absent {name}")
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}")
    print(f"attempted {run.attempted} failed {len(run.failures)} holdout "
          f"{json.dumps(run.holdout, sort_keys=True)}")
    correct = not run.failures
    metrics = {name: {"value": value, "unit": units[name]} for name, value in shown.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
