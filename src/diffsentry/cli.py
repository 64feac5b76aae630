"""Command-line entry points: generate, train, evaluate, classify.

Every subcommand is deterministic given its seed and configuration, and
every artifact directory carries a run.json with the tool version, seed,
and configuration hash so outputs can be reproduced and audited.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import math
import os
import shutil
import sys

import numpy as np

from . import __version__
from .detector import CYCLE, detect
from .errors import DiffsentryError, InvalidGrid, IoFailure
from .evaluation import time_report
from .features import Task, extract
from .pipeline import (
    StreamingClassifier,
    TrainConfig,
    decide,
    decide_many,
    detect_noise_study,
    iter_corpus_waveforms,
    load_corpus_waveforms,
    load_pipeline,
    save_pipeline,
    train_pipeline,
)
from .resampling import Strategy
from .sampling import iter_waveform_csv, read_waveform_csv
from .wavegen.corpus import generate_corpus, load_manifest, reference_plan
from .ensembles import GBC_GRID_FULL, GBC_GRID_SMALL

_DEFAULT_THRESHOLDS = {
    "DetectFault": 0.95,
    "LocateUnit": 0.90,
    "IdentifyDisturbance": 0.90,
}

_RESAMPLE_CHOICES = {
    "none": None,
    "smote": Strategy.SMOTE_ONLY,
    "nearmiss": Strategy.NEARMISS_ONLY,
    "combined": Strategy.COMBINED,
}


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_stamp(out_dir: str, seed: int, config: dict) -> None:
    stamp = {
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "config_hash": _config_hash(config),
    }
    _write_json(os.path.join(out_dir, "run.json"), stamp)


def _load_json_config(path):
    if not path:
        return {}
    with open(path) as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            raise IoFailure(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise IoFailure(f"config file {path} must hold a JSON object")
    return config


def _config_section(path, config: dict, key: str, valid, what: str) -> dict:
    """``config[key]`` (``{}`` when absent), checked to be an object whose
    every value passes ``valid``."""
    section = config.get(key, {})
    if not (isinstance(section, dict) and all(map(valid, section.values()))):
        raise IoFailure(
            f"config file {path}: {key!r} must be an object of {what}")
    return section


def _parse_snr_list(text: str) -> list:
    """SNRs in dB from a comma list; ``inf`` is the clean case."""
    out = []
    for token in (text.split(",") if text else []):
        token = token.strip()
        try:
            snr = float(token)
        except ValueError:
            snr = math.nan
        if math.isnan(snr) or snr == -math.inf:
            raise DiffsentryError(
                f"--snr token {token!r} is not a finite number or inf")
        out.append(snr)
    return out


@contextlib.contextmanager
def _replacing(path, directory: bool):
    """Yield a temporary name beside ``path`` for the output (a directory if
    ``directory``), which replaces ``path`` if the block succeeds and is
    removed if it fails. A ``path`` of the other kind, a directory that is
    not empty or the working directory is refused before the block."""
    if os.path.lexists(path) and os.path.isdir(path) != directory:
        raise IoFailure(f"--out {path} is {'not ' if directory else ''}a directory")
    if os.path.isdir(path) and (os.listdir(path) or os.path.samefile(path, ".")):
        raise IoFailure(f"--out {path} is not empty or is the working directory")
    target = os.path.normpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        if os.path.isdir(tmp):
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def cmd_generate(args) -> int:
    config = {
        "cases_per_class": args.cases_per_class,
        "fault_cases": args.fault_cases,
    }
    with _replacing(args.out, True) as tmp:
        plan = reference_plan(
            cases_per_class=args.cases_per_class, fault_cases=args.fault_cases
        )
        manifest = generate_corpus(plan, args.seed, tmp)
        _write_run_stamp(tmp, args.seed, config)
    counts = collections.Counter(row["disturbance_type"] or row["kind"]
                                 for row in manifest)
    print(f"corpus written to {args.out} ({len(manifest)} waveforms)")
    print(f"{'class':<28}{'cases':>8}")
    for name in sorted(counts):
        print(f"{name:<28}{counts[name]:>8}")
    return 0


def cmd_train(args) -> int:
    if args.cv < 2:
        raise DiffsentryError(f"--cv must be at least 2 folds, not {args.cv}")
    grid = dict(GBC_GRID_FULL if args.grid == "paper" else GBC_GRID_SMALL)
    # the values are TrainConfig's to check
    grid.update(_config_section(
        args.config, _load_json_config(args.config), "grid",
        lambda _: True, "value lists"))
    try:
        config = TrainConfig(grid=grid, cv_k=args.cv, seed=args.seed,
                             resample=_RESAMPLE_CHOICES[args.resample])
    except InvalidGrid as exc:
        raise IoFailure(f"config file {args.config}: 'grid': {exc}") from exc
    manifest = load_manifest(args.corpus)
    with _replacing(args.out, False) as tmp:
        model = train_pipeline(args.corpus, manifest, config)
        model.metadata["tool_version"] = __version__
        model.metadata["config_hash"] = _config_hash(
            {"grid": grid, "cv": args.cv, "resample": args.resample}
        )
        save_pipeline(model, tmp)
    print(f"pipeline model written to {args.out}")
    for task_name, table in model.metadata["cv_tables"].items():
        print(f"\n[{task_name}] best {table['best_config']} "
              f"cv balanced accuracy {table['cv_balanced_accuracy']:.4f}")
        for rowt in table["table"]:
            cfg = rowt["config"]
            print(
                f"  est={cfg['n_estimators']:<6} depth={cfg['max_depth']:<3} "
                f"lr={cfg['learning_rate']:<5} -> "
                f"{rowt['mean_balanced_accuracy']:.4f}"
            )
    print("\nholdout metrics:")
    for task_name, metrics in model.metadata["holdout_metrics"].items():
        ba = metrics.get("balanced_accuracy")
        ba_s = f"{ba:.4f}" if ba is not None else "n/a"
        print(f"  {task_name:<22} n={metrics['n']:<5} "
              f"acc={metrics['accuracy']:.4f} bal_acc={ba_s}")
    return 0


def cmd_evaluate(args) -> int:
    with _replacing(args.out, True) as tmp:
        report = _evaluate(args, tmp)
    print(f"evaluation report written to {args.out}")
    for task_name, metrics in report["holdout_metrics"].items():
        ba = metrics.get("balanced_accuracy")
        ba_s = f"{ba:.4f}" if ba is not None else "n/a"
        print(f"  {task_name:<22} bal_acc={ba_s} acc={metrics['accuracy']:.4f}")
    for rowns in report["noise_sweep"]:
        print(
            f"  snr={rowns['snr_db']!s:<6} detect_acc={rowns['accuracy']:.4f} "
            f"fault_recall={rowns['fault_recall']:.4f}"
        )
    if report["failures"]:
        print("FAILED: " + "; ".join(report["failures"]))
        return 1
    print("all thresholds met")
    return 0


def _evaluate(args, out_dir) -> dict:
    """Write the report of ``cmd_evaluate`` and its files to the new
    directory ``out_dir``; return the report."""
    manifest = load_manifest(args.corpus)
    model = load_pipeline(args.model)
    snr_list = _parse_snr_list(args.snr)
    thresholds = dict(_DEFAULT_THRESHOLDS)
    thresholds.update(_config_section(
        args.config, _load_json_config(args.config), "thresholds",
        lambda v: not isinstance(v, bool) and (
            isinstance(v, int) or isinstance(v, float) and math.isfinite(v)),
        "finite numbers"))
    unknown = sorted(set(thresholds) - {task.value for task in Task})
    if unknown:
        raise IoFailure(f"config file {args.config}: 'thresholds' names unknown "
                        f"tasks {unknown}; known: {[task.value for task in Task]}")

    holdout_files = set(model.metadata.get("holdout_files", []))
    holdout_rows = [r for r in manifest if r["file"] in holdout_files]
    if not holdout_rows:
        raise DiffsentryError(
            "model metadata lists no holdout files present in this corpus; "
            "evaluate with the corpus the model was trained on"
        )
    report = {
        "tool_version": __version__,
        "seed": args.seed,
        "model": os.path.basename(args.model),
        "holdout_metrics": model.metadata.get("holdout_metrics", {}),
        "thresholds": thresholds,
    }

    noise_rows = []
    if snr_list:
        # the noise study reads every record once; the holdout records are
        # kept from that one read, the training ones dropped as they pass
        records = []

        def keeping_holdout():
            for row, wave in iter_corpus_waveforms(args.corpus, manifest):
                if row["file"] in holdout_files:
                    records.append((row, wave))
                yield row, wave

        train_files = [r["file"] for r in manifest if r["file"] not in holdout_files]
        noise_rows = detect_noise_study(
            keeping_holdout(), train_files, snr_list, seed=args.seed)
    else:
        records = load_corpus_waveforms(args.corpus, holdout_rows)
    report["noise_sweep"] = noise_rows

    failures = []
    for task_name, threshold in thresholds.items():
        metrics = report["holdout_metrics"].get(task_name)
        score = metrics.get("balanced_accuracy") if metrics else None
        ok = score is not None and score >= threshold
        if not ok:
            failures.append(f"{task_name}: {score} < {threshold}")
    # every corpus record is an event; the stored metrics cannot show a miss
    decisions = decide_many([wave for _, wave in records], model)
    missed = [row["file"] for (row, _), d in zip(records, decisions) if not d.detected]
    if missed:
        failures.append(f"holdout records decided NoEvent: {missed}")
    report["passed"] = not failures
    report["failures"] = failures

    os.mkdir(out_dir)
    _write_json(os.path.join(out_dir, "report.json"), report)
    _write_predictions_csv(
        os.path.join(out_dir, "predictions.csv"), records, decisions
    )
    _write_run_stamp(
        out_dir, args.seed,
        {"model": os.path.basename(args.model), "snr": args.snr,
         "thresholds": thresholds},
    )
    if args.timing:
        timing = _measure_timing(records, model)
        _write_json(os.path.join(out_dir, "timing.json"), timing)
        print("timing (median seconds per stage):")
        for stage, t in timing.items():
            print(f"  {stage:<24} {t['median_s']:.6f}")
    return report


def _write_predictions_csv(path, records, decisions) -> None:
    """Per-instance holdout decisions for audit (deterministic)."""
    with open(path, "w", newline="\n") as fh:
        fh.write("file,kind,truth,verdict,fault_unit,fault_type,disturbance_type\n")
        for (row, wave), decision in zip(records, decisions):
            label = wave.label
            truth = (label.fault_type or label.disturbance_type).value
            fh.write(
                f"{row['file']},{label.kind.value},{truth},{decision.verdict},"
                f"{decision.fault_unit or ''},{decision.fault_type or ''},"
                f"{decision.disturbance_type or ''}\n"
            )


def _measure_timing(records, model) -> dict:
    samples = records[0][1].samples
    event = detect(samples)
    stages = {"decide_one": lambda: decide(samples, model)}
    if event.triggered:
        vec = extract(event.detect_window, Task.DETECT_FAULT)
        batch = np.vstack([vec.values] * 64)
        stages["feature_extraction"] = lambda: extract(
            event.detect_window, Task.DETECT_FAULT
        )
        stages["predict_one"] = lambda: model.slots[Task.DETECT_FAULT].predict(
            vec.values, vec.schema
        )
        stages["predict_all"] = lambda: model.slots[
            Task.DETECT_FAULT
        ].predict_proba(batch)
    return time_report(stages, repeats=10)


def cmd_classify(args) -> int:
    model = load_pipeline(args.model)
    if not args.out:
        _classify(args, model, sys.stdout)
        return 0
    with _replacing(args.out, False) as tmp, open(tmp, "w", newline="\n") as sink:
        _classify(args, model, sink)
    return 0


def _classify(args, model, sink) -> None:
    """Write one JSON record per decision of ``cmd_classify`` to ``sink``."""
    if args.stdin:
        classifier = StreamingClassifier(model)
        for block in iter_waveform_csv(sys.stdin, CYCLE):
            for rec in classifier.push_block(block):
                sink.write(json.dumps(rec, sort_keys=True) + "\n")
    else:
        for path in args.inputs:
            samples = read_waveform_csv(path)
            try:
                decision = decide(samples, model)
            except DiffsentryError as exc:
                raise IoFailure(f"cannot classify {path}: {exc}") from exc
            rec = decision.to_dict()
            rec["file"] = os.path.basename(path)
            sink.write(json.dumps(rec, sort_keys=True) + "\n")


def _seed(text: str) -> int:
    """A ``--seed``; numpy's generators take only non-negative integers."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffsentry",
        description="Transformer transient synthesis, detection, and classification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a seeded synthetic corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--cases-per-class", type=int, default=120)
    g.add_argument("--fault-cases", type=int, default=468)
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="train the six-stage pipeline on a corpus")
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=_seed, default=0)
    t.add_argument("--grid", choices=("small", "paper"), default="small")
    t.add_argument("--resample", choices=tuple(_RESAMPLE_CHOICES), default="none")
    t.add_argument("--cv", type=int, default=3)
    t.add_argument("--config", help="JSON file with grid overrides")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("evaluate", help="holdout metrics, noise sweep, timing")
    e.add_argument("--corpus", required=True)
    e.add_argument("--model", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--seed", type=_seed, default=0)
    e.add_argument("--snr", default="", help="comma list, e.g. inf,30,10")
    e.add_argument("--config", help="JSON file with threshold overrides")
    e.add_argument("--timing", action="store_true",
                   help="also measure and write timing.json (non-deterministic)")
    e.set_defaults(fn=cmd_evaluate)

    c = sub.add_parser("classify", help="decide waveform CSVs or a stdin stream")
    c.add_argument("--model", required=True)
    c.add_argument("--out")
    source = c.add_mutually_exclusive_group(required=True)
    source.add_argument("--stdin", action="store_true",
                        help="stream t,ia,ib,ic rows from standard input")
    # the default makes the positional optional, as a group member must be
    source.add_argument("inputs", nargs="*", default=[],
                        help="waveform CSV files")
    c.set_defaults(fn=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DiffsentryError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
