"""Hierarchical decision scheme: change gate, fault/disturbance split,
unit location, and type identification.

Stage 1 classifies the registered 1.5-cycle window as internal fault vs
other transient. Faults are located to a transformer unit on the 3-cycle
window and drilled down to a fault type by the unit's own classifier;
non-faults are named by the disturbance classifier. The trip/restrain
verdict is rendered as soon as the 1.5-cycle window closes; drill-down
labels follow at 3 cycles.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .detector import CdfConfig, DetectionEvent, StreamingDetector, detect
from .ensembles import GBC_GRID_SMALL, GbcConfig, gbc_fit
from .ensembles.model import (
    TreeEnsembleModel,
    model_from_dict,
    model_to_dict,
    predict,
)
from .errors import (
    ClassMissing,
    DiffsentryError,
    IncompleteModel,
    IoFailure,
    SchemaMismatch,
    ZeroSupportClass,
)
from .evaluation import (
    ConfusionCounts,
    balanced_accuracy,
    accuracy,
    grid_search,
    train_test_split,
)
from .features import Task, extract, extract_tasks, schema_hash
from .resampling import ResamplePlan, apply_plan
from .sampling import (
    DisturbanceType,
    EventKind,
    EventLabel,
    FaultType,
    SamplingSpec,
    Unit,
    Waveform,
    read_waveform_csv,
)

PIPELINE_FILE_VERSION = 1

FAULT_CLASS = "fault"
DISTURBANCE_CLASS = "disturbance"

TASK_FOR_UNIT = {
    Unit.EXCITING: Task.IDENTIFY_EXCITING,
    Unit.SERIES: Task.IDENTIFY_SERIES,
    Unit.PT: Task.IDENTIFY_PT,
}

_REQUIRED_CLASSES = {
    Task.DETECT_FAULT: (FAULT_CLASS, DISTURBANCE_CLASS),
    Task.LOCATE_UNIT: tuple(u.value for u in Unit),
    Task.IDENTIFY_SERIES: tuple(ft.value for ft in FaultType),
    Task.IDENTIFY_EXCITING: tuple(ft.value for ft in FaultType),
    Task.IDENTIFY_PT: tuple(ft.value for ft in FaultType),
    Task.IDENTIFY_DISTURBANCE: tuple(d.value for d in DisturbanceType),
}


@dataclass
class PipelineModel:
    detector_cfg: CdfConfig
    slots: dict                        # Task -> TreeEnsembleModel
    version: int = PIPELINE_FILE_VERSION
    metadata: dict = field(default_factory=dict)

    def require_complete(self):
        missing = [t.value for t in Task if t not in self.slots]
        if missing:
            raise IncompleteModel(f"pipeline model missing slots: {missing}")


@dataclass
class PipelineDecision:
    detected: bool
    verdict: str                       # "Trip" | "Restrain" | "NoEvent"
    fault_unit: Optional[str] = None
    fault_type: Optional[str] = None
    disturbance_type: Optional[str] = None
    stage_probabilities: dict = field(default_factory=dict)
    trigger_index: Optional[int] = None
    trigger_phase: Optional[str] = None
    latency: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "detected": self.detected,
            "verdict": self.verdict,
            "fault_unit": self.fault_unit,
            "fault_type": self.fault_type,
            "disturbance_type": self.disturbance_type,
            "stage_probabilities": self.stage_probabilities,
            "trigger_index": self.trigger_index,
            "trigger_phase": self.trigger_phase,
            "latency": self.latency,
        }


def _probs_dict(model: TreeEnsembleModel, probs: np.ndarray) -> dict:
    return {str(lab): float(p) for lab, p in zip(model.codebook, probs)}


def decide(wave, model: PipelineModel,
           sampling: SamplingSpec = SamplingSpec()) -> PipelineDecision:
    """Run the full decision scheme over one waveform (a Waveform or a bare
    (N, 3) sample array)."""
    model.require_complete()
    event = detect(wave, model.detector_cfg)
    if not event.triggered:
        return PipelineDecision(detected=False, verdict="NoEvent")
    inception = wave.inception_index if isinstance(wave, Waveform) else None
    return _decide_from_event(event, model, inception, sampling)


def _decide_from_event(event: DetectionEvent, model: PipelineModel,
                       inception_index: Optional[int],
                       sampling: SamplingSpec) -> PipelineDecision:
    cfg = model.detector_cfg
    n_c = cfg.cycle_samples
    verdict_lat = cfg.post_cycles_detect * n_c
    full_lat = cfg.classify_window_len
    latency = {
        "verdict_from_trigger_samples": verdict_lat,
        "verdict_from_trigger_cycles": verdict_lat / n_c,
        "full_from_trigger_samples": full_lat,
    }
    if inception_index is not None:
        lag = event.trigger_index - inception_index
        latency["trigger_from_inception_samples"] = lag
        latency["verdict_from_inception_samples"] = lag + verdict_lat

    stage_probs = {}
    detect_vec = extract(event.detect_window, Task.DETECT_FAULT, sampling)
    label1, p1 = predict(model.slots[Task.DETECT_FAULT], detect_vec)
    stage_probs["detect"] = _probs_dict(model.slots[Task.DETECT_FAULT], p1)

    if label1 == FAULT_CLASS:
        locate_vec = extract(event.classify_window, Task.LOCATE_UNIT, sampling)
        unit_label, p3 = predict(model.slots[Task.LOCATE_UNIT], locate_vec)
        stage_probs["locate"] = _probs_dict(model.slots[Task.LOCATE_UNIT], p3)
        task = TASK_FOR_UNIT[Unit(unit_label)]
        type_vec = extract(event.classify_window, task, sampling)
        type_label, p_type = predict(model.slots[task], type_vec)
        stage_probs["fault_type"] = _probs_dict(model.slots[task], p_type)
        return PipelineDecision(
            detected=True,
            verdict="Trip",
            fault_unit=unit_label,
            fault_type=type_label,
            stage_probabilities=stage_probs,
            trigger_index=event.trigger_index,
            trigger_phase=event.trigger_phase,
            latency=latency,
        )

    dist_vec = extract(event.classify_window, Task.IDENTIFY_DISTURBANCE, sampling)
    dist_label, p2 = predict(model.slots[Task.IDENTIFY_DISTURBANCE], dist_vec)
    stage_probs["disturbance"] = _probs_dict(
        model.slots[Task.IDENTIFY_DISTURBANCE], p2
    )
    return PipelineDecision(
        detected=True,
        verdict="Restrain",
        disturbance_type=dist_label,
        stage_probabilities=stage_probs,
        trigger_index=event.trigger_index,
        trigger_phase=event.trigger_phase,
        latency=latency,
    )


class StreamingClassifier:
    """Sample-at-a-time decisions over a stream of (ia, ib, ic) rows.

    Emits a verdict record when the 1.5-cycle window closes and the full
    drill-down decision when the 3-cycle window closes. Memory use is
    bounded by the detector's history window.
    """

    def __init__(self, model: PipelineModel,
                 sampling: SamplingSpec = SamplingSpec()):
        model.require_complete()
        self.model = model
        self.sampling = sampling
        self.detector = StreamingDetector(model.detector_cfg)
        self._verdict_emitted = False

    def push(self, sample) -> list[dict]:
        out = []
        cfg = self.model.detector_cfg
        det = self.detector
        event = det.push(sample)
        trigger = det.pending_trigger
        if (
            trigger is not None
            and not self._verdict_emitted
            and det.samples_seen - 1 >= trigger + cfg.post_cycles_detect * cfg.cycle_samples - 1
        ):
            self._verdict_emitted = True
            window = det.slice_window(trigger - cfg.pre_samples, cfg.detect_window_len)
            vec = extract(window, Task.DETECT_FAULT, self.sampling)
            label, probs = predict(self.model.slots[Task.DETECT_FAULT], vec)
            out.append(
                {
                    "stage": "verdict",
                    "verdict": "Trip" if label == FAULT_CLASS else "Restrain",
                    "trigger_index": trigger,
                    "emitted_at_sample": det.samples_seen - 1,
                    "probabilities": _probs_dict(
                        self.model.slots[Task.DETECT_FAULT], probs
                    ),
                }
            )
        if event is not None:
            decision = _decide_from_event(event, self.model, None, self.sampling)
            rec = decision.to_dict()
            rec["stage"] = "full"
            rec["emitted_at_sample"] = det.samples_seen - 1
            out.append(rec)
        return out


# -- training -------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    grid: dict = None
    cv_k: int = 3
    seed: int = 0
    resample: Optional[ResamplePlan] = None
    holdout_fraction: float = 0.2
    detector: CdfConfig = CdfConfig()

    def resolved_grid(self) -> dict:
        return dict(self.grid) if self.grid else dict(GBC_GRID_SMALL)


def _full_label(row: dict) -> str:
    if row["kind"] == EventKind.INTERNAL_FAULT.value:
        return f"{row['kind']}/{row['unit']}/{row['fault_type']}"
    return f"{row['kind']}/{row['disturbance_type']}"


def load_corpus_waveforms(corpus_dir, manifest):
    """(manifest row, (N,3) samples) pairs for every corpus record."""
    out = []
    for row in manifest:
        samples = read_waveform_csv(os.path.join(corpus_dir, row["file"]))
        out.append((row, samples))
    return out


def _windows_by_task(records, detector_cfg: CdfConfig,
                     sampling: SamplingSpec):
    """Run detection over corpus records and build per-task datasets."""
    data = {task: {"X": [], "y": [], "files": []} for task in Task}
    undetected = []
    for row, samples in records:
        wave = Waveform(
            spec=sampling, samples=samples,
            label=EventLabel.from_dict(row), inception_index=row["inception_index"],
            provenance=row.get("provenance", {}),
        )
        event = detect(wave, detector_cfg)
        if not event.triggered:
            undetected.append(row["file"])
            continue
        is_fault = row["kind"] == EventKind.INTERNAL_FAULT.value
        detect_vec = extract(event.detect_window, Task.DETECT_FAULT, sampling)
        data[Task.DETECT_FAULT]["X"].append(detect_vec.values)
        data[Task.DETECT_FAULT]["y"].append(
            FAULT_CLASS if is_fault else DISTURBANCE_CLASS
        )
        data[Task.DETECT_FAULT]["files"].append(row["file"])
        if is_fault:
            type_task = TASK_FOR_UNIT[Unit(row["unit"])]
            vecs = extract_tasks(event.classify_window,
                                 (Task.LOCATE_UNIT, type_task), sampling)
            for task, label in (
                (Task.LOCATE_UNIT, row["unit"]),
                (type_task, row["fault_type"]),
            ):
                data[task]["X"].append(vecs[task].values)
                data[task]["y"].append(label)
                data[task]["files"].append(row["file"])
        else:
            vec = extract(event.classify_window, Task.IDENTIFY_DISTURBANCE, sampling)
            data[Task.IDENTIFY_DISTURBANCE]["X"].append(vec.values)
            data[Task.IDENTIFY_DISTURBANCE]["y"].append(row["disturbance_type"])
            data[Task.IDENTIFY_DISTURBANCE]["files"].append(row["file"])
    return data, undetected


def train_pipeline(corpus_dir, manifest, config: TrainConfig,
                   sampling: SamplingSpec = SamplingSpec()) -> PipelineModel:
    """Grid-search one classifier per task and assemble the pipeline.

    The corpus is split 4:1 stratified by the full hierarchical label before
    any window is cut; per-stage holdout metrics are stored in metadata.
    """
    records = load_corpus_waveforms(corpus_dir, manifest)
    labels = np.asarray([_full_label(row) for row, _ in records])
    train_idx, hold_idx = train_test_split(
        labels, config.holdout_fraction, config.seed
    )
    train_data, undetected = _windows_by_task(
        [records[i] for i in train_idx], config.detector, sampling
    )
    hold_data, _ = _windows_by_task(
        [records[i] for i in hold_idx], config.detector, sampling
    )

    for task in Task:
        present = set(train_data[task]["y"])
        missing = [c for c in _REQUIRED_CLASSES[task] if c not in present]
        if missing:
            raise ClassMissing(
                f"task {task.value} is missing classes {missing} in the "
                "training corpus",
                task=task.value,
                missing=missing,
            )

    slots = {}
    cv_tables = {}
    grid = config.resolved_grid()

    def fit_fn(X, y, seed, n_estimators, max_depth, learning_rate):
        return gbc_fit(
            X, y,
            GbcConfig(
                n_estimators=n_estimators,
                max_depth=max_depth,
                learning_rate=learning_rate,
                seed=seed,
            ),
        )

    for task in Task:
        X = np.vstack(train_data[task]["X"])
        y = np.asarray(train_data[task]["y"])
        if config.resample is not None:
            X, y = apply_plan(X, y, config.resample, config.seed)
        result = grid_search(
            X, y, fit_fn, grid, cv_k=config.cv_k, seed=config.seed
        )
        result.model.schema_hash = schema_hash(task)
        slots[task] = result.model
        cv_tables[task.value] = {
            "best_config": result.best_config,
            "cv_balanced_accuracy": result.best_score,
            "table": result.table,
        }

    holdout_metrics = _holdout_metrics(slots, hold_data)
    model = PipelineModel(
        detector_cfg=config.detector,
        slots=slots,
        metadata={
            "seed": config.seed,
            "grid": grid,
            "cv_k": config.cv_k,
            "resample": (
                {
                    "strategy": config.resample.strategy.value,
                    "k_neighbors": config.resample.k_neighbors,
                    "target_per_class": config.resample.target_per_class,
                }
                if config.resample
                else None
            ),
            "cv_tables": cv_tables,
            "holdout_metrics": holdout_metrics,
            "holdout_files": sorted(
                {f for task in Task for f in hold_data[task]["files"]}
            ),
            "undetected_training_files": sorted(undetected),
        },
    )
    return model


def _holdout_metrics(slots: dict, hold_data: dict) -> dict:
    out = {}
    for task in Task:
        ys = hold_data[task]["y"]
        if not ys:
            continue
        X = np.vstack(hold_data[task]["X"])
        y = np.asarray(ys)
        model = slots[task]
        probs = model.predict_proba(X)
        preds = np.asarray(
            [model.codebook[int(i)] for i in np.argmax(probs, axis=1)]
        )
        counts = ConfusionCounts.from_predictions(y, preds)
        entry = {"n": int(y.shape[0]), "accuracy": accuracy(counts)}
        try:
            entry["balanced_accuracy"] = balanced_accuracy(counts)
        except ZeroSupportClass:
            entry["balanced_accuracy"] = None
        out[task.value] = entry
    return out


def detect_noise_study(records, train_files, snr_list, seed,
                       repeats: int = 3,
                       detector_cfg: CdfConfig = CdfConfig(),
                       gbc: GbcConfig = GbcConfig(n_estimators=100),
                       sampling: SamplingSpec = SamplingSpec()) -> list[dict]:
    """Fault-detection accuracy per SNR with noise-matched training.

    One detect-stage model is trained on noise-augmented training windows
    (clean plus every requested SNR), then each held-out waveform is
    evaluated ``repeats`` times per SNR with fresh seeded noise draws (at
    infinite SNR the one clean window counts ``repeats`` times). Each SNR's
    windows are predicted in one batch. Rows are keyed by SNR and report
    overall accuracy and per-kind recall.
    """
    import math as _math

    from .wavegen.noise import add_noise

    train_files = set(train_files)
    levels = [s for s in snr_list if not _math.isinf(s)]

    def window_at(row, samples, snr, noise_seed):
        wave = Waveform(
            spec=sampling, samples=samples, label=EventLabel.from_dict(row),
            inception_index=row["inception_index"],
        )
        if not _math.isinf(snr):
            wave = add_noise(wave, snr, seed=noise_seed)
        event = detect(wave, detector_cfg)
        if not event.triggered:
            return None
        return extract(event.detect_window, Task.DETECT_FAULT, sampling).values

    x_train, y_train = [], []
    hold = []
    for i, (row, samples) in enumerate(records):
        truth = (
            FAULT_CLASS
            if row["kind"] == EventKind.INTERNAL_FAULT.value
            else DISTURBANCE_CLASS
        )
        if row["file"] in train_files:
            for j, snr in enumerate([_math.inf] + levels):
                vec = window_at(row, samples, snr, noise_seed=seed + 100 * i + j)
                if vec is not None:
                    x_train.append(vec)
                    y_train.append(truth)
        else:
            hold.append((i, row, samples, truth))

    model = gbc_fit(np.vstack(x_train), np.asarray(y_train), gbc)

    clean = {}  # hold index -> its clean detect-window vector (or None)
    rows_out = []
    for snr in snr_list:
        x_hold, y_true = [], []
        for i, row, samples, truth in hold:
            if _math.isinf(snr):
                if i not in clean:
                    clean[i] = window_at(row, samples, snr, noise_seed=None)
                vecs = [clean[i]] * repeats
            else:
                vecs = [window_at(row, samples, snr,
                                  noise_seed=seed + 50_000 + 100 * i + r)
                        for r in range(repeats)]
            for vec in vecs:
                if vec is not None:
                    x_hold.append(vec)
                    y_true.append(truth)
        y_pred = []
        if x_hold:
            codes = np.argmax(model.predict_proba(np.vstack(x_hold)), axis=1)
            y_pred = [model.codebook[int(c)] for c in codes]
        counts = ConfusionCounts.from_predictions(y_true, y_pred)
        fc = counts.per_class[FAULT_CLASS]
        dc = counts.per_class[DISTURBANCE_CLASS]
        rows_out.append(
            {
                "snr_db": "inf" if _math.isinf(snr) else snr,
                "accuracy": accuracy(counts),
                "fault_recall": fc["tp"] / (fc["tp"] + fc["fn"]),
                "disturbance_recall": dc["tp"] / (dc["tp"] + dc["fn"]),
                "n": len(y_true),
            }
        )
    return rows_out


# -- persistence -------------------------------------------------------------------

def save_pipeline(model: PipelineModel, path) -> None:
    bundle = {
        "version": model.version,
        "detector_cfg": {
            "threshold": model.detector_cfg.threshold,
            "cycle_samples": model.detector_cfg.cycle_samples,
            "pre_cycles": model.detector_cfg.pre_cycles,
            "post_cycles_detect": model.detector_cfg.post_cycles_detect,
            "post_cycles_classify": model.detector_cfg.post_cycles_classify,
        },
        "slots": {t.value: model_to_dict(m) for t, m in model.slots.items()},
        "metadata": model.metadata,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(bundle, fh, sort_keys=True)
        fh.write("\n")


def load_pipeline(path) -> PipelineModel:
    with open(path) as fh:
        try:
            bundle = json.load(fh)
        except ValueError as exc:
            raise IoFailure(f"model file {path} is not valid JSON: {exc}") from exc
    if bundle.get("version") != PIPELINE_FILE_VERSION:
        raise SchemaMismatch(
            f"unsupported pipeline version {bundle.get('version')!r}"
        )
    try:
        slots = {}
        for name, md in bundle["slots"].items():
            task = Task(name)
            model = model_from_dict(md)
            expected = schema_hash(task)
            if model.schema_hash != expected:
                raise SchemaMismatch(
                    f"slot {name}: model schema {model.schema_hash} does not "
                    f"match feature schema {expected}"
                )
            slots[task] = model
        return PipelineModel(
            detector_cfg=CdfConfig(**bundle["detector_cfg"]),
            slots=slots,
            version=bundle["version"],
            metadata=bundle.get("metadata", {}),
        )
    except DiffsentryError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"model file {path} is malformed: {exc!r}") from exc
