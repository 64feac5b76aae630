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

import itertools
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .detector import (CLASSIFY_LEN, CYCLE, THRESHOLD,
                       DetectionEvent, StreamingDetector, detect)
from .ensembles import GBC_GRID_SMALL, GbcConfig, gbc_fit
from .ensembles.cart import _require_integers
from .ensembles.model import model_from_dict, model_to_dict
from .errors import (
    ClassMissing,
    DiffsentryError,
    IncompleteModel,
    InvalidGrid,
    IoFailure,
    SchemaMismatch,
    ZeroSupportClass,
)
from .evaluation import (
    ConfusionCounts,
    balanced_accuracy,
    accuracy,
    stratified_kfold,
    train_test_split,
)
from .features import (Task, extract, extract_many, extract_tasks, schema_hash,
                       task_window_len)
from .resampling import K_NEIGHBORS, Strategy, apply_plan
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

PIPELINE_FILE_VERSION = 3
# the model file's record of the detector its slots were trained behind
_DETECTOR_CFG = {"threshold": THRESHOLD}

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
    slots: dict                        # Task -> TreeEnsembleModel
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
        return asdict(self)


def _task_targets(label: EventLabel) -> dict:
    """{task: class} for every task that learns from an event with this
    label: a fault is a fault, on its unit, of its type for that unit's
    classifier; a disturbance is a disturbance of its type."""
    if label.kind is EventKind.INTERNAL_FAULT:
        return {
            Task.DETECT_FAULT: FAULT_CLASS,
            Task.LOCATE_UNIT: label.unit.value,
            TASK_FOR_UNIT[label.unit]: label.fault_type.value,
        }
    return {
        Task.DETECT_FAULT: DISTURBANCE_CLASS,
        Task.IDENTIFY_DISTURBANCE: label.disturbance_type.value,
    }


def _verdict(label) -> str:
    """The verdict on a DetectFault label: Trip on a fault, else Restrain."""
    return "Trip" if label == FAULT_CLASS else "Restrain"


def _ask(model: PipelineModel, task: Task, windows: list) -> list:
    """(label, {class: probability}) from the task's slot on each window,
    featurized and predicted in one call. One window goes through
    ``extract``: a stack of one costs more than the series on its own."""
    if not windows:
        return []
    slot = model.slots[task]
    rows = (extract(windows[0], task).values[None, :] if len(windows) == 1
            else extract_many(np.stack(windows), task)[0])
    labels, probs = slot.predict(rows, schema_hash(task))
    return [(label, {str(c): float(v) for c, v in zip(slot.codebook, p)})
            for label, p in zip(labels, probs)]


def decide(wave, model: PipelineModel) -> PipelineDecision:
    """Run the full decision scheme over one waveform (a Waveform or a bare
    (N, 3) sample array); ``decide_many`` on a batch of one."""
    return decide_many([wave], model)[0]


def decide_many(waves, model: PipelineModel) -> list[PipelineDecision]:
    """``decide`` on each waveform, in order, with one feature extraction
    and one prediction per task over all the windows routed to it."""
    model.require_complete()
    waves = list(waves)
    events = [detect(wave) for wave in waves]
    inceptions = [wave.inception_index if isinstance(wave, Waveform) else None
                  for wave in waves]
    return _decide_events(events, model, inceptions)


def _latency(event: DetectionEvent, inception_index: Optional[int]) -> dict:
    # the verdict window closes one cycle after the trigger, the drill-down
    # window three
    latency = {
        "verdict_from_trigger_samples": CYCLE,
        "verdict_from_trigger_cycles": 1.0,
        "full_from_trigger_samples": CLASSIFY_LEN,
    }
    if inception_index is not None:
        lag = event.trigger_index - inception_index
        latency["trigger_from_inception_samples"] = lag
        latency["verdict_from_inception_samples"] = lag + CYCLE
    return latency


def _decide_events(events: list, model: PipelineModel,
                   inceptions: list) -> list[PipelineDecision]:
    """The decision on each detection event. DetectFault reads every
    triggered event's detect window; LocateUnit and then the located unit's
    Identify slot read the Trip events' classify windows, IdentifyDisturbance
    the Restrain events'. Each task is asked once, on all its windows."""
    decisions = [PipelineDecision(detected=False, verdict="NoEvent")
                 for _ in events]
    hit = [i for i, event in enumerate(events) if event.triggered]
    detected = _ask(model, Task.DETECT_FAULT,
                    [events[i].detect_window for i in hit])
    for i, (label, probs) in zip(hit, detected):
        decisions[i] = PipelineDecision(
            detected=True,
            verdict=_verdict(label),
            stage_probabilities={"detect": probs},
            trigger_index=events[i].trigger_index,
            trigger_phase=events[i].trigger_phase,
            latency=_latency(events[i], inceptions[i]),
        )

    def drill(task, picked, stage):
        """``task``'s labels on the picked events' classify windows, their
        probabilities recorded as the decisions' ``stage``."""
        answers = _ask(model, task, [events[i].classify_window for i in picked])
        for i, (_, probs) in zip(picked, answers):
            decisions[i].stage_probabilities[stage] = probs
        return [label for label, _ in answers]

    trip = [i for i in hit if decisions[i].verdict == "Trip"]
    restrain = [i for i in hit if decisions[i].verdict == "Restrain"]
    by_unit_task = {}
    for i, unit in zip(trip, drill(Task.LOCATE_UNIT, trip, "locate")):
        decisions[i].fault_unit = unit
        by_unit_task.setdefault(TASK_FOR_UNIT[Unit(unit)], []).append(i)
    for task, picked in by_unit_task.items():
        for i, fault_type in zip(picked, drill(task, picked, "fault_type")):
            decisions[i].fault_type = fault_type
    for i, disturbance in zip(restrain, drill(Task.IDENTIFY_DISTURBANCE,
                                              restrain, "disturbance")):
        decisions[i].disturbance_type = disturbance
    return decisions


class StreamingClassifier:
    """Sample-at-a-time decisions over a stream of (ia, ib, ic) rows.

    Emits a verdict record when the detector's 1.5-cycle window closes and
    the full drill-down decision when its 3-cycle window closes. Memory use
    is bounded by the detector's history window.
    """

    def __init__(self, model: PipelineModel):
        model.require_complete()
        self.model = model
        self.detector = StreamingDetector()

    def push(self, sample) -> list[dict]:
        event = self.detector.push(sample)
        if event is None:
            return []
        emitted_at = self.detector.samples_seen - 1
        if event.classify_window is None:
            [(label, probs)] = _ask(self.model, Task.DETECT_FAULT,
                                    [event.detect_window])
            return [{
                "stage": "verdict",
                "verdict": _verdict(label),
                "trigger_index": event.trigger_index,
                "emitted_at_sample": emitted_at,
                "probabilities": probs,
            }]
        rec = _decide_events([event], self.model, [None])[0].to_dict()
        rec["stage"] = "full"
        rec["emitted_at_sample"] = emitted_at
        return [rec]


# -- training -------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    grid: dict = None
    cv_k: int = 3
    seed: int = 0
    resample: Optional[Strategy] = None

    def __post_init__(self):
        # a bad config fails here, not after the corpus is read and featurized
        _require_integers(self, "cv_k", "seed")
        if self.cv_k < 2:
            raise ValueError(f"cv_k must be at least 2 folds, not {self.cv_k}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        self.points()

    def resolved_grid(self) -> dict:
        """``grid`` in its own key order, completed by the values of
        ``GBC_GRID_SMALL`` for every key it lacks."""
        grid = self.grid or {}
        return {**grid, **{k: v for k, v in GBC_GRID_SMALL.items() if k not in grid}}

    def points(self) -> list[dict]:
        """Every point of the resolved grid, in its order. An unknown key, a
        value that is not a non-empty list or a point that is not a valid
        ``GbcConfig`` is an ``InvalidGrid``."""
        grid = self.resolved_grid()
        unknown = sorted(set(grid) - set(GBC_GRID_SMALL))
        if unknown:
            raise InvalidGrid(f"unknown grid keys {unknown}; "
                              f"known: {sorted(GBC_GRID_SMALL)}")
        bad = sorted(k for k, v in grid.items()
                     if not (isinstance(v, (list, tuple)) and v))
        if bad:
            raise InvalidGrid(f"grid values of {bad} are not non-empty lists")
        points = [dict(zip(grid, values))
                  for values in itertools.product(*grid.values())]
        for point in points:
            try:
                GbcConfig(**point)
            except (TypeError, ValueError) as exc:
                raise InvalidGrid(f"grid point {point}: {exc}") from exc
        return points


@dataclass
class GridSearchResult:
    best_config: dict
    best_score: float
    table: list          # [{"config": dict, "mean_balanced_accuracy": float}]
    model: object = None


def _tie_key(config: dict, score: float):
    # canonical argmax: higher score, then fewer estimators, shallower
    # trees, larger learning rate, so grid order cannot matter
    return (-score, config["n_estimators"], config["max_depth"],
            -config["learning_rate"])


def grid_search(X, y, config: TrainConfig) -> GridSearchResult:
    """Mean-CV balanced accuracy of a boosting fit at each of
    ``config.points()``; the winning point is refit on all rows.

    Points that differ only in ``n_estimators`` share one fit per fold at
    their largest ``n_estimators``, and each smaller value is scored on that
    model's ``first_stages(n)``, which equals the fit at ``n``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    folds = stratified_kfold(y, config.cv_k, config.seed)
    points = config.points()
    groups = {}  # the point without n_estimators -> indices into points
    for i, point in enumerate(points):
        rest = tuple((k, v) for k, v in point.items() if k != "n_estimators")
        groups.setdefault(rest, []).append(i)
    scores = [[] for _ in points]
    for members in groups.values():
        fit_config = GbcConfig(**{**points[members[0]], "n_estimators": max(
            points[i]["n_estimators"] for i in members)}, seed=config.seed)
        for train_idx, test_idx in folds:
            model = gbc_fit(X[train_idx], y[train_idx], fit_config)
            for i in members:
                scored = model.first_stages(points[i]["n_estimators"])
                counts = ConfusionCounts.from_predictions(
                    y[test_idx], scored.predict(X[test_idx])[0])
                scores[i].append(balanced_accuracy(counts))
    table = []
    best = None
    for point, fold_scores in zip(points, scores):
        mean_score = float(np.mean(fold_scores))
        table.append({"config": point, "mean_balanced_accuracy": mean_score})
        if best is None or _tie_key(point, mean_score) < _tie_key(*best):
            best = (point, mean_score)
    final = gbc_fit(X, y, GbcConfig(**best[0], seed=config.seed))
    return GridSearchResult(
        best_config=best[0], best_score=best[1], table=table, model=final
    )


def _record_label(row) -> EventLabel:
    """The label of a corpus record's manifest row; a bad one is an
    ``IoFailure`` naming the record's file."""
    try:
        return EventLabel.from_dict(row)
    except ValueError as exc:
        raise IoFailure(f"corpus record {row['file']}: {exc}") from exc


def iter_corpus_waveforms(corpus_dir, manifest):
    """(manifest row, Waveform) for each corpus record in manifest order,
    each record read only when the one before it has been taken: the row's
    samples under its label and inception. A record too short for its
    inception is an ``IoFailure`` naming its file."""
    for row in manifest:
        label = _record_label(row)
        samples = read_waveform_csv(os.path.join(corpus_dir, row["file"]))
        try:
            wave = Waveform(
                spec=SamplingSpec(), samples=samples, label=label,
                inception_index=row["inception_index"],
                provenance=row.get("provenance", {}),
            )
        except ValueError as exc:
            raise IoFailure(f"corpus record {row['file']}: {exc}") from exc
        yield row, wave


def load_corpus_waveforms(corpus_dir, manifest):
    """Every pair of ``iter_corpus_waveforms``, in one list: each record's
    samples are held until the list is dropped."""
    return list(iter_corpus_waveforms(corpus_dir, manifest))


#: windows per featurization chunk. Each chunk pays a fixed cost (about
#: 11 ms, most of it the trend op's subwindow loop): on the benchmark's
#: offline corpus (276 records, 2-vCPU Xeon), featurizing the training
#: windows in chunks of 16, 64, 128 and 256 took 197%, 32%, 11% and 7% more
#: CPU than whole stacks (0.157 s). Peak RSS after train and evaluate was
#: 46.1, 46.1, 47.7 and 47.9 MB, 51.7 MB at 512, and 59.8 MB when every
#: record was held at once; the benchmark's offline peak_rss_mb was within
#: the same 70.6-72.3 MB at 128 and 256 (four runs each)
FEATURE_CHUNK = 256


class _Stack:
    """Windows of one length, featurized for ``tasks`` in chunks: each
    window is copied into a chunk of ``FEATURE_CHUNK`` windows, which is
    featurized when it fills, so no window keeps its record alive. Row r of
    a stack has the bits of window r featurized on its own, so the chunk
    size changes no value."""

    def __init__(self, tasks: tuple):
        self.tasks = tasks
        self.chunk = np.empty((FEATURE_CHUNK, task_window_len(tasks[0]), 3))
        self.size = 0
        self.blocks = {task: [] for task in tasks}

    def add(self, window) -> int:
        """Copy ``window`` in; returns its row in the stack."""
        filled = self.size % len(self.chunk)
        self.chunk[filled] = window
        self.size += 1
        if filled + 1 == len(self.chunk):
            self._featurize(len(self.chunk))
        return self.size - 1

    def _featurize(self, n: int) -> None:
        for task, (values, _) in extract_tasks(self.chunk[:n], self.tasks).items():
            self.blocks[task].append(values)

    def finish(self) -> dict:
        """{task: (rows, k) values of every window added, in order}."""
        self._featurize(self.size % len(self.chunk))
        return {task: np.concatenate(blocks) for task, blocks in self.blocks.items()}


#: the tasks featurized together, on one stack of windows: every detect
#: window, every fault's classify window, every disturbance's classify window
_STACKS = (
    (Task.DETECT_FAULT,),
    (Task.LOCATE_UNIT, *TASK_FOR_UNIT.values()),
    (Task.IDENTIFY_DISTURBANCE,),
)


def _windows_by_task(records):
    """Run detection once over corpus records, an iterable of (row,
    Waveform) read as it goes, and build per-task datasets: each task's
    rows ``X``, classes ``y`` and the index ``record`` of the record each
    row came from, in record order; a record that does not trigger has no
    row. A window is copied once into the ``_Stack`` of its kind, which
    featurizes it for all the stack's tasks one chunk at a time; a task
    keeps the rows of its own records (an Identify task its unit's
    faults). What outlives a record is its feature rows, and the held
    windows are at most one chunk per stack kind."""
    stacks = {tasks: _Stack(tasks) for tasks in _STACKS}
    data = {task: {"y": [], "record": [], "row": []} for task in Task}

    # one call per record: its event, whose windows view the samples, goes
    # when the call returns, so the record does not outlive the loop step
    def add(rec, wave):
        event = detect(wave)
        if not event.triggered:
            return
        targets = _task_targets(wave.label)
        for tasks, stack in stacks.items():
            mine = [task for task in tasks if task in targets]
            if not mine:
                continue
            row = stack.add(event.detect_window if tasks[0] is Task.DETECT_FAULT
                            else event.classify_window)
            for task in mine:
                data[task]["y"].append(targets[task])
                data[task]["record"].append(rec)
                data[task]["row"].append(row)

    for rec, (_, wave) in enumerate(records):
        add(rec, wave)
    for stack in stacks.values():
        for task, values in stack.finish().items():
            d = data[task]
            d["X"] = values[np.asarray(d.pop("row"), dtype=np.intp)]
            d["y"] = np.asarray(d["y"])
            d["record"] = np.asarray(d["record"], dtype=np.intp)
    return data


def train_pipeline(corpus_dir, manifest, config: TrainConfig) -> PipelineModel:
    """Grid-search one classifier per task and assemble the pipeline.

    The corpus is split 4:1 stratified by the full hierarchical label (every
    task's class, joined), read from the manifest rows. The records are then
    read one at a time, detected and featurized in one pass
    (``_windows_by_task``), so no more than one record's samples are held;
    the rows are split by record, and a row depends on its window alone, so
    no holdout record informs a training row. Per-stage holdout metrics are
    stored in metadata.
    """
    labels = np.asarray([
        "/".join(_task_targets(_record_label(row)).values()) for row in manifest
    ])
    train_idx, _ = train_test_split(labels, 0.2, config.seed)
    data = _windows_by_task(iter_corpus_waveforms(corpus_dir, manifest))
    in_train = np.zeros(len(manifest), dtype=bool)
    in_train[train_idx] = True
    train_rows = {task: in_train[d["record"]] for task, d in data.items()}
    # every detected record has a DetectFault row
    detected = data[Task.DETECT_FAULT]["record"]
    undetected = [manifest[i]["file"] for i in set(train_idx) - set(detected)]
    holdout = {manifest[i]["file"] for i in detected[~in_train[detected]]}

    for task in Task:
        present = set(data[task]["y"][train_rows[task]])
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
    for task in Task:
        X = data[task]["X"][train_rows[task]]
        y = data[task]["y"][train_rows[task]]
        if config.resample is not None:
            X, y = apply_plan(X, y, config.resample, config.seed)
        result = grid_search(X, y, config)
        result.model.schema_hash = schema_hash(task)
        slots[task] = result.model
        cv_tables[task.value] = {
            "best_config": result.best_config,
            "cv_balanced_accuracy": result.best_score,
            "table": result.table,
        }

    holdout_metrics = _holdout_metrics(
        slots, {task: (d["X"][~train_rows[task]], d["y"][~train_rows[task]])
                for task, d in data.items()})
    model = PipelineModel(
        slots=slots,
        metadata={
            "seed": config.seed,
            "grid": config.resolved_grid(),
            "cv_k": config.cv_k,
            "resample": (
                {
                    "strategy": config.resample.value,
                    "k_neighbors": K_NEIGHBORS,
                    "target_per_class": None,  # the median class count
                }
                if config.resample is not None
                else None
            ),
            "cv_tables": cv_tables,
            "holdout_metrics": holdout_metrics,
            "holdout_files": sorted(holdout),
            "undetected_training_files": sorted(undetected),
        },
    )
    return model


def _holdout_metrics(slots: dict, hold_data: dict) -> dict:
    """Per task with holdout rows, the slot's accuracy and balanced
    accuracy on them; ``hold_data`` maps each task to its (X, y)."""
    out = {}
    for task in Task:
        X, y = hold_data[task]
        if not y.size:
            continue
        counts = ConfusionCounts.from_predictions(y, slots[task].predict(X)[0])
        entry = {"n": int(y.shape[0]), "accuracy": accuracy(counts)}
        try:
            entry["balanced_accuracy"] = balanced_accuracy(counts)
        except ZeroSupportClass:
            entry["balanced_accuracy"] = None
        out[task.value] = entry
    return out


#: the noise study's detect-stage fit
NOISE_STUDY_GBC = GbcConfig(n_estimators=100)


def detect_noise_study(records, train_files, snr_list, seed,
                       repeats: int = 3) -> list[dict]:
    """Fault-detection accuracy per SNR with noise-matched training.

    One detect-stage model is trained on noise-augmented training windows
    (clean plus every requested SNR), then each held-out waveform is
    evaluated ``repeats`` times per SNR with fresh seeded noise draws (at
    infinite SNR the one clean window counts ``repeats`` times). ``records``
    is an iterable of (row, Waveform) read as it goes: a training record's
    draws are made and detected as it is read, and only the holdout records
    are kept for the draws after the fit. The windows are featurized one
    ``FEATURE_CHUNK`` at a time, and each SNR's holdout rows predicted in
    one batch. Rows are keyed by SNR and report overall accuracy and
    per-kind recall.
    """
    import math as _math

    from .wavegen.noise import add_noise

    train_files = set(train_files)
    levels = [s for s in snr_list if not _math.isinf(s)]

    def detect_rows(draws):
        """(DetectFault rows, truths) of the draws (wave, snr, noise seed,
        truth) whose detect window registers an event. Each window is
        copied into a chunk as it is cut, so no noisy waveform outlives
        it."""
        stack = _Stack((Task.DETECT_FAULT,))
        truths = []

        # one call per draw, so its event goes when the call returns
        def add(wave, snr, noise_seed, truth):
            if not _math.isinf(snr):
                wave = add_noise(wave, snr, seed=noise_seed)
            event = detect(wave)
            if event.triggered:
                stack.add(event.detect_window)
                truths.append(truth)

        for draw in draws:
            add(*draw)
        return stack.finish()[Task.DETECT_FAULT], truths

    hold = []          # (index, wave, truth) of every holdout record
    n_records = 0

    def training_draws():
        """Training draw j of record i, noise seed seed + 100 i + j, as the
        record is read; the holdout records are kept aside."""
        nonlocal n_records
        for i, (row, wave) in enumerate(records):
            n_records = i + 1
            truth = _task_targets(wave.label)[Task.DETECT_FAULT]
            if row["file"] in train_files:
                for j, snr in enumerate([_math.inf] + levels):
                    yield wave, snr, seed + 100 * i + j, truth
            else:
                hold.append((i, wave, truth))

    x_train, y_train = detect_rows(training_draws())
    model = gbc_fit(x_train, np.asarray(y_train), NOISE_STUDY_GBC)
    # holdout repeat r of record i is seeded hold_base + 100 i + r, past
    # every training seed
    hold_base = seed + 100 * max(500, n_records)

    clean = None  # (rows, truths) of every holdout record's clean window
    rows_out = []
    for snr in snr_list:
        if _math.isinf(snr):
            # one clean window per record, counted once per repeat
            if clean is None:
                clean = detect_rows((wave, snr, None, truth)
                                    for _, wave, truth in hold)
            x_hold = np.repeat(clean[0], repeats, axis=0)
            y_true = [truth for truth in clean[1] for _ in range(repeats)]
        else:
            x_hold, y_true = detect_rows(
                (wave, snr, hold_base + 100 * i + r, truth)
                for i, wave, truth in hold for r in range(repeats))
        y_pred = model.predict(x_hold)[0] if y_true else []
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
        "version": PIPELINE_FILE_VERSION,
        "detector_cfg": _DETECTOR_CFG,
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
    try:
        if bundle.get("version") != PIPELINE_FILE_VERSION:
            raise SchemaMismatch(
                f"unsupported pipeline version {bundle.get('version')!r}"
            )
        if bundle.get("detector_cfg") != _DETECTOR_CFG:
            raise SchemaMismatch(
                f"detector_cfg {bundle.get('detector_cfg')!r} is not "
                f"{_DETECTOR_CFG!r}, the detector this build cuts windows with"
            )
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
            # training always writes the task's classes, sorted
            classes = sorted(_REQUIRED_CLASSES[task])
            if model.codebook != classes:
                raise SchemaMismatch(
                    f"slot {name}: codebook {model.codebook!r} is not {classes!r}")
            slots[task] = model
        return PipelineModel(
            slots=slots,
            metadata=bundle.get("metadata", {}),
        )
    except SchemaMismatch as exc:
        raise SchemaMismatch(f"model file {path}: {exc}") from exc
    except DiffsentryError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"model file {path} is malformed: {exc!r}") from exc
