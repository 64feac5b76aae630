"""Hierarchical decision scheme: routing, gating, training, persistence."""

import json

import numpy as np
import pytest

from diffsentry.detector import CLASSIFY_LEN, CYCLE, StreamingDetector, detect
from diffsentry.ensembles import GBC_GRID_SMALL
from diffsentry.ensembles.cart import PackedTrees
from diffsentry.ensembles.model import TreeEnsembleModel
from diffsentry.errors import (ClassMissing, IncompleteModel, InvalidGrid,
                               SchemaMismatch)
from diffsentry.features import Task, schema_hash, task_specs
from diffsentry.pipeline import (
    DISTURBANCE_CLASS,
    FAULT_CLASS,
    PipelineModel,
    StreamingClassifier,
    TrainConfig,
    decide,
    decide_many,
    load_pipeline,
    save_pipeline,
    train_pipeline,
)
from diffsentry.sampling import (
    DisturbanceType,
    FaultType,
    SamplingSpec,
    Unit,
)
from diffsentry.wavegen.disturbances import generate_disturbance
from diffsentry.wavegen.faults import FaultSpec, UNIT_PRESETS, simulate_internal_fault

SPEC = SamplingSpec()
SPC = SPEC.samples_per_cycle

_TASK_CLASSES = {
    Task.DETECT_FAULT: [DISTURBANCE_CLASS, FAULT_CLASS],
    Task.LOCATE_UNIT: sorted(u.value for u in Unit),
    Task.IDENTIFY_SERIES: sorted(ft.value for ft in FaultType),
    Task.IDENTIFY_EXCITING: sorted(ft.value for ft in FaultType),
    Task.IDENTIFY_PT: sorted(ft.value for ft in FaultType),
    Task.IDENTIFY_DISTURBANCE: sorted(d.value for d in DisturbanceType),
}


def _one_leaf(probs) -> PackedTrees:
    """One tree that is one leaf holding ``probs``."""
    return PackedTrees(offsets=np.array([0, 1]), feature=np.array([-1]),
                       threshold=np.zeros(1), left=np.array([-1]),
                       right=np.array([-1]), gain=np.zeros(1), n=np.array([1]),
                       value=np.array([probs], dtype=np.float64))


def _stub(task: Task, label: str) -> TreeEnsembleModel:
    classes = _TASK_CLASSES[task]
    probs = [0.0] * len(classes)
    probs[classes.index(label)] = 1.0
    return TreeEnsembleModel(
        kind="CART",
        packed=_one_leaf(probs),
        codebook=classes,
        config={},
        n_features=len(task_specs(task)) * 3,
        schema_hash=schema_hash(task),
    )


class _Poisoned(TreeEnsembleModel):
    def predict_proba(self, X):
        raise AssertionError("this stage must not be invoked")


def _poisoned(task: Task) -> TreeEnsembleModel:
    classes = _TASK_CLASSES[task]
    return _Poisoned(
        kind="CART",
        packed=_one_leaf([1.0] + [0.0] * (len(classes) - 1)),
        codebook=classes,
        config={},
        n_features=len(task_specs(task)) * 3,
        schema_hash=schema_hash(task),
    )


def _stub_pipeline(overrides) -> PipelineModel:
    slots = {task: _poisoned(task) for task in Task}
    slots.update(overrides)
    return PipelineModel(slots=slots)


def _steady():
    n = 8 * SPC
    theta = 2 * np.pi * np.arange(n)[:, None] / SPC
    offs = np.array([0.0, -2 * np.pi / 3, 2 * np.pi / 3])
    return 0.9 * np.sin(theta + offs)


def _fault_wave(rf=0.01):
    fault = FaultSpec(fault_type=FaultType.WA_G, unit=Unit.PT,
                      resistance_ohm=rf, pct_winding=80.0)
    return simulate_internal_fault(UNIT_PRESETS[Unit.PT], fault, SPEC,
                                   duration_cycles=8, inception_index=2 * SPC)


def test_no_event_short_circuits_every_classifier():
    model = _stub_pipeline({})  # all six stages poisoned
    decision = decide(_steady(), model)
    assert decision.verdict == "NoEvent"
    assert not decision.detected
    assert decision.fault_unit is None
    assert decision.stage_probabilities == {}


def test_fault_route_trips_and_never_touches_disturbance_stage():
    model = _stub_pipeline({
        Task.DETECT_FAULT: _stub(Task.DETECT_FAULT, FAULT_CLASS),
        Task.LOCATE_UNIT: _stub(Task.LOCATE_UNIT, "PT"),
        Task.IDENTIFY_PT: _stub(Task.IDENTIFY_PT, "wa-g"),
    })
    decision = decide(_fault_wave(), model)
    assert decision.verdict == "Trip"
    assert decision.detected
    assert decision.fault_unit == "PT"
    assert decision.fault_type == "wa-g"
    assert decision.disturbance_type is None
    assert set(decision.stage_probabilities) == {"detect", "locate", "fault_type"}


def test_disturbance_route_restrains_and_never_locates():
    model = _stub_pipeline({
        Task.DETECT_FAULT: _stub(Task.DETECT_FAULT, DISTURBANCE_CLASS),
        Task.IDENTIFY_DISTURBANCE: _stub(
            Task.IDENTIFY_DISTURBANCE, "MagnetizingInrush"
        ),
    })
    decision = decide(_fault_wave(), model)
    assert decision.verdict == "Restrain"
    assert decision.disturbance_type == "MagnetizingInrush"
    assert decision.fault_unit is None and decision.fault_type is None
    assert set(decision.stage_probabilities) == {"detect", "disturbance"}


def test_unit_routing_truth_table():
    for unit, task in ((u.value, t) for u, t in (
        (Unit.EXCITING, Task.IDENTIFY_EXCITING),
        (Unit.SERIES, Task.IDENTIFY_SERIES),
        (Unit.PT, Task.IDENTIFY_PT),
    )):
        model = _stub_pipeline({
            Task.DETECT_FAULT: _stub(Task.DETECT_FAULT, FAULT_CLASS),
            Task.LOCATE_UNIT: _stub(Task.LOCATE_UNIT, unit),
            task: _stub(task, "TurnToTurn"),
        })
        decision = decide(_fault_wave(), model)
        assert decision.verdict == "Trip"
        assert decision.fault_unit == unit
        assert decision.fault_type == "TurnToTurn"


def test_incomplete_model_rejected():
    slots = {task: _stub(task, _TASK_CLASSES[task][0]) for task in Task}
    del slots[Task.LOCATE_UNIT]
    model = PipelineModel(slots=slots)
    with pytest.raises(IncompleteModel):
        decide(_steady(), model)


def test_latency_accounting_fields():
    model = _stub_pipeline({
        Task.DETECT_FAULT: _stub(Task.DETECT_FAULT, FAULT_CLASS),
        Task.LOCATE_UNIT: _stub(Task.LOCATE_UNIT, "PT"),
        Task.IDENTIFY_PT: _stub(Task.IDENTIFY_PT, "wa-g"),
    })
    wave = _fault_wave(rf=0.5)
    decision = decide(wave, model)
    lat = decision.latency
    assert lat["verdict_from_trigger_samples"] == SPC
    assert lat["verdict_from_trigger_samples"] <= 1.5 * SPC + 1
    assert lat["full_from_trigger_samples"] == 3 * SPC
    assert (
        lat["verdict_from_inception_samples"]
        == decision.trigger_index - wave.inception_index + SPC
    )


def test_class_missing_reported(small_corpus):
    corpus_dir, manifest = small_corpus
    rows = [r for r in manifest if r["disturbance_type"] != "Ferroresonance"]
    with pytest.raises(ClassMissing) as err:
        train_pipeline(corpus_dir, rows, TrainConfig(seed=0))
    assert err.value.task == Task.IDENTIFY_DISTURBANCE.value
    assert "Ferroresonance" in err.value.missing


def test_partial_grid_is_completed_from_the_small_grid(small_corpus):
    # a full grid keeps its key order, so its search table keeps its order
    full = {"learning_rate": [0.3], "max_depth": [1, 2], "n_estimators": [4]}
    assert list(TrainConfig(grid=full).resolved_grid().items()) == list(full.items())
    assert TrainConfig().resolved_grid() == GBC_GRID_SMALL
    corpus_dir, manifest = small_corpus
    model = train_pipeline(corpus_dir, manifest,
                           TrainConfig(grid={"n_estimators": [2]}, cv_k=2))
    assert model.metadata["grid"] == {"n_estimators": [2], "max_depth": [3],
                                      "learning_rate": [0.1]}
    for table in model.metadata["cv_tables"].values():
        assert table["best_config"] == {"n_estimators": 2, "max_depth": 3,
                                        "learning_rate": 0.1}


@pytest.mark.parametrize("grid, names", [
    ({"foo": [1]}, "'foo'"),
    ({"n_estimators": [-1]}, "n_estimators"),
    ({"max_depth": 3}, "max_depth"),
    ({"learning_rate": []}, "learning_rate"),
    # boosting trees grow level by level down to a depth bound
    ({"max_depth": [None]}, "max_depth"),
], ids=["unknown_key", "negative_estimators", "value_not_a_list",
        "empty_values", "unbounded_depth"])
def test_bad_grid_fails_before_any_record_is_read(monkeypatch, grid, names):
    from diffsentry import pipeline

    def no_reading(*args):
        raise AssertionError("the corpus must not be read")

    monkeypatch.setattr(pipeline, "read_waveform_csv", no_reading)
    with pytest.raises(InvalidGrid, match=names):
        train_pipeline("no_corpus", [{"file": "a.csv"}], TrainConfig(grid=grid))


@pytest.mark.parametrize("kwargs, error", [
    ({"cv_k": 1}, ValueError),
    ({"cv_k": 0}, ValueError),
    ({"cv_k": 2.5}, TypeError),
    ({"cv_k": True}, TypeError),
    ({"cv_k": "3"}, TypeError),
    ({"seed": -1}, ValueError),
    ({"seed": 1.5}, TypeError),
    ({"seed": False}, TypeError),
    ({"seed": None}, TypeError),
])
def test_bad_folds_or_seed_fail_when_the_config_is_made(kwargs, error):
    name = next(iter(kwargs))
    with pytest.raises(error, match=name):
        TrainConfig(**kwargs)


def test_trained_pipeline_metadata_and_holdout(trained_pipeline):
    model, _ = trained_pipeline
    metrics = model.metadata["holdout_metrics"]
    assert set(metrics) == {t.value for t in Task}
    for entry in metrics.values():
        assert 0.0 <= entry["accuracy"] <= 1.0
    assert model.metadata["holdout_files"]
    for task in Task:
        assert model.slots[task].schema_hash == schema_hash(task)


def test_every_feature_finite_on_corpus(small_corpus):
    """No NaN or infinity leaks from any feature on any corpus waveform;
    degenerate windows engage the AR fallback instead."""
    from diffsentry.detector import detect
    from diffsentry.features import extract
    from diffsentry.pipeline import load_corpus_waveforms

    corpus_dir, manifest = small_corpus
    checked = 0
    # DetectFault covers all five families on the 1.5-cycle window;
    # the other two cover both window lengths for every family
    tasks = (Task.DETECT_FAULT, Task.IDENTIFY_SERIES, Task.IDENTIFY_DISTURBANCE)
    for row, wave in load_corpus_waveforms(corpus_dir, manifest):
        event = detect(wave)
        if not event.triggered:
            continue
        for task in tasks:
            window = (event.detect_window if task is Task.DETECT_FAULT
                      else event.classify_window)
            vec = extract(window, task)
            assert np.all(np.isfinite(vec.values)), (row["file"], task)
        checked += 1
    assert checked >= 500


def test_trained_pipeline_decides_inrush_holdout(trained_pipeline):
    """100 seeded magnetizing-inrush draws from the sweep grid (the corpus
    cap leaves most grid points unseen): at least 95 restrained and named."""
    model, _ = trained_pipeline
    rng = np.random.default_rng(404)
    hits = 0
    for _ in range(100):
        params = {
            "residual_flux_pct": float(rng.choice([-80, -40, 40, 80])),
            "pattern": int(rng.integers(0, 3)),
            "tap": float(rng.choice([0.6, 1.0])),
            "shift": str(rng.choice(["forward", "backward"])),
        }
        step = int(rng.integers(0, 12))
        wave = generate_disturbance(
            DisturbanceType.MAGNETIZING_INRUSH, params, SPEC,
            inception_index=2 * SPC + round(step * SPC / 12),
        )
        decision = decide(wave, model)
        if (decision.verdict == "Restrain"
                and decision.disturbance_type == "MagnetizingInrush"):
            hits += 1
    assert hits >= 95


def test_trained_pipeline_trips_on_solid_fault(trained_pipeline):
    model, _ = trained_pipeline
    decision = decide(_fault_wave(), model)
    assert decision.verdict == "Trip"
    assert decision.fault_unit == "PT"


def test_streaming_matches_batch(trained_pipeline):
    model, _ = trained_pipeline
    wave = _fault_wave()
    batch = decide(wave, model)
    stream = StreamingClassifier(model)
    records = []
    for s in wave.samples:
        records.extend(stream.push(s))
    assert [r["stage"] for r in records] == ["verdict", "full"]
    verdict, full = records
    assert verdict["verdict"] == batch.verdict
    assert verdict["trigger_index"] == batch.trigger_index
    # verdict must be available as soon as the post-trigger cycle closes
    assert verdict["emitted_at_sample"] == batch.trigger_index + SPC - 1
    assert full["verdict"] == batch.verdict
    assert full["fault_unit"] == batch.fault_unit
    assert full["fault_type"] == batch.fault_type


def _decision_json(decision) -> str:
    return json.dumps(decision.to_dict(), sort_keys=True)


def test_decide_many_equals_decide_per_record(trained_pipeline,
                                              reference_corpus, monkeypatch):
    """Every holdout record of the reference corpus, a steady record
    (NoEvent), bare sample arrays and Waveforms: decide_many in batches of
    1, 2, 7 and all gives each record decide's sorted JSON."""
    from diffsentry import pipeline
    from diffsentry.pipeline import load_corpus_waveforms

    model, _ = trained_pipeline
    corpus_dir, manifest, _ = reference_corpus
    hold = set(model.metadata["holdout_files"])
    records = load_corpus_waveforms(
        corpus_dir, [row for row in manifest if row["file"] in hold])
    xs = [_steady()] + [wave if i % 2 else wave.samples
                        for i, (_, wave) in enumerate(records)]
    want = [_decision_json(decide(x, model)) for x in xs]
    assert {json.loads(w)["verdict"] for w in want} == {
        "NoEvent", "Trip", "Restrain"}
    assert decide_many([], model) == []
    for size in (1, 2, 7, len(xs)):
        got = [_decision_json(d) for start in range(0, len(xs), size)
               for d in decide_many(xs[start: start + size], model)]
        assert got == want, size
    assert [_decision_json(d) for d in decide_many(iter(xs[:7]), model)] \
        == want[:7]

    # the whole batch asks each task once
    calls = []
    for name in ("extract", "extract_many"):
        op = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda w, task, op=op: (
            calls.append(task), op(w, task))[1])
    decide_many(xs, model)
    assert sorted(calls, key=list(Task).index) == list(Task)


def test_stream_ending_between_the_windows_gives_only_the_verdict():
    # every slot but DetectFault is poisoned, so a full decision would fail
    model = _stub_pipeline(
        {Task.DETECT_FAULT: _stub(Task.DETECT_FAULT, FAULT_CLASS)})
    samples = _fault_wave().samples
    trigger = detect(samples).trigger_index
    cut = samples[: trigger + CLASSIFY_LEN - 1]   # stops one short of 3 cycles
    detector = StreamingDetector()
    events = [e for s in cut if (e := detector.push(s)) is not None]
    assert len(events) == 1
    assert events[0].classify_window is None
    stream = StreamingClassifier(model)
    records = [rec for s in cut for rec in stream.push(s)]
    assert [r["stage"] for r in records] == ["verdict"]
    assert records[0]["verdict"] == "Trip"
    assert records[0]["emitted_at_sample"] == trigger + CYCLE - 1


def test_save_load_round_trip(tmp_path, trained_pipeline):
    model, _ = trained_pipeline
    path = tmp_path / "pipeline.json"
    save_pipeline(model, path)
    loaded = load_pipeline(path)
    wave = _fault_wave()
    a = decide(wave, model)
    b = decide(wave, loaded)
    assert a.to_dict() == b.to_dict()


def test_load_rejects_schema_tamper(tmp_path, trained_pipeline):
    import json

    model, _ = trained_pipeline
    path = tmp_path / "pipeline.json"
    save_pipeline(model, path)
    bundle = json.loads(path.read_text())
    bundle["slots"]["DetectFault"]["schema_hash"] = "0" * 16
    path.write_text(json.dumps(bundle))
    with pytest.raises(SchemaMismatch):
        load_pipeline(path)


def test_model_file_stores_only_the_threshold(tmp_path):
    import json

    path = tmp_path / "pipeline.json"
    save_pipeline(_stub_pipeline({}), path)
    bundle = json.loads(path.read_text())
    assert bundle["version"] == 3
    assert bundle["detector_cfg"] == {"threshold": 0.05}


@pytest.mark.parametrize("tamper,message", [
    # version 2 files stored the window geometry beside the threshold
    (lambda b: b.update(version=2), "version 2"),
    (lambda b: b["detector_cfg"].update(post_cycles_classify=3),
     "post_cycles_classify"),
    (lambda b: b["detector_cfg"].update(threshold=float("nan")), "threshold"),
    (lambda b: b["detector_cfg"].update(threshold="0.05"), "threshold"),
    # a pickup the build's detector does not cut windows with
    (lambda b: b["detector_cfg"].update(threshold=0.1), "0.1"),
], ids=["version_2", "removed_key", "nan_threshold", "string_threshold",
        "other_threshold"])
def test_load_rejects_an_old_or_bad_detector_config(tmp_path, tamper, message):
    import json

    path = tmp_path / "pipeline.json"
    save_pipeline(_stub_pipeline({}), path)
    bundle = json.loads(path.read_text())
    tamper(bundle)
    path.write_text(json.dumps(bundle))
    with pytest.raises(SchemaMismatch, match=message):
        load_pipeline(path)


@pytest.mark.parametrize("slot, codebook", [
    # the two labels swapped: every internal fault would read as a disturbance
    ("DetectFault", [FAULT_CLASS, DISTURBANCE_CLASS]),
    # a unit with no Identify slot, where a Trip would end in a ValueError
    ("LocateUnit", sorted(u.value for u in Unit)[:-1] + ["X"]),
], ids=["swapped_labels", "unknown_unit"])
def test_load_rejects_a_codebook_training_never_writes(tmp_path, slot, codebook):
    path = tmp_path / "pipeline.json"
    save_pipeline(_stub_pipeline({}), path)
    assert set(load_pipeline(path).slots) == set(Task)
    bundle = json.loads(path.read_text())
    bundle["slots"][slot]["codebook"] = codebook
    path.write_text(json.dumps(bundle))
    with pytest.raises(SchemaMismatch, match=f"slot {slot}: codebook"):
        load_pipeline(path)


def test_load_rejects_a_model_file_that_is_not_an_object(tmp_path):
    path = tmp_path / "pipeline.json"
    path.write_text("[3]\n")
    with pytest.raises(SchemaMismatch):
        load_pipeline(path)


def _noise_study_per_repeat(records, train_files, snr_list, seed, repeats,
                            gbc):
    """Oracle: the noise study with every repeat detected, extracted and
    predicted on its own, clean ones included."""
    import math

    from diffsentry.detector import detect
    from diffsentry.ensembles import gbc_fit
    from diffsentry.evaluation import ConfusionCounts, accuracy
    from diffsentry.features import extract
    from diffsentry.wavegen.noise import add_noise

    def window_at(wave, snr, noise_seed):
        if not math.isinf(snr):
            wave = add_noise(wave, snr, seed=noise_seed)
        event = detect(wave)
        if not event.triggered:
            return None
        return extract(event.detect_window, Task.DETECT_FAULT).values

    levels = [s for s in snr_list if not math.isinf(s)]
    hold_base = seed + 100 * max(500, len(records))
    x_train, y_train, hold = [], [], []
    for i, (row, wave) in enumerate(records):
        truth = FAULT_CLASS if row["kind"] == "InternalFault" else DISTURBANCE_CLASS
        if row["file"] in train_files:
            for j, snr in enumerate([math.inf] + levels):
                vec = window_at(wave, snr, seed + 100 * i + j)
                if vec is not None:
                    x_train.append(vec)
                    y_train.append(truth)
        else:
            hold.append((i, wave, truth))
    model = gbc_fit(np.vstack(x_train), np.asarray(y_train), gbc)
    out = []
    for snr in snr_list:
        y_true, y_pred = [], []
        for i, wave, truth in hold:
            for r in range(repeats):
                vec = window_at(wave, snr, hold_base + 100 * i + r)
                if vec is None:
                    continue
                probs = model.predict_proba(vec[None, :])[0]
                y_true.append(truth)
                y_pred.append(model.codebook[int(np.argmax(probs))])
        counts = ConfusionCounts.from_predictions(y_true, y_pred)
        fc = counts.per_class[FAULT_CLASS]
        dc = counts.per_class[DISTURBANCE_CLASS]
        out.append({
            "snr_db": "inf" if math.isinf(snr) else snr,
            "accuracy": accuracy(counts),
            "fault_recall": fc["tp"] / (fc["tp"] + fc["fn"]),
            "disturbance_recall": dc["tp"] / (dc["tp"] + dc["fn"]),
            "n": len(y_true),
        })
    return out


def test_noise_study_equals_one_pass_per_repeat(small_corpus, monkeypatch):
    import math

    from diffsentry import pipeline
    from diffsentry.ensembles import GbcConfig
    from diffsentry.pipeline import detect_noise_study, load_corpus_waveforms

    corpus_dir, manifest = small_corpus
    faults = [r for r in manifest if r["kind"] == "InternalFault"][::40]
    others = [r for r in manifest if r["kind"] != "InternalFault"][::6]
    records = load_corpus_waveforms(corpus_dir, faults + others)
    train_files = [row["file"] for row, _ in records[1::3] + records[2::3]]
    snr_list = [math.inf, 30.0, 10.0]
    gbc = GbcConfig(n_estimators=8)
    monkeypatch.setattr(pipeline, "NOISE_STUDY_GBC", gbc)
    got = detect_noise_study(records, train_files, snr_list, seed=3, repeats=3)
    want = _noise_study_per_repeat(records, set(train_files), snr_list,
                                   seed=3, repeats=3, gbc=gbc)
    assert got == want
    assert got[0]["n"] % 3 == 0


def _all_event_labels():
    from diffsentry.sampling import EventKind, EventLabel

    faults = [EventLabel(EventKind.INTERNAL_FAULT, unit=u, fault_type=ft)
              for u in Unit for ft in FaultType]
    disturbances = [EventLabel(EventKind.DISTURBANCE, disturbance_type=d)
                    for d in DisturbanceType]
    return faults + disturbances


def _old_full_label(row: dict) -> str:
    """Oracle: the stratum the training split used to build from a row."""
    if row["kind"] == "InternalFault":
        return f"{row['kind']}/{row['unit']}/{row['fault_type']}"
    return f"{row['kind']}/{row['disturbance_type']}"


def test_task_targets_name_a_required_class_for_every_label():
    from diffsentry.pipeline import _REQUIRED_CLASSES, TASK_FOR_UNIT, _task_targets

    labels = _all_event_labels()
    assert len(labels) == 45
    for label in labels:
        targets = _task_targets(label)
        assert next(iter(targets)) is Task.DETECT_FAULT
        for task, cls in targets.items():
            assert cls in _REQUIRED_CLASSES[task], (label, task)
        if label.unit is None:
            assert list(targets) == [Task.DETECT_FAULT, Task.IDENTIFY_DISTURBANCE]
            assert targets[Task.DETECT_FAULT] == DISTURBANCE_CLASS
        else:
            assert list(targets) == [Task.DETECT_FAULT, Task.LOCATE_UNIT,
                                     TASK_FOR_UNIT[label.unit]]
            assert targets[Task.DETECT_FAULT] == FAULT_CLASS


def test_joined_targets_stratify_like_the_old_full_label():
    from diffsentry.evaluation import train_test_split
    from diffsentry.pipeline import _task_targets

    labels = _all_event_labels()
    old = [_old_full_label(label.to_dict()) for label in labels]
    new = ["/".join(_task_targets(label).values()) for label in labels]
    assert len(set(new)) == len(labels)
    assert np.array_equal(np.argsort(old), np.argsort(new))
    # the split draws per class in sorted order, so equal order means an
    # equal split on any corpus, here one with uneven, shuffled classes
    rng = np.random.default_rng(12)
    picks = rng.permutation(np.repeat(np.arange(len(labels)),
                                      rng.integers(1, 9, len(labels))))
    for seed in (0, 11):
        a = train_test_split(np.asarray(old)[picks], 0.2, seed)
        b = train_test_split(np.asarray(new)[picks], 0.2, seed)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_noise_study_seeds_never_collide(small_corpus, monkeypatch):
    """On a 1,188-record corpus no holdout noise draw reuses a training
    draw's seed."""
    import itertools

    from diffsentry import pipeline
    from diffsentry.ensembles import GbcConfig
    from diffsentry.wavegen import noise

    corpus_dir, manifest = small_corpus
    base = pipeline.load_corpus_waveforms(corpus_dir, manifest)
    records = [(dict(row, file=f"r{i:04d}.csv"), wave) for i, (row, wave)
               in enumerate(itertools.islice(itertools.cycle(base), 1188))]
    train_files = [row["file"] for i, (row, _) in enumerate(records) if i % 3]
    seeds = {"train": [], "hold": []}
    stage = ["train"]
    fit = pipeline.gbc_fit

    def fit_then_hold(*args, **kwargs):
        stage[0] = "hold"  # training draws are all made before the fit
        return fit(*args, **kwargs)

    def record_seed(wave, snr_db, seed):
        seeds[stage[0]].append(seed)
        return wave

    monkeypatch.setattr(pipeline, "gbc_fit", fit_then_hold)
    monkeypatch.setattr(noise, "add_noise", record_seed)
    monkeypatch.setattr(pipeline, "NOISE_STUDY_GBC", GbcConfig(n_estimators=1))
    pipeline.detect_noise_study(records, train_files, [10.0], seed=0, repeats=2)
    assert len(seeds["train"]) == 792 and len(seeds["hold"]) == 2 * 396
    assert not set(seeds["train"]) & set(seeds["hold"])


def test_windows_by_task_equals_a_per_window_oracle(small_corpus):
    """Every task's X rows, classes and record indices equal one extract
    call per window, record by record."""
    from diffsentry.features import extract
    from diffsentry.pipeline import (_task_targets, _windows_by_task,
                                     load_corpus_waveforms)
    from diffsentry.sampling import EventLabel

    corpus_dir, manifest = small_corpus
    records = load_corpus_waveforms(corpus_dir, manifest)
    data = _windows_by_task(records)
    want = {task: {"X": [], "y": [], "record": []} for task in Task}
    missed = []
    for i, (row, wave) in enumerate(records):
        event = detect(wave)
        if not event.triggered:
            missed.append(i)
            continue
        for task, cls in _task_targets(EventLabel.from_dict(row)).items():
            window = (event.detect_window if task is Task.DETECT_FAULT
                      else event.classify_window)
            want[task]["X"].append(extract(window, task).values)
            want[task]["y"].append(cls)
            want[task]["record"].append(i)
    # an undetected record has no row in any task
    rowed = set().union(*(data[task]["record"].tolist() for task in Task))
    assert [i for i in range(len(records)) if i not in rowed] == missed
    for task in Task:
        assert data[task]["X"].tobytes() == np.vstack(want[task]["X"]).tobytes()
        assert data[task]["y"].tolist() == want[task]["y"]
        assert data[task]["record"].tolist() == want[task]["record"]


# a grid of one cheap point: the split tests check rows, not fits
_QUICK = TrainConfig(grid={"n_estimators": [2], "max_depth": [1]}, cv_k=2, seed=5)


def _split_indices(records):
    """(training, holdout) record indices of train_pipeline's split."""
    from diffsentry.evaluation import train_test_split
    from diffsentry.pipeline import _task_targets

    labels = np.asarray(["/".join(_task_targets(wave.label).values())
                         for _, wave in records])
    return train_test_split(labels, 0.2, _QUICK.seed)


def _split_oracle(records, skip=()):
    """Per split, every task's rows and classes from one extract call per
    window, the records in ``skip`` taken as undetected."""
    from diffsentry.features import extract
    from diffsentry.pipeline import _task_targets

    out = []
    for idx in _split_indices(records):
        want = {task: {"X": [], "y": []} for task in Task}
        for i in idx:
            row, wave = records[i]
            event = detect(wave)
            if i in skip or not event.triggered:
                continue
            for task, cls in _task_targets(wave.label).items():
                window = (event.detect_window if task is Task.DETECT_FAULT
                          else event.classify_window)
                want[task]["X"].append(extract(window, task).values)
                want[task]["y"].append(cls)
        out.append(want)
    return out


def _capture_splits(monkeypatch):
    """The training rows each grid search fits and the holdout rows that
    are scored, as train_pipeline hands them over."""
    from diffsentry import pipeline

    seen = {"train": [], "hold": None}
    search, metrics = pipeline.grid_search, pipeline._holdout_metrics

    def searched(X, y, config):
        seen["train"].append((X, list(y)))
        return search(X, y, config)

    def scored(slots, hold_data):
        seen["hold"] = hold_data
        return metrics(slots, hold_data)

    monkeypatch.setattr(pipeline, "grid_search", searched)
    monkeypatch.setattr(pipeline, "_holdout_metrics", scored)
    return seen


def test_training_and_holdout_rows_equal_a_per_split_oracle(small_corpus,
                                                            monkeypatch):
    """One featurization pass split by record gives each split the rows and
    classes of featurizing that split on its own, and the holdout files are
    the detected holdout records."""
    from diffsentry.pipeline import load_corpus_waveforms

    corpus_dir, manifest = small_corpus
    seen = _capture_splits(monkeypatch)
    model = train_pipeline(corpus_dir, manifest, _QUICK)
    records = load_corpus_waveforms(corpus_dir, manifest)
    want_train, want_hold = _split_oracle(records)
    assert len(seen["train"]) == len(Task)
    for task, (X, y) in zip(Task, seen["train"]):
        assert X.tobytes() == np.vstack(want_train[task]["X"]).tobytes()
        assert y == want_train[task]["y"]
        X_hold, y_hold = seen["hold"][task]
        assert X_hold.tobytes() == np.vstack(want_hold[task]["X"]).tobytes()
        assert y_hold.tolist() == want_hold[task]["y"]
    _, hold_idx = _split_indices(records)
    assert model.metadata["holdout_files"] == sorted(
        records[i][0]["file"] for i in hold_idx if detect(records[i][1]).triggered)


def test_an_undetected_holdout_record_is_in_no_file_list(small_corpus,
                                                         monkeypatch):
    """A training record that does not trigger is listed as undetected; a
    holdout record that does not trigger is in neither list, and neither
    gives a row."""
    from diffsentry import pipeline

    corpus_dir, manifest = small_corpus
    records = pipeline.load_corpus_waveforms(corpus_dir, manifest)
    train_idx, hold_idx = _split_indices(records)
    quiet = {int(train_idx[0]), int(hold_idx[0])}
    assert all(detect(records[i][1]).triggered for i in quiet)
    silenced = [records[i][1].samples for i in quiet]

    def detect_but_quiet(wave):
        if any(np.array_equal(wave.samples, s) for s in silenced):
            return detect(np.zeros((wave.samples.shape[0], 3)))
        return detect(wave)

    monkeypatch.setattr(pipeline, "detect", detect_but_quiet)
    seen = _capture_splits(monkeypatch)
    model = train_pipeline(corpus_dir, manifest, _QUICK)
    train_file = records[train_idx[0]][0]["file"]
    hold_file = records[hold_idx[0]][0]["file"]
    missed = [records[i][0]["file"] for i in train_idx
              if i in quiet or not detect(records[i][1]).triggered]
    assert train_file in missed
    assert model.metadata["undetected_training_files"] == sorted(missed)
    assert hold_file not in model.metadata["undetected_training_files"]
    assert hold_file not in model.metadata["holdout_files"]
    want_train, want_hold = _split_oracle(records, skip=quiet)
    for task, (X, y) in zip(Task, seen["train"]):
        assert X.tobytes() == np.vstack(want_train[task]["X"]).tobytes()
        assert y == want_train[task]["y"]
        assert (seen["hold"][task][0].tobytes()
                == np.vstack(want_hold[task]["X"]).tobytes())
    assert model.metadata["holdout_files"] == sorted(
        records[i][0]["file"] for i in hold_idx
        if i not in quiet and detect(records[i][1]).triggered)


# -- the corpus streamed through train and evaluate -------------------------------

def _noise_study_seen(records, train_files, monkeypatch):
    """The noise study's report rows, and the bytes of the rows it fits
    and predicts, on a small detect-stage fit."""
    import math

    from diffsentry import pipeline
    from diffsentry.ensembles import GbcConfig

    seen = []
    fit = pipeline.gbc_fit

    class Recording:
        def __init__(self, model):
            self.model = model

        def predict(self, X):
            seen.append(X.tobytes())
            return self.model.predict(X)

    def fit_recording(X, y, config):
        seen.append((X.tobytes(), list(y)))
        return Recording(fit(X, y, config))

    monkeypatch.setattr(pipeline, "gbc_fit", fit_recording)
    monkeypatch.setattr(pipeline, "NOISE_STUDY_GBC", GbcConfig(n_estimators=4))
    rows = pipeline.detect_noise_study(records, train_files, [math.inf, 10.0],
                                       seed=2, repeats=2)
    return rows, seen


def _chunked_outputs(small_corpus, monkeypatch):
    """``_windows_by_task`` on the whole small corpus (540 records) and the
    noise study on a slice of it (about 490 training draws), at the
    current ``FEATURE_CHUNK``."""
    from diffsentry.pipeline import _windows_by_task, load_corpus_waveforms

    corpus_dir, manifest = small_corpus
    records = load_corpus_waveforms(corpus_dir, manifest)
    data = _windows_by_task(records)
    windows = {task: (d["X"].tobytes(), d["y"].tolist(), d["record"].tolist())
               for task, d in data.items()}
    study = ([rec for rec in records if rec[0]["kind"] == "InternalFault"][::2]
             + [rec for rec in records if rec[0]["kind"] != "InternalFault"])
    train_files = [row["file"] for i, (row, _) in enumerate(study) if i % 5]
    return windows, _noise_study_seen(study, train_files, monkeypatch)


@pytest.fixture(scope="module")
def default_chunk_outputs(small_corpus):
    with pytest.MonkeyPatch.context() as mp:
        return _chunked_outputs(small_corpus, mp)


@pytest.mark.parametrize("chunk", [1, 3, 1000],
                         ids=["one", "three", "larger_than_the_corpus"])
def test_chunk_size_changes_no_byte(small_corpus, default_chunk_outputs,
                                    monkeypatch, chunk):
    from diffsentry import pipeline

    # the default splits the corpus and the noise study's training draws
    assert pipeline.FEATURE_CHUNK < 490
    monkeypatch.setattr(pipeline, "FEATURE_CHUNK", chunk)
    windows, (rows, seen) = _chunked_outputs(small_corpus, monkeypatch)
    want_windows, (want_rows, want_seen) = default_chunk_outputs
    assert windows == want_windows
    assert rows == want_rows
    assert seen == want_seen


def _watch_samples(monkeypatch, is_holdout):
    """Wrap ``pipeline.read_waveform_csv`` to keep a weak reference to
    every sample array it returns, and ``pipeline.detect`` to count, at
    each call, the arrays still alive of records ``is_holdout`` does not
    pick. Returns (the files read, in order; the counts)."""
    import weakref

    from diffsentry import pipeline

    read, detect_ = pipeline.read_waveform_csv, pipeline.detect
    refs, files, counts = [], [], []

    def reading(path):
        samples = read(path)
        files.append(path)
        if not is_holdout(path):
            refs.append(weakref.ref(samples))
        return samples

    def detecting(wave):
        counts.append(sum(ref() is not None for ref in refs))
        return detect_(wave)

    monkeypatch.setattr(pipeline, "read_waveform_csv", reading)
    monkeypatch.setattr(pipeline, "detect", detecting)
    return files, counts


def test_training_holds_one_record_at_a_time(small_corpus, monkeypatch):
    corpus_dir, manifest = small_corpus
    files, counts = _watch_samples(monkeypatch, lambda path: False)
    train_pipeline(corpus_dir, manifest, _QUICK)
    assert len(files) == len(manifest) == len(counts)
    # at each detection only the record being detected is alive
    assert set(counts) == {1}


def test_evaluate_holds_one_training_record_and_the_holdout(small_corpus,
                                                            tmp_path, monkeypatch):
    import os

    from diffsentry import pipeline
    from diffsentry.cli import main
    from diffsentry.ensembles import GbcConfig

    corpus_dir, manifest = small_corpus
    model = train_pipeline(corpus_dir, manifest, _QUICK)
    save_pipeline(model, tmp_path / "pipeline.json")
    holdout = {os.path.join(corpus_dir, f) for f in model.metadata["holdout_files"]}
    monkeypatch.setattr(pipeline, "NOISE_STUDY_GBC", GbcConfig(n_estimators=2))
    files, counts = _watch_samples(monkeypatch, lambda path: path in holdout)
    code = main(["evaluate", "--corpus", str(corpus_dir), "--model",
                 str(tmp_path / "pipeline.json"), "--out", str(tmp_path / "report"),
                 "--snr", "inf,10"])
    assert code in (0, 1) and (tmp_path / "report" / "report.json").exists()
    # every record, the holdout among them, is read once
    assert sorted(files) == sorted(os.path.join(corpus_dir, row["file"])
                                   for row in manifest)
    # a training record is alive only while its draws are detected
    assert max(counts) == 1 and counts[-1] == 0
