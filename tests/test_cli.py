"""Command-line surface: artifacts, stamps, exit codes, streaming."""

import errno
import io
import json
import os

import numpy as np
import pytest

from diffsentry import __version__
from diffsentry.cli import main
from diffsentry.pipeline import PipelineModel
from diffsentry.sampling import SamplingSpec

SPEC = SamplingSpec()
SPC = SPEC.samples_per_cycle


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def _steady_csv(path, cycles=8):
    n = cycles * SPC
    theta = 2 * np.pi * np.arange(n) / SPC
    with open(path, "w", newline="\n") as fh:
        fh.write("t_s,ia_pu,ib_pu,ic_pu\n")
        for i in range(n):
            a = 0.8 * np.sin(theta[i])
            b = 0.8 * np.sin(theta[i] - 2 * np.pi / 3)
            c = 0.8 * np.sin(theta[i] + 2 * np.pi / 3)
            fh.write(f"{i * SPEC.dt:.10g},{a:.10g},{b:.10g},{c:.10g}\n")


def test_generate_is_deterministic(tmp_path, capsys):
    args = ["generate", "--seed", "9", "--cases-per-class", "2",
            "--fault-cases", "4"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    ta = _tree_bytes(tmp_path / "a")
    tb = _tree_bytes(tmp_path / "b")
    assert ta.keys() == tb.keys()
    assert all(ta[k] == tb[k] for k in ta)
    out = capsys.readouterr().out
    # the summary counts each class of the manifest it wrote
    rows = [line.split() for line in out.splitlines()
            if not line.startswith(("corpus written", "class"))]
    want = [["CapacitorSwitching", "2"], ["ExternalFaultCTSat", "2"],
            ["Ferroresonance", "2"], ["InternalFault", "4"],
            ["MagnetizingInrush", "2"], ["NonlinearLoadSwitching", "2"],
            ["SympatheticInrush", "2"]]
    assert rows == want + want


def test_generate_run_stamp(tmp_path):
    main(["generate", "--seed", "3", "--cases-per-class", "2",
          "--fault-cases", "4", "--out", str(tmp_path / "c")])
    stamp = json.loads((tmp_path / "c" / "run.json").read_text())
    assert stamp["tool_version"] == __version__
    assert stamp["seed"] == 3
    assert len(stamp["config_hash"]) == 16


def test_classify_steady_csv_reports_no_event(tmp_path, saved_model, capsys):
    csv_path = tmp_path / "steady.csv"
    _steady_csv(csv_path)
    assert main(["classify", "--model", str(saved_model), str(csv_path)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 1
    assert lines[0]["verdict"] == "NoEvent"
    assert lines[0]["file"] == "steady.csv"


def test_classify_names_a_file_it_cannot_decide(tmp_path, saved_model, capsys):
    # the late file reads cleanly but triggers too near its end for the
    # classification window; the file before it is still reported
    good, late = tmp_path / "good.csv", tmp_path / "late.csv"
    _steady_csv(good)
    _steady_csv(late)
    lines = late.read_text().splitlines()
    for k in range(len(lines) - 200, len(lines)):
        t, a, b, c = lines[k].split(",")
        lines[k] = f"{t},{3 * float(a):.10g},{b},{c}"
    late.write_text("\n".join(lines) + "\n")
    code = main(["classify", "--model", str(saved_model), str(good), str(late)])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error [classify]: ")
    assert str(late) in err and "too short" in err
    assert [json.loads(l)["file"] for l in out.splitlines()] == ["good.csv"]


def test_classify_fault_csv_trips(tmp_path, saved_model, reference_corpus, capsys):
    corpus_dir, manifest, _ = reference_corpus
    fault_row = next(r for r in manifest if r["kind"] == "InternalFault"
                     and r["provenance"]["resistance_ohm"] == 0.01)
    path = os.path.join(corpus_dir, fault_row["file"])
    out_file = tmp_path / "decisions.jsonl"
    assert main(["classify", "--model", str(saved_model), "--out",
                 str(out_file), path]) == 0
    rec = json.loads(out_file.read_text().splitlines()[0])
    assert rec["verdict"] == "Trip"
    assert rec["fault_unit"] is not None


def test_classify_stdin_stream(tmp_path, saved_model, reference_corpus,
                               monkeypatch, capsys):
    corpus_dir, manifest, _ = reference_corpus
    fault_row = next(r for r in manifest if r["kind"] == "InternalFault")
    csv_text = open(os.path.join(corpus_dir, fault_row["file"])).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(csv_text))
    assert main(["classify", "--model", str(saved_model), "--stdin"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    stages = [l["stage"] for l in lines]
    assert stages == ["verdict", "full"]
    assert lines[0]["verdict"] == "Trip"


def test_evaluate_passes_default_thresholds(tmp_path, saved_model,
                                            reference_corpus, capsys):
    corpus_dir, _, _ = reference_corpus
    code = main(["evaluate", "--corpus", str(corpus_dir), "--model",
                 str(saved_model), "--out", str(tmp_path / "report")])
    assert code == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert report["passed"] is True
    assert report["holdout_metrics"]["DetectFault"]["balanced_accuracy"] >= 0.95
    audit = (tmp_path / "report" / "predictions.csv").read_text().splitlines()
    assert audit[0] == "file,kind,truth,verdict,fault_unit,fault_type,disturbance_type"
    assert len(audit) > 100
    out = capsys.readouterr().out
    assert "all thresholds met" in out


def test_evaluate_fails_impossible_thresholds(tmp_path, saved_model,
                                              reference_corpus):
    corpus_dir, _, _ = reference_corpus
    cfg = tmp_path / "thresholds.json"
    cfg.write_text(json.dumps({"thresholds": {"DetectFault": 1.01}}))
    code = main(["evaluate", "--corpus", str(corpus_dir), "--model",
                 str(saved_model), "--out", str(tmp_path / "report2"),
                 "--config", str(cfg)])
    assert code == 1
    report = json.loads((tmp_path / "report2" / "report.json").read_text())
    assert report["passed"] is False
    assert report["failures"]


def test_evaluate_timing_flag(tmp_path, saved_model, reference_corpus, capsys):
    corpus_dir, _, _ = reference_corpus
    code = main(["evaluate", "--corpus", str(corpus_dir), "--model",
                 str(saved_model), "--out", str(tmp_path / "report3"),
                 "--timing"])
    assert code == 0
    timing = json.loads((tmp_path / "report3" / "timing.json").read_text())
    assert "decide_one" in timing
    assert "predict_one" in timing
    assert timing["predict_one"]["median_s"] >= 0.0
    assert "timing (median seconds per stage)" in capsys.readouterr().out


def _assert_classify_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [classify]: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("row", ["0,1,2", "0,1,x,2"])
def test_classify_malformed_csv_row_is_a_data_error(tmp_path, saved_model,
                                                    capsys, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"t_s,ia_pu,ib_pu,ic_pu\n0,0,0,0\n{row}\n")
    code = main(["classify", "--model", str(saved_model), str(path)])
    _assert_classify_error(code, capsys)


def test_classify_malformed_stream_row_is_a_data_error(saved_model, monkeypatch,
                                                       capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("t_s,ia,ib,ic\n0,0,0,0\n0,1,2\n"))
    code = main(["classify", "--model", str(saved_model), "--stdin"])
    _assert_classify_error(code, capsys)


def test_classify_stream_header_is_only_the_first_line(saved_model, monkeypatch,
                                                        capsys):
    # a later row that starts with "t" is data, not a second header
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("\nt_s,ia,ib,ic\n0,0,0,0\ntrue,1,1,1\n0,0,0,0\n"))
    code = main(["classify", "--model", str(saved_model), "--stdin"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [classify]: malformed stream row at line 4")


def test_classify_failure_removes_the_out_file(tmp_path, saved_model, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    _steady_csv(good)
    bad.write_text("t_s,ia_pu,ib_pu,ic_pu\n0,0,0,0\n0,1,2\n")
    out = tmp_path / "o.jsonl"
    code = main(["classify", "--model", str(saved_model), "--out", str(out),
                 str(good), str(bad)])
    _assert_classify_error(code, capsys)
    assert not out.exists()


def _full_disk(model, path):
    """A ``save_pipeline`` that fails partway through the file."""
    with open(path, "w") as fh:
        fh.write('{"version": ')
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


@pytest.mark.parametrize("command", ["classify", "train"])
def test_failed_out_leaves_an_existing_file_unchanged(tmp_path, saved_model,
                                                      reference_corpus,
                                                      monkeypatch, capsys,
                                                      command):
    out = tmp_path / "out"
    out.write_bytes(b'{"earlier": 1}\n')
    if command == "classify":
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        _steady_csv(good)
        bad.write_text("t_s,ia_pu,ib_pu,ic_pu\n0,0,0,0\n0,1,2\n")
        argv = ["classify", "--model", str(saved_model), str(good), str(bad)]
    else:
        monkeypatch.setattr("diffsentry.cli.train_pipeline",
                            lambda corpus, manifest, config: PipelineModel({}))
        monkeypatch.setattr("diffsentry.cli.save_pipeline", _full_disk)
        argv = ["train", "--corpus", str(reference_corpus[0])]
    before = sorted(os.listdir(tmp_path))
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error [{command}]: ")
    assert out.read_bytes() == b'{"earlier": 1}\n'
    assert sorted(os.listdir(tmp_path)) == before   # no temporary file left


_SMALL_GENERATE = ["generate", "--seed", "1", "--cases-per-class", "1",
                   "--fault-cases", "2"]


def _out_argv(command, reference_corpus, saved_model, out):
    if command == "generate":
        return _SMALL_GENERATE + ["--out", out]
    return ["evaluate", "--corpus", str(reference_corpus[0]), "--model",
            str(saved_model), "--out", out]


@pytest.mark.parametrize("failure", [
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), KeyboardInterrupt(),
], ids=["disk_full", "interrupted"])
@pytest.mark.parametrize("existing", [False, True], ids=["missing", "empty"])
def test_failed_generate_leaves_the_out_directory_as_it_was(tmp_path, monkeypatch,
                                                            capsys, existing,
                                                            failure):
    from diffsentry.wavegen import corpus

    write, calls = corpus.write_waveform_csv, []

    def third_write_fails(wave, path):
        calls.append(path)
        if len(calls) == 3:
            raise failure
        write(wave, path)

    monkeypatch.setattr(corpus, "write_waveform_csv", third_write_fails)
    out = tmp_path / "corpus"
    if existing:
        out.mkdir()
    argv = _SMALL_GENERATE + ["--out", str(out)]
    if isinstance(failure, OSError):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error [generate]: ")
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert len(calls) == 3
    assert sorted(os.listdir(tmp_path)) == (["corpus"] if existing else [])
    assert not existing or not os.listdir(out)


def test_failed_evaluate_leaves_no_out(tmp_path, saved_model, reference_corpus,
                                       monkeypatch, capsys):
    def full_disk(path, records, decisions):
        with open(path, "w") as fh:
            fh.write("file,")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr("diffsentry.cli._write_predictions_csv", full_disk)
    out = tmp_path / "report"
    code = main(_out_argv("evaluate", reference_corpus, saved_model, str(out)))
    assert code == 1
    assert capsys.readouterr().err.startswith("error [evaluate]: ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_non_empty_out_directory_is_refused(tmp_path, saved_model,
                                            reference_corpus, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_bytes(b"[]\n")
    (out / "timing.json").write_bytes(b"{}\n")
    code = main(_out_argv(command, reference_corpus, saved_model, str(out)))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error [{command}]: ")
    assert str(out) in err
    assert _tree_bytes(out) == {"manifest.json": b"[]\n", "timing.json": b"{}\n"}
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("command, existing", [
    ("generate", "file"), ("evaluate", "file"), ("train", "empty_directory"),
    ("classify", "empty_directory"), ("generate", "working_directory"),
])
def test_out_the_output_cannot_replace_is_refused(tmp_path, saved_model,
                                                  reference_corpus, capsys,
                                                  monkeypatch, command, existing):
    # the final rename would fail only after the work: onto a file with
    # ENOTDIR, onto a directory with EISDIR, onto the working directory with
    # EBUSY
    corpus_dir, manifest, _ = reference_corpus
    out = tmp_path / "out"
    if existing == "file":
        out.write_bytes(b"earlier\n")
    else:
        out.mkdir()
    arg = str(out)
    if existing == "working_directory":
        monkeypatch.chdir(out)
        arg = "."
    argv = {
        "generate": _SMALL_GENERATE,
        "evaluate": ["evaluate", "--corpus", str(corpus_dir), "--model",
                     str(saved_model)],
        "train": ["train", "--corpus", str(corpus_dir)],
        "classify": ["classify", "--model", str(saved_model),
                     str(corpus_dir / manifest[0]["file"])],
    }[command]
    code = main(argv + ["--out", arg])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error [{command}]: --out {arg} ")
    assert os.listdir(tmp_path) == ["out"]   # no temporary file beside it
    assert _tree_bytes(tmp_path) == (
        {"out": b"earlier\n"} if existing == "file" else {})


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_out_directory_with_a_trailing_slash(tmp_path, saved_model,
                                             reference_corpus, capsys, command):
    out = tmp_path / "out"
    code = main(_out_argv(command, reference_corpus, saved_model, f"{out}/"))
    assert code == 0
    assert os.listdir(tmp_path) == ["out"]
    written = _tree_bytes(out)
    assert "run.json" in written
    assert ("manifest.json" if command == "generate" else "report.json") in written
    assert not [f for f in written if f.endswith(".tmp")]


@pytest.mark.parametrize("sources", [["--stdin", "w.csv"], []],
                         ids=["stdin_and_files", "neither"])
def test_classify_takes_files_or_stdin(saved_model, monkeypatch, capsys,
                                       sources):
    monkeypatch.setattr("sys.stdin", io.StringIO("t_s,ia,ib,ic\n0,0,0,0\n"))
    with pytest.raises(SystemExit) as exit_:
        main(["classify", "--model", str(saved_model)] + sources)
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert "--stdin" in err and "inputs" in err


@pytest.mark.parametrize("command", ["generate", "train", "evaluate"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    # nothing is read before the refusal: the corpus and model do not exist
    out = tmp_path / "out"
    inputs = {
        "generate": [],
        "train": ["--corpus", str(tmp_path / "no_corpus")],
        "evaluate": ["--corpus", str(tmp_path / "no_corpus"), "--model",
                     str(tmp_path / "no_model.json"), "--snr", "inf,10"],
    }[command]
    with pytest.raises(SystemExit) as exit_:
        main([command, "--out", str(out), "--seed", "-1"] + inputs)
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert "argument --seed: '-1' is not a non-negative integer" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_classify_non_finite_stream_sample_is_a_data_error(saved_model, monkeypatch,
                                                           capsys, value):
    # a NaN would stay in its phase's rolling sum, so that phase could never
    # trigger again
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(f"t_s,ia,ib,ic\n0,0,0,0\n1e-4,0,{value},0\n"))
    code = main(["classify", "--model", str(saved_model), "--stdin"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [classify]: ")
    assert "line 3" in err


@pytest.mark.parametrize("where", ["pipeline", "slot"])
def test_classify_unsupported_model_version_is_a_data_error(tmp_path, saved_model,
                                                            capsys, where):
    bundle = json.loads(saved_model.read_text())
    target = bundle if where == "pipeline" else bundle["slots"]["DetectFault"]
    target["version"] = 99
    path = tmp_path / "model.json"
    path.write_text(json.dumps(bundle))
    code = main(["classify", "--model", str(path), str(path)])
    _assert_classify_error(code, capsys)


def _detect_trees(bundle):
    trees = bundle["slots"]["DetectFault"]["trees"]
    assert trees["feature"][0] >= 0  # the first tree's root is a split
    return trees


def _set_root(bundle, name, value):
    _detect_trees(bundle)[name][0] = value


def _child_to_parent(bundle):
    """Point a split's left child, itself a split, back at that split."""
    t = _detect_trees(bundle)
    i = next(i for i, f in enumerate(t["feature"])
             if f >= 0 and t["feature"][t["left"][i]] >= 0)
    t["left"][t["left"][i]] = i


def _version_1(bundle):
    bundle["version"] = 1
    for slot in bundle["slots"].values():
        slot["version"] = 1


def _detect_config(bundle):
    slot = bundle["slots"]["DetectFault"]
    assert slot["kind"] == "GBC"
    return slot["config"]


MODEL_TAMPERS = {
    "feature_index": lambda b: _set_root(
        b, "feature", b["slots"]["DetectFault"]["n_features"]),
    "leaf_width": lambda b: _detect_trees(b)["value"].append(0.0),
    "missing_threshold": lambda b: _detect_trees(b).pop("threshold"),
    "missing_slots": lambda b: b.pop("slots"),
    "child_outside_tree": lambda b: _set_root(
        b, "right", _detect_trees(b)["offsets"][1]),
    "child_to_parent": _child_to_parent,
    "offsets_overrun": lambda b: _detect_trees(b)["offsets"].append(
        _detect_trees(b)["offsets"][-1] + 5),
    "version_1": _version_1,
    "version_2": lambda b: b.update(version=2),
    "removed_detector_key": lambda b: b["detector_cfg"].update(
        post_cycles_classify=3),
    "other_threshold": lambda b: b["detector_cfg"].update(threshold=0.1),
    "gbc_no_learning_rate": lambda b: _detect_config(b).pop("learning_rate"),
}


@pytest.mark.parametrize("tamper", sorted(MODEL_TAMPERS))
def test_classify_tampered_model_is_a_data_error(tmp_path, saved_model,
                                                 reference_corpus, capsys,
                                                 tamper):
    """The loader refuses each tamper: classifying a real fault waveform
    (one every slot of a fault decision reads) fails on the model file."""
    corpus_dir, manifest, _ = reference_corpus
    fault = next(r for r in manifest if r["kind"] == "InternalFault")
    bundle = json.loads(saved_model.read_text())
    MODEL_TAMPERS[tamper](bundle)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(bundle))
    code = main(["classify", "--model", str(path),
                 os.path.join(corpus_dir, fault["file"])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error [classify]: model file {path}")
    assert "Traceback" not in err


def test_classify_non_json_model_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text("not a model\n")
    code = main(["classify", "--model", str(path), str(path)])
    _assert_classify_error(code, capsys)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["generate"])  # missing --out
    assert err.value.code == 2


def test_missing_corpus_is_a_data_error(tmp_path, saved_model, capsys):
    code = main(["evaluate", "--corpus", str(tmp_path / "nope"), "--model",
                 str(saved_model), "--out", str(tmp_path / "r")])
    assert code == 1
    assert "error [evaluate]" in capsys.readouterr().err


def test_evaluate_non_numeric_snr_is_a_usage_error(tmp_path, saved_model,
                                                   reference_corpus, capsys):
    corpus_dir, _, _ = reference_corpus
    code = main(["evaluate", "--corpus", str(corpus_dir), "--model",
                 str(saved_model), "--out", str(tmp_path / "r"),
                 "--snr", "inf,abc"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [evaluate]: ")
    assert "'abc'" in err
    assert not (tmp_path / "r").exists()


def _command(name, corpus_dir, saved_model, out):
    if name == "train":
        return ["train", "--corpus", str(corpus_dir), "--out", str(out)]
    return ["evaluate", "--corpus", str(corpus_dir), "--model",
            str(saved_model), "--out", str(out)]


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_config_that_is_not_json_is_a_data_error(tmp_path, saved_model,
                                                 reference_corpus, capsys,
                                                 command):
    corpus_dir, _, _ = reference_corpus
    cfg = tmp_path / "config.json"
    cfg.write_text("{'grid': ")
    out = tmp_path / "out"
    code = main(_command(command, corpus_dir, saved_model, out)
                + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error [{command}]: ")
    assert "not valid JSON" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_config_that_is_not_an_object_is_a_data_error(tmp_path, saved_model,
                                                      reference_corpus, capsys,
                                                      command):
    corpus_dir, _, _ = reference_corpus
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps([{"grid": {"n_estimators": [2]}}]))
    out = tmp_path / "out"
    code = main(_command(command, corpus_dir, saved_model, out)
                + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error [{command}]: ")
    assert "JSON object" in err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("train", {"grid": 5}),
    ("train", {"grid": {"max_depth": 3}}),
    ("train", {"grid": {"max_depth": []}}),
    ("evaluate", {"thresholds": {"DetectFault": "high"}}),
    ("evaluate", {"thresholds": {"DetectFalt": 0.9}}),
    ("evaluate", {"thresholds": {"DetectFault": float("nan")}}),
], ids=["grid_not_object", "grid_value_not_list", "grid_value_empty",
        "threshold_not_number", "threshold_unknown_task", "threshold_not_finite"])
def test_config_section_of_wrong_type_is_a_data_error(tmp_path, saved_model,
                                                      reference_corpus, capsys,
                                                      command, config):
    corpus_dir, _, _ = reference_corpus
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(_command(command, corpus_dir, saved_model, out)
                + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error [{command}]: ")
    assert repr(next(iter(config))) in err
    assert not out.exists()


@pytest.mark.parametrize("grid, names", [
    ({"foo": [1]}, "'foo'"),
    ({"max_depth": ["a"]}, "max_depth"),
    ({"n_estimators": [-1]}, "n_estimators"),
    ({"learning_rate": [0]}, "learning_rate"),
], ids=["unknown_key", "depth_not_a_number", "negative_estimators",
        "zero_learning_rate"])
def test_bad_train_grid_fails_before_the_corpus_is_read(tmp_path, capsys, grid,
                                                         names):
    # the corpus does not exist: only a check made before reading it can
    # name the grid
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": grid}))
    out = tmp_path / "pipeline.json"
    code = main(["train", "--corpus", str(tmp_path / "no_corpus"), "--out",
                 str(out), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [train]: ")
    assert "grid" in err and names in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("folds", ["1", "0", "-2"])
def test_train_cv_below_two_fails_before_the_corpus_is_read(tmp_path, capsys,
                                                            folds):
    # the corpus does not exist: only a check made before reading it can
    # name the fold count
    out = tmp_path / "pipeline.json"
    code = main(["train", "--corpus", str(tmp_path / "no_corpus"), "--out",
                 str(out), "--cv", folds])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [train]: ")
    assert "--cv" in err and folds in err
    assert not out.exists()


def _manifest_row(**changes) -> str:
    row = {"file": "w.csv", "kind": "Disturbance", "inception_index": 334,
           "unit": None, "fault_type": None,
           "disturbance_type": "CapacitorSwitching"}
    return json.dumps([{**row, **changes}])


@pytest.mark.parametrize("command, text, message", [
    ("train", "[{'file': ", "not valid JSON"),
    ("train", json.dumps({"a": 1}), "list of JSON objects"),
    ("evaluate", json.dumps([1, 2]), "list of JSON objects"),
    ("train", json.dumps([{}]), "row 0 lacks file, kind"),
    ("evaluate", json.dumps([{"file": "w.csv", "kind": "Lightning",
                              "inception_index": 334, "unit": None,
                              "fault_type": None, "disturbance_type": None}]),
     "row 0 has a bad label"),
    ("train", _manifest_row(file=5), "row 0 has file 5"),
    ("evaluate", _manifest_row(inception_index="x"), "row 0 has inception_index 'x'"),
    ("train", _manifest_row(inception_index=True), "row 0 has inception_index True"),
    ("train", json.dumps(json.loads(_manifest_row()) * 2),
     "rows 0 and 1 both name file 'w.csv'"),
], ids=["not_json", "object", "list_of_numbers", "empty_row", "bad_kind",
        "file_not_a_string", "inception_not_an_int", "inception_a_bool",
        "repeated_file"])
def test_bad_manifest_is_a_data_error(tmp_path, saved_model, capsys, command,
                                      text, message):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "manifest.json").write_text(text)
    out = tmp_path / "out"
    code = main(_command(command, corpus_dir, saved_model, out))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error [{command}]: ")
    assert str(corpus_dir / "manifest.json") in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cycles, inception, message", [
    (8, 5000, "3 post-event cycles"),
    (4, 0, "at least 5 cycles"),
], ids=["inception_too_late", "record_too_short"])
def test_record_too_short_for_its_inception_is_a_data_error(tmp_path, saved_model,
                                                            capsys, cycles,
                                                            inception, message):
    # the one record is a holdout file of the model, so evaluate decides it
    # with or without a noise sweep; each command refuses it by name
    name = json.loads(saved_model.read_text())["metadata"]["holdout_files"][0]
    corpus_dir = tmp_path / "corpus"
    (corpus_dir / name).parent.mkdir(parents=True)
    _steady_csv(corpus_dir / name, cycles)
    (corpus_dir / "manifest.json").write_text(
        _manifest_row(file=name, inception_index=inception))
    for command, extra in [("train", []), ("evaluate", []),
                           ("evaluate", ["--snr", "inf"])]:
        out = tmp_path / "out"
        code = main(_command(command, corpus_dir, saved_model, out) + extra)
        err = capsys.readouterr().err
        assert code == 1, (command, extra)
        assert err.startswith(f"error [{command}]: corpus record {name}: ")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()


def test_evaluate_fails_on_a_holdout_record_decided_no_event(tmp_path, saved_model,
                                                            capsys):
    # a holdout fault record replaced by steady samples: the stored metrics
    # still pass, the decision written to predictions.csv does not
    name = json.loads(saved_model.read_text())["metadata"]["holdout_files"][0]
    corpus_dir = tmp_path / "corpus"
    (corpus_dir / name).parent.mkdir(parents=True)
    _steady_csv(corpus_dir / name)
    (corpus_dir / "manifest.json").write_text(_manifest_row(file=name))
    out = tmp_path / "out"
    assert main(_command("evaluate", corpus_dir, saved_model, out)) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["failures"] == [f"holdout records decided NoEvent: {[name]}"]
    audit = (out / "predictions.csv").read_text().splitlines()
    assert audit[1].startswith(f"{name},Disturbance,CapacitorSwitching,NoEvent,")
    assert "FAILED: holdout records decided NoEvent" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--cases-per-class", "--fault-cases"])
def test_negative_corpus_count_is_a_usage_error(tmp_path, capsys, flag):
    out = tmp_path / "corpus"
    code = main(["generate", "--out", str(out), flag, "-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [generate]: ")
    assert "-1" in err
    assert not out.exists()


@pytest.mark.parametrize("token", ["-inf", "nan", "-Infinity", "NaN"])
def test_snr_list_rejects_nan_and_minus_inf(token):
    from diffsentry.cli import _parse_snr_list
    from diffsentry.errors import DiffsentryError

    with pytest.raises(DiffsentryError) as err:
        _parse_snr_list(f"inf,{token}")
    assert repr(token) in str(err.value)


def test_snr_list_keeps_inf_and_finite_levels():
    import math

    from diffsentry.cli import _parse_snr_list

    assert _parse_snr_list("inf, 30,-5,Inf") == [math.inf, 30.0, -5.0, math.inf]
    assert _parse_snr_list("") == []


def test_evaluate_minus_inf_snr_is_a_usage_error(tmp_path, saved_model,
                                                 reference_corpus, capsys):
    corpus_dir, _, _ = reference_corpus
    code = main(["evaluate", "--corpus", str(corpus_dir), "--model",
                 str(saved_model), "--out", str(tmp_path / "r"),
                 "--snr", "inf,-inf"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error [evaluate]: ")
    assert "'-inf'" in err
    assert not (tmp_path / "r").exists()
