"""Corpus plans: sweep arithmetic, caps, manifest format, determinism."""

import collections
import hashlib
import json
import math
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from diffsentry.errors import (FaultFractionOutOfRange, IoFailure,
                               ParameterOutOfRange, PlanEmpty)
from diffsentry.sampling import (DisturbanceType, FaultType, SamplingSpec, Unit,
                                 Waveform, read_waveform_csv)
from diffsentry.wavegen.corpus import (
    ClassPlan,
    CorpusPlan,
    build_case,
    enumerate_plan,
    generate_corpus,
    load_manifest,
    reference_plan,
)


def test_cap_arithmetic_hundred_per_class():
    plan = reference_plan(cases_per_class=100, fault_cases=100)
    cases = enumerate_plan(plan, seed=0)
    counts = collections.Counter(name for _, name, _, _, _ in cases)
    assert len(counts) == 7
    assert all(v == 100 for v in counts.values())
    assert len(cases) == 700


def test_empty_plan_rejected(tmp_path):
    plan = CorpusPlan(classes=(ClassPlan(name="InternalFault", grid={"unit": ()}),))
    with pytest.raises(PlanEmpty):
        generate_corpus(plan, 0, tmp_path)


def _tiny_plan():
    plan = reference_plan(cases_per_class=2, fault_cases=4)
    return plan


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def test_generation_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_corpus(_tiny_plan(), 5, a)
    generate_corpus(_tiny_plan(), 5, b)
    ta, tb = _tree_bytes(a), _tree_bytes(b)
    assert ta.keys() == tb.keys()
    assert all(ta[k] == tb[k] for k in ta)


def test_different_seed_changes_subsampling(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    ma = generate_corpus(_tiny_plan(), 5, a)
    mb = generate_corpus(_tiny_plan(), 6, b)
    pa = [row["provenance"] for row in ma]
    pb = [row["provenance"] for row in mb]
    assert pa != pb


def test_manifest_schema_and_sorting(tmp_path):
    manifest = generate_corpus(_tiny_plan(), 5, tmp_path)
    files = [row["file"] for row in manifest]
    assert files == sorted(files)
    for row in manifest:
        assert set(row.keys()) == {
            "file", "kind", "unit", "fault_type", "disturbance_type",
            "inception_index", "provenance", "seed",
        }
    reloaded = load_manifest(tmp_path)
    assert reloaded == manifest


def test_waveform_csv_format(tmp_path):
    manifest = generate_corpus(_tiny_plan(), 5, tmp_path)
    path = os.path.join(tmp_path, manifest[0]["file"])
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t_s,ia_pu,ib_pu,ic_pu"
    # second column of the second sample row is the time step
    t1 = float(lines[2].split(",")[0])
    assert t1 == pytest.approx(1e-4, rel=1e-9)
    data = read_waveform_csv(path)
    assert data.shape[1] == 3
    assert data.shape[0] == len(lines) - 1


def test_case_seeds_are_stable_and_distinct():
    plan = _tiny_plan()
    cases_a = enumerate_plan(plan, seed=5)
    cases_b = enumerate_plan(plan, seed=5)
    assert [c[4] for c in cases_a] == [c[4] for c in cases_b]
    assert len({c[4] for c in cases_a}) == len(cases_a)


def test_fault_class_covers_all_units_and_types():
    plan = reference_plan(cases_per_class=120, fault_cases=468)
    fault_cases = [c for c in enumerate_plan(plan, seed=7)
                   if c[1] == "InternalFault"]
    units = {c[3]["unit"] for c in fault_cases}
    types = {c[3]["fault_type"] for c in fault_cases}
    assert len(units) == 3
    assert len(types) == 13


def test_manifest_bytes_are_pinned(tmp_path):
    # the manifest holds only plan-derived values (labels, provenance keys,
    # values and their types), so its hash does not depend on the LAPACK build
    generate_corpus(reference_plan(cases_per_class=5, fault_cases=20), 0, tmp_path)
    digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()
    assert digest == "4dae3fdfa944a516250401d8bbf076e89994f1a4140c922352eb4fb5606d6615"


@pytest.mark.parametrize("name", ["InternalFault",
                                  *(kind.value for kind in DisturbanceType)])
def test_every_event_class_names_a_plan(name):
    assert ClassPlan(name=name, grid={}).name == name


def test_unknown_class_name_is_refused_when_the_plan_is_made():
    # refused before generation, which would write the earlier classes' CSVs
    with pytest.raises(ParameterOutOfRange,
                       match="'Capacitor'.*InternalFault.*CapacitorSwitching"):
        ClassPlan(name="Capacitor", grid={"inception_step": (0,)})


def test_misspelt_fault_key_is_refused():
    params = {"unit": "PT", "fault_type": "wa-g", "resistence_ohm": 10.0}
    with pytest.raises(ParameterOutOfRange, match="resistence_ohm"):
        build_case("InternalFault", params, SamplingSpec(), 8)


@pytest.mark.parametrize("change, error, name", [
    pytest.param({"fault_type": None}, ParameterOutOfRange, "fault_type",
                 id="no_fault_type"),
    pytest.param({"fault_type": "a-b-c"}, ParameterOutOfRange, "FaultType",
                 id="bad_fault_type"),
    pytest.param({"unit": "Tertiary"}, ParameterOutOfRange, "Unit", id="bad_unit"),
    pytest.param({"side": "tertiary"}, ParameterOutOfRange, "side", id="bad_side"),
    pytest.param({"resistance_ohm": -1.0}, ParameterOutOfRange, "resistance_ohm",
                 id="negative_resistance"),
    pytest.param({"tap": 1.5}, ParameterOutOfRange, "tap", id="tap_above_one"),
    pytest.param({"pct_winding": 150}, FaultFractionOutOfRange, "150",
                 id="fraction_above_100"),
])
def test_bad_fault_case_is_a_typed_error(change, error, name):
    # a missing or bad value is typed like an unknown key, not a bare
    # KeyError or ValueError
    params = {"unit": "PT", "fault_type": "wa-g", **change}
    params = {k: v for k, v in params.items() if v is not None}
    with pytest.raises(error, match=name):
        build_case("InternalFault", params, SamplingSpec(), 8)


def test_fault_case_without_a_unit_is_on_the_pt():
    wave = build_case("InternalFault", {"fault_type": "wa-g"}, SamplingSpec(), 8)
    assert wave.label.unit.value == "PT"


def test_a_repeated_manifest_file_is_refused(tmp_path):
    # one record in two rows could land in both training and holdout
    generate_corpus(_tiny_plan(), 5, tmp_path)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps(manifest + [manifest[3]]))
    with pytest.raises(IoFailure, match=rf"rows 3 and {len(manifest)} both name "
                                        rf"file '{manifest[3]['file']}'"):
        load_manifest(tmp_path)


def test_a_bad_case_in_a_later_class_writes_nothing(tmp_path):
    # the plan is checked whole before the first CSV is written
    plan = CorpusPlan(classes=(
        ClassPlan(name="CapacitorSwitching", grid={"legs": (1, 2)}),
        ClassPlan(name="InternalFault",
                  grid={"fault_type": ("wa-g",), "pct_winding": (20.0, True)}),
    ))
    (tmp_path / "keep.txt").write_text("earlier output")
    before = _tree_bytes(tmp_path)
    with pytest.raises(ParameterOutOfRange, match="pct_winding"):
        generate_corpus(plan, 0, tmp_path)
    assert _tree_bytes(tmp_path) == before
    assert sorted(os.listdir(tmp_path)) == ["keep.txt"]


def test_fault_table_defaults_are_the_fault_spec_defaults():
    import dataclasses

    from diffsentry.wavegen.faults import PARAMETERS, FaultSpec

    assert {f.name: f.default for f in dataclasses.fields(FaultSpec)} == {
        name: default for name, (_, _, default) in PARAMETERS.items()}


def _tagged(valid, invalid):
    """(value, is_valid): a draw from ``invalid`` one time in ten, else from
    ``valid``, so that about a third of the cases are valid throughout."""
    return st.integers(0, 9).flatmap(
        lambda n: st.sampled_from(invalid).map(lambda v: (v, False)) if n == 0
        else valid.map(lambda v: (v, True)))


_JUNK = ["x", True, None, math.nan, [1.0]]
_FAULT_KEYS = {
    "fault_type": _tagged(st.sampled_from([*FaultType, *(f.value for f in FaultType)]),
                          ["a-b-c", 1, *_JUNK]),
    "unit": _tagged(st.sampled_from([*Unit, *(u.value for u in Unit)]),
                    ["Tertiary", *_JUNK]),
    "resistance_ohm": _tagged(st.one_of(st.floats(0.01, 100.0), st.just(math.inf)),
                              [-1.0, "low", *_JUNK]),
    "pct_winding": _tagged(st.floats(5.0, 95.0) | st.integers(5, 95),
                           [150.0, -5, math.inf, *_JUNK]),
    "side": _tagged(st.sampled_from(["primary", "secondary"]), ["tertiary", 1, *_JUNK]),
    "phase": _tagged(st.sampled_from(["a", "b", "c"]), ["d", *_JUNK]),
    "tap": _tagged(st.floats(0.2, 1.0), [0.0, 1.5, "0.6", *_JUNK]),
    "shift": _tagged(st.sampled_from(["forward", "backward"]), ["left", *_JUNK]),
    "inception_step": _tagged(st.integers(0, 11), [2.5, -1, 1000, "0", *_JUNK]),
}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries(
    {"fault_type": _FAULT_KEYS["fault_type"]},
    optional={key: s for key, s in _FAULT_KEYS.items() if key != "fault_type"}))
def test_a_fault_case_builds_or_names_a_bad_key(tagged):
    case = {key: value for key, (value, _) in tagged.items()}
    bad = [key for key, (_, ok) in tagged.items() if not ok]
    try:
        wave = build_case("InternalFault", case, SamplingSpec(), 8)
    except (ParameterOutOfRange, FaultFractionOutOfRange) as exc:
        assert bad, f"valid case {case} refused: {exc}"
        assert any(re.search(rf"\b{key}\b", str(exc)) for key in bad), str(exc)
    else:
        assert not bad, f"bad keys {bad} of {case} were taken"
        assert isinstance(wave, Waveform)
