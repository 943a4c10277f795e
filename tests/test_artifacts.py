from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmas_harness.artifacts import (ExperimentManifest, _fmt_float, canonical_json,
                                    derive_experiment_id, iter_run_files, load_run,
                                    persist_run, run_relpath, validate_record_dict,
                                    write_manifest)
from gmas_harness.errors import ValidationError
from gmas_harness.records import RunRecord
from factories import make_record


def test_canonical_json_sorted_keys_and_floats():
    obj = {"b": 1.5, "a": [0.1, 2, True, None], "c": "text"}
    assert canonical_json(obj) == \
        '{"a":[0.10000000000000001,2,true,null],"b":1.5,"c":"text"}'


def test_canonical_json_negative_zero_normalized():
    assert canonical_json({"x": -0.0}) == '{"x":0}'
    assert canonical_json(-0.0) == "0"


def test_canonical_json_rejects_nan_and_inf():
    with pytest.raises(ValidationError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValidationError):
        canonical_json(math.inf)


def test_canonical_json_escapes_non_ascii():
    assert canonical_json("…") == '"\\u2026"'


def test_canonical_float_round_trips():
    for value in (0.1, 1 / 3, 2.0 ** -52, 1e300, 123456.789):
        text = canonical_json(value)
        assert float(text) == value


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                 1e16, 1e-7, 1e308, -1e308, 0.1, 1 / 3])


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS,
                min_size=1, max_size=40))
def test_float_list_encodes_like_each_item(values):
    expected = "[" + ",".join(_fmt_float(v) for v in values) + "]"
    assert canonical_json(values) == expected
    assert canonical_json(tuple(values)) == expected


@pytest.mark.parametrize("bad", [float("nan"), math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_anywhere_in_float_list_rejected(bad, position):
    values = [0.5, -0.0, 2.0]
    values[position] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        canonical_json({"v": values})


def test_float_list_with_overflowing_sum_is_still_finite():
    assert canonical_json([1e308, 1e308]) == \
        "[1e+308,1e+308]"


@pytest.mark.parametrize("obj, text", [
    ([1, 2.0], "[1,2]"),
    ([True, 1.0], "[true,1]"),
    ([1.0, "x"], '[1,"x"]'),
    ([], "[]"),
    ([1.0, None], "[1,null]"),
    ([[0.5], -0.0], "[[0.5],0]"),
])
def test_mixed_lists_encode_item_by_item(obj, text):
    assert canonical_json(obj) == text


def test_persist_and_load_round_trip(tmp_path):
    record = make_record(penalty=42.5)
    path = persist_run(record, tmp_path)
    assert path == tmp_path / run_relpath(record.persona_set_id, "q1", 1)
    loaded = load_run(path)
    assert loaded == record
    assert loaded.to_dict() == record.to_dict()


def test_persist_twice_is_byte_identical(tmp_path):
    record = make_record()
    first = persist_run(record, tmp_path).read_bytes()
    second = persist_run(record, tmp_path).read_bytes()
    assert first == second


def test_persist_load_persist_is_fixed_point(tmp_path):
    record = make_record(penalty=13.37, consistency=88.8)
    path = persist_run(record, tmp_path)
    original = path.read_bytes()
    reloaded = load_run(path)
    again = persist_run(reloaded, tmp_path).read_bytes()
    assert original == again


def test_nan_metric_rejected_with_validation_error(tmp_path):
    record = make_record(penalty=float("nan"))
    with pytest.raises(ValidationError):
        persist_run(record, tmp_path)


def test_sidecar_holds_timestamp_outside_canonical_artifact(tmp_path):
    record = make_record()
    path = persist_run(record, tmp_path)
    sidecar = path.with_name(path.stem + ".meta.json")
    assert sidecar.exists()
    assert "written_at" in json.loads(sidecar.read_text())
    assert "written_at" not in path.read_text()


def test_iter_run_files_skips_sidecars(tmp_path):
    persist_run(make_record(run_index=1), tmp_path)
    persist_run(make_record(run_index=2), tmp_path)
    files = list(iter_run_files(tmp_path))
    assert len(files) == 2
    assert all(not p.name.endswith(".meta.json") for p in files)


def test_schema_validation_accepts_real_record(tmp_path):
    record = make_record()
    validate_record_dict(record.to_dict())


def test_schema_validation_rejects_missing_role():
    payload = make_record().to_dict()
    del payload["trajectories"]["Coder"]
    with pytest.raises(ValidationError):
        validate_record_dict(payload)


def test_schema_validation_rejects_bad_penalty():
    payload = make_record().to_dict()
    payload["metrics"]["penalty_score"] = 150.0
    with pytest.raises(ValidationError):
        validate_record_dict(payload)


def test_run_record_requires_five_roles():
    record = make_record()
    broken = dict(record.trajectories)
    broken.pop(next(iter(broken)))
    with pytest.raises(ValueError):
        RunRecord(**{**record.__dict__, "trajectories": broken})


def test_manifest_write_and_id_derivation(tmp_path):
    manifest = ExperimentManifest(
        experiment_id=derive_experiment_id({"seed": 42}),
        config_snapshot={"seed": 42},
        question_set={"path": "questions.json", "sha256": "00"},
        persona_registry={"path": "builtin", "sha256": ""},
        dimensions={"questions": 2, "persona_sets": 8, "runs": 3})
    path = write_manifest(manifest, tmp_path)
    data = json.loads(path.read_text())
    assert data["experiment_id"] == manifest.experiment_id
    assert derive_experiment_id({"seed": 42}) == derive_experiment_id({"seed": 42})
    assert derive_experiment_id({"seed": 42}) != derive_experiment_id({"seed": 43})
    assert manifest.experiment_id.startswith("exp-")


def test_manifest_rejects_nonpositive_dimensions():
    with pytest.raises(ValidationError):
        ExperimentManifest(
            experiment_id="exp-x", config_snapshot={},
            question_set={}, persona_registry={},
            dimensions={"questions": 0, "persona_sets": 8, "runs": 3})
