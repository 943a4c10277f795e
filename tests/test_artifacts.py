from __future__ import annotations

import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gmas_harness import artifacts
from gmas_harness.artifacts import (ExperimentManifest, VectorMemo, _fmt_float,
                                    canonical_json, derive_experiment_id, iter_run_files,
                                    load_run, persist_run, run_relpath, write_manifest)
from gmas_harness.cli import cli_dispatch
from gmas_harness.embeddings import EmbeddingVector
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


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the norm
@settings(max_examples=300)
@given(hnp.arrays(np.float64, st.integers(0, 40), elements=_FINITE_FLOATS))
def test_vector_encodes_like_each_item_and_like_its_list(values):
    vector = EmbeddingVector(values)
    expected = "[" + ",".join(_fmt_float(v) for v in values.tolist()) + "]"
    assert canonical_json(vector) == expected
    assert canonical_json(vector) == expected  # memoised text
    assert canonical_json(values.tolist()) == expected


@pytest.mark.parametrize("bad", [float("nan"), math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_anywhere_in_vector_rejected_on_every_call(bad, position):
    values = [0.5, -0.0, 2.0]
    values[position] = bad
    vector = EmbeddingVector(values)
    for _ in range(2):
        with pytest.raises(ValidationError, match=f"non-finite float {bad!r}"):
            canonical_json({"v": vector})


def test_equal_distinct_vectors_encode_alike():
    a = EmbeddingVector([0.1, -0.0, 1e-7])
    b = EmbeddingVector([0.1, 0.0, 1e-7])
    assert a is not b and a == b
    assert canonical_json(a) == canonical_json(b) == \
        canonical_json([0.1, 0.0, 1e-7]) == "[0.10000000000000001,0,9.9999999999999995e-08]"


def test_threads_encoding_shared_vectors_agree():
    rng = np.random.default_rng(7)
    vectors = [EmbeddingVector(rng.standard_normal(64)) for _ in range(16)]
    expected = [canonical_json(v.tolist()) for v in vectors]
    results: list[list[str]] = []
    barrier = threading.Barrier(8)

    def encode_all():
        barrier.wait(timeout=10)
        results.append([canonical_json(v) for v in vectors * 20])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode_all) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected * 20] * 8


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


SAMPLE_DATA = Path(__file__).parent.parent / "sample_data"


@pytest.fixture(scope="module")
def sample_tree(tmp_path_factory):
    """Run files of a seed-42 sample_data grid: 2 persona sets x 5 questions x 2 runs."""
    root = tmp_path_factory.mktemp("sample")
    assert cli_dispatch(["grid", "--questions", str(SAMPLE_DATA / "questions.json"),
                         "--runs", "2", "--config", str(SAMPLE_DATA / "experiment.json"),
                         "--out", str(root), "--max-sets", "2"]) == 0
    return list(iter_run_files(root))


def _plain_decode(path):
    return RunRecord.from_dict(json.loads(path.read_text(encoding="utf-8")))


def _verdict(load, path):
    """The loaded record, or the name of the exception that refused the file."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc).__name__


def test_loader_returns_the_plain_decode_of_every_sample_run(sample_tree):
    assert len(sample_tree) == 20
    memo = VectorMemo()
    records = [load_run(path, memo) for path in sample_tree]
    assert records == [_plain_decode(path) for path in sample_tree]
    vectors = {id(vector) for record in records for t in record.trajectories.values()
               for vector in (t.prompt_embedding, t.output_embedding, t.context_centroid)
               if vector is not None}
    assert len(vectors) == len(memo) < 15 * len(records)


def _traj(payload):
    return payload["trajectories"]["Coder"]


def _prompt_spells_a_field(payload):
    _traj(payload)["prompt"] += ' "prompt_embedding":[1] ,"output_embedding":[2]'


def _escaped_quote_key(payload):
    _traj(payload)['a"prompt_embedding'] = [1.0, 2.0]


def _kpi_vector_keys(payload):
    payload["kpi"] = {"output_embedding": [0.5, 0.25], "prompt_embedding": [1]}


def _kpi_bracket_in_a_string(payload):
    payload["kpi"] = {"prompt_embedding": ["]", 1]}


def _empty_centroid(payload):
    _traj(payload)["context_centroid"] = []


def _prompt_spells_a_nul(payload):
    _traj(payload)["prompt"] += "\x00"


def _placeholder_in_a_vector_field(payload):
    payload["kpi"] = {"output_embedding": _traj(payload)["output_embedding"]}
    _traj(payload)["output_embedding"] = "\x000"  # what the kpi array stands in as


def _string_in_a_vector(payload):
    _traj(payload)["output_embedding"] = ["0.5"] + _traj(payload)["output_embedding"][1:]


ADVERSARIAL = {  # name: (edit of the payload, whether the plain decode accepts)
    "prompt spells a vector field": (_prompt_spells_a_field, True),
    "key a\\\"prompt_embedding in a trajectory": (_escaped_quote_key, True),
    "vector keys inside kpi": (_kpi_vector_keys, True),
    "a ] inside a kpi vector key's list": (_kpi_bracket_in_a_string, True),
    "empty context_centroid": (_empty_centroid, True),
    "prompt spells a NUL": (_prompt_spells_a_nul, True),
    "placeholder in a vector field": (_placeholder_in_a_vector_field, False),
    "string in a vector": (_string_in_a_vector, False),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_loader_agrees_with_the_plain_decode_on_adversarial_files(sample_tree, tmp_path,
                                                                  name):
    edit, accepted = ADVERSARIAL[name]
    payload = json.loads(sample_tree[0].read_text(encoding="utf-8"))
    edit(payload)
    path = tmp_path / "run1.json"
    path.write_text(canonical_json(payload) + "\n", encoding="utf-8")
    plain = _verdict(_plain_decode, path)
    assert isinstance(plain, RunRecord) == accepted
    assert _verdict(load_run, path) == plain
    memo = VectorMemo()  # and with the file's vectors already in the memo
    load_run(sample_tree[0], memo)
    assert _verdict(lambda p: load_run(p, memo), path) == plain


@pytest.mark.parametrize("name", ["truncated", "duplicate key", "spaced"])
def test_loader_agrees_with_the_plain_decode_on_altered_text(sample_tree, tmp_path, name):
    text = sample_tree[0].read_text(encoding="utf-8")
    if name == "truncated":
        text = text[:len(text) // 2]
    elif name == "duplicate key":  # json keeps the last value, the file's own vector
        text = text.replace('"output":', '"output_embedding":[9],"output":', 1)
        assert '"output_embedding":[9]' in text
    else:  # no vector field is cut out when ":" and "[" are apart
        text = json.dumps(json.loads(text), indent=1)
    path = tmp_path / "run1.json"
    path.write_text(text, encoding="utf-8")
    plain = _verdict(_plain_decode, path)
    assert isinstance(plain, RunRecord) == (name != "truncated")
    assert _verdict(load_run, path) == plain


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


def test_failed_replace_keeps_old_artifact_and_leaves_no_temp(tmp_path, monkeypatch):
    path = persist_run(make_record(penalty=10.0), tmp_path)
    before = path.read_bytes()

    def broken_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(artifacts.os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk gone"):
        persist_run(make_record(penalty=20.0), tmp_path)
    assert path.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))
    assert list(iter_run_files(tmp_path)) == [path]


def test_iter_run_files_skips_sidecars(tmp_path):
    persist_run(make_record(run_index=1), tmp_path)
    persist_run(make_record(run_index=2), tmp_path)
    files = list(iter_run_files(tmp_path))
    assert len(files) == 2
    assert all(not p.name.endswith(".meta.json") for p in files)


def _persisted_payload(tmp_path) -> dict:
    return json.loads(persist_run(make_record(), tmp_path).read_text())


def _rewritten(tmp_path, payload) -> Path:
    path = tmp_path / "run1.json"
    path.write_text(canonical_json(payload) + "\n")
    return path


def test_schema_validation_accepts_real_record(tmp_path):
    record = make_record()
    assert load_run(persist_run(record, tmp_path)) == record


def test_schema_validation_rejects_missing_role(tmp_path):
    payload = _persisted_payload(tmp_path)
    del payload["trajectories"]["Coder"]
    with pytest.raises(ValidationError, match=r"trajectories lack \['Coder'\]"):
        load_run(_rewritten(tmp_path, payload))


def test_schema_validation_rejects_bad_penalty(tmp_path):
    payload = _persisted_payload(tmp_path)
    payload["metrics"]["penalty_score"] = 150.0
    with pytest.raises(ValidationError, match=r"penalty_score 150 is outside \[0, 100\]"):
        load_run(_rewritten(tmp_path, payload))


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
