from __future__ import annotations

import collections
import dataclasses
import enum
import json
import math
import re
import sys
import threading
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gmas_harness import artifacts, orchestrator
from gmas_harness.analyzer import AnalyzerReport, Dimension
from gmas_harness.artifacts import (ExperimentManifest, ValueMemo, _fmt_float,
                                    canonical_json, cell_relpath, derive_experiment_id,
                                    iter_run_files, load_run, persist_cell_meta, persist_run,
                                    run_relpath, write_manifest)
from gmas_harness.cli import cli_dispatch
from gmas_harness.config import build_env, load_experiment_config
from gmas_harness.embeddings import EmbeddingVector
from gmas_harness.errors import TransportError, ValidationError
from gmas_harness.orchestrator import run_cell, run_grid
from gmas_harness.records import RunRecord, RunStatus
from gmas_harness.scenario import AgentRole, enumerate_grid, load_questions
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


_KEYS = st.text(st.characters(), max_size=6)
_TEXTS = st.text(st.characters() | st.sampled_from('\x00\x1f\x7f"\\/\u2028\u00e9\U0001f600'),
                 max_size=12)


@settings(max_examples=300)
@given(st.recursive(st.none() | st.booleans() | st.integers() | _TEXTS,
                    lambda children: st.lists(children, max_size=4)
                    | st.lists(children, max_size=4).map(tuple)
                    | st.dictionaries(_KEYS, children, max_size=4),
                    max_leaves=24))
def test_float_free_trees_encode_like_the_stdlib(tree):
    assert canonical_json(tree) == json.dumps(tree, sort_keys=True, ensure_ascii=True,
                                              separators=(",", ":"))


class _Colour(str, enum.Enum):
    RED = "r\u00e9d"


class _Float(float):
    pass


_Point = collections.namedtuple("_Point", "x y")


@pytest.mark.parametrize("obj, plain", [
    (_Colour.RED, "r\u00e9d"),
    ({_Colour.RED: [_Colour.RED]}, {"r\u00e9d": ["r\u00e9d"]}),
    (collections.OrderedDict([("b", 1), ("a", [2])]), {"a": [2], "b": 1}),
    (_Point(1, "y"), [1, "y"]),
    ({"p": _Point(_Float(0.1), None)}, {"p": [0.1, None]}),
    (_Float(1 / 3), 1 / 3),
    (_Float(-0.0), 0.0),
    (np.float64(0.1), 0.1),
], ids=["str enum", "str enum key", "OrderedDict", "namedtuple", "nested", "float subclass",
        "negative zero subclass", "numpy float64"])
def test_subclasses_of_json_types_encode_like_their_plain_values(obj, plain):
    assert canonical_json(obj) == canonical_json(plain)


@pytest.mark.parametrize("obj", [
    {1: "a"}, {"a": 1, 2: "b"}, {(1,): 2}, {1, 2}, b"x", np.int64(1), np.bool_(True),
    1j, object(), [np.float32(0.5)], {"a": [float("nan")]}, _Float("inf"),
], ids=repr)
def test_what_json_cannot_hold_is_refused(obj):
    with pytest.raises(ValidationError):
        canonical_json(obj)


def test_persist_and_load_round_trip(tmp_path):
    record = make_record(penalty=42.5)
    path = persist_run(record, tmp_path)
    assert path == tmp_path / run_relpath(record.persona_set_id, "q1", 1)
    loaded = load_run(path)
    assert loaded == record
    assert loaded.to_dict() == record.to_dict()


@pytest.mark.parametrize("set_id, question_id", [
    (None, "../x"), (None, ".."), (None, "."), (None, ""), (None, "/abs"),
    ("../x", "q1"), ("a/../../x", "q1")])
def test_persist_refuses_a_path_that_leaves_the_root(tmp_path, set_id, question_id):
    """No table checks a record built in Python, so persisting holds each id
    to one path part itself."""
    record = make_record(question_id=question_id, **({"set_id": set_id} if set_id else {}))
    root = tmp_path / "a" / "root"
    with pytest.raises(ValidationError, match="is not a file name"):
        persist_run(record, root)
    with pytest.raises(ValidationError, match="is not a file name"):
        persist_cell_meta([], root, record.persona_set_id, question_id)
    assert list(tmp_path.rglob("*")) == []


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


REPO = Path(__file__).parent.parent
SAMPLE_DATA = REPO / "sample_data"


@pytest.fixture(scope="module")
def sample_tree(tmp_path_factory):
    """Run files of a seed-42 sample_data grid: 2 persona sets x 5 questions x 2 runs."""
    root = tmp_path_factory.mktemp("sample")
    assert cli_dispatch(["grid", "--questions", str(SAMPLE_DATA / "questions.json"),
                         "--runs", "2", "--config", str(SAMPLE_DATA / "experiment.json"),
                         "--out", str(root), "--max-sets", "2"]) == 0
    return list(iter_run_files(root))


def test_vectors_encode_without_hashing_or_comparing_them(sample_tree, monkeypatch):
    record = load_run(sample_tree[0])
    vector = EmbeddingVector([0.5, -0.0, 1e-7])

    def refuse(*_args):
        raise AssertionError("an embedding vector was hashed or compared")

    monkeypatch.setattr(EmbeddingVector, "__hash__", refuse)
    monkeypatch.setattr(EmbeddingVector, "__eq__", refuse)
    assert canonical_json({"a": vector, "b": [vector]}) == \
        '{"a":[0.5,0,9.9999999999999995e-08],"b":[[0.5,0,9.9999999999999995e-08]]}'
    assert canonical_json(record.to_dict()) + "\n" == sample_tree[0].read_text(encoding="utf-8")


def _plain_decode(path):
    return RunRecord.from_dict(json.loads(path.read_text(encoding="utf-8")))


def _verdict(load, path):
    """The loaded record, or the name of the exception that refused the file."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc).__name__


def _held(memo, decode):
    """The values ``memo`` holds that ``decode`` made."""
    return [value for (kind, _), value in memo._values.items() if kind is decode]


def test_loader_returns_the_plain_decode_of_every_sample_run(sample_tree):
    assert len(sample_tree) == 20
    memo = ValueMemo()
    records = [load_run(path, memo) for path in sample_tree]
    assert records == [_plain_decode(path) for path in sample_tree]
    vectors = {id(vector) for record in records for t in record.trajectories.values()
               for vector in (t.prompt_embedding, t.output_embedding, t.context_centroid)
               if vector is not None}
    assert len(vectors) == len(_held(memo, artifacts._decode_vector)) < 15 * len(records)


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


def _prompt_spells_the_last_key(payload):
    _traj(payload)["prompt"] += '"thought_summary":"x"}'


def _summary_ends_in_a_backslash(payload):
    _traj(payload)["thought_summary"] += "\\"


def _summary_holds_a_quote(payload):
    _traj(payload)["thought_summary"] += ' "quoted" \\"'


def _key_after_the_last_key(payload):
    _traj(payload)["zz"] = "}"


def _kpi_role_key(payload):
    payload["kpi"] = {"Coder": dict(_traj(payload), prompt="not the Coder's")}


def _kpi_record_key(payload):
    payload["kpi"] = {"a": 1, "max_refinement_depth": 9, "z": [{"run_index": 2}]}


def _kpi_trajectories_key(payload):
    payload["kpi"] = {"a": 1, "trajectories": payload["trajectories"]}


def _message_spells_a_record_key(payload):
    payload["analyzer_report"]["findings"][0]["message"] += ',"code_text":"x"'


def _extra_record_key(payload):
    payload["metrics_note"] = ',"persona_set_id":"x"'


def _role_names_another_role(payload):
    _traj(payload)["role"] = "Allocator"


ADVERSARIAL = {  # name: (edit of the payload, whether the plain decode accepts)
    "prompt spells a vector field": (_prompt_spells_a_field, True),
    "key a\\\"prompt_embedding in a trajectory": (_escaped_quote_key, True),
    "vector keys inside kpi": (_kpi_vector_keys, True),
    "a ] inside a kpi vector key's list": (_kpi_bracket_in_a_string, True),
    "empty context_centroid": (_empty_centroid, False),
    "prompt spells a NUL": (_prompt_spells_a_nul, True),
    "placeholder in a vector field": (_placeholder_in_a_vector_field, False),
    "string in a vector": (_string_in_a_vector, False),
    "prompt spells the last trajectory key": (_prompt_spells_the_last_key, True),
    "thought_summary ends in a backslash": (_summary_ends_in_a_backslash, True),
    "thought_summary holds escaped quotes": (_summary_holds_a_quote, True),
    "a key after thought_summary": (_key_after_the_last_key, True),
    "trajectory under a role key inside kpi": (_kpi_role_key, True),
    "kpi key max_refinement_depth": (_kpi_record_key, True),
    "kpi key trajectories": (_kpi_trajectories_key, True),
    "finding message spells a record key": (_message_spells_a_record_key, True),
    "an extra record key": (_extra_record_key, True),
    "trajectory role names another role": (_role_names_another_role, False),
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
    _assert_loads_as_plain(sample_tree, path, plain)


def _assert_loads_as_plain(sample_tree, path, plain):
    """``load_run`` gives ``plain`` with a fresh memo, and with one that
    already holds the sample file's values."""
    assert _verdict(load_run, path) == plain
    memo = ValueMemo()
    load_run(sample_tree[0], memo)
    assert _verdict(lambda p: load_run(p, memo), path) == plain


def _role_span(text, role):
    """The object text of ``role``'s trajectory in a canonical run file
    whose ``thought_summary`` holds no quote."""
    start = text.index(f'"{role}":{{') + len(role) + 3
    return text[start:text.index('"}', text.index('"thought_summary":"', start)) + 2]


@pytest.mark.parametrize("name", ["truncated", "duplicate key", "spaced",
                                  "duplicate role, first", "duplicate role, last",
                                  "record keys out of order", "duplicate record key, first",
                                  "duplicate record key, last", "a role's object left open",
                                  "text after the record", "first record key misspelt"])
def test_loader_agrees_with_the_plain_decode_on_altered_text(sample_tree, tmp_path, name):
    text = sample_tree[0].read_text(encoding="utf-8")
    if name == "record keys out of order":  # analyzer_report moved to the end
        payload = json.loads(text)
        payload["analyzer_report"] = payload.pop("analyzer_report")
        text = json.dumps(payload, separators=(",", ":")) + "\n"
        assert text.startswith('{"code_text":')
    elif name.startswith("duplicate record key"):  # json keeps the last run_index
        if name.endswith("first"):
            text = '{"run_index":7,' + text[1:]
        else:
            text = text[:-len("}\n")] + ',"run_index":7}\n'
        assert text.count('"run_index":') == 2
    elif name == "a role's object left open":  # no } closes the Allocator's object
        text = text.replace('"},"Analyzer":{', '"7,"Analyzer":{', 1)
        assert '"7,"Analyzer":{' in text
    elif name == "first record key misspelt":  # as long as the key it replaces
        text = text.replace('{"analyzer_report":', '{"analyzer_reporx":', 1)
        assert text.startswith('{"analyzer_reporx":')
    elif name == "text after the record":
        text = text[:-len("\n")] + "x"
    elif name == "truncated":
        text = text[:len(text) // 2]
    elif name == "duplicate key":  # json keeps the last value, the file's own vector
        text = text.replace('"output":', '"output_embedding":[9],"output":', 1)
        assert '"output_embedding":[9]' in text
    elif name == "spaced":  # no key is found when "," and the key are apart
        text = json.dumps(json.loads(text), indent=1)
    else:  # json keeps the last Coder value: the file's own, or the Planner's
        planner = f'"Coder":{_role_span(text, "Planner")}'
        if name.endswith("first"):
            text = text.replace('"trajectories":{', '"trajectories":{' + planner + ",", 1)
        else:  # trajectories is the last key, so the file ends in its "}}\n"
            text = text[:-len("}}\n")] + "," + planner + "}}\n"
        assert text.count('"Coder":{') == 2
    path = tmp_path / "run1.json"
    path.write_text(text, encoding="utf-8")
    plain = _verdict(_plain_decode, path)
    assert isinstance(plain, RunRecord) == (name not in (
        "truncated", "duplicate role, last", "a role's object left open", "text after the record",
        "first record key misspelt"))
    if name == "duplicate record key, last":
        assert plain.run_index == 7
    _assert_loads_as_plain(sample_tree, path, plain)


def test_every_file_of_a_refined_grid_with_a_failed_run_loads_as_plain(tmp_path):
    """2 questions x 4 persona sets x 3 runs with the refine benchmark's
    config, the Coder's backend down for the first run 2 it serves: every
    refinement route, budget-exhausted runs and one failed run."""
    config = load_experiment_config(REPO / "perfbench" / "data" / "refine"
                                    / "experiment.json")
    env = build_env(config, "exp-tree")
    generate, down = env.backend.generate, []

    def coder_down_once(request, *, role=None, run_index=0):
        if role == AgentRole.CODER.value and run_index == 2 and not down:
            down.append(run_index)
            raise TransportError("coder backend down")
        return generate(request, role=role, run_index=run_index)

    env.backend.generate = coder_down_once
    questions = load_questions(SAMPLE_DATA / "questions.json")[3:]
    run_grid(questions, enumerate_grid(env.registry)[::8], 3, env, tmp_path)
    paths = list(iter_run_files(tmp_path))
    memo = ValueMemo()
    records = [load_run(path, memo) for path in paths]
    assert records == [_plain_decode(path) for path in paths]
    assert len(records) == 24
    assert collections.Counter(record.status for record in records) == {
        RunStatus.BUDGET_EXHAUSTED: 18, RunStatus.COMPLETED: 5, RunStatus.FAILED: 1}
    assert {event.routed_role for record in records
            for event in record.refinement_events} == \
        {AgentRole.PLANNER, AgentRole.ALLOCATOR, AgentRole.CODER}


def test_records_loaded_through_one_memo_share_one_trajectory_per_text(sample_tree):
    memo = ValueMemo()
    records = [load_run(path, memo) for path in sample_tree]
    objects = {}  # the object text of each trajectory: the ids of its Trajectory objects
    for path, record in zip(sample_tree, records):
        text = path.read_text(encoding="utf-8")
        for role, trajectory in record.trajectories.items():
            objects.setdefault(_role_span(text, role.value), set()).add(id(trajectory))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len({id(t) for r in records for t in r.trajectories.values()}) == len(objects)
    assert len(objects) < 5 * len(records)


def test_memo_evicts_the_least_recently_used_trajectory(sample_tree, monkeypatch):
    monkeypatch.setattr(artifacts, "VALUE_MEMO_SIZE", 2)
    text = sample_tree[0].read_text(encoding="utf-8")
    plain = _plain_decode(sample_tree[0])
    a_text, b_text, c_text = (_role_span(text, role) for role in ("Planner", "Coder",
                                                                 "Analyzer"))
    vectors = ValueMemo()  # so that only trajectories fill ``memo``

    def trajectory(text, _memo):
        return artifacts._decode_trajectory(text, vectors)

    memo = ValueMemo()
    a, b = memo.get(trajectory, a_text), memo.get(trajectory, b_text)
    assert a == plain.trajectory(AgentRole.PLANNER) and b == plain.trajectory(AgentRole.CODER)
    assert memo.get(trajectory, a_text) is a
    c = memo.get(trajectory, c_text)
    assert memo.get(trajectory, c_text) is c and memo.get(trajectory, a_text) is a
    again = memo.get(trajectory, b_text)  # b went first, as the least recently used
    assert again == b and again is not b
    with pytest.raises(ValidationError):  # not JSON
        memo.get(trajectory, b_text[:-2])
    with pytest.raises(ValueError, match="Nobody"):
        memo.get(trajectory, b_text.replace('"role":"Coder"', '"role":"Nobody"'))
    assert len(memo) == 2 and memo.get(trajectory, b_text) is again


def test_memo_keeps_one_value_per_decode_and_text(sample_tree):
    memo = ValueMemo()
    records = [load_run(path, memo) for path in sample_tree]
    for field in ("kpi", "analyzer_report", "metrics", "proposed_paths",
                  "refinement_events", "question_text", "persona_set_id"):
        values = {}  # text of the field in each file: the ids of its values
        for path, record in zip(sample_tree, records):
            payload = json.loads(path.read_text(encoding="utf-8"))
            values.setdefault(canonical_json(payload[field]), set()).add(
                id(getattr(record, field)))
        assert all(len(ids) == 1 for ids in values.values()), field
    kpis = {id(record.kpi) for record in records}
    assert len(kpis) < len(records)


@pytest.mark.parametrize("text, finite", [
    ("[1e300,-1e300]", False),  # finite values, but the norm overflows
    ("[NaN,0]", False), ("[0,Infinity]", False), ("[-Infinity]", False),
    ("[1" + "0" * 400 + "]", False), ("[1e150,-1e150]", True)])
def test_vector_memo_decodes_finite_values_only(text, finite):
    try:
        vector = ValueMemo().get(artifacts._decode_vector, text)
    except ValidationError:
        vector = None
    assert (vector is not None) == finite
    if finite:
        assert vector.tolist() == json.loads(text)


def test_nan_metric_rejected_with_validation_error(tmp_path):
    record = make_record(penalty=float("nan"))
    with pytest.raises(ValidationError):
        persist_run(record, tmp_path)


def _with_part(record, part: str, bad: float) -> RunRecord:
    """``record`` whose trajectory, vector or analyzer report holds ``bad``."""
    coder = record.trajectories[AgentRole.CODER]
    if part == "analyzer_report":
        report = AnalyzerReport((), {dim: True for dim in Dimension}, bad)
        return dataclasses.replace(record, analyzer_report=report)
    changed = (dataclasses.replace(coder, context_items=(("ctx", bad, "rag"),))
               if part == "context_items" else
               dataclasses.replace(coder, output_embedding=EmbeddingVector([0.5, bad])))
    return dataclasses.replace(record, trajectories={**record.trajectories,
                                                     AgentRole.CODER: changed})


@pytest.mark.parametrize("bad", [float("nan"), math.inf])
@pytest.mark.parametrize("part", ["context_items", "output_embedding", "analyzer_report"])
def test_a_shared_part_with_a_non_finite_float_is_refused_on_every_write(tmp_path, part,
                                                                        bad):
    first = _with_part(make_record(), part, bad)
    shared = (first.analyzer_report if part == "analyzer_report"
              else first.trajectories[AgentRole.CODER])
    for run_index in (1, 2, 2):
        record = dataclasses.replace(first, run_index=run_index)
        relpath = run_relpath(record.persona_set_id, record.question_id, run_index)
        with pytest.raises(ValidationError, match=re.escape(
                f"record {relpath.as_posix()} rejected: non-finite float {bad!r}")):
            persist_run(record, tmp_path)
        assert shared.json_parts is None
        if part == "output_embedding":
            assert shared.output_embedding.json_text is None
    assert list(iter_run_files(tmp_path)) == []


def test_cell_sidecar_holds_each_runs_timing_outside_canonical_artifacts(
        make_env, registry, questions, monkeypatch, tmp_path):
    persona_set = enumerate_grid(registry)[0]
    question = questions[0]
    run_cell(question, persona_set, 3, make_env(), tmp_path)
    cell = tmp_path / cell_relpath(persona_set.set_id, question.id)
    meta = json.loads((cell / "cell.meta.json").read_text())
    assert [entry["run_index"] for entry in meta["runs"]] == [1, 2, 3]
    for entry in meta["runs"]:
        assert sorted(entry) == ["duration_s", "run_index", "written_at"]
        assert entry["duration_s"] >= 0.0
        assert datetime.fromisoformat(entry["written_at"]).tzinfo is not None
    assert sorted(p.name for p in cell.iterdir()) == \
        ["cell.meta.json", "run1.json", "run2.json", "run3.json"]
    files = list(iter_run_files(tmp_path))
    assert files == [cell / f"run{k}.json" for k in (1, 2, 3)]
    assert all("written_at" not in path.read_text() for path in files)

    # an interrupted cell leaves its finished runs and no sidecar
    execute_run = orchestrator.execute_run

    def failing_run_2(question, persona_set, run_index, env, memory):
        if run_index == 2:
            raise KeyboardInterrupt
        return execute_run(question, persona_set, run_index, env, memory)

    monkeypatch.setattr(orchestrator, "execute_run", failing_run_2)
    with pytest.raises(KeyboardInterrupt):
        run_cell(question, persona_set, 3, make_env(), tmp_path / "cut")
    cut = tmp_path / "cut" / cell_relpath(persona_set.set_id, question.id)
    assert sorted(p.name for p in cut.iterdir()) == ["run1.json"]


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
