from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from gmas_harness import artifacts, reporting
from gmas_harness.artifacts import (VectorMemo, canonical_json, iter_run_files, load_run,
                                    persist_run)
from gmas_harness.cli import cli_dispatch
from gmas_harness.embeddings import EmbeddingVector
from gmas_harness.errors import ValidationError
from gmas_harness.records import VECTOR_FIELDS, RunRecord, RunStatus
from gmas_harness.reporting import (CSV_NAMES, aggregate_csv, bar_chart_svg,
                                    emit_report, line_chart_svg)
from gmas_harness.safety import summarize_cells, summarize_grid
from gmas_harness.scenario import AgentRole
from factories import FACTORY_DIM, LiveRecords, make_record
from fixture_records import golden_fixture_records, persist_coder_fails_in_run2
from make_report_golden import GOLDEN as REPORT_GOLDEN, TREES, report_bundle
from oracles import reference_csv_rows

DATA = Path(__file__).parent / "data"

PENALTY_HEADER = "experiment_id,persona_set_id,question_id,run_index,penalty_score"


def _persist_all(records, root):
    for record in records:
        persist_run(record, root)


def test_single_run_yields_single_penalty_row(tmp_path):
    _persist_all([make_record()], tmp_path)
    result = aggregate_csv(tmp_path)
    lines = result.csv_paths["penalty.csv"].read_text().splitlines()
    assert lines[0] == PENALTY_HEADER
    assert len(lines) == 2


def test_headers_exactly_as_specified(tmp_path):
    _persist_all([make_record()], tmp_path)
    result = aggregate_csv(tmp_path)
    expected = {
        "penalty.csv": PENALTY_HEADER,
        "consistency.csv":
            "experiment_id,persona_set_id,question_id,run_index,consistency_score",
        "drift.csv":
            "experiment_id,persona_set_id,question_id,from_run,to_run,distance,"
            "agent_role",
        "overhead.csv":
            "experiment_id,persona_set_id,question_id,run_index,"
            "coordination_overhead",
        "conflict.csv":
            "experiment_id,persona_set_id,question_id,run_index,conflict_rate",
    }
    for name in CSV_NAMES:
        assert result.csv_paths[name].read_text().splitlines()[0] == expected[name]


def test_drift_row_count_follows_matrix_dimensions(tmp_path):
    records = []
    for set_id in ("setA=1+B=1+C=1+D=1+E=1", "setB=2+B=2+C=2+D=2+E=2"):
        for question in ("q1", "q2"):
            for run in (1, 2):
                records.append(make_record(set_id=set_id, question_id=question,
                                           run_index=run))
    # set ids here are shaped arbitrarily; aggregation never parses them
    _persist_all(records, tmp_path)
    result = aggregate_csv(tmp_path)
    rows = result.csv_paths["drift.csv"].read_text().splitlines()[1:]
    assert len(rows) == 2 * 2 * (2 - 1) * 5  # sets x questions x transitions x agents


def test_rows_sorted_by_set_question_run(tmp_path):
    records = [
        make_record(set_id="zz", question_id="q2", run_index=2),
        make_record(set_id="aa", question_id="q1", run_index=1),
        make_record(set_id="zz", question_id="q1", run_index=1),
        make_record(set_id="aa", question_id="q1", run_index=2),
    ]
    _persist_all(records, tmp_path)
    result = aggregate_csv(tmp_path)
    with result.csv_paths["penalty.csv"].open() as handle:
        rows = list(csv.DictReader(handle))
    keys = [(r["persona_set_id"], r["question_id"], int(r["run_index"]))
            for r in rows]
    assert keys == sorted(keys)


def test_fixture_tree_matches_committed_goldens(tmp_path):
    _persist_all(golden_fixture_records(), tmp_path)
    result = aggregate_csv(tmp_path)
    for name in CSV_NAMES:
        got = result.csv_paths[name].read_bytes()
        golden = (DATA / "golden" / name).read_bytes()
        assert got == golden, f"{name} diverges from golden"


def test_corrupt_artifact_skipped_and_reported(tmp_path, caplog):
    _persist_all([make_record(run_index=1), make_record(run_index=2)], tmp_path)
    victim = next(iter((tmp_path / "runs").glob("*/*/run1.json")))
    victim.write_text("{ not json")
    result = aggregate_csv(tmp_path)
    assert not result.ok
    assert result.corrupt == [victim]
    rows = result.csv_paths["penalty.csv"].read_text().splitlines()[1:]
    assert len(rows) == 1


def test_completed_run_without_metrics_is_corrupt(tmp_path):
    _persist_all([make_record(run_index=1), make_record(run_index=2)], tmp_path)
    victim = next(iter((tmp_path / "runs").glob("*/*/run2.json")))
    payload = json.loads(victim.read_text())
    payload["metrics"] = None
    victim.write_text(json.dumps(payload))
    result = aggregate_csv(tmp_path)
    assert result.corrupt == [victim]
    assert result.runs == 1
    assert [cell.run_indices for cell in result.cells] == [(1,)]


@pytest.mark.parametrize("destination", ["run3.json", "../q9/run1.json"])
def test_run_file_whose_ids_disagree_with_its_path_is_corrupt(tmp_path, destination):
    _persist_all([make_record(run_index=1), make_record(run_index=2)], tmp_path)
    aggregate_csv(tmp_path)
    before = {name: (tmp_path / name).read_bytes() for name in CSV_NAMES}
    original = next(iter((tmp_path / "runs").glob("*/*/run1.json")))
    copy = (original.parent / destination).resolve()
    copy.parent.mkdir(parents=True, exist_ok=True)
    copy.write_bytes(original.read_bytes())
    result = aggregate_csv(tmp_path)
    assert [path.resolve() for path in result.corrupt] == [copy]
    assert result.runs == 2
    assert {name: (tmp_path / name).read_bytes() for name in CSV_NAMES} == before
    assert cli_dispatch(["report", "--root", str(tmp_path)]) == 2


@pytest.mark.parametrize("version", [99, 0, None, "1", True])
def test_unknown_schema_version_is_corrupt(tmp_path, version):
    _persist_all([make_record(run_index=1), make_record(run_index=2)], tmp_path)
    victim = next(iter((tmp_path / "runs").glob("*/*/run2.json")))
    payload = json.loads(victim.read_text())
    if version is None:
        del payload["schema_version"]
    else:
        payload["schema_version"] = version
    victim.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match=f"schema_version {version!r} is not 1"):
        load_run(victim)
    result = aggregate_csv(tmp_path)
    assert result.corrupt == [victim]
    assert result.runs == 1
    assert cli_dispatch(["report", "--root", str(tmp_path)]) == 2


_MISSING = object()


class _Raw(str):
    """A value written into the run file's text as it stands, for JSON that
    ``json.dumps`` cannot write, such as the literal ``1e400``."""


def _check_only_victim_corrupt(tmp_path, capsys, caplog, field_path, value, match):
    """Set ``field_path`` of run 2's payload to ``value`` (delete it, for
    ``_MISSING``); the file must be refused, listed alone as corrupt and
    leave run 1's rows as they are without it."""
    _persist_all([make_record(run_index=1)], tmp_path / "alone")
    aggregate_csv(tmp_path / "alone")
    root = tmp_path / "tree"
    _persist_all([make_record(run_index=1), make_record(run_index=2)], root)
    victim = next(iter((root / "runs").glob("*/*/run2.json")))
    payload = json.loads(victim.read_text())
    *parents, key = field_path
    target = payload
    for parent in parents:
        target = target[parent]
    if value is _MISSING:
        del target[key]
    else:
        target[key] = value
    # canonical separators, so load_run cuts the vectors out; json.dumps writes NaN
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if isinstance(value, _Raw):
        text = text.replace(json.dumps(value), value)
    victim.write_text(text + "\n")
    with pytest.raises(ValidationError, match=match):
        load_run(victim)
    with pytest.raises(ValidationError, match=match):
        RunRecord.from_dict(json.loads(victim.read_text()))
    result = aggregate_csv(root)
    assert result.corrupt == [victim]
    assert result.runs == 1
    for name in CSV_NAMES:
        assert (root / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name
    capsys.readouterr()
    assert cli_dispatch(["report", "--root", str(root)]) == 2
    err = capsys.readouterr().err
    assert f"corrupt artifact skipped: {victim}" in err
    assert "runtime failure" not in err
    assert "unhandled failure" not in caplog.text


@pytest.mark.parametrize("embedding", [5, [[0.0] * FACTORY_DIM], "0.5",
                                       [0.0] * (FACTORY_DIM - 1),
                                       [float("nan")] + [0.0] * (FACTORY_DIM - 1),
                                       [0.0] * (FACTORY_DIM - 1) + [float("inf")],
                                       [float("-inf")] + [0.0] * (FACTORY_DIM - 1),
                                       [10 ** 400] + [0.0] * (FACTORY_DIM - 1)],
                         ids=["scalar", "nested", "string", "truncated", "NaN",
                              "Infinity", "-Infinity", "integer past float64"])
def test_malformed_embedding_is_corrupt(tmp_path, capsys, caplog, embedding):
    _check_only_victim_corrupt(tmp_path, capsys, caplog,
                               ("trajectories", "Coder", "output_embedding"), embedding,
                               "embedding")


_NAN = float("nan")
_CODER = ("trajectories", "Coder")


def _path(**fields) -> dict:
    """A ``proposed_paths`` entry, with ``fields`` overridden."""
    return {"path_id": 1, "steps": ["survey"], "self_eval": 0.5, "rationale": "r",
            **fields}


def _event(**fields) -> dict:
    """A ``refinement_events`` entry, with ``fields`` overridden."""
    return {"index": 1, "routed_role": "Coder", "reason": "static: x", **fields}


def _report(passes=(), penalty_score=100.0, findings=()) -> dict:
    """An ``analyzer_report`` payload that passes every dimension but those
    overridden by ``passes``."""
    return {"findings": findings if isinstance(findings, dict) else list(findings),
            "penalty_score": penalty_score,
            "passes": {"static": True, "policy": True, "runtime": True, "formal": True,
                       **dict(passes)}}


def _finding(**fields) -> dict:
    """An analyzer finding, with ``fields`` overridden (deleted, for ``_MISSING``)."""
    finding = {"dimension": "static", "rule_id": "long_line", "severity": "info",
               "message": "m", "location": [3, 1], **fields}
    return {key: value for key, value in finding.items() if value is not _MISSING}


_BAD_FIELDS = {  # id: (field path, value, what the error names)
    "penalty above 100": (("metrics", "penalty_score"), 150.0, r"penalty_score 150\.0 is outside"),
    "penalty below 0": (("metrics", "penalty_score"), -0.5, "penalty_score"),
    "consistency above 100": (("metrics", "consistency_score"), 100.5, "consistency_score"),
    "consistency below 0": (("metrics", "consistency_score"), -1.0, "consistency_score"),
    "conflict above 1": (("metrics", "conflict_rate"), 1.5, "conflict_rate"),
    "conflict below 0": (("metrics", "conflict_rate"), -0.1, "conflict_rate"),
    "overhead below 0": (("metrics", "coordination_overhead"), -1.0, "coordination_overhead"),
    "penalty string": (("metrics", "penalty_score"), "50", "penalty_score '50' is not"),
    "consistency string": (("metrics", "consistency_score"), "50", "consistency_score"),
    "conflict string": (("metrics", "conflict_rate"), "0", "conflict_rate"),
    "overhead string": (("metrics", "coordination_overhead"), "4", "coordination_overhead"),
    "penalty NaN": (("metrics", "penalty_score"), _NAN, "penalty_score nan is outside"),
    "consistency NaN": (("metrics", "consistency_score"), _NAN, "consistency_score"),
    "conflict NaN": (("metrics", "conflict_rate"), _NAN, "conflict_rate"),
    "overhead NaN": (("metrics", "coordination_overhead"), _NAN, "coordination_overhead"),
    "cosine NaN": (("metrics", "alignment_cosine"), _NAN, "alignment_cosine"),
    "flag string": (("metrics", "alignment_hard_ok"), "true", "alignment_hard_ok"),
    "experiment_id number": (("experiment_id",), 5, "experiment_id 5 is not str"),
    "question_id number": (("question_id",), 5, "question_id"),
    "persona_set_id null": (("persona_set_id",), None, "persona_set_id"),
    "question_text number": (("question_text",), 5, "question_text"),
    "code_text list": (("code_text",), [], "code_text"),
    "prompt number": (_CODER + ("prompt",), 5, "prompt 5 is not str"),
    "output number": (_CODER + ("output",), 5, "output"),
    "thought_summary null": (_CODER + ("thought_summary",), None, "thought_summary"),
    "reason number": (_CODER + ("refinement_reasons",), [1], "refinement_reasons"),
    "run_index true": (("run_index",), True, "run_index True is not int"),
    "selected_path_id string": (("selected_path_id",), "x", "selected_path_id 'x'"),
    "plan_text null": (("plan_text",), None, "plan_text None is not str"),
    "no refinement_reasons": (_CODER + ("refinement_reasons",), _MISSING,
                              "refinement_reasons is missing"),
    "no refinement_events": (("refinement_events",), _MISSING, "refinement_events is missing"),
    "no question_text": (("question_text",), _MISSING, "question_text is missing"),
    "no context_centroid": (_CODER + ("context_centroid",), _MISSING, "context_centroid"),
    # refused before the run-file checks moved into RunRecord.from_dict
    "no Coder": (_CODER, _MISSING, r"trajectories lack \['Coder'\]"),
    "unknown role": (("trajectories", "Tester"), {}, "Tester"),
    "unknown status": (("status",), "done", "'done' is not a valid RunStatus"),
    "metric missing": (("metrics", "conflict_rate"), _MISSING, "conflict_rate is missing"),
    "metric extra": (("metrics", "bogus"), 1.0, "bogus"),
    "metrics null": (("metrics",), None, "only a failed run may lack metrics"),
    "run_index 0": (("run_index",), 0, "run_index is 1-based"),
    "role other than its key": (_CODER + ("role",), "Allocator",
                                "trajectories.Coder holds the Allocator trajectory"),
    "passes lack a dimension": (("analyzer_report",),
                                {"findings": [], "penalty_score": 100.0,
                                 "passes": {"static": True, "policy": True, "runtime": True}},
                                r"passes lack \['formal'\]"),
    "pass flag string": (("analyzer_report",), _report(passes={"static": "yes"}),
                         r"passes \['static'\] are not booleans"),
    "pass flag null": (("analyzer_report",), _report(passes={"runtime": None}),
                       r"passes \['runtime'\] are not booleans"),
    "report penalty string": (("analyzer_report",), _report(penalty_score="x"),
                              "penalty_score 'x' is not a number in"),
    "report penalty above 100": (("analyzer_report",), _report(penalty_score=150.0),
                                 "penalty_score 150.0 is not a number in"),
    "report penalty NaN": (("analyzer_report",), _report(penalty_score=_NAN),
                           "penalty_score nan is not a number in"),
    "path_id string": (("proposed_paths",), [_path(path_id="x")], "path_id 'x' is not int"),
    "path_id true": (("proposed_paths",), [_path(path_id=True)], "path_id True is not int"),
    "step number": (("proposed_paths",), [_path(steps=["survey", 1])],
                    "steps .* holds a non-string"),
    "rationale null": (("proposed_paths",), [_path(rationale=None)],
                       "rationale None is not str"),
    "self_eval true": (("proposed_paths",), [_path(self_eval=True)],
                       "self_eval True is not float"),
    "event index string": (("refinement_events",), [_event(index="1")],
                           "index '1' is not int"),
    "event reason number": (("refinement_events",), [_event(reason=5)],
                            "reason 5 is not str"),
    "context score true": (_CODER + ("context_items",), [["a", True, "b"]],
                           "context_items .* holds a row of the wrong shape"),
    "context text number": (_CODER + ("context_items",), [[1, 0.5, None]],
                            "context_items .* holds a row of the wrong shape"),
    "aux exchange numbers": (_CODER + ("aux_exchanges",), [[1, 2]],
                             "aux_exchanges .* holds a row of the wrong shape"),
    # each decodes, and canonical_json refuses to write it back
    "kpi NaN": (("kpi",), {"totals": {"throughput_mbps": _NAN}},
                "kpi .* holds a non-finite number"),
    "kpi -Infinity": (("kpi",), {"per_slice": [{"latency_ms": float("-inf")}]},
                      "kpi .* holds a non-finite number"),
    "kpi literal 1e400": (("kpi",), _Raw('{"totals":{"throughput_mbps":1e400}}'),
                          "kpi .* holds a non-finite number"),
    "context score Infinity": (_CODER + ("context_items",), [["a", float("inf"), "b"]],
                               "context_items .* holds a non-finite number"),
    # each loaded, and then wrote back different bytes or a finding of the wrong types
    "findings object": (("analyzer_report",), _report(findings={}),
                        "findings {} is not a list"),
    "location string": (("analyzer_report",), _report(findings=[_finding(location="ab")]),
                        "location 'ab' is not null or two ints"),
    "location empty": (("analyzer_report",), _report(findings=[_finding(location=[])]),
                       r"location \[\] is not null or two ints"),
    "no location": (("analyzer_report",), _report(findings=[_finding(location=_MISSING)]),
                    "location is missing"),
    "location mixed": (("analyzer_report",),
                       _report(findings=[_finding(location=[1.5, "x", 3])]),
                       "location .* is not null or two ints"),
    "location bools": (("analyzer_report",),
                       _report(findings=[_finding(location=[True, 1])]),
                       "location .* is not null or two ints"),
    "rule_id number": (("analyzer_report",), _report(findings=[_finding(rule_id=5)]),
                       "rule_id 5 is not str"),
    "message null": (("analyzer_report",), _report(findings=[_finding(message=None)]),
                     "message None is not str"),
    "context_centroid empty": (_CODER + ("context_centroid",), [],
                               r"context_centroid \[\] is not a non-empty flat list"),
}


@pytest.mark.parametrize("field_path, value, match", list(_BAD_FIELDS.values()),
                         ids=list(_BAD_FIELDS))
def test_payload_the_run_format_refuses_is_corrupt(tmp_path, capsys, caplog,
                                                    field_path, value, match):
    _check_only_victim_corrupt(tmp_path, capsys, caplog, field_path, value, match)


def test_cell_whose_runs_disagree_on_dims_is_corrupt(tmp_path, capsys):
    _persist_all([make_record(question_id="q2", run_index=run) for run in (1, 2)],
                 tmp_path / "alone")
    aggregate_csv(tmp_path / "alone")
    root = tmp_path / "tree"
    _persist_all([make_record(question_id=q, run_index=run)
                  for q in ("q1", "q2") for run in (1, 2)], root)
    cell = sorted((root / "runs").glob("*/q1/run?.json"))
    payload = json.loads(cell[1].read_text())
    for trajectory in payload["trajectories"].values():
        for field in VECTOR_FIELDS:
            if trajectory[field] is not None:
                trajectory[field] = trajectory[field][:FACTORY_DIM - 1]
    cell[1].write_text(canonical_json(payload) + "\n")
    assert load_run(cell[1]).trajectory(AgentRole.CODER).output_embedding.dim == 7
    result = aggregate_csv(root)
    assert result.corrupt == cell
    assert result.runs == 2
    assert len(result.cells) == 1
    for name in CSV_NAMES:
        assert (root / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name
    capsys.readouterr()
    assert cli_dispatch(["report", "--root", str(root)]) == 2
    err = capsys.readouterr().err
    assert all(f"corrupt artifact skipped: {path}" in err for path in cell)
    assert "runtime failure" not in err


def test_cell_of_eleven_runs_is_read_in_run_order(tmp_path):
    records = [make_record(run_index=run, penalty=float(run),
                           coder_vec=EmbeddingVector.from_list(
                               [math.cos(run), math.sin(run)] + [0.0] * (FACTORY_DIM - 2)))
               for run in range(1, 12)]
    _persist_all(records, tmp_path)
    result = aggregate_csv(tmp_path)
    with result.csv_paths["penalty.csv"].open() as handle:
        runs = [int(r["run_index"]) for r in csv.DictReader(handle)]
    assert runs == list(range(1, 12))
    with result.csv_paths["drift.csv"].open() as handle:
        coder = [(int(r["from_run"]), int(r["to_run"])) for r in csv.DictReader(handle)
                 if r["agent_role"] == "Coder"]
    assert coder == [(run, run + 1) for run in range(1, 11)]
    assert result.cells[0].run_indices == tuple(range(1, 12))
    transitions = list(summarize_cells(result.cells).per_transition)
    assert transitions == [f"r{run}->r{run + 1}" for run in range(1, 11)]
    assert transitions[-2:] == ["r9->r10", "r10->r11"]

    def keys(name, rows):  # every column but the metric value, as text
        cut = 5 if name == "drift.csv" else 4
        return [[str(v) for v in row[:cut] + row[cut + 1:]] for row in rows]

    expected = reference_csv_rows([json.loads(path.read_text())
                                   for path in iter_run_files(tmp_path)])
    for name in CSV_NAMES:
        with result.csv_paths[name].open() as handle:
            got = list(csv.reader(handle))[1:]
        assert keys(name, got) == keys(name, expected[name]), name


def test_aggregate_holds_one_cell_of_records_at_a_time(tmp_path, monkeypatch):
    _persist_all([make_record(set_id=set_id, question_id=q, run_index=run)
                  for set_id in ("setA", "setB") for q in ("q1", "q2", "q3")
                  for run in (1, 2, 3, 4)], tmp_path)
    live = LiveRecords()
    monkeypatch.setattr(reporting, "load_run", live.wrap(reporting.load_run))
    result = aggregate_csv(tmp_path)
    assert result.runs == live.calls == 24
    assert live.peak == 4


def test_equal_vector_texts_share_one_vector_within_one_report(tmp_path, monkeypatch):
    _persist_all([make_record(question_id=q, run_index=run)
                  for q in ("q1", "q2") for run in (1, 2)], tmp_path)
    loaded = []  # every record aggregate_csv loads, kept alive

    def keep(*args, **kwargs):
        loaded.append(load_run(*args, **kwargs))
        return loaded[-1]
    monkeypatch.setattr(reporting, "load_run", keep)
    aggregate_csv(tmp_path)
    first = [t.prompt_embedding for r in loaded for t in r.trajectories.values()]
    assert len({r.question_id for r in loaded}) == 2 and len(first) == 20
    assert all(vector is first[0] for vector in first)  # all are the zero vector
    aggregate_csv(tmp_path)
    second = [t.prompt_embedding for r in loaded[4:] for t in r.trajectories.values()]
    assert all(vector is second[0] for vector in second)
    assert second[0] == first[0] and second[0] is not first[0]


def test_vector_memo_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(artifacts, "VECTOR_MEMO_SIZE", 2)
    memo = VectorMemo()
    a, b = memo.get("[1,0]"), memo.get("[0,1]")
    assert memo.get("[1,0]") is a
    c = memo.get("[1,1]")
    assert len(memo) == 2
    assert memo.get("[1,1]") is c and memo.get("[1,0]") is a
    again = memo.get("[0,1]")
    assert again == b and again is not b
    assert memo.get("[]") is None and memo.get("[true]") is None and memo.get("[1,") is None


def test_report_is_unchanged_when_the_memo_overflows(tmp_path, monkeypatch):
    records = _drift_fixture() + [make_record(set_id="set01", run_index=run, penalty=run,
                                              experiment_id="exp-paper")
                                  for run in (1, 2)]
    _persist_all(records, tmp_path)

    def report(out):
        result = aggregate_csv(tmp_path, out)
        emit_report(summarize_cells(result.cells), out)
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    peaks = []

    class CountedMemo(VectorMemo):
        def get(self, text):
            vector = super().get(text)
            peaks.append(len(self))
            return vector
    monkeypatch.setattr(reporting, "VectorMemo", CountedMemo)
    monkeypatch.setattr(artifacts, "VECTOR_MEMO_SIZE", 2)
    small = report(tmp_path / "small")
    assert max(peaks) == 2
    monkeypatch.undo()
    monkeypatch.setattr(reporting, "load_run",  # the plain decode, no memo
                        lambda path, vectors: RunRecord.from_dict(json.loads(path.read_text())))
    assert report(tmp_path / "plain") == small
    assert set(small) == {*CSV_NAMES, "report.md", "penalty_by_run.svg",
                          "consistency_by_set.svg", "drift_by_transition.svg"}


def test_cell_summaries_equal_summarize_grid_over_records(tmp_path, coder_fails_in_run2):
    _persist_all(golden_fixture_records(), tmp_path / "golden")
    golden = aggregate_csv(tmp_path / "golden")
    assert golden.failed == 0 and golden.runs == 8
    assert summarize_cells(golden.cells) == summarize_grid(golden_fixture_records())
    assert summarize_cells(golden.cells, tau_d=0.5) == \
        summarize_grid(golden_fixture_records(), tau_d=0.5)

    root, records = coder_fails_in_run2
    failed = aggregate_csv(root, tmp_path / "failed")
    assert failed.failed == 1 and failed.runs == 3
    assert summarize_cells(failed.cells) == summarize_grid(records)


def test_records_without_metrics_are_skipped(tmp_path):
    record = make_record(status=RunStatus.COMPLETED)
    failed = make_record(run_index=2, status=RunStatus.FAILED)
    object.__setattr__(failed, "metrics", None)
    _persist_all([record, failed], tmp_path)
    result = aggregate_csv(tmp_path)
    rows = result.csv_paths["penalty.csv"].read_text().splitlines()[1:]
    assert len(rows) == 1


# ── report emission ──────────────────────────────────────────────────────────

RUN1_VALUES = [1.0] * 81 + [1.2] + [5.0] * 45 + [40.0] * 33


def _penalty_fixture() -> list:
    """32 sets x 5 questions; run 1 takes RUN1_VALUES, runs 2-5 one value each."""
    cells = [(f"set{set_i:02d}", f"q{q_i + 1}") for set_i in range(32) for q_i in range(5)]
    records = [make_record(set_id=set_id, question_id=q, run_index=1, penalty=value,
                           experiment_id="exp-paper")
               for (set_id, q), value in zip(cells, RUN1_VALUES)]
    for run, value in ((2, 46.0), (3, 47.0), (4, 48.0), (5, 47.0)):
        records += [make_record(set_id=set_id, question_id=q, run_index=run,
                                penalty=value, experiment_id="exp-paper")
                    for set_id, q in cells]
    return records


def _drift_fixture() -> list:
    """set00/q1 runs 1-5 whose Coder outputs drift 0.226, 0.21, 0.18, 0.15."""
    angles = [0.0]
    for distance in (0.226, 0.21, 0.18, 0.15):
        angles.append(angles[-1] + math.acos(1.0 - distance))
    return [make_record(set_id="set00", question_id="q1", run_index=run,
                        experiment_id="exp-paper",
                        coder_vec=EmbeddingVector.from_list(
                            [math.cos(a), math.sin(a)] + [0.0] * (FACTORY_DIM - 2)))
            for run, a in enumerate(angles, start=1)]


def test_report_prints_run1_mean_matching_fixture_shape(tmp_path):
    report_path = emit_report(summarize_grid(_penalty_fixture()), tmp_path / "out")
    text = report_path.read_text()
    assert "| 1 | 10.17 |" in text
    assert "| 2 | 46 |" in text


def test_report_drift_chart_first_and_last_points(tmp_path):
    emit_report(summarize_grid(_drift_fixture()), tmp_path / "out")
    svg = (tmp_path / "out" / "drift_by_transition.svg").read_text()
    assert 'data-values="0.226,0.21,0.18,0.15"' in svg
    report = (tmp_path / "out" / "report.md").read_text()
    assert "r1->r2: mean 0.226" in report
    assert "r4->r5: mean 0.15" in report
    assert "2 of 4 Coder transitions above tau_d 0.2" in \
        emit_report(summarize_grid(_drift_fixture(), tau_d=0.2),
                    tmp_path / "alerts").read_text()


def test_empty_input_reports_no_data(tmp_path):
    report_path = emit_report(None, tmp_path / "out")
    assert "no data" in report_path.read_text()
    failed = [make_record(run_index=run, status=RunStatus.FAILED) for run in (1, 2)]
    summary = summarize_grid(failed)
    assert summary.failed == 2
    assert summary.per_run == {} and summary.per_transition == {}
    assert all(stats["count"] == 0 for stats in summary.overall.values())
    text = emit_report(summary, tmp_path / "failed").read_text()
    assert "2 runs, 2 failed" in text and "no data" in text


def test_report_lists_top_and_bottom_sets(tmp_path):
    records = [make_record(set_id=f"set{i}+Coder=C{i}", penalty=float(10 * i))
               for i in range(5)]
    _persist_all(records, tmp_path)
    result = aggregate_csv(tmp_path)
    report = emit_report(summarize_cells(result.cells), tmp_path / "out").read_text()
    assert "Top:" in report and "Bottom:" in report
    assert "set4+Coder=C4: 40" in report   # best mean listed under Top
    assert "set0+Coder=C0: 0" in report    # worst mean listed under Bottom


@pytest.fixture
def coder_fails_in_run2(tmp_path):
    """One cell x 3 runs, run 2 failed, persisted and reported by `gmas report`."""
    entries = persist_coder_fails_in_run2(tmp_path)
    records = [load_run(path) for path in iter_run_files(tmp_path)]
    assert [r.status for r in records] == [e.status for e in entries]
    assert [r.status is RunStatus.FAILED for r in records] == [False, True, False]
    assert cli_dispatch(["report", "--root", str(tmp_path)]) == 0
    return tmp_path, records


def test_failed_run_drift_pairs_its_neighbours(coder_fails_in_run2):
    root, _ = coder_fails_in_run2
    with (root / "drift.csv").open() as handle:
        coder = [(r["from_run"], r["to_run"]) for r in csv.DictReader(handle)
                 if r["agent_role"] == "Coder"]
    assert coder == [("1", "3")]

    expected = reference_csv_rows(
        [json.loads(p.read_text()) for p in sorted((root / "runs").rglob("run*.json"))
         if not p.name.endswith(".meta.json")])
    for name in CSV_NAMES:
        with (root / name).open() as handle:
            got = list(csv.reader(handle))[1:]
        assert len(got) == len(expected[name]), name
        for got_row, want_row in zip(got, expected[name]):
            for cell, want in zip(got_row, want_row, strict=True):
                if isinstance(want, float):
                    assert float(cell) == pytest.approx(want, rel=1e-9, abs=1e-12)
                else:
                    assert cell == str(want)

    report = (root / "report" / "report.md").read_text()
    assert "3 runs, 1 failed" in report
    assert "- r1->r3: mean" in report


@pytest.mark.parametrize("tree", sorted(TREES))
def test_report_bundle_matches_the_committed_golden(tmp_path, tree):
    for file, data in report_bundle(tree, tmp_path).items():
        assert data == (REPORT_GOLDEN / tree / file).read_bytes(), file


def test_summarize_grid_counts_failed_run(coder_fails_in_run2):
    _, records = coder_fails_in_run2
    summary = summarize_grid(records)
    assert summary.failed == 1
    assert list(summary.per_transition) == ["r1->r3"]
    assert summary.overall["penalty"]["count"] == 2
    assert summary.cells[0].run_indices == (1, 3)


def test_svg_charts_are_minimal_but_wellformed():
    bar = bar_chart_svg(["a", "b"], [1.0, 2.0], "title")
    assert bar.startswith("<svg") and bar.endswith("</svg>")
    assert bar.count("<rect") == 2
    line = line_chart_svg(["a", "b", "c"], [0.5, 0.25, 0.75], "t")
    assert "<polyline" in line
    assert line.count("<circle") == 3
    empty = bar_chart_svg([], [], "t")
    assert "no data" in empty


def test_report_lists_runs_whose_embedding_norm_overflows_as_corrupt(tmp_path, capsys):
    # finite values whose norms overflow: the cosine of the two read 1.0, not 0.5
    with np.errstate(over="ignore"):
        vecs = [EmbeddingVector([1e308, 1e308] + [0.0] * (FACTORY_DIM - 2)),
                EmbeddingVector([1e308, 0.0, 1e308] + [0.0] * (FACTORY_DIM - 3))]
    paths = [persist_run(make_record(run_index=k, coder_vec=vec), tmp_path)
             for k, vec in enumerate(vecs, 1)]
    assert cli_dispatch(["report", "--root", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert all(f"corrupt artifact skipped: {path}" in err for path in paths)
    assert (tmp_path / "drift.csv").read_text().count("\n") == 1  # the header alone
