from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmas_harness
from gmas_harness import cli, config as config_module
from gmas_harness.backends import (GenerationRequest, LiveBackend, SELF_EVAL_MARKER,
                                   ScriptedBackend)
from gmas_harness.artifacts import iter_run_files, load_run
from gmas_harness.cli import cli_dispatch
from gmas_harness.scenario import PIPELINE_ORDER, AgentRole, PersonaRegistry
from stub_server import StubOpenAIServer

SET_ALL_DEFAULT = ("Planner=Default+Coordinator=Default+Allocator=Default+"
                   "Coder=Default+Analyzer=Default")


@pytest.fixture
def workspace(tmp_path):
    """Minimal experiment workspace: config, network, rules, questions, personas."""
    (tmp_path / "network.json").write_text(json.dumps({
        "cells": [{"cell_id": "c1", "capacity_prb": 24}],
        "slices": [{"slice_id": "s1", "cell_id": "c1", "demand_mbps": 4.0},
                   {"slice_id": "s2", "cell_id": "c1", "demand_mbps": 6.0}],
    }))
    (tmp_path / "rules.json").write_text(json.dumps({
        "forbidden_calls": ["os.system"],
        "forbidden_imports": ["os"],
        "conflict_rules": [["admit", "reject", "slice"]],
        "resource_caps": {"prb": 40},
    }))
    (tmp_path / "experiment.json").write_text(json.dumps({
        "seed": 42,
        "embedding_dim": 32,
        "backend": {"mode": "scripted", "fallback_seed": 42},
        "network_path": "network.json",
        "policy_rules_path": "rules.json",
        "grid_mode": "relaxed",
    }))
    assert cli_dispatch(["gen-questions", "--count", "2", "--seed", "7",
                         "--out", str(tmp_path / "questions.json")]) == 0
    registry = PersonaRegistry.builtin()
    trimmed = [p for p in registry.all()
               if p.id == "Default" or p.role.value in ("Planner", "Coder")]
    PersonaRegistry(trimmed).to_json(tmp_path / "personas.json")  # 2x1x1x2x1 -> 4
    return tmp_path


def test_gen_questions_stdout_json(capsys):
    assert cli_dispatch(["gen-questions", "--count", "3", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 3
    assert {q["id"] for q in payload} == {"q1", "q2", "q3"}


def test_gen_questions_llm_mode_asks_with_the_configs_max_tokens(tmp_path, monkeypatch,
                                                                 capsys):
    requests = []

    class Recording(ScriptedBackend):
        def generate(self, request, *, role=None, run_index=0):
            requests.append(request)
            return "How should c1 shed load?\nWhen should c2 hand over?"

    monkeypatch.setattr(config_module, "build_backend",
                        lambda config: Recording(fallback_seed=None, dim=8))
    (tmp_path / "experiment.json").write_text(json.dumps({"max_tokens": 77,
                                                          "temperature": 1.5}))
    assert cli_dispatch(["gen-questions", "--count", "2", "--mode", "llm",
                         "--config", str(tmp_path / "experiment.json")]) == 0
    assert [q["text"] for q in json.loads(capsys.readouterr().out)] == \
        ["How should c1 shed load?", "When should c2 hand over?"]
    (request,) = requests
    assert request.max_tokens == 77
    assert request.temperature == 0.5  # fixed for question generation


def test_gen_questions_bad_count_exits_1(capsys):
    assert cli_dispatch(["gen-questions", "--count", "0"]) == 1


@pytest.mark.parametrize("weight", ["-1", "nan", "inf"])
def test_gen_questions_refuses_a_bad_topic_weight_naming_the_topic(capsys, weight):
    assert cli_dispatch(["gen-questions", "--count", "3", "--seed", "1",
                         "--topics", f"slicing={weight}", "energy=2"]) == 1
    captured = capsys.readouterr()
    assert "the weight of topic slicing must be a finite number >= 0" in captured.err
    assert captured.out == ""


def test_unknown_flag_prints_usage_and_exits_1(capsys):
    assert cli_dispatch(["simulate", "--bogus", "x"]) == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    assert cli_dispatch(["grid", "--help"]) == 0


def test_simulate_clean_plan_outputs_kpi_json(workspace, capsys):
    plan = workspace / "plan.dsl"
    plan.write_text("allocate 5 prb to s1\nallocate 7 prb to s2\nadmit s1\n")
    code = cli_dispatch(["simulate", "--plan", str(plan),
                         "--network", str(workspace / "network.json")])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    slices = {k["slice_id"]: k for k in payload["per_slice"]}
    assert slices["s1"]["allocated_prb"] == 5
    assert slices["s1"]["throughput_mbps"] == 4.0


def test_simulate_syntax_error_exits_1(workspace, capsys):
    plan = workspace / "plan.dsl"
    plan.write_text("allocate ten prb to s1\n")
    assert cli_dispatch(["simulate", "--plan", str(plan),
                         "--network", str(workspace / "network.json")]) == 1
    assert "syntax error" in capsys.readouterr().err


def test_simulate_threshold_violation_exits_1(workspace, capsys):
    plan = workspace / "plan.dsl"
    plan.write_text("allocate 1 prb to s1\n")  # s2 starved -> findings
    assert cli_dispatch(["simulate", "--plan", str(plan),
                         "--network", str(workspace / "network.json")]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--min-throughput-ratio", "0"), ("--min-throughput-ratio", "-1"),
    ("--min-throughput-ratio", "nan"), ("--max-latency-ms", "0"), ("--max-latency-ms", "inf"),
    ("--max-latency-ms", "nan")])
def test_simulate_refuses_a_threshold_flag_out_of_range(workspace, capsys, flag, value):
    plan = workspace / "plan.dsl"
    plan.write_text("allocate 5 prb to s1\nallocate 7 prb to s2\n")
    assert cli_dispatch(["simulate", "--plan", str(plan),
                         "--network", str(workspace / "network.json"), flag, value]) == 1
    captured = capsys.readouterr()
    assert f"{flag} must be a number in (0, inf], got {float(value)!r}" in captured.err
    assert captured.out == ""


def test_validate_policy_forbidden_call_exits_1(workspace, capsys):
    code_file = workspace / "snippet.code"
    code_file.write_text('import os\nos.system("reboot")\n')
    code = cli_dispatch(["validate-policy", "--code", str(code_file),
                         "--rules", str(workspace / "rules.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "forbidden_call" in out
    assert "penalty" in out


def test_validate_policy_clean_exits_0(workspace, capsys):
    code_file = workspace / "snippet.code"
    code_file.write_text('import ric\nric.admit("s1")\n')
    assert cli_dispatch(["validate-policy", "--code", str(code_file),
                         "--rules", str(workspace / "rules.json")]) == 0


def test_misspelt_policy_key_exits_1(workspace, capsys):
    (workspace / "rules.json").write_text(json.dumps({"forbidden_call": ["os.system"],
                                                      "forbidden_imports": []}))
    code_file = workspace / "snippet.code"
    code_file.write_text('import ric\nric.admit("s1")\n')
    assert cli_dispatch(["validate-policy", "--code", str(code_file),
                         "--rules", str(workspace / "rules.json")]) == 1
    assert "unknown key 'forbidden_call'" in capsys.readouterr().err
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir)) == 1
    assert "unknown key 'forbidden_call'" in capsys.readouterr().err
    assert not (out_dir / "runs").exists()


def _grid_args(workspace, out_dir, runs=2):
    return ["grid",
            "--questions", str(workspace / "questions.json"),
            "--personas", str(workspace / "personas.json"),
            "--runs", str(runs),
            "--config", str(workspace / "experiment.json"),
            "--out", str(out_dir)]


def test_grid_2x4x2_produces_16_artifacts(workspace, capsys):
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir)) == 0
    run_files = [p for p in out_dir.glob("runs/*/*/run*.json")
                 if not p.name.endswith(".meta.json")]
    assert len(run_files) == 16  # 2 questions x 4 persona sets x 2 runs
    assert (out_dir / "experiment.json").exists()
    assert (out_dir / "memory.json").exists()


def test_grid_reruns_are_byte_identical(workspace):
    out_a = workspace / "a"
    out_b = workspace / "b"
    assert cli_dispatch(_grid_args(workspace, out_a)) == 0
    assert cli_dispatch(_grid_args(workspace, out_b)) == 0
    _assert_same_run_tree(out_a, out_b)


def _assert_same_run_tree(out_a, out_b):
    """Every artifact but the timing sidecars is byte-identical."""
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*.json")
                     if not p.name.endswith(".meta.json"))
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*.json")
                     if not p.name.endswith(".meta.json"))
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


_REPLIER = ScriptedBackend(fallback_seed=42, dim=8)


def _scripted_reply(body):
    """The offline fallback's answer, so a live run parses paths and self-evaluates."""
    system, user = (m["content"] for m in body["messages"])
    return _REPLIER.generate(GenerationRequest(system_prompt=system, user_prompt=user))


@pytest.fixture
def live_workspace(workspace, monkeypatch):
    """The workspace with a live backend, served by a keep-alive stub."""
    config = json.loads((workspace / "experiment.json").read_text())
    config["backend"] = {"mode": "live", "rate_limit_per_s": 1000}
    (workspace / "experiment.json").write_text(json.dumps(config))
    with StubOpenAIServer(completion_text=_scripted_reply, dim=32,
                          keep_alive=True) as server:
        monkeypatch.setenv("GMAS_API_BASE", server.base_url)
        yield workspace, server


def _live_grid(workspace, out_dir):
    """2 questions x 2 persona sets x 2 runs on 2 worker threads."""
    return cli_dispatch(_grid_args(workspace, out_dir)
                        + ["--max-sets", "2", "--workers", "2"])


class _OneRequestAtATime(LiveBackend):
    """Sends a batch one request after another."""

    def generate_all(self, requests, *, role=None, run_index=0):
        replies = []
        for request in requests:
            replies += super().generate_all([request], role=role, run_index=run_index)
        return replies


def test_live_grid_closes_every_connection_it_opened(live_workspace, monkeypatch):
    workspace, server = live_workspace
    built = []
    build_backend = config_module.build_backend
    monkeypatch.setattr(config_module, "build_backend",
                        lambda config: built.append(build_backend(config)) or built[-1])
    assert _live_grid(workspace, workspace / "live") == 0
    (backend,) = built
    # each of the 2 workers holds at most one connection per candidate path
    assert 2 <= len(backend._opened) <= 2 * 3
    assert all(conn.sock is None for conn in backend._opened)


def test_live_grid_batching_writes_the_same_tree(live_workspace, monkeypatch):
    workspace, server = live_workspace
    assert _live_grid(workspace, workspace / "batched") == 0
    assert any(SELF_EVAL_MARKER in r["body"]["messages"][1]["content"]
               for r in server.requests if r["path"].endswith("/chat/completions"))
    monkeypatch.setattr(config_module, "LiveBackend", _OneRequestAtATime)
    assert _live_grid(workspace, workspace / "one-at-a-time") == 0
    _assert_same_run_tree(workspace / "batched", workspace / "one-at-a-time")


def test_live_grid_asks_on_every_run_where_sets_share_a_planner(live_workspace):
    workspace, server = live_workspace
    assert _live_grid(workspace, workspace / "live") == 0
    records = [load_run(path) for path in iter_run_files(workspace / "live")]
    set_ids = {record.persona_set_id for record in records}
    assert len(records) == 8 and len(set_ids) == 2
    assert len({set_id.split("+")[0] for set_id in set_ids}) == 1
    # a pass from role r asks for each stage from r on: the Planner proposes
    # and rates its three paths, the Allocator and the Coder write once
    asks = {AgentRole.PLANNER: 4, AgentRole.ALLOCATOR: 1, AgentRole.CODER: 1}
    expected = 0
    for record in records:
        assert len(record.trajectory(AgentRole.PLANNER).aux_exchanges) == 3
        for start in [AgentRole.PLANNER] + [e.routed_role for e in record.refinement_events]:
            expected += sum(asks.get(role, 0)
                            for role in PIPELINE_ORDER[PIPELINE_ORDER.index(start):])
    chats = [r for r in server.requests if r["path"].endswith("/chat/completions")]
    assert len(chats) == expected


def test_run_single_cell(workspace, capsys):
    out_dir = workspace / "single"
    code = cli_dispatch([
        "run", "--question", "q1", "--set", SET_ALL_DEFAULT,
        "--questions", str(workspace / "questions.json"),
        "--config", str(workspace / "experiment.json"),
        "--out", str(out_dir)])
    assert code == 0
    assert "completed" in capsys.readouterr().out
    produced = list(out_dir.glob(f"runs/{SET_ALL_DEFAULT}/q1/run1.json"))
    assert len(produced) == 1


def test_report_on_a_run_tree_uses_the_manifest_threshold(workspace, capsys):
    config = json.loads((workspace / "experiment.json").read_text())
    config["thresholds"] = {"drift": 0.0}
    (workspace / "experiment.json").write_text(json.dumps(config))
    out_dir = workspace / "single"
    assert cli_dispatch([
        "run", "--question", "q1", "--set", SET_ALL_DEFAULT, "--runs", "3",
        "--questions", str(workspace / "questions.json"),
        "--config", str(workspace / "experiment.json"),
        "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "experiment.json").read_text())
    assert manifest["dimensions"] == {"questions": 1, "persona_sets": 1, "runs": 3}
    memory = json.loads((out_dir / "memory.json").read_text())
    assert [e["run_index"] for e in memory[SET_ALL_DEFAULT]["q1"]["Coder"]] == [1, 2, 3]
    assert cli_dispatch(["report", "--root", str(out_dir)]) == 0
    report = (out_dir / "report" / "report.md").read_text()
    drift = (out_dir / "drift.csv").read_text().splitlines()[1:]
    moved = sum(1 for row in drift if row.endswith(",Coder") and row.split(",")[5] != "0")
    assert f"{moved} of 2 Coder transitions above tau_d 0\n" in report


@pytest.mark.parametrize("threshold", ["min_throughput_ratio", "max_latency_ms"])
def test_grid_with_a_zero_kpi_threshold_exits_1_before_any_run(workspace, capsys,
                                                               threshold):
    config = json.loads((workspace / "experiment.json").read_text())
    config["thresholds"] = {threshold: 0}
    (workspace / "experiment.json").write_text(json.dumps(config))
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir)) == 1
    assert f"thresholds.{threshold}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_unknown_question_exits_1(workspace, capsys):
    code = cli_dispatch([
        "run", "--question", "nope", "--set", SET_ALL_DEFAULT,
        "--questions", str(workspace / "questions.json"),
        "--config", str(workspace / "experiment.json"),
        "--out", str(workspace / "x")])
    assert code == 1


def test_report_command_aggregates_and_emits(workspace, capsys):
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir)) == 0
    assert cli_dispatch(["report", "--root", str(out_dir)]) == 0
    assert (out_dir / "penalty.csv").exists()
    assert (out_dir / "report" / "report.md").exists()
    assert (out_dir / "report" / "penalty_by_run.svg").exists()


def test_report_drift_alerts_use_the_manifest_threshold(workspace, capsys):
    config = json.loads((workspace / "experiment.json").read_text())
    config["thresholds"] = {"drift": 0.0}
    (workspace / "experiment.json").write_text(json.dumps(config))
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir)) == 0
    assert cli_dispatch(["report", "--root", str(out_dir)]) == 0
    report = (out_dir / "report" / "report.md").read_text()
    drift = (out_dir / "drift.csv").read_text().splitlines()[1:]
    moved = sum(1 for row in drift if row.endswith(",Coder") and row.split(",")[5] != "0")
    assert f"{moved} of 8 Coder transitions above tau_d 0\n" in report
    (out_dir / "experiment.json").unlink()
    assert cli_dispatch(["report", "--root", str(out_dir)]) == 0
    assert "Coder transitions above tau_d 0.35\n" in \
        (out_dir / "report" / "report.md").read_text()


def test_report_with_corrupt_artifact_exits_2(workspace, capsys):
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir)) == 0
    victim = next(iter(out_dir.glob("runs/*/*/run1.json")))
    victim.write_text("{ broken")
    assert cli_dispatch(["report", "--root", str(out_dir)]) == 2
    assert "corrupt" in capsys.readouterr().err


def _run_args(workspace, out_dir, set_id):
    return ["run", "--question", "q1", "--set", set_id, "--runs", "2",
            "--questions", str(workspace / "questions.json"),
            "--config", str(workspace / "experiment.json"), "--out", str(out_dir)]


def test_report_lists_a_cell_of_two_experiments_as_corrupt(workspace, capsys):
    # runs 1-2 of a `gmas run` tree copied over one cell of a grid's tree
    # leave run 3 of the grid's experiment
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir, runs=3)) == 0
    cell = sorted(out_dir.glob("runs/*/q1"))[0]
    single = workspace / "single"
    assert cli_dispatch(_run_args(workspace, single, cell.parent.name)) == 0
    for k in (1, 2):
        name = f"run{k}.json"
        (cell / name).write_bytes((single / cell.relative_to(out_dir) / name).read_bytes())
    paths = [cell / f"run{k}.json" for k in (1, 2, 3)]
    ids = [json.loads(path.read_text())["experiment_id"] for path in paths]
    assert ids[0] == ids[1] != ids[2]
    capsys.readouterr()
    assert cli_dispatch(["report", "--root", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert all(f"corrupt artifact skipped: {path}" in err for path in paths)
    drift = (out_dir / "drift.csv").read_text()
    assert f"{cell.parent.name},q1," not in drift
    assert f"{cell.parent.name},q2," in drift


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_run_into_another_experiments_tree_exits_1_and_writes_nothing(workspace, capsys):
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir, runs=3) + ["--max-sets", "2"]) == 0
    before = _tree_bytes(out_dir)
    grid_id = json.loads((out_dir / "experiment.json").read_text())["experiment_id"]
    cell = sorted(out_dir.glob("runs/*/q1"))[0]
    capsys.readouterr()
    assert cli_dispatch(_run_args(workspace, out_dir, cell.parent.name)) == 1
    assert f"holds experiment {grid_id!r}" in capsys.readouterr().err
    assert _tree_bytes(out_dir) == before
    # a tree of the same experiment is accepted and rewritten byte for byte
    assert cli_dispatch(_grid_args(workspace, out_dir, runs=3) + ["--max-sets", "2"]) == 0
    assert _tree_bytes(out_dir).keys() == before.keys()
    assert (out_dir / "experiment.json").read_bytes() == before[Path("experiment.json")]
    assert (out_dir / "memory.json").read_bytes() == before[Path("memory.json")]


@pytest.mark.parametrize("manifest", ["{", "[]", '{"schema_version": 1}'],
                         ids=["not json", "a list", "no experiment_id"])
def test_grid_into_a_tree_without_a_readable_manifest_exits_1(workspace, capsys, manifest):
    out_dir = workspace / "artifacts"
    out_dir.mkdir()
    (out_dir / "experiment.json").write_text(manifest)
    assert cli_dispatch(_grid_args(workspace, out_dir)) == 1
    assert "cannot be read as an experiment manifest" in capsys.readouterr().err
    assert (out_dir / "experiment.json").read_text() == manifest
    assert not (out_dir / "runs").exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_grid_with_fewer_than_one_worker_exits_1(workspace, capsys, workers):
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir) + ["--workers", workers]) == 1
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


def _refuse_build_env(*_args):
    raise AssertionError("build_env ran")


@pytest.mark.parametrize("max_sets", ["0", "-1"])
def test_grid_with_fewer_than_one_persona_set_exits_1(workspace, capsys, monkeypatch,
                                                      max_sets):
    monkeypatch.setattr(cli, "build_env", _refuse_build_env)
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir) + ["--max-sets", max_sets]) == 1
    assert f"--max-sets must be at least 1, got {max_sets}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["grid", "run"])
@pytest.mark.parametrize("runs", ["0", "-1"])
def test_fewer_than_one_run_exits_1(workspace, capsys, monkeypatch, command, runs):
    monkeypatch.setattr(cli, "build_env", _refuse_build_env)
    out_dir = workspace / "artifacts"
    args = (_grid_args(workspace, out_dir) if command == "grid"
            else _run_args(workspace, out_dir, SET_ALL_DEFAULT))
    args[args.index("--runs") + 1] = runs
    assert cli_dispatch(args) == 1
    assert f"--runs must be at least 1, got {runs}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_config_exits_1(workspace, capsys):
    code = cli_dispatch(_grid_args(workspace, workspace / "y")[:-2] +
                        ["--config", str(workspace / "nope.json"),
                         "--out", str(workspace / "y")])
    assert code == 1


def test_cli_imports_no_http_or_schema_library():
    # Runtime dependencies are numpy and the stdlib; a fresh interpreter shows
    # what importing the CLI pulls in.
    src = str(Path(gmas_harness.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # The live transport's own modules load only when LiveBackend uses them.
    code = ("import sys, gmas_harness.cli; "
            "loaded = set(sys.modules) | {name.split('.')[0] for name in sys.modules}; "
            "print(sorted({'requests', 'urllib3', 'jsonschema', 'http.client', 'ssl', "
            "'selectors', 'socket', 'select'} & loaded))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_http_client():
    # LiveBackend speaks HTTP/1.1 on its own sockets
    for path in Path(gmas_harness.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert [m for m in modules if m.split(".")[0] == "http"] == [], path.name


REPO = Path(__file__).parent.parent
SAMPLE = REPO / "sample_data"

# One value of the sample config changed; each was coerced, or failed with a
# traceback, before every key was checked against the config table.
_PROBES = {
    "top_k string": ("top_k", "4"), "drift string": ("thresholds.drift", "0.3"),
    "top_k 2.5": ("top_k", 2.5), "tot_path_count 2.5": ("tot_path_count", 2.5),
    "top_k true": ("top_k", True), "embedding_dim string": ("embedding_dim", "384"),
    "embedding_dim true": ("embedding_dim", True),
    "embedding_dim 64.9": ("embedding_dim", 64.9), "retries 2.7": ("backend.retries", 2.7),
    "info weight string": ("severity_weights.info", "2"),
    "chunk_size string": ("stores.chunk_size", "400"),
    "memory_budget_chars 10.5": ("memory_budget_chars", 10.5),
    "seed string": ("seed", "42"), "max_tokens 1.5": ("max_tokens", 1.5),
    "grid_mode bogus": ("grid_mode", "bogus"),
    "misspelt binding role": ("stores.bindings.Plannr", "graph"),
    "thresholds a number": ("thresholds", 5), "a list": (None, []),
}


@pytest.mark.parametrize("key, value", _PROBES.values(), ids=_PROBES.keys())
def test_grid_on_a_sample_config_with_one_bad_value_exits_1_and_writes_nothing(
        tmp_path, capsys, key, value):
    config = json.loads((SAMPLE / "experiment.json").read_text(encoding="utf-8"))
    for section, name in (("stores", "corpus_dir"), ("stores", "graph_path"),
                          (None, "network_path"), (None, "policy_rules_path")):
        holder = config[section] if section else config
        holder[name] = str(SAMPLE / holder[name])
    if key is None:
        config = value
    else:
        *parents, last = key.split(".")
        holder = config
        for parent in parents:
            holder = holder[parent]
        holder[last] = value
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cli_dispatch(["grid", "--questions", str(SAMPLE / "questions.json"),
                         "--runs", "1", "--max-sets", "1", "--config", str(path),
                         "--out", str(out_dir)]) == 1
    assert (key or str(path)) in capsys.readouterr().err
    assert not (out_dir / "experiment.json").exists()


def test_grid_with_a_linter_printing_non_string_fields_reports_with_exit_0(workspace,
                                                                          capsys):
    """Such a finding is a linter failure, so the run files load back."""
    (workspace / "lint.json").write_text(
        '[{"rule_id": 5, "message": [1], "severity": "info", "line": 1}]')
    config = json.loads((workspace / "experiment.json").read_text())
    config["external_linter_cmd"] = f"cat {workspace / 'lint.json'}"
    (workspace / "experiment.json").write_text(json.dumps(config))
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir, runs=1)) == 0
    assert cli_dispatch(["report", "--root", str(out_dir)]) == 0
    assert "corrupt" not in capsys.readouterr().err
    record = json.loads(next(out_dir.glob("runs/*/*/run1.json")).read_text())
    findings = record["analyzer_report"]["findings"]
    assert "linter_unavailable" in {finding["rule_id"] for finding in findings}


@pytest.mark.parametrize("manifest", ['{"experiment_id": "exp-1"}', "[1]",
                                      '{"experiment_id": "exp-1", "config_snapshot": 5}'],
                         ids=["no config_snapshot", "a list", "config_snapshot a number"])
def test_report_on_a_tree_whose_manifest_is_not_one_exits_1(workspace, capsys, manifest):
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir)) == 0
    (out_dir / "experiment.json").write_text(manifest)
    capsys.readouterr()
    assert cli_dispatch(["report", "--root", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"{out_dir / 'experiment.json'} cannot be read as an experiment manifest" in err


# Input files the workspace's config does not name: (section, key, value) wires one in.
_UNWIRED = {"graph.json": ("stores", "graph_path", "graph.json"),
            "corpus/manifest.json": ("stores", "corpus_dir", "corpus"),
            "data/corpus/manifest.json": ("stores", "corpus_dir", "data/corpus"),
            "script.json": ("backend", "script_path", "script.json")}
_NODE = {"id": "n1", "label": "slicing", "text": "PRB split"}
_MALFORMED = {
    "question without topic": ("questions.json", lambda items: [
        {k: v for k, v in q.items() if k != "topic"} for q in items], "'topic'"),
    "questions an object": ("questions.json", lambda items: {"questions": items},
                            "the file must be a list"),
    "questions not JSON": ("questions.json", lambda items: json.dumps(items)[:-1],
                           "JSONDecodeError"),
    "question id a number": ("questions.json", lambda items: [{**items[0], "id": 1}],
                             "[0].id must be"),
    "question id a path": ("questions.json", lambda items: [
        {**items[0], "id": "../../../escaped"}], "[0].id must be"),
    "persona without fragment": ("personas.json", lambda items: [
        {k: v for k, v in p.items() if k != "prompt_fragment"} for p in items],
        "'prompt_fragment'"),
    "persona id a path": ("personas.json", lambda items: [
        {**p, "id": "x/../../../../pescaped"} if p["id"] == "CreativeThinker" else p
        for p in items], "[0].id must be"),
    "network without cells": ("network.json", lambda network: {
        k: v for k, v in network.items() if k != "cells"}, "KeyError: 'cells'"),
    "NaN demand": ("network.json", lambda network: {**network, "slices": [
        {**network["slices"][0], "demand_mbps": math.nan}]}, "slices[0].demand_mbps must be"),
    "demand a string": ("network.json", lambda network: {**network, "slices": [
        {**network["slices"][0], "demand_mbps": "4"}]}, "slices[0].demand_mbps must be"),
    "demand true": ("network.json", lambda network: {**network, "slices": [
        {**network["slices"][0], "demand_mbps": True}]}, "slices[0].demand_mbps must be"),
    "demand beyond float range": ("network.json", lambda network: {**network, "slices": [
        {**network["slices"][0], "demand_mbps": 10 ** 400}]}, "slices[0].demand_mbps must be"),
    "backoff beyond float range": ("experiment.json", lambda config: {
        **config, "backend": {**config["backend"], "backoff_s": 10 ** 400}},
        "backend.backoff_s must be"),
    "Infinity capacity": ("network.json", lambda network: {**network, "cells": [
        {"cell_id": "c1", "capacity_prb": math.inf}]}, "cells[0].capacity_prb must be"),
    "fractional capacity": ("network.json", lambda network: {**network, "cells": [
        {"cell_id": "c1", "capacity_prb": 24.9}]}, "cells[0].capacity_prb must be"),
    "misspelt base_latency_ms": ("network.json", lambda network: {
        **network, "base_latency": 20.0}, "unknown key 'base_latency'"),
    "graph node without label": ("graph.json", lambda _: {
        "nodes": [{"id": "n1", "text": "PRB split"}]}, "KeyError: 'label'"),
    "graph label a number": ("graph.json", lambda _: {"nodes": [{**_NODE, "label": 5}]},
                             "nodes[0].label must be"),
    "graph a list": ("graph.json", lambda _: [_NODE], "the file must be an object"),
    "graph edge a number": ("graph.json", lambda _: {"nodes": [_NODE], "edges": [5]},
                            "edges[0] must be an object"),
    "corpus manifest a list": ("corpus/manifest.json", lambda _: ["notes.txt"],
                               "the file must be an object"),
    "corpus name a path": ("data/corpus/manifest.json", lambda _: {
        "../../questions.json": "specs"}, "a key of the file must be"),
    "forbidden calls a string": ("rules.json", lambda rules: {
        **rules, "forbidden_calls": "os.system"}, "forbidden_calls must be a list"),
    "conflict rule of one item": ("rules.json", lambda rules: {
        **rules, "conflict_rules": [["admit"]]}, "conflict_rules[0] must be a row"),
    "resource caps a list": ("rules.json", lambda rules: {
        **rules, "resource_caps": [["prb", 40]]}, "resource_caps must be an object"),
    "cap a string": ("rules.json", lambda rules: {**rules, "resource_caps": {"prb": "40"}},
                     "resource_caps.prb must be"),
    "NaN cap": ("rules.json", lambda rules: {**rules, "resource_caps": {"prb": math.nan}},
                "resource_caps.prb must be"),
    "script entry a string": ("script.json", lambda _: ["allocate 5 prb to s1"],
                              "[0] must be an object"),
}


@pytest.mark.parametrize("name, edit, says", _MALFORMED.values(), ids=_MALFORMED)
def test_grid_on_a_malformed_input_file_exits_1_naming_it(workspace, capsys, name, edit,
                                                          says):
    """``edit`` maps the file's JSON value (None when the workspace lacks the
    file) to the malformed value, or to the text itself when it is a str. The
    error names the file and ``says`` where in it the fault is, and nothing
    is written under or beside ``--out``."""
    path = workspace / name
    if name in _UNWIRED:
        section, key, value = _UNWIRED[name]
        config = json.loads((workspace / "experiment.json").read_text())
        config.setdefault(section, {})[key] = value
        (workspace / "experiment.json").write_text(json.dumps(config))
        path.parent.mkdir(parents=True, exist_ok=True)
    value = edit(json.loads(path.read_text()) if path.exists() else None)
    path.write_text(value if isinstance(value, str) else json.dumps(value))
    before = sorted(workspace.rglob("*"))
    out_dir = workspace / "p" / "q" / "r" / "out"   # deep, so an escape stays in workspace
    assert cli_dispatch(_grid_args(workspace, out_dir)) == 1
    err = capsys.readouterr().err
    assert f"{path} is not a valid" in err
    assert says in err
    assert sorted(workspace.rglob("*")) == before
