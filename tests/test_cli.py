from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmas_harness
from gmas_harness import config as config_module
from gmas_harness.backends import (GenerationRequest, LiveBackend, SELF_EVAL_MARKER,
                                   ScriptedBackend)
from gmas_harness.cli import cli_dispatch
from gmas_harness.scenario import PersonaRegistry
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


def test_gen_questions_bad_count_exits_1(capsys):
    assert cli_dispatch(["gen-questions", "--count", "0"]) == 1


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
    assert "unknown policy key 'forbidden_call'" in capsys.readouterr().err
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir)) == 1
    assert "unknown policy key 'forbidden_call'" in capsys.readouterr().err
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
            "'selectors'} & loaded))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


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


@pytest.mark.parametrize("name, edit", [
    ("questions.json", lambda items: [{k: v for k, v in q.items() if k != "topic"}
                                      for q in items]),
    ("questions.json", lambda items: {"questions": items}),
    ("personas.json", lambda items: [{k: v for k, v in p.items() if k != "prompt_fragment"}
                                     for p in items]),
    ("network.json", lambda network: {k: v for k, v in network.items() if k != "cells"}),
], ids=["question without topic", "questions an object", "persona without fragment",
        "network without cells"])
def test_grid_on_a_malformed_input_file_exits_1_naming_it(workspace, capsys, name, edit):
    path = workspace / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    out_dir = workspace / "artifacts"
    assert cli_dispatch(_grid_args(workspace, out_dir)) == 1
    assert f"{path} is not a valid" in capsys.readouterr().err
    assert not (out_dir / "runs").exists()
