"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest

from gmas_harness.analyzer import (DEFAULT_SEVERITY_WEIGHTS, Dimension, Finding,
                                   PolicyRuleSet, Severity, aggregate_penalty,
                                   build_report, enforce_policy, parse_code)
from gmas_harness.artifacts import load_run
from gmas_harness.cli import cli_dispatch
from gmas_harness.embeddings import EmbeddingVector
from gmas_harness.knowledge import ContextBundle
from gmas_harness.orchestrator import route_refinement, select_path
from gmas_harness.records import AllocationPlan, CodeArtifact, SolutionPath
from gmas_harness.ricsim import execute_plan, parse_plan
from gmas_harness.safety import (conflict_rate, consecutive_distances,
                                 consistency_score, summarize_grid)
from gmas_harness.scenario import (AgentRole, PIPELINE_ORDER, PersonaRegistry,
                                   enumerate_grid)
from factories import make_record
from oracles import exact_mean, exact_median, reference_simulate
from stub_server import StubOpenAIServer
from test_ricsim import (_assert_reports_match, _network_dict, _random_network,
                         _random_plan)

DATA = Path(__file__).parent / "data"


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL - {description}", flush=True)
                raise
            print(f"ACCEPTANCE {number:02d} PASS - {description}", flush=True)
            return result
        return wrapper
    return decorate


# ── criterion 1: end-to-end determinism ──────────────────────────────────────

def _eight_set_registry() -> PersonaRegistry:
    keep = {"Strategic": False, "StrictAssessor": False}
    personas = [p for p in PersonaRegistry.builtin().all()
                if keep.get(p.id, True)]
    return PersonaRegistry(personas)


def _write_workspace(root: Path) -> None:
    (root / "network.json").write_text(json.dumps({
        "cells": [{"cell_id": "c1", "capacity_prb": 24},
                  {"cell_id": "c2", "capacity_prb": 16}],
        "slices": [{"slice_id": "s1", "cell_id": "c1", "demand_mbps": 4.0},
                   {"slice_id": "s2", "cell_id": "c1", "demand_mbps": 6.0},
                   {"slice_id": "s3", "cell_id": "c2", "demand_mbps": 5.0}],
    }))
    (root / "rules.json").write_text(json.dumps({
        "forbidden_calls": ["os.system", "eval"],
        "forbidden_imports": ["os", "subprocess"],
        "conflict_rules": [["admit", "reject", "slice"]],
        "resource_caps": {"prb": 40},
    }))
    (root / "experiment.json").write_text(json.dumps({
        "seed": 42,
        "embedding_dim": 384,
        "backend": {"mode": "scripted", "fallback_seed": 42},
        "network_path": "network.json",
        "policy_rules_path": "rules.json",
        "grid_mode": "relaxed",
    }))
    assert cli_dispatch(["gen-questions", "--count", "2", "--seed", "42",
                         "--out", str(root / "questions.json")]) == 0
    _eight_set_registry().to_json(root / "personas.json")


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*.json"))
            if not p.name.endswith(".meta.json")}


@criterion(1, "grid 2x8x3 scripted seed 42: < 60 s, byte-identical trees")
def test_acceptance_01_end_to_end_determinism(tmp_path):
    _write_workspace(tmp_path)
    args = lambda out: ["grid",
                        "--questions", str(tmp_path / "questions.json"),
                        "--personas", str(tmp_path / "personas.json"),
                        "--runs", "3",
                        "--config", str(tmp_path / "experiment.json"),
                        "--out", str(out)]
    start = time.monotonic()
    assert cli_dispatch(args(tmp_path / "a")) == 0
    assert cli_dispatch(args(tmp_path / "b")) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"two grid executions took {elapsed:.1f}s"

    tree_a = _tree_bytes(tmp_path / "a")
    tree_b = _tree_bytes(tmp_path / "b")
    run_files = [name for name in tree_a if name.startswith("runs/")]
    assert len(run_files) == 2 * 8 * 3
    assert tree_a.keys() == tree_b.keys()
    for name in tree_a:
        assert tree_a[name] == tree_b[name], f"{name} differs between executions"


# ── criterion 2: penalty algebra ─────────────────────────────────────────────

@criterion(2, "penalty algebra: bounds, monotonicity, exact formula (1000 cases)")
def test_acceptance_02_penalty_algebra():
    rng = random.Random(2)
    severities = list(Severity)
    dims = list(Dimension)
    assert aggregate_penalty([]) == 100.0
    forty = [Finding(Dimension.POLICY, "r", Severity.CRITICAL, "m"),
             Finding(Dimension.STATIC, "r", Severity.ERROR, "m"),
             Finding(Dimension.RUNTIME, "r", Severity.ERROR, "m")]
    assert aggregate_penalty(forty) == 40.0
    for _ in range(1000):
        findings = [Finding(rng.choice(dims), "r", rng.choice(severities), "m")
                    for _ in range(rng.randint(0, 25))]
        score = aggregate_penalty(findings)
        assert 0.0 <= score <= 100.0
        expected = max(0.0, min(100.0, 100.0 - sum(
            DEFAULT_SEVERITY_WEIGHTS[f.severity] for f in findings)))
        assert score == expected
        extra = Finding(rng.choice(dims), "r", rng.choice(severities), "m")
        assert aggregate_penalty(findings + [extra]) <= score


# ── criterion 3: policy engine oracle ────────────────────────────────────────

@criterion(3, "policy engine: exact match on the hand-labeled corpus")
def test_acceptance_03_policy_oracle():
    corpus = json.loads((DATA / "policy_corpus.json").read_text())
    raw = corpus["rules"]
    rules = PolicyRuleSet(
        forbidden_calls=tuple(raw["forbidden_calls"]),
        forbidden_imports=tuple(raw["forbidden_imports"]),
        conflict_rules=tuple((a, b, s) for a, b, s in raw["conflict_rules"]),
        resource_caps=tuple(sorted(raw["resource_caps"].items())),
    )
    assert len(corpus["cases"]) >= 20
    true_positives = predicted = labeled = 0
    for case in corpus["cases"]:
        findings = enforce_policy(parse_code(case["code"]), rules)
        got = sorted((f.rule_id, f.location[0]) for f in findings)
        expected = sorted((e["rule_id"], e["line"]) for e in case["expected"])
        predicted += len(got)
        labeled += len(expected)
        matched = got == expected
        if matched:
            true_positives += len(expected)
        assert matched, (case["name"], got, expected)
    precision = true_positives / predicted if predicted else 1.0
    recall = true_positives / labeled if labeled else 1.0
    assert precision == 1.0 and recall == 1.0


# ── criterion 4: simulator oracle ────────────────────────────────────────────

@criterion(4, "DSL interpreter matches reference on 120 plans / 12 networks")
def test_acceptance_04_simulator_oracle():
    rng = random.Random(4)
    networks = [_random_network(rng) for _ in range(12)]
    assert len(networks) >= 10
    cases = 0
    for network in networks:
        caps = {c.cell_id: c.capacity_prb for c in network.cells}
        for _ in range(10):
            plan_text = _random_plan(rng, network)
            report = execute_plan(parse_plan(plan_text), network)
            oracle = reference_simulate(plan_text, _network_dict(network))
            _assert_reports_match(report, oracle)
            used: dict[str, int] = {c: 0 for c in caps}
            for kpi in report.per_slice:
                used[kpi.cell_id] += kpi.allocated_prb
            assert all(used[c] <= caps[c] for c in caps)
            cases += 1
    assert cases >= 100


# ── criterion 5: metric kernels ──────────────────────────────────────────────

def _rand_vec(rng, dim=6):
    return EmbeddingVector.from_list([rng.uniform(-1, 1) for _ in range(dim)])


@criterion(5, "metric kernels: symmetry, drift range, conflict monotonicity (500+)")
def test_acceptance_05_metric_kernels():
    rng = random.Random(5)
    for _ in range(500):
        a, b = _rand_vec(rng), _rand_vec(rng)
        plan_a = AllocationPlan("allocate 1 prb to s1", a)
        code_b = CodeArtifact("import ric", b)
        plan_b = AllocationPlan("allocate 1 prb to s1", b)
        code_a = CodeArtifact("import ric", a)
        forward = consistency_score(plan_a, code_b)
        backward = consistency_score(plan_b, code_a)
        assert math.isclose(forward, backward, abs_tol=1e-9)
        assert 0.0 <= forward <= 100.0

    for _ in range(500):
        vectors = [_rand_vec(rng) for _ in range(rng.randint(2, 6))]
        for d in consecutive_distances(vectors):
            assert 0.0 <= d <= 2.0
    same = EmbeddingVector.from_list([0.3, 0.4, 0.0, 0.0, 0.0, 0.0])
    assert consecutive_distances([same, same]) == [0.0]

    for _ in range(500):
        bundles = {}
        for i in range(rng.randint(2, 5)):
            bundles[f"r{i}"] = ContextBundle(items=(), agent_role=f"r{i}",
                                             bundle_embedding=_rand_vec(rng))
        lo = rng.uniform(0, 2)
        hi = rng.uniform(0, 2)
        lo, hi = min(lo, hi), max(lo, hi)
        assert conflict_rate(bundles, lo) >= conflict_rate(bundles, hi)


# ── criterion 6: ToT selection invariants ────────────────────────────────────

@criterion(6, "ToT selection: argmax + lowest-id tie-break, exhaustive length <= 4")
def test_acceptance_06_tot_selection():
    values = [0.0, 0.25, 0.5, 1.0]
    checked = 0
    for length in (1, 2, 3, 4):
        for combo in itertools.product(values, repeat=length):
            paths = [SolutionPath(path_id=i + 1, steps=(f"s{i}",), self_eval=v)
                     for i, v in enumerate(combo)]
            chosen = select_path(paths)
            assert chosen in paths
            assert chosen.self_eval == max(combo)
            assert chosen.path_id == combo.index(max(combo)) + 1
            checked += 1
    assert checked == 4 + 16 + 64 + 256


# ── criterion 7: refinement routing ──────────────────────────────────────────

@criterion(7, "refinement routing precedence, exhaustive over failure flags")
def test_acceptance_07_routing():
    def report_for(static, policy, runtime, formal):
        findings = []
        if not static:
            findings.append(Finding(Dimension.STATIC, "s", Severity.ERROR, "m"))
        if not policy:
            findings.append(Finding(Dimension.POLICY, "p", Severity.ERROR, "m"))
        if not runtime:
            findings.append(Finding(Dimension.RUNTIME, "r", Severity.ERROR, "m"))
        if not formal:
            findings.append(Finding(Dimension.FORMAL, "f", Severity.ERROR, "m"))
        return build_report(findings)

    combos = 0
    for alignment_ok, static, policy, runtime, formal in \
            itertools.product([True, False], repeat=5):
        if alignment_ok and static and policy and runtime and formal:
            continue  # all-pass is a contract violation, covered elsewhere
        routed = route_refinement(report_for(static, policy, runtime, formal),
                                  alignment_ok)
        if not alignment_ok:
            expected = AgentRole.PLANNER
        elif not runtime:
            expected = AgentRole.ALLOCATOR
        else:
            expected = AgentRole.CODER
        assert routed is expected
        combos += 1
    assert combos == 31  # every >= 1-failure combination, superset of the 2^4 grid


# ── criterion 8: paper-shape aggregation fixtures ────────────────────────────

RUN1_VALUES = [1.0] * 81 + [1.2] + [5.0] * 45 + [40.0] * 33


def _records_from_values(values):
    records = []
    idx = 0
    for set_i in range(32):
        for q_i in range(5):
            records.append(make_record(set_id=f"set{set_i:02d}",
                                       question_id=f"q{q_i + 1}", run_index=1,
                                       penalty=values[idx]))
            idx += 1
    return records


@criterion(8, "aggregation fixtures: run-1 mean 10.17 / median 1.0; 45 lowest of 5")
def test_acceptance_08_aggregation_fixture():
    assert len(RUN1_VALUES) == 160
    summary = summarize_grid(_records_from_values(RUN1_VALUES))
    stats = summary.per_run[1]["penalty"]
    assert stats["mean"] == float("10.17")          # tolerance 0
    assert stats["median"] == 1.0
    assert stats["mean"] == exact_mean(RUN1_VALUES)
    assert stats["median"] == exact_median(RUN1_VALUES)

    rng = random.Random(8)
    floor_values = [5.0] * 45 + [round(rng.uniform(5.5, 100.0), 2)
                                 for _ in range(115)]
    rng.shuffle(floor_values)
    floor_stats = summarize_grid(_records_from_values(floor_values)) \
        .per_run[1]["penalty"]
    assert floor_stats["min"] == 5.0
    assert floor_stats["count_min"] == 45
    assert floor_stats["count"] == 160


# ── criterion 9: grid completeness ───────────────────────────────────────────

@criterion(9, "enumerate_grid: exactly 32 sets, each persona in exactly 16")
def test_acceptance_09_grid_completeness():
    registry = PersonaRegistry.builtin()
    sets = enumerate_grid(registry)
    assert len(sets) == 32
    assert len({s.set_id for s in sets}) == 32
    counts: dict[tuple, int] = {}
    for s in sets:
        for role, pid in s.assignment:
            counts[(role, pid)] = counts.get((role, pid), 0) + 1
    assert len(counts) == 10
    assert all(count == 16 for count in counts.values())


# ── criterion 10: live-backend integration ───────────────────────────────────

SET_ALL_DEFAULT = ("Planner=Default+Coordinator=Default+Allocator=Default+"
                   "Coder=Default+Analyzer=Default")


@criterion(10, "single run against a stub OpenAI-compatible server persists "
               "a schema-valid artifact")
def test_acceptance_10_live_backend(tmp_path, monkeypatch):
    _write_workspace(tmp_path)
    (tmp_path / "experiment.json").write_text(json.dumps({
        "seed": 42,
        "embedding_dim": 32,
        "backend": {"mode": "live", "rate_limit_per_s": 1000},
        "network_path": "network.json",
        "policy_rules_path": "rules.json",
    }))
    plan_text = ("allocate 5 prb to s1\nallocate 7 prb to s2\n"
                 "allocate 6 prb to s3\nadmit s1\nadmit s2\nadmit s3")
    try:
        server = StubOpenAIServer(completion_text=plan_text, dim=32)
        server.__enter__()
    except OSError:
        pytest.skip("sandbox refuses local socket binding")
    try:
        monkeypatch.setenv("GMAS_API_BASE", server.base_url)
        monkeypatch.setenv("GMAS_API_KEY", "test-key")
        out_dir = tmp_path / "live-run"
        code = cli_dispatch([
            "run", "--question", "q1", "--set", SET_ALL_DEFAULT,
            "--questions", str(tmp_path / "questions.json"),
            "--config", str(tmp_path / "experiment.json"),
            "--out", str(out_dir)])
        assert code == 0
        artifact = out_dir / "runs" / SET_ALL_DEFAULT / "q1" / "run1.json"
        assert artifact.exists()
        record = load_run(artifact)
        assert record.status.value in ("completed", "budget_exhausted")
        assert set(record.trajectories) == set(PIPELINE_ORDER)
        assert any(r["path"] == "/v1/chat/completions" for r in server.requests)
        assert any(r["path"] == "/v1/embeddings" for r in server.requests)
    finally:
        server.__exit__(None, None, None)
