from __future__ import annotations

import collections
import dataclasses
import itertools
import json

import pytest

from gmas_harness import orchestrator
from gmas_harness.analyzer import (AnalyzerReport, Dimension, Finding, Severity,
                                   build_report, enforce_policy, formal_lite_check,
                                   parse_code, run_external_hook, run_static_checks)
from gmas_harness.artifacts import (canonical_json, iter_run_files, load_run,
                                    persist_run, run_relpath)
from gmas_harness.backends import (PROPOSE_MARKER, SELF_EVAL_MARKER, ScriptEntry,
                                   ScriptedBackend)
from gmas_harness.embeddings import DeterministicEmbedder
from gmas_harness.errors import PlanSyntaxError, TransportError
from gmas_harness.knowledge import SourceTag, build_graph, index_documents
from gmas_harness.orchestrator import (MemoryEntry, RunConfig, StoreSet, Thresholds,
                                       execute_run, memory_digest, parse_path_blocks,
                                       parse_self_eval, propose_paths,
                                       route_refinement, run_cell, run_grid,
                                       select_path)
from gmas_harness.records import RunStatus, SolutionPath
from gmas_harness.ricsim import (check_thresholds, execute_plan, parse_plan,
                                 plan_findings_for_syntax_error)
from gmas_harness.safety import overhead_from_events
from gmas_harness.scenario import (AgentRole, PIPELINE_ORDER, enumerate_grid,
                                   generate_questions)
from conftest import TEST_DIM
from factories import LiveRecords

BAD_CODE = 'import os\nos.system("rm -rf /")'
CLEAN_CODE = 'import ric\nric.allocate_prb("s1", 2)'


# ── path parsing and self-eval ───────────────────────────────────────────────

def test_parse_path_blocks_well_formed():
    text = ("PATH 1:\n- step alpha\n- step two\nRATIONALE: quick\n"
            "PATH 2:\n- step beta\nRATIONALE: deep\n")
    blocks = parse_path_blocks(text)
    assert blocks == [(["step alpha", "step two"], "quick"),
                      (["step beta"], "deep")]


def test_parse_self_eval_first_real_in_unit_interval():
    assert parse_self_eval("0.62") == 0.62
    assert parse_self_eval("Score: 8/10 so I say 0.8") == 0.8
    assert parse_self_eval("definitely high") == 0.0
    assert parse_self_eval("5 out of 5") == 0.0
    assert parse_self_eval("1") == 1.0


def _planner_script(paths_text, evals):
    entries = [ScriptEntry(response=paths_text, role="Planner",
                           prompt_contains=PROPOSE_MARKER)]
    entries += [ScriptEntry(response=str(v), role="Planner", prompt_contains=key)
                for key, v in evals]
    entries.append(ScriptEntry(response="0.5", role="Planner",
                               prompt_contains=SELF_EVAL_MARKER))
    return entries


def _propose(backend, k, registry, questions):
    persona = registry.get("Default", AgentRole.PLANNER)
    from gmas_harness.knowledge import ContextBundle
    from gmas_harness.embeddings import centroid
    bundle = ContextBundle(items=(), agent_role="Planner",
                           bundle_embedding=centroid([], backend.dim))
    return propose_paths(questions[0], persona, bundle, k, backend, run_index=1)


def test_scripted_three_paths_with_scripted_self_evals(registry, questions):
    text = ("PATH 1:\n- step alpha\nRATIONALE: a\n"
            "PATH 2:\n- step beta\nRATIONALE: b\n"
            "PATH 3:\n- step gamma\nRATIONALE: c\n")
    backend = ScriptedBackend(
        script=_planner_script(text, [("- step alpha", 0.2), ("- step beta", 0.9),
                                      ("- step gamma", 0.5)]),
        fallback_seed=None, dim=TEST_DIM)
    paths, _, _, aux = _propose(backend, 3, registry, questions)
    assert [p.self_eval for p in paths] == [0.2, 0.9, 0.5]
    assert [p.path_id for p in paths] == [1, 2, 3]
    assert len(aux) == 3


def test_malformed_candidate_becomes_fallback_with_zero_eval(registry, questions):
    text = ("PATH 1:\n- step alpha\nRATIONALE: a\n"
            "PATH 2:\nRATIONALE: empty\n"
            "PATH 3:\n- step gamma\nRATIONALE: c\n")
    backend = ScriptedBackend(
        script=_planner_script(text, []), fallback_seed=None, dim=TEST_DIM)
    paths, _, _, _ = _propose(backend, 3, registry, questions)
    assert len(paths) == 3
    assert paths[1].self_eval == 0.0
    assert paths[1].rationale.startswith("fallback")
    assert paths[0].self_eval == 0.5 and paths[2].self_eval == 0.5


def test_k_equals_one_singleton(registry, questions):
    text = "PATH 1:\n- only step\nRATIONALE: single\n"
    backend = ScriptedBackend(script=_planner_script(text, []),
                              fallback_seed=None, dim=TEST_DIM)
    paths, _, _, _ = _propose(backend, 1, registry, questions)
    assert len(paths) == 1
    assert paths[0].steps == ("only step",)


def test_too_few_blocks_padded_with_fallbacks(registry, questions):
    text = "PATH 1:\n- a step\nRATIONALE: one\n"
    backend = ScriptedBackend(script=_planner_script(text, []),
                              fallback_seed=None, dim=TEST_DIM)
    paths, _, _, _ = _propose(backend, 3, registry, questions)
    assert [p.path_id for p in paths] == [1, 2, 3]
    assert paths[1].self_eval == 0.0 and paths[2].self_eval == 0.0


# ── selection ────────────────────────────────────────────────────────────────

def _path(pid, ev):
    return SolutionPath(path_id=pid, steps=(f"step {pid}",), self_eval=ev)


def test_select_argmax():
    paths = [_path(1, 0.2), _path(2, 0.9), _path(3, 0.5)]
    assert select_path(paths).path_id == 2


def test_select_tie_breaks_to_lowest_id():
    assert select_path([_path(1, 0.7), _path(2, 0.7)]).path_id == 1


def test_select_single():
    only = _path(1, 0.0)
    assert select_path([only]) is only


def test_select_empty_is_contract_violation():
    with pytest.raises(ValueError):
        select_path([])


def test_selection_invariants_exhaustive_small_cases():
    values = [0.0, 0.25, 0.5, 1.0]
    for length in (1, 2, 3, 4):
        for combo in itertools.product(values, repeat=length):
            paths = [_path(i + 1, v) for i, v in enumerate(combo)]
            chosen = select_path(paths)
            assert chosen in paths
            best = max(combo)
            assert chosen.self_eval == best
            assert chosen.path_id == combo.index(best) + 1  # lowest id among ties


# ── refinement routing ───────────────────────────────────────────────────────

def _report(static=True, policy=True, runtime=True, formal=True):
    findings = []
    if not static:
        findings.append(Finding(Dimension.STATIC, "s", Severity.ERROR, "m"))
    if not policy:
        findings.append(Finding(Dimension.POLICY, "p", Severity.CRITICAL, "m"))
    if not runtime:
        findings.append(Finding(Dimension.RUNTIME, "r", Severity.ERROR, "m"))
    if not formal:
        findings.append(Finding(Dimension.FORMAL, "f", Severity.ERROR, "m"))
    return build_report(findings)


def test_policy_failure_routes_to_coder():
    assert route_refinement(_report(policy=False), True) is AgentRole.CODER


def test_runtime_beats_static():
    assert route_refinement(_report(runtime=False, static=False), True) \
        is AgentRole.ALLOCATOR


def test_alignment_beats_policy():
    assert route_refinement(_report(policy=False), False) is AgentRole.PLANNER


def test_all_pass_is_contract_violation():
    with pytest.raises(ValueError):
        route_refinement(_report(), True)


def test_routing_precedence_exhaustive_over_all_flag_combinations():
    for alignment_ok, static, policy, runtime, formal in \
            itertools.product([True, False], repeat=5):
        report = _report(static, policy, runtime, formal)
        if alignment_ok and static and policy and runtime and formal:
            with pytest.raises(ValueError):
                route_refinement(report, alignment_ok)
            continue
        routed = route_refinement(report, alignment_ok)
        if not alignment_ok:
            assert routed is AgentRole.PLANNER
        elif not runtime:
            assert routed is AgentRole.ALLOCATOR
        else:
            assert routed is AgentRole.CODER


# ── memory ───────────────────────────────────────────────────────────────────

def test_empty_memory_digest_is_empty():
    assert memory_digest([], 1200) == ""


def test_digest_newest_first():
    digest = memory_digest([MemoryEntry(1, "first summary"), MemoryEntry(2, "second summary")],
                           1200)
    assert digest.index("second summary") < digest.index("first summary")
    assert digest.startswith("[run 2]")


def test_digest_truncates_with_ellipsis_marker():
    digest = memory_digest([MemoryEntry(1, "x" * 500)], budget_chars=50)
    assert len(digest) == 50
    assert digest.endswith("...")


def _memory_block(prompt: str) -> str:
    """The memory digest a prompt carries, "(none)" when it carries none."""
    return prompt.split("\nMemory:\n", 1)[1].split("\n\nTask:\n", 1)[0]


def test_memory_partitioned_by_set_and_question(make_env, registry, tmp_path):
    questions = generate_questions(2, seed=7)
    run_grid(questions, enumerate_grid(registry)[:2], 2, make_env(), tmp_path)
    records = {(r.persona_set_id, r.question_id, r.run_index): r
               for r in map(load_run, iter_run_files(tmp_path))}
    assert len(records) == 2 * 2 * 2
    for (set_id, question_id, run_index), record in records.items():
        memory = _memory_block(record.trajectory(AgentRole.PLANNER).prompt)
        if run_index == 1:
            assert memory == "(none)"
            continue
        first = records[(set_id, question_id, 1)].trajectory(AgentRole.PLANNER)
        (line,) = memory.splitlines()
        assert line.startswith(f"[run 1] {first.thought_summary}")


# ── execute_run scenarios ────────────────────────────────────────────────────

def _first_set(registry):
    return enumerate_grid(registry)[0]


def test_happy_path_completes_without_refinement(make_env, registry, questions):
    env = make_env()
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    assert record.status is RunStatus.COMPLETED
    assert record.refinement_events == ()
    assert record.metrics.coordination_overhead == 4.0
    assert set(record.trajectories) == set(PIPELINE_ORDER)


def _coder_script():
    return [
        ScriptEntry(response=CLEAN_CODE, role="Coder",
                    prompt_contains="Refinement feedback"),
        ScriptEntry(response=BAD_CODE, role="Coder"),
    ]


def test_policy_violation_then_clean_yields_one_refinement(make_env, registry,
                                                           questions):
    backend = ScriptedBackend(script=_coder_script(), fallback_seed=42, dim=TEST_DIM)
    env = make_env(backend=backend)
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    assert record.status is RunStatus.COMPLETED
    assert len(record.refinement_events) == 1
    assert record.refinement_events[0].routed_role is AgentRole.CODER
    coder = record.trajectory(AgentRole.CODER)
    assert len(coder.refinement_reasons) == 1
    assert "policy" in coder.refinement_reasons[0]
    assert record.code_text == CLEAN_CODE
    assert record.metrics.coordination_overhead == 6.0


def test_always_failing_code_exhausts_budget(make_env, registry, questions):
    backend = ScriptedBackend(
        script=[ScriptEntry(response=BAD_CODE, role="Coder")],
        fallback_seed=42, dim=TEST_DIM)
    env = make_env(backend=backend,
                   config=RunConfig(max_refinement_depth=3))
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    assert record.status is RunStatus.BUDGET_EXHAUSTED
    assert len(record.refinement_events) == 3
    assert record.analyzer_report is not None  # last report retained
    assert not record.analyzer_report.passes[Dimension.POLICY]


class _CountingBackend(ScriptedBackend):
    """Counts generate calls per role."""

    def __init__(self, script):
        super().__init__(script=script, fallback_seed=42, dim=TEST_DIM)
        self.generated = collections.Counter()

    def generate(self, request, *, role=None, run_index=0):
        self.generated[role] += 1
        return super().generate(request, role=role, run_index=run_index)


def _reasons_by_role(record):
    return {role.value: len(record.trajectory(role).refinement_reasons)
            for role in PIPELINE_ORDER}


def test_alignment_failure_reruns_from_the_planner(make_env, registry, questions):
    text = ("PATH 1:\n- step alpha\nRATIONALE: a\n"
            "PATH 2:\n- step beta\nRATIONALE: b\n"
            "PATH 3:\n- step gamma\nRATIONALE: c\n")
    backend = _CountingBackend(_planner_script(text, []))
    # no cosine reaches 1.01, so every pass fails alignment
    env = make_env(backend=backend, config=RunConfig(
        max_refinement_depth=2, thresholds=Thresholds(alignment=1.01)))
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    assert record.status is RunStatus.BUDGET_EXHAUSTED
    assert [e.routed_role for e in record.refinement_events] == [AgentRole.PLANNER] * 2
    # three passes, each one propose and three self-evals, then a plan and code
    assert backend.generated == {"Planner": 12, "Allocator": 3, "Coder": 3}
    assert _reasons_by_role(record) == {"Planner": 2, "Coordinator": 0,
                                        "Allocator": 0, "Coder": 0, "Analyzer": 0}
    assert all(r.startswith("alignment:")
               for r in record.trajectory(AgentRole.PLANNER).refinement_reasons)
    assert record.metrics.coordination_overhead == \
        overhead_from_events(record.refinement_events) == 4 + 2 * (1 + 4)


FITTING_PLAN = "allocate 8 prb to s1\nallocate 8 prb to s2\nallocate 8 prb to s3"
OVER_CAPACITY_PLAN = "allocate 20 prb to s1\nallocate 8 prb to s2\nallocate 8 prb to s3"


def test_runtime_failure_reruns_from_the_allocator(make_env, registry, questions):
    # the one proposed path spells the fitting plan, so alignment passes
    path = "PATH 1:\n" + "".join(f"- {ln}\n" for ln in FITTING_PLAN.splitlines())
    backend = _CountingBackend(_planner_script(path, []) + [
        ScriptEntry(response=FITTING_PLAN, role="Allocator",
                    prompt_contains="Refinement feedback"),
        ScriptEntry(response=OVER_CAPACITY_PLAN, role="Allocator"),
    ])
    env = make_env(backend=backend, config=RunConfig(tot_path_count=1))
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    assert record.status is RunStatus.COMPLETED
    assert [e.routed_role for e in record.refinement_events] == [AgentRole.ALLOCATOR]
    assert "capacity_exceeded" in record.refinement_events[0].reason
    assert backend.generated == {"Planner": 2, "Allocator": 2, "Coder": 2}
    assert _reasons_by_role(record) == {"Planner": 0, "Coordinator": 0,
                                        "Allocator": 1, "Coder": 0, "Analyzer": 0}
    assert record.plan_text == FITTING_PLAN
    assert record.metrics.coordination_overhead == \
        overhead_from_events(record.refinement_events) == 4 + 1 + 2


def test_selected_path_always_among_proposed(make_env, registry, questions):
    env = make_env()
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    assert record.selected_path_id in {p.path_id for p in record.proposed_paths}


def test_trajectory_input_embedding_matches_prompt(make_env, registry, questions):
    env = make_env()
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    for role in PIPELINE_ORDER:
        traj = record.trajectory(role)
        assert traj.prompt_embedding == env.backend.embed(traj.prompt)
        assert traj.output_embedding == env.backend.embed(traj.output)


def test_execute_run_byte_identical_across_executions(make_env, registry, questions):
    env = make_env()
    a = execute_run(questions[0], _first_set(registry), 1, env, {})
    b = execute_run(questions[0], _first_set(registry), 1, env, {})
    assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())


class _FailingBackend:
    def __init__(self, dim=TEST_DIM):
        self._embedder = DeterministicEmbedder(dim)

    @property
    def dim(self):
        return self._embedder.dim

    def generate(self, request, *, role=None, run_index=0):
        raise TransportError("endpoint down", attempts=3)

    def embed(self, text):
        return self._embedder.embed(text)


def test_backend_hard_failure_is_recorded_not_raised(make_env, registry, questions):
    env = make_env(backend=_FailingBackend())
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    assert record.status is RunStatus.FAILED
    assert record.metrics is None
    assert set(record.trajectories) == set(PIPELINE_ORDER)


def test_absent_sandbox_hook_yields_runtime_skipped_info(make_env, registry,
                                                         questions):
    env = make_env()
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    skipped = [f for f in record.analyzer_report.findings
               if f.rule_id == "runtime_skipped"]
    assert len(skipped) == 1
    assert skipped[0].severity is Severity.INFO
    assert skipped[0].dimension is Dimension.RUNTIME


def test_configured_sandbox_hook_merges_runtime_findings(make_env, registry,
                                                         questions, tmp_path):
    hook = tmp_path / "sandbox.py"
    hook.write_text(
        "import json\n"
        "print(json.dumps([{'rule_id': 'sandbox_probe', 'severity': 'warning',"
        " 'message': 'observed', 'line': 1}]))\n")
    env = make_env(config=RunConfig(
        external_sandbox_cmd=f"python3 {hook} {{file}}"))
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    probes = [f for f in record.analyzer_report.findings
              if f.rule_id == "sandbox_probe"]
    assert len(probes) == 1
    assert probes[0].dimension is Dimension.RUNTIME
    assert not any(f.rule_id == "runtime_skipped"
                   for f in record.analyzer_report.findings)


def test_crashing_sandbox_hook_is_warning_not_failure(make_env, registry,
                                                      questions):
    env = make_env(config=RunConfig(external_sandbox_cmd="false {file}"))
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    assert record.status in (RunStatus.COMPLETED, RunStatus.BUDGET_EXHAUSTED)
    assert any(f.rule_id == "sandbox_unavailable"
               for f in record.analyzer_report.findings)


def test_stores_feed_role_bound_context(make_env, registry, questions, embedder):
    corpus = [("doc", "allocate prb budget across slices", SourceTag.CODEBASE)]
    store = index_documents(corpus, embedder)
    graph = build_graph([("n1", "prb allocation", "grants to slices")], [], embedder)
    stores = StoreSet(document_store=store, graph=graph)
    env = make_env(stores=stores)
    record = execute_run(questions[0], _first_set(registry), 1, env, {})
    assert record.trajectory(AgentRole.PLANNER).context_items  # graph-bound
    assert record.trajectory(AgentRole.CODER).context_items    # rag-bound
    assert any(prov.startswith("graph:") for _, _, prov
               in record.trajectory(AgentRole.PLANNER).context_items)


# ── cell and grid running ────────────────────────────────────────────────────

def test_second_run_sees_memory_of_first(make_env, registry, questions, tmp_path):
    env = make_env()
    entries, memory = run_cell(questions[0], _first_set(registry), 2, env, tmp_path)
    assert [entry.run_index for entry in entries] == [1, 2]
    records = [load_run(path) for path in iter_run_files(tmp_path)]
    planner_prompt = records[1].trajectory(AgentRole.PLANNER).prompt
    assert "[run 1]" in planner_prompt
    assert "[run 1]" not in records[0].trajectory(AgentRole.PLANNER).prompt
    assert sorted(memory) == sorted(role.value for role in PIPELINE_ORDER)
    assert memory["Planner"] == [
        {"run_index": r.run_index,
         "thought_summary": r.trajectory(AgentRole.PLANNER).thought_summary,
         "refinement_reasons": list(r.trajectory(AgentRole.PLANNER).refinement_reasons)}
        for r in records]


def _remember(memory: dict, record) -> None:
    """Append a run's entries to its cell's memory, as ``run_cell`` does."""
    for role in PIPELINE_ORDER:
        trajectory = record.trajectory(role)
        memory.setdefault(role, []).append(MemoryEntry(
            record.run_index, trajectory.thought_summary, trajectory.refinement_reasons))


def _run_files(root) -> dict:
    """Bytes of every canonical run file under root by relative path; no sidecars."""
    return {path.relative_to(root): path.read_bytes() for path in iter_run_files(root)}


def test_grid_runs_all_cells_and_sorts_records(make_env, registry, tmp_path):
    questions = generate_questions(2, seed=7)
    sets = enumerate_grid(registry)[:3]
    env = make_env()
    for workers in (1, 2, 4):
        root = tmp_path / str(workers)
        entries = run_grid(questions, sets, 2, env, workers=workers, out_root=root)
        assert len(entries) == 3 * 2 * 2
        keys = [(e.persona_set_id, e.question_id, e.run_index) for e in entries]
        assert keys == sorted(keys)
        assert sorted(_run_files(root)) == sorted(run_relpath(*key) for key in keys)
        assert [e.status for e in entries] == \
            [load_run(root / run_relpath(*key)).status for key in keys]


def test_grid_deterministic_across_worker_counts(make_env, registry, tmp_path):
    questions = generate_questions(2, seed=7)
    sets = enumerate_grid(registry)[:4]
    env = make_env()
    trees, memories, entries = {}, {}, {}
    for workers in (1, 2, 4):
        entries[workers] = run_grid(questions, sets, 2, env, workers=workers,
                                    out_root=tmp_path / str(workers))
        trees[workers] = _run_files(tmp_path / str(workers))
        memories[workers] = (tmp_path / str(workers) / "memory.json").read_bytes()
    assert len(trees[1]) == 4 * 2 * 2
    assert trees[2] == trees[1] and trees[4] == trees[1]
    assert memories[2] == memories[1] and memories[4] == memories[1]
    assert entries[2] == entries[1] and entries[4] == entries[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_holds_the_records_of_the_cells_in_flight(make_env, registry, monkeypatch,
                                                       tmp_path, workers):
    live = LiveRecords()
    monkeypatch.setattr(orchestrator, "execute_run", live.wrap(orchestrator.execute_run))
    questions = generate_questions(2, seed=7)
    sets = enumerate_grid(registry)[:3]
    runs = 3
    entries = run_grid(questions, sets, runs, make_env(), workers=workers,
                       out_root=tmp_path)
    assert len(entries) == live.calls == 3 * 2 * runs
    assert live.peak <= 2 * workers


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_grid_retrieves_once_per_question_and_role(make_env, registry, embedder,
                                                   monkeypatch, tmp_path, workers):
    corpus = [("doc", "allocate prb budget across slices\nadmit urllc slices",
               SourceTag.CODEBASE)]
    store = index_documents(corpus, embedder)
    graph = build_graph([("n1", "prb allocation", "grants to slices"),
                         ("n2", "handover", "threshold tuning")],
                        [("n1", "n2", "related")], embedder)
    questions = generate_questions(2, seed=7)
    sets = enumerate_grid(registry)[:2]
    calls = []

    def counting(kind, fn):
        def wrapper(source, query, *args, agent_role="", **kwargs):
            calls.append((kind, query, agent_role))
            return fn(source, query, *args, agent_role=agent_role, **kwargs)
        return wrapper

    monkeypatch.setattr(orchestrator, "retrieve_rag",
                        counting("rag", orchestrator.retrieve_rag))
    monkeypatch.setattr(orchestrator, "retrieve_graph",
                        counting("graph", orchestrator.retrieve_graph))
    env = make_env(stores=StoreSet(document_store=store, graph=graph))
    run_grid(questions, sets, 2, env, workers=workers, out_root=tmp_path / "cached")

    expected = {(kind, q.text, role.value)
                for q in questions
                for role, kind in orchestrator.DEFAULT_BINDINGS.items()}
    assert sorted(calls) == sorted(expected)

    # the same grid with nothing reused: fresh stores and backend per run
    uncached = 0
    for ps in sets:
        for q in questions:
            memory = {}
            for run_index in (1, 2):
                fresh = dataclasses.replace(
                    env, stores=StoreSet(document_store=store, graph=graph),
                    backend=ScriptedBackend(fallback_seed=42, dim=TEST_DIM))
                record = execute_run(q, ps, run_index, fresh, memory)
                _remember(memory, record)
                persist_run(record, tmp_path / "uncached")
                uncached += 1
    assert len(calls) == len(expected) + uncached * len(PIPELINE_ORDER)
    cached = _run_files(tmp_path / "cached")
    assert len(cached) == uncached
    assert cached == _run_files(tmp_path / "uncached")


def _counting(calls, fn):
    """``fn`` that first appends its arguments to ``calls``."""
    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    return wrapper


# an alignment threshold this high forces refinements, so runs revisit pairs
REFINING = RunConfig(thresholds=Thresholds(alignment=0.55))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_grid_analyzes_once_per_distinct_plan_and_code(make_env, registry, monkeypatch,
                                                       tmp_path, workers):
    questions = generate_questions(2, seed=7)
    sets = enumerate_grid(registry)[:3]
    analyzed, parsed = [], []
    monkeypatch.setattr(orchestrator, "_analyze", _counting(analyzed, orchestrator._analyze))
    monkeypatch.setattr(orchestrator, "parse_code", _counting(parsed, orchestrator.parse_code))
    env = make_env(config=REFINING)
    run_grid(questions, sets, 2, env, workers=workers, out_root=tmp_path / "memo")

    pairs = [(plan.pseudo_code, code.code) for plan, code, _ in analyzed]
    assert len(parsed) == len(set(pairs)) < len(pairs)
    assert sorted(code for code, in parsed) == sorted(code for _, code in set(pairs))

    # the same grid with no verdict reused: a fresh env per run
    for ps in sets:
        for q in questions:
            memory = {}
            for run_index in (1, 2):
                record = execute_run(q, ps, run_index, dataclasses.replace(env), memory)
                _remember(memory, record)
                persist_run(record, tmp_path / "fresh")
    memo = _run_files(tmp_path / "memo")
    assert len(memo) == len(sets) * len(questions) * 2
    assert memo == _run_files(tmp_path / "fresh")


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_computes_one_conflict_rate_per_question(make_env, registry, embedder,
                                                     monkeypatch, tmp_path, workers):
    store = index_documents([("doc", "allocate prb budget across slices\n"
                                      "admit urllc slices", SourceTag.CODEBASE)], embedder)
    graph = build_graph([("n1", "prb allocation", "grants to slices"),
                         ("n2", "handover", "threshold tuning")],
                        [("n1", "n2", "related")], embedder)
    questions = generate_questions(2, seed=7)
    sets = enumerate_grid(registry)[:2]
    rates = []
    monkeypatch.setattr(orchestrator, "conflict_rate",
                        _counting(rates, orchestrator.conflict_rate))
    env = make_env(stores=StoreSet(document_store=store, graph=graph))
    run_grid(questions, sets, 2, env, workers=workers, out_root=tmp_path / "memo")
    assert len(rates) == len(questions)

    # the same grid with no rate reused: a fresh env per run
    for ps in sets:
        for q in questions:
            memory = {}
            for run_index in (1, 2):
                record = execute_run(q, ps, run_index, dataclasses.replace(env), memory)
                _remember(memory, record)
                persist_run(record, tmp_path / "fresh")
    assert len(rates) == len(questions) + len(sets) * len(questions) * 2
    memo = _run_files(tmp_path / "memo")
    assert len(memo) == len(sets) * len(questions) * 2
    assert memo == _run_files(tmp_path / "fresh")


def _reference_report(plan_text: str, code_text: str, env) -> AnalyzerReport:
    """The Analyzer's report with every rule pack and hook run afresh, its
    findings in the order the Analyzer gives: static with the linter's,
    policy, formal, the plan's, then the sandbox's."""
    cfg = env.config
    tree = parse_code(code_text)
    findings = run_static_checks(tree)
    findings += run_external_hook(code_text, cfg.external_linter_cmd, Dimension.STATIC,
                                  "linter_unavailable")
    findings.sort(key=lambda f: (f.location or (0, 0), f.rule_id))  # stable
    findings += enforce_policy(tree, env.policy_rules)
    findings += formal_lite_check(tree)
    try:
        plan = parse_plan(plan_text)
    except PlanSyntaxError as exc:
        findings += plan_findings_for_syntax_error(exc)
    else:
        threshold_findings, kpi = check_thresholds(execute_plan(plan, env.network),
                                                   cfg.thresholds)
        findings += kpi.findings
        findings += threshold_findings
    findings += run_external_hook(code_text, cfg.external_sandbox_cmd, Dimension.RUNTIME,
                                  "sandbox_unavailable")
    return build_report(findings, env.severity_weights)


def test_hooks_run_every_analyzer_turn_and_keep_the_order_of_findings(
        make_env, registry, monkeypatch, tmp_path):
    log = tmp_path / "hooks.log"

    def hook(name: str, findings: list[dict]) -> str:
        script = tmp_path / f"{name}.sh"
        script.write_text(f"echo {name} >> '{log}'\necho '{json.dumps(findings)}'\n")
        return f"sh {script} {{file}}"

    # a linter finding that ties a built-in one on location and rule follows it
    linter = hook("linter", [{"rule_id": rule, "severity": "warning", "message": "probe",
                              "line": line}
                             for line in (1, 2, 3) for rule in ("unused_assignment", "a")])
    sandbox = hook("sandbox", [{"rule_id": "sandbox_probe", "message": "observed"}])
    analyzed = []
    monkeypatch.setattr(orchestrator, "_analyze", _counting(analyzed, orchestrator._analyze))
    env = make_env(config=dataclasses.replace(REFINING, external_linter_cmd=linter,
                                              external_sandbox_cmd=sandbox))
    questions = generate_questions(1, seed=7)
    run_grid(questions, enumerate_grid(registry)[:2], 2, env, workers=2, out_root=tmp_path)

    assert len(analyzed) > len({(p.pseudo_code, c.code) for p, c, _ in analyzed})
    assert collections.Counter(log.read_text().split()) == \
        {"linter": len(analyzed), "sandbox": len(analyzed)}
    records = [load_run(path) for path in iter_run_files(tmp_path)]
    assert len(records) == 4
    for record in records:
        report = record.analyzer_report
        assert [f.rule_id for f in report.findings].count("a") == 3
        assert report.findings[-1].rule_id == "sandbox_probe"
        assert report == _reference_report(record.plan_text, record.code_text, env)
