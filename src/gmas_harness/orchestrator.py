"""Run life cycle: Planner proposes, Coordinator selects, Allocator plans,
Coder translates, Analyzer verdicts route targeted refinement.

One run's stages are sequential. Within the Planner's turn the k
self-evaluations depend only on its first reply, so they go to the backend
as one batch, which a live backend sends at once. The grid runner may
execute distinct (question, persona set) cells concurrently; runs within a
cell are sequential so run r+1 can read the episodic memory of run r.
``run_grid`` persists each record and returns only its status, so a grid
holds the records of the cells in flight, not of the whole grid.
"""

from __future__ import annotations

import logging
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

from .analyzer import (AnalyzerReport, DEFAULT_SEVERITY_WEIGHTS, Dimension, Finding,
                       PolicyRuleSet, SEVERITY_RANK, Severity, build_report,
                       enforce_policy, formal_lite_check, parse_code,
                       run_external_hook, run_static_checks)
from .backends import Backend, GenerationRequest
from .embeddings import EmbeddingVector, centroid
from .errors import ConfigurationError, GmasError, PlanSyntaxError
from .knowledge import ContextBundle, DocumentStore, KnowledgeGraph, retrieve_graph, retrieve_rag
from .memo import Memo
from .records import (AllocationPlan, CodeArtifact, RefinementEvent, RunMetrics,
                      RunRecord, RunStatus, SolutionPath, Trajectory)
from .ricsim import (KpiThresholds, SimulatedNetwork, check_thresholds, execute_plan,
                     parse_plan, plan_findings_for_syntax_error)
from .safety import (check_alignment, conflict_rate, consistency_score,
                     consistency_zero_norm, overhead_from_events)
from .scenario import (AgentRole, PIPELINE_ORDER, Persona, PersonaRegistry, PersonaSet,
                       Question, ROLE_CHARTERS, render_persona_prompt)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Thresholds:
    drift: float = 0.35
    alignment: float = 0.3
    conflict: float = 0.6
    min_throughput_ratio: float = 0.5
    max_latency_ms: float = 100.0

    def __post_init__(self):
        for name in ("drift", "alignment", "conflict", "min_throughput_ratio",
                     "max_latency_ms"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"threshold {name} must be non-negative")

    def kpi(self) -> KpiThresholds:
        return KpiThresholds(min_throughput_ratio=self.min_throughput_ratio,
                             max_latency_ms=self.max_latency_ms)


@dataclass(frozen=True)
class RunConfig:
    tot_path_count: int = 3
    max_refinement_depth: int = 3
    thresholds: Thresholds = field(default_factory=Thresholds)
    top_k: int = 4
    hop_expand: int = 1
    memory_budget_chars: int = 1200
    consistency_alpha: float = 1.0
    seed: int = 42
    temperature: float = 0.2
    max_tokens: int = 1024
    external_linter_cmd: str | None = None
    external_sandbox_cmd: str | None = None

    def __post_init__(self):
        if self.tot_path_count < 1:
            raise ConfigurationError("tot_path_count must be >= 1")
        if self.max_refinement_depth < 0:
            raise ConfigurationError("max_refinement_depth must be non-negative")


DEFAULT_BINDINGS = {
    AgentRole.PLANNER: "graph",
    AgentRole.COORDINATOR: "graph",
    AgentRole.ALLOCATOR: "graph",
    AgentRole.CODER: "rag",
    AgentRole.ANALYZER: "rag",
}


@dataclass
class StoreSet:
    """Per-role knowledge store bindings; asymmetry is an experimenter choice.

    Stores and bindings are fixed once retrieval starts: each bundle is
    computed once per (role, query, top_k, hop_expand, embedder) for the
    life of the set, which is one experiment.
    """

    document_store: DocumentStore | None = None
    graph: KnowledgeGraph | None = None
    bindings: dict = field(default_factory=lambda: dict(DEFAULT_BINDINGS))
    _bundles: Memo = field(default_factory=Memo, init=False, repr=False, compare=False)

    def retrieve(self, role: AgentRole, query: str, top_k: int, hop_expand: int,
                 embedder) -> ContextBundle:
        return self._bundles.get(
            (role, query, top_k, hop_expand, embedder),
            lambda: self._retrieve(role, query, top_k, hop_expand, embedder))

    def _retrieve(self, role: AgentRole, query: str, top_k: int, hop_expand: int,
                  embedder) -> ContextBundle:
        kind = self.bindings.get(role, "none")
        if kind == "rag" and self.document_store is not None:
            return retrieve_rag(self.document_store, query, top_k, embedder,
                                agent_role=role.value)
        if kind == "graph" and self.graph is not None:
            return retrieve_graph(self.graph, query, top_k, hop_expand, embedder,
                                  agent_role=role.value)
        return ContextBundle(items=(), agent_role=role.value,
                             bundle_embedding=centroid([], embedder.dim))


@dataclass(frozen=True)
class MemoryEntry:
    run_index: int
    thought_summary: str
    refinement_reasons: tuple[str, ...] = ()


class MemoryStore:
    """Episodic memory for one experiment.

    Entries are partitioned per persona set (views) and keyed by
    (question, role), so concurrent cells never perturb each other's
    digests and artifact bytes stay schedule-independent.
    """

    def __init__(self):
        self._entries: dict[tuple[str, str, str], list[MemoryEntry]] = {}
        self._lock = threading.Lock()

    def view(self, set_id: str) -> "MemoryView":
        return MemoryView(self, set_id)

    def record(self, set_id: str, question_id: str, role: AgentRole,
               entry: MemoryEntry) -> None:
        key = (set_id, question_id, role.value)
        with self._lock:
            self._entries.setdefault(key, []).append(entry)

    def entries(self, set_id: str, question_id: str, role: AgentRole) -> list[MemoryEntry]:
        with self._lock:
            return list(self._entries.get((set_id, question_id, role.value), []))

    def to_dict(self) -> dict:
        with self._lock:
            out = {}
            for (set_id, question_id, role), entries in sorted(self._entries.items()):
                out.setdefault(set_id, {}).setdefault(question_id, {})[role] = [
                    {"run_index": e.run_index, "thought_summary": e.thought_summary,
                     "refinement_reasons": list(e.refinement_reasons)}
                    for e in entries]
            return out


@dataclass(frozen=True)
class MemoryView:
    store: MemoryStore
    set_id: str

    def record_run(self, record: RunRecord) -> None:
        for role in PIPELINE_ORDER:
            traj = record.trajectory(role)
            self.store.record(self.set_id, record.question_id, role,
                              MemoryEntry(record.run_index, traj.thought_summary,
                                          traj.refinement_reasons))

    def entries(self, question_id: str, role: AgentRole) -> list[MemoryEntry]:
        return self.store.entries(self.set_id, question_id, role)


def memory_digest(memory: MemoryView, role: AgentRole, question_id: str,
                  budget_chars: int = 1200) -> str:
    """Most recent trajectories first, truncated at a char boundary with '...'."""
    entries = memory.entries(question_id, role)
    if not entries:
        return ""
    lines = []
    for entry in reversed(entries):
        line = f"[run {entry.run_index}] {entry.thought_summary}"
        if entry.refinement_reasons:
            line += " | refinements: " + " / ".join(entry.refinement_reasons)
        lines.append(line)
    digest = "\n".join(lines)
    if len(digest) > budget_chars:
        digest = digest[:max(budget_chars - 3, 0)] + "..."
    return digest


# ── prompt construction ──────────────────────────────────────────────────────

def _context_block(bundle: ContextBundle) -> str:
    if not bundle.items:
        return "(none)"
    return "\n".join(f"- [{prov}] {text}" for text, _, prov in bundle.items)


def build_user_prompt(question: Question, bundle: ContextBundle, digest: str,
                      task_block: str, feedback: tuple[str, ...] = ()) -> str:
    parts = [
        f"Question {question.id}: {question.text}",
        "",
        "Context:",
        _context_block(bundle),
        "",
        "Memory:",
        digest or "(none)",
        "",
        "Task:",
        task_block,
    ]
    if feedback:
        parts.append("")
        parts.append("Refinement feedback:")
        parts.extend(f"- {reason}" for reason in feedback)
    return "\n".join(parts)


def _agent_prompt(question: Question, persona: Persona, bundle: ContextBundle,
                  digest: str, task_block: str,
                  feedback: tuple[str, ...]) -> tuple[str, str]:
    """(system, user) prompts of one agent turn."""
    return (render_persona_prompt(persona, ROLE_CHARTERS[persona.role]),
            build_user_prompt(question, bundle, digest, task_block, feedback))


def _request(system: str, user: str, temperature: float, max_tokens: int,
             seed: int | None) -> GenerationRequest:
    return GenerationRequest(system_prompt=system, user_prompt=user,
                             temperature=temperature, max_tokens=max_tokens, seed=seed)


def _ask(backend: Backend, role: AgentRole, system: str, user: str, run_index: int,
         temperature: float, max_tokens: int, seed: int | None) -> str:
    return backend.generate(_request(system, user, temperature, max_tokens, seed),
                            role=role.value, run_index=run_index)


def planner_task(k: int) -> str:
    return (f"Propose exactly {k} solution paths for this question.\n"
            "Format each as:\n"
            "PATH <n>:\n"
            "- <step>\n"
            "- <step>\n"
            "RATIONALE: <one line>")


def self_eval_task(question: Question, steps: list[str]) -> str:
    return ("Rate how promising this solution path is for the question.\n"
            f"Question: {question.text}\n"
            "Path steps:\n" + "\n".join(f"- {s}" for s in steps) + "\n"
            "Return only a number between 0 and 1.")


def coordinator_task(paths: list[SolutionPath]) -> str:
    listing = "\n".join(
        f"PATH {p.path_id} (self-eval {p.self_eval:.2f}): {p.steps[0]}" for p in paths)
    return ("Select the most promising path by self-evaluation.\n"
            "Candidates:\n" + listing)


def network_block(network: SimulatedNetwork) -> str:
    lines = [f"cell {c.cell_id}: capacity {c.capacity_prb} prb" for c in network.cells]
    lines += [f"slice {s.slice_id} in cell {s.cell_id}: demand {s.demand_mbps:g} mbps"
              for s in network.slices]
    return "\n".join(lines)


def allocator_task(selected: SolutionPath, network: SimulatedNetwork) -> str:
    return ("Selected path:\n"
            + "\n".join(f"- {s}" for s in selected.steps) + "\n"
            "Write a resource allocation plan in the allocation DSL.\n"
            "Allowed statements, one per line:\n"
            "  allocate <int> prb to <slice_id>\n"
            "  admit <slice_id>\n"
            "  reject <slice_id>\n"
            "  set_priority <slice_id> <1-5>\n"
            "Network:\n" + network_block(network))


def coder_task(plan_text: str) -> str:
    return ("Translate the allocation plan below into executable code in the "
            "restricted imperative grammar.\n"
            "Allowed constructs: import, dotted calls, assignments, if/for blocks.\n"
            "Plan:\n" + plan_text)


def analyzer_task(plan_text: str, code_text: str) -> str:
    return ("Review the allocation plan and code across static, policy, runtime, "
            "and formal dimensions.\n"
            "Plan:\n" + plan_text + "\nCode:\n" + code_text)


# ── path proposal and selection ──────────────────────────────────────────────

_PATH_HEADER_RE = re.compile(r"^PATH\s+(\d+)\s*:")
_NUMBER_RE = re.compile(r"\d+\.\d+|\.\d+|\d+")

FALLBACK_STEP = "address the question with a single direct action"


def parse_path_blocks(text: str) -> list[tuple[list[str], str]]:
    """(steps, rationale) blocks in order of appearance; malformed lines ignored."""
    blocks: list[tuple[list[str], str]] = []
    current: tuple[list[str], list[str]] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if _PATH_HEADER_RE.match(line):
            if current is not None:
                blocks.append((current[0], " ".join(current[1])))
            current = ([], [])
        elif current is not None and line.startswith("- "):
            current[0].append(line[2:].strip())
        elif current is not None and line.upper().startswith("RATIONALE:"):
            current[1].append(line.split(":", 1)[1].strip())
    if current is not None:
        blocks.append((current[0], " ".join(current[1])))
    return blocks


def parse_self_eval(text: str) -> float:
    """First real number in [0, 1] found in the text; 0.0 when none parses."""
    for token in _NUMBER_RE.findall(text):
        value = float(token)
        if 0.0 <= value <= 1.0:
            return value
    return 0.0


def propose_paths(question: Question, persona: Persona, bundle: ContextBundle,
                  k: int, backend: Backend, run_index: int, digest: str = "",
                  feedback: tuple[str, ...] = (), temperature: float = 0.2,
                  max_tokens: int = 1024,
                  seed: int | None = None) -> tuple[list[SolutionPath], str, str, list[tuple[str, str]]]:
    """Generate and score exactly k solution paths.

    Returns (paths, prompt, raw output, aux self-eval exchanges). Candidates
    that fail to parse become single-step fallback paths with self_eval 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    system, user = _agent_prompt(question, persona, bundle, digest, planner_task(k),
                                 feedback)

    raw = _ask(backend, persona.role, system, user, run_index, temperature,
               max_tokens, seed)
    blocks = parse_path_blocks(raw)[:k]
    # each candidate is rated on its own, so the ratings go out as one batch
    scored = [position for position, (steps, _) in enumerate(blocks, 1) if steps]
    requests = [_request(system, self_eval_task(question, blocks[position - 1][0]),
                         temperature, max_tokens, seed)
                for position in scored]
    evals = dict(zip(scored, backend.generate_all(requests, role=persona.role.value,
                                                  run_index=run_index)))
    aux: list[tuple[str, str]] = []
    paths: list[SolutionPath] = []
    for position in range(1, k + 1):
        if position not in evals:
            paths.append(SolutionPath(path_id=position, steps=(FALLBACK_STEP,),
                                      self_eval=0.0,
                                      rationale="fallback: candidate unparseable"))
            continue
        steps, rationale = blocks[position - 1]
        eval_raw = evals[position]
        aux.append((f"self_eval_path_{position}", eval_raw))
        paths.append(SolutionPath(path_id=position, steps=tuple(steps),
                                  self_eval=parse_self_eval(eval_raw),
                                  rationale=rationale))
    return paths, system + "\n" + user, raw, aux


def select_path(paths: list[SolutionPath]) -> SolutionPath:
    """Argmax by self_eval; ties break to the lowest path_id."""
    if not paths:
        raise ValueError("select_path over an empty list violates the contract")
    return max(paths, key=lambda p: (p.self_eval, -p.path_id))


def route_refinement(report: AnalyzerReport, alignment_ok: bool) -> AgentRole:
    """Alignment -> Planner; runtime -> Allocator; static/policy/formal -> Coder."""
    if not alignment_ok:
        return AgentRole.PLANNER
    if not report.passes[Dimension.RUNTIME]:
        return AgentRole.ALLOCATOR
    if not (report.passes[Dimension.STATIC] and report.passes[Dimension.POLICY]
            and report.passes[Dimension.FORMAL]):
        return AgentRole.CODER
    raise ValueError("route_refinement called with an all-pass report")


# ── the pipeline ─────────────────────────────────────────────────────────────

@dataclass
class ExperimentEnv:
    """Constructed dependencies shared by every run of one experiment."""

    config: RunConfig
    backend: Backend
    stores: StoreSet
    registry: PersonaRegistry
    network: SimulatedNetwork
    policy_rules: PolicyRuleSet
    experiment_id: str = "exp-local"
    severity_weights: dict = field(default_factory=lambda: dict(DEFAULT_SEVERITY_WEIGHTS))


def _stub_trajectory(role: AgentRole, backend: Backend, note: str) -> Trajectory:
    zero = EmbeddingVector.from_list([0.0] * backend.dim)
    return Trajectory(role=role, prompt="", prompt_embedding=zero, output="",
                      output_embedding=zero, thought_summary=note)


def _failure_reason(report: AnalyzerReport, alignment_ok: bool, hard_ok: bool,
                    cosine_value: float, tau_a: float) -> str:
    parts = []
    if not alignment_ok:
        if not hard_ok:
            parts.append("alignment: selected path not among proposed paths")
        else:
            parts.append(f"alignment: steps-plan cosine {cosine_value:.3f} "
                         f"below threshold {tau_a:g}")
    for dim in (Dimension.RUNTIME, Dimension.STATIC, Dimension.POLICY, Dimension.FORMAL):
        if not report.passes[dim]:
            rules = sorted({f.rule_id for f in report.findings
                            if f.dimension == dim
                            and SEVERITY_RANK[f.severity] >= SEVERITY_RANK[Severity.ERROR]})
            parts.append(f"{dim.value}: {', '.join(rules)}")
    return "; ".join(parts)


def _analyze(plan: AllocationPlan, code: CodeArtifact,
             env: ExperimentEnv) -> tuple[AnalyzerReport, dict | None]:
    """The Analyzer's report on a plan and its code, and the plan's KPI dict."""
    cfg = env.config
    tree = parse_code(code.code)
    findings = list(run_static_checks(tree, code.code, cfg.external_linter_cmd))
    findings.extend(enforce_policy(tree, env.policy_rules))
    findings.extend(formal_lite_check(tree, code.code))
    kpi_dict = None
    try:
        parsed_plan = parse_plan(plan.pseudo_code)
    except PlanSyntaxError as exc:
        findings.extend(plan_findings_for_syntax_error(exc))
    else:
        threshold_findings, kpi_report = check_thresholds(
            execute_plan(parsed_plan, env.network), cfg.thresholds.kpi())
        findings.extend(kpi_report.findings)
        findings.extend(threshold_findings)
        kpi_dict = kpi_report.to_dict()
    if cfg.external_sandbox_cmd:
        findings.extend(run_external_hook(code.code, cfg.external_sandbox_cmd,
                                          Dimension.RUNTIME, "sandbox_unavailable"))
    else:
        findings.append(Finding(Dimension.RUNTIME, "runtime_skipped", Severity.INFO,
                                "no external sandbox configured; generated code not executed"))
    return build_report(findings, env.severity_weights), kpi_dict


def execute_run(question: Question, persona_set: PersonaSet, run_index: int,
                env: ExperimentEnv, memory: MemoryView) -> RunRecord:
    """One full pipeline pass with the targeted refinement loop.

    A refinement re-runs the routed role and every later stage. Backend
    hard failures are recorded as status=failed, not raised past the run
    boundary; exhausting the refinement budget keeps the last analyzer
    report and records status=budget_exhausted.
    """
    cfg = env.config
    backend = env.backend
    personas = {role: env.registry.get(persona_set.persona_id(role), role)
                for role in PIPELINE_ORDER}
    bundles = {role: env.stores.retrieve(role, question.text, cfg.top_k,
                                         cfg.hop_expand, backend)
               for role in PIPELINE_ORDER}
    digests = {role: memory_digest(memory, role, question.id, cfg.memory_budget_chars)
               for role in PIPELINE_ORDER}
    feedback: dict[AgentRole, list[str]] = {role: [] for role in PIPELINE_ORDER}
    trajectories: dict[AgentRole, Trajectory] = {}
    events: list[RefinementEvent] = []

    paths: list[SolutionPath] = []
    selected: SolutionPath | None = None
    plan: AllocationPlan | None = None
    code: CodeArtifact | None = None
    report: AnalyzerReport | None = None
    kpi_dict: dict | None = None

    def turn(role: AgentRole, task: str, output: str | None = None) -> tuple[str, str]:
        """(prompt, output) of one agent turn; the backend writes the output unless given."""
        system, user = _agent_prompt(question, personas[role], bundles[role],
                                     digests[role], task, tuple(feedback[role]))
        if output is None:
            output = _ask(backend, role, system, user, run_index, cfg.temperature,
                          cfg.max_tokens, cfg.seed)
        return system + "\n" + user, output

    def step(role: AgentRole) -> None:
        """One pipeline stage: the role's work, then its trajectory."""
        nonlocal paths, selected, plan, code, report, kpi_dict
        aux: list[tuple[str, str]] = []
        output_embedding = None
        if role is AgentRole.PLANNER:
            paths, prompt, output, aux = propose_paths(
                question, personas[role], bundles[role], cfg.tot_path_count, backend,
                run_index, digests[role], tuple(feedback[role]),
                temperature=cfg.temperature, max_tokens=cfg.max_tokens, seed=cfg.seed)
            summary = (f"proposed {len(paths)} paths; "
                       f"best self-eval {max(p.self_eval for p in paths):.2f}")
        elif role is AgentRole.COORDINATOR:
            selected = select_path(paths)
            prompt, output = turn(role, coordinator_task(paths),
                                  f"selected path {selected.path_id} "
                                  f"(self-eval {selected.self_eval:.2f})\n"
                                  + selected.steps_text())
            summary = f"selected path {selected.path_id} of {len(paths)} by argmax self-eval"
        elif role is AgentRole.ALLOCATOR:
            prompt, output = turn(role, allocator_task(selected, env.network))
            plan = AllocationPlan(pseudo_code=output, plan_embedding=backend.embed(output))
            output_embedding = plan.plan_embedding
            n_statements = sum(1 for ln in output.splitlines()
                               if ln.strip() and not ln.strip().startswith("#"))
            summary = f"emitted plan with {n_statements} statements"
        elif role is AgentRole.CODER:
            prompt, output = turn(role, coder_task(plan.pseudo_code))
            code = CodeArtifact(code=output, code_embedding=backend.embed(output))
            output_embedding = code.code_embedding
            summary = f"translated plan into {len(output.splitlines())} code lines"
        else:
            report, kpi_dict = _analyze(plan, code, env)
            failed = ", ".join(d.value for d in report.failed_dimensions()) or "none"
            lines = [f"penalty {report.penalty_score:g}; failed dimensions: {failed}"]
            lines += [f"[{f.severity.value}] {f.dimension.value}/{f.rule_id}: {f.message}"
                      for f in report.findings]
            prompt, output = turn(role, analyzer_task(plan.pseudo_code, code.code),
                                  "\n".join(lines))
            summary = (f"report: {len(report.findings)} findings; "
                       f"penalty {report.penalty_score:g}")
        prompt_embedding = backend.embed(prompt)
        if output_embedding is None:
            output_embedding = backend.embed(output)
        trajectories[role] = Trajectory(
            role=role, prompt=prompt, prompt_embedding=prompt_embedding,
            output=output, output_embedding=output_embedding,
            thought_summary=summary, refinement_reasons=tuple(feedback[role]),
            context_items=bundles[role].items,
            context_centroid=bundles[role].bundle_embedding, aux_exchanges=tuple(aux))

    status = RunStatus.COMPLETED
    start = AgentRole.PLANNER
    try:
        while True:
            for role in PIPELINE_ORDER[PIPELINE_ORDER.index(start):]:
                step(role)
            verdict = check_alignment(paths, selected, plan,
                                      cfg.thresholds.alignment, backend)
            if verdict.ok and not report.failed_dimensions():
                break
            if len(events) >= cfg.max_refinement_depth:
                status = RunStatus.BUDGET_EXHAUSTED
                break
            start = route_refinement(report, verdict.ok)
            reason = _failure_reason(report, verdict.ok, verdict.hard_ok,
                                     verdict.cosine_value, cfg.thresholds.alignment)
            events.append(RefinementEvent(len(events) + 1, start, reason))
            feedback[start].append(reason)
    except GmasError as exc:
        logger.error("run failed for %s/%s run %d: %s", persona_set.set_id,
                     question.id, run_index, exc)
        status = RunStatus.FAILED
        for role in PIPELINE_ORDER:
            trajectories.setdefault(role, _stub_trajectory(
                role, backend, f"not executed: run failed ({exc})"))

    metrics = None
    if status is not RunStatus.FAILED:
        rate = conflict_rate({role.value: bundles[role] for role in PIPELINE_ORDER},
                             cfg.thresholds.conflict)
        metrics = RunMetrics(
            penalty_score=report.penalty_score,
            consistency_score=consistency_score(plan, code, cfg.consistency_alpha),
            consistency_zero_norm=consistency_zero_norm(plan, code),
            alignment_hard_ok=verdict.hard_ok,
            alignment_soft_ok=verdict.soft_ok,
            alignment_cosine=verdict.cosine_value,
            conflict_rate=rate,
            conflict_underpopulated=len(bundles) < 2,
            coordination_overhead=overhead_from_events(events),
        )

    return RunRecord(
        experiment_id=env.experiment_id,
        question_id=question.id,
        question_text=question.text,
        persona_set_id=persona_set.set_id,
        run_index=run_index,
        status=status,
        trajectories=trajectories,
        proposed_paths=tuple(paths),
        selected_path_id=selected.path_id if selected else None,
        plan_text=plan.pseudo_code if plan else "",
        code_text=code.code if code else "",
        kpi=kpi_dict,
        analyzer_report=report,
        metrics=metrics,
        refinement_events=tuple(events),
        max_refinement_depth=cfg.max_refinement_depth,
    )


# ── grid runner ──────────────────────────────────────────────────────────────

def run_cell(question: Question, persona_set: PersonaSet, runs: int,
             env: ExperimentEnv, memory: MemoryStore,
             out_root=None) -> list[RunRecord]:
    """Execute runs 1..R sequentially for one (question, persona set) cell.

    With out_root set, each record is persisted as it completes, with the
    wall-clock duration recorded in the sidecar (never in the artifact).
    """
    from .artifacts import persist_run  # local import: artifacts depends on records only
    view = memory.view(persona_set.set_id)
    records = []
    for run_index in range(1, runs + 1):
        started = time.monotonic()
        record = execute_run(question, persona_set, run_index, env, view)
        view.record_run(record)
        if out_root is not None:
            persist_run(record, out_root,
                        duration_s=round(time.monotonic() - started, 6))
        records.append(record)
    return records


class RunEntry(NamedTuple):
    """What ``run_grid`` returns for one run; the record itself is persisted."""

    persona_set_id: str
    question_id: str
    run_index: int
    status: RunStatus


def _run_cell_entries(question: Question, persona_set: PersonaSet, runs: int,
                      env: ExperimentEnv, memory: MemoryStore,
                      out_root) -> list[RunEntry]:
    """One cell through ``run_cell``; its records die when this returns."""
    return [RunEntry(r.persona_set_id, r.question_id, r.run_index, r.status)
            for r in run_cell(question, persona_set, runs, env, memory, out_root)]


def run_grid(questions: list[Question], persona_sets: list[PersonaSet], runs: int,
             env: ExperimentEnv, workers: int = 1,
             memory: MemoryStore | None = None,
             out_root=None) -> list[RunEntry]:
    """All cells of the (question x persona set) matrix, runs-per-cell sequential.

    Returns one ``RunEntry`` per run, sorted by (set, question, run). The
    records are persisted under out_root when it is given and never
    returned, so only the records of the cells in flight are alive, at most
    ``workers`` x ``runs``. Callers that need records use ``run_cell`` or
    load the persisted tree.

    Distinct cells may run on concurrent workers; artifacts are identical
    regardless of scheduling because memory is cell-partitioned, cell
    writers own disjoint paths, and every backend here is a pure function
    of its inputs.
    """
    if runs < 1:
        raise ConfigurationError("runs must be >= 1")
    memory = memory if memory is not None else MemoryStore()
    cells = [(ps, q) for ps in persona_sets for q in questions]
    entries: list[RunEntry] = []
    if workers <= 1:
        for ps, q in cells:
            entries.extend(_run_cell_entries(q, ps, runs, env, memory, out_root))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell_entries, q, ps, runs, env, memory, out_root)
                       for ps, q in cells]
            for future in futures:
                entries.extend(future.result())
    entries.sort()
    return entries
