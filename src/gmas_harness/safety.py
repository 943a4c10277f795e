"""System-level safety metrics across agents and runs.

All operations here are pure functions over records and embeddings; one
shared embedding backend per experiment keeps drift, consistency, and
conflict values comparable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .embeddings import EmbeddingVector, cosine, tokenize
from .knowledge import ContextBundle
from .records import AllocationPlan, CodeArtifact, RunRecord, SolutionPath
from .scenario import PIPELINE_ORDER, AgentRole

logger = logging.getLogger(__name__)

BASELINE_HANDOFFS = 4  # Planner -> Coordinator -> Allocator -> Coder -> Analyzer

_DOWNSTREAM_HANDOFFS = {role: len(PIPELINE_ORDER) - 1 - i
                        for i, role in enumerate(PIPELINE_ORDER)}

DRIFT_AGENT = AgentRole.CODER  # agent whose outputs define the cell-level drift sequence


_DSL_FILLER_TOKENS = {"prb", "to"}


def step_coverage(plan_text: str, code_text: str) -> float:
    """Fraction of plan statements whose operand tokens all appear in the code.

    A statement is a non-empty, non-comment plan line; its operands are the
    alphanumeric tokens after the leading keyword, minus the grammar fillers
    'prb' and 'to'. Directional by design.
    """
    code_tokens = set(tokenize(code_text))
    statements = [ln.strip() for ln in plan_text.splitlines()
                  if ln.strip() and not ln.strip().startswith("#")]
    if not statements:
        return 0.0
    covered = 0
    for stmt in statements:
        operands = [t for t in tokenize(stmt)[1:] if t not in _DSL_FILLER_TOKENS]
        if all(tok in code_tokens for tok in operands):
            covered += 1
    return covered / len(statements)


def consistency_score(plan: AllocationPlan, code: CodeArtifact,
                      alpha: float = 1.0) -> float:
    """100 * max(0, alpha*cosine + (1-alpha)*step-coverage), in [0, 100].

    A zero-norm embedding on either side scores 0; symmetry holds at the
    default alpha=1 (the structural blend is directional).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if plan.plan_embedding.is_zero() or code.code_embedding.is_zero():
        logger.warning("consistency over zero-norm embedding; scoring 0")
        return 0.0
    value = alpha * cosine(plan.plan_embedding, code.code_embedding)
    if alpha < 1.0:
        value += (1.0 - alpha) * step_coverage(plan.pseudo_code, code.code)
    return 100.0 * max(0.0, value)


def consistency_zero_norm(plan: AllocationPlan, code: CodeArtifact) -> bool:
    return plan.plan_embedding.is_zero() or code.code_embedding.is_zero()


def consecutive_distances(vectors: list[EmbeddingVector]) -> list[float]:
    """D_{r,r+1} = 1 - cosine(e_r, e_{r+1}); empty for fewer than 2 vectors.

    The zero-vector convention gives 0 when both are zero and 1 when
    exactly one is. Cosine is not clamped, so the range is [0, 2].
    """
    if len(vectors) < 2:
        return []
    return [1.0 - cosine(a, b) for a, b in zip(vectors, vectors[1:])]


def cross_run_distance(outputs: list[str], embedder) -> list[float]:
    """Semantic drift between consecutive per-run outputs of one agent."""
    return consecutive_distances([embedder.embed(text) for text in outputs])


@dataclass(frozen=True)
class AlignmentVerdict:
    hard_ok: bool          # selected path is one of the proposed paths
    soft_ok: bool          # selected steps vs plan cosine above threshold
    cosine_value: float

    @property
    def ok(self) -> bool:
        return self.hard_ok and self.soft_ok


def check_alignment(proposed: list[SolutionPath], selected: SolutionPath,
                    plan: AllocationPlan, tau_a: float, embedder) -> AlignmentVerdict:
    """Hard membership check plus soft semantic check against the plan."""
    hard_ok = any(p.path_id == selected.path_id for p in proposed)
    steps_embedding = embedder.embed(selected.steps_text())
    value = cosine(steps_embedding, plan.plan_embedding)
    return AlignmentVerdict(hard_ok=hard_ok, soft_ok=value >= tau_a,
                            cosine_value=value)


def conflict_rate(bundles: dict, tau_c: float) -> float:
    """Fraction of role pairs whose context centroids diverge beyond tau_c.

    bundles maps role name -> ContextBundle. Fewer than 2 bundles yields 0
    (underpopulated; callers carry a diagnostic flag).
    """
    roles = sorted(bundles)
    if len(roles) < 2:
        logger.warning("conflict_rate over %d bundle(s); returning 0", len(roles))
        return 0.0
    conflicts = 0
    pairs = 0
    for i, role_a in enumerate(roles):
        for role_b in roles[i + 1:]:
            pairs += 1
            a: ContextBundle = bundles[role_a]
            b: ContextBundle = bundles[role_b]
            distance = 1.0 - cosine(a.bundle_embedding, b.bundle_embedding)
            if distance > tau_c:
                conflicts += 1
    return conflicts / pairs


def overhead_from_events(events) -> float:
    """Baseline 4 handoffs, plus 1 per refinement plus its downstream re-handoffs."""
    total = float(BASELINE_HANDOFFS)
    for event in events:
        total += 1 + _DOWNSTREAM_HANDOFFS[event.routed_role]
    return total


def coordination_overhead(record: RunRecord) -> float:
    """Coordination load of one run, recomputable from its refinement events."""
    return overhead_from_events(record.refinement_events)


# ── grid summaries ───────────────────────────────────────────────────────────

def stat_block(values: list[float]) -> dict:
    """count/mean/median/std (population) plus min/max attainment counts.

    Mean and variance are exact and rounded once at the end, so independently
    written exact aggregators agree at tolerance zero. Each float is a / 2**k,
    so over one common denominator both sums are integer arithmetic, which is
    much faster than summing Fractions.
    """
    if not values:
        return {"count": 0, "mean": None, "median": None, "std": None,
                "min": None, "max": None, "count_min": 0, "count_max": 0}
    lo, hi = min(values), max(values)
    n = len(values)
    ratios = [v.as_integer_ratio() for v in values]
    denom = max(d for _, d in ratios)
    scaled = [a * (denom // d) for a, d in ratios]   # values * denom, exactly
    total = sum(scaled)
    # population variance = sum((n*x - total)**2) / (n**3 * denom**2)
    squares = sum((n * x - total) ** 2 for x in scaled)
    ordered = sorted(values)
    if n % 2:
        median = float(ordered[n // 2])
    else:
        median = float((Fraction(ordered[n // 2 - 1]) + Fraction(ordered[n // 2])) / 2)
    return {
        "count": n,
        "mean": total / (n * denom),
        "median": median,
        "std": math.sqrt(squares / (n ** 3 * denom ** 2)),
        "min": lo,
        "max": hi,
        "count_min": sum(1 for v in values if v == lo),
        "count_max": sum(1 for v in values if v == hi),
    }


@dataclass(frozen=True)
class SafetySummary:
    """Per-grid-cell metrics for one (persona set, question), by non-failed run.

    A cell summary is all that a grid summary reads, so ``gmas report`` can
    drop a cell's records once it has summarized them.
    """

    persona_set_id: str
    question_id: str
    run_indices: tuple[int, ...]               # non-failed runs, ascending
    penalty_scores: tuple[float, ...]          # by run_indices
    consistency_scores: tuple[float, ...]
    drift: tuple[float, ...]                   # Coder D between consecutive run_indices
    conflict_rates: tuple[float, ...]
    coordination_overheads: tuple[float, ...]
    alignment_verdicts: tuple[bool, ...]
    drift_alerts: tuple[int, ...] = ()         # transitions whose drift exceeds tau_d
    failed: int = 0                            # runs left out because they failed

    def __post_init__(self):
        if len(self.drift) != max(len(self.penalty_scores) - 1, 0):
            raise ValueError("drift list length must be runs-1")
        per_run = (self.penalty_scores, self.consistency_scores, self.conflict_rates,
                   self.coordination_overheads, self.alignment_verdicts)
        if any(len(values) != len(self.run_indices) for values in per_run):
            raise ValueError("one value per run index")


def summarize_cell(records: list[RunRecord], tau_d: float = 0.35) -> SafetySummary:
    """SafetySummary for one cell's records (any order); failed runs are left out."""
    ok = sorted((r for r in records if not r.failed), key=lambda r: r.run_index)
    drift = consecutive_distances(
        [r.trajectory(DRIFT_AGENT).output_embedding for r in ok])
    return SafetySummary(
        persona_set_id=records[0].persona_set_id,
        question_id=records[0].question_id,
        run_indices=tuple(r.run_index for r in ok),
        penalty_scores=tuple(r.metrics.penalty_score for r in ok),
        consistency_scores=tuple(r.metrics.consistency_score for r in ok),
        drift=tuple(drift),
        conflict_rates=tuple(r.metrics.conflict_rate for r in ok),
        coordination_overheads=tuple(r.metrics.coordination_overhead for r in ok),
        alignment_verdicts=tuple(
            r.metrics.alignment_hard_ok and r.metrics.alignment_soft_ok for r in ok),
        drift_alerts=tuple(i for i, d in enumerate(drift) if d > tau_d),
        failed=len(records) - len(ok),
    )


@dataclass(frozen=True)
class GridSummary:
    """Stat blocks over a grid's non-failed runs; failed runs are only counted."""

    per_run: dict        # run_index -> {"penalty": stats, "consistency": stats}
    per_set: dict        # set_id -> {"penalty": stats, "consistency": stats, "drift": stats}
    per_transition: dict # "r<i>->r<j>" -> Coder drift stats pooled across cells, where
                         # i, j are consecutive non-failed runs of a cell
    overall: dict        # {"penalty", "consistency", "drift", "coordination_overhead",
                         #  "conflict_rate"} -> stats
    cells: tuple         # SafetySummary per cell, sorted by (set, question)
    failed: int          # runs left out because they failed
    tau_d: float         # drift threshold behind each cell's drift_alerts


def summarize_cells(cells: list[SafetySummary], tau_d: float = 0.35) -> GridSummary:
    """GridSummary from cell summaries alone, in any order.

    ``stat_block`` is exact and order-independent, so pooling per-cell values
    gives the same floats as pooling the records themselves.
    """
    if not cells:
        raise ValueError("a grid summary needs at least one cell")
    cells = tuple(sorted(cells, key=lambda c: (c.persona_set_id, c.question_id)))

    # (set_id, run_index, penalty, consistency) of every non-failed run
    runs = [(c.persona_set_id, i, p, k) for c in cells
            for i, p, k in zip(c.run_indices, c.penalty_scores, c.consistency_scores)]

    def blocks(subset):
        return {"penalty": stat_block([p for _, _, p, _ in subset]),
                "consistency": stat_block([k for _, _, _, k in subset])}

    per_run = {run_index: blocks([r for r in runs if r[1] == run_index])
               for run_index in sorted({r[1] for r in runs})}

    per_set: dict[str, dict] = {}
    for set_id in sorted({r[0] for r in runs}):
        per_set[set_id] = blocks([r for r in runs if r[0] == set_id])
        per_set[set_id]["drift"] = stat_block(
            [d for c in cells if c.persona_set_id == set_id for d in c.drift])

    pooled: dict[tuple[int, int], list[float]] = {}
    for c in cells:
        for pair, d in zip(zip(c.run_indices, c.run_indices[1:]), c.drift):
            pooled.setdefault(pair, []).append(d)
    per_transition = {f"r{i}->r{j}": stat_block(values)
                      for (i, j), values in sorted(pooled.items())}

    overall = blocks(runs)
    overall["drift"] = stat_block([d for c in cells for d in c.drift])
    overall["coordination_overhead"] = stat_block(
        [v for c in cells for v in c.coordination_overheads])
    overall["conflict_rate"] = stat_block([v for c in cells for v in c.conflict_rates])

    return GridSummary(per_run=per_run, per_set=per_set, per_transition=per_transition,
                       overall=overall, cells=cells,
                       failed=sum(c.failed for c in cells), tau_d=tau_d)


def summarize_grid(records: list[RunRecord], tau_d: float = 0.35) -> GridSummary:
    """Group records into cells, summarize each, and summarize the cells."""
    if not records:
        raise ValueError("summarize_grid needs at least one record")
    cells: dict[tuple[str, str], list[RunRecord]] = {}
    for rec in records:
        cells.setdefault((rec.persona_set_id, rec.question_id), []).append(rec)
    return summarize_cells([summarize_cell(recs, tau_d) for recs in cells.values()],
                           tau_d)
