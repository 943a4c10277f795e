"""Run-trajectory record types shared by the orchestrator, metrics, and persistence."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .analyzer import AnalyzerReport
from .embeddings import EmbeddingVector
from .errors import ValidationError
from .scenario import AgentRole, PIPELINE_ORDER

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SolutionPath:
    path_id: int
    steps: tuple[str, ...]
    self_eval: float
    rationale: str = ""

    def __post_init__(self):
        if not self.steps:
            raise ValueError("solution path needs at least one step")
        if not 0.0 <= self.self_eval <= 1.0:
            raise ValueError(f"self_eval {self.self_eval} outside [0, 1]")

    def steps_text(self) -> str:
        return "\n".join(self.steps)

    def to_dict(self) -> dict:
        return {"path_id": self.path_id, "steps": list(self.steps),
                "self_eval": self.self_eval, "rationale": self.rationale}

    @classmethod
    def from_dict(cls, d: dict) -> "SolutionPath":
        return cls(d["path_id"], tuple(d["steps"]), d["self_eval"], d.get("rationale", ""))


@dataclass(frozen=True)
class AllocationPlan:
    pseudo_code: str
    plan_embedding: EmbeddingVector

    def __post_init__(self):
        if not self.pseudo_code:
            raise ValueError("allocation plan must be non-empty")


@dataclass(frozen=True)
class CodeArtifact:
    code: str
    code_embedding: EmbeddingVector

    def __post_init__(self):
        if not self.code:
            raise ValueError("code artifact must be non-empty")


def is_number_list(values: list) -> bool:
    """Whether every item is a JSON number (``bool`` is not one)."""
    return set(map(type, values)) <= {int, float}


def _vector(value) -> EmbeddingVector:
    """An embedding field of a record payload: a flat list of numbers, or the
    vector already built from one (``to_dict`` gives these, and
    ``artifacts.load_run`` builds each distinct one once)."""
    if isinstance(value, EmbeddingVector):
        return value
    if type(value) is not list or not is_number_list(value):
        raise ValidationError(f"embedding {value!r:.40} is not a flat list of numbers")
    return EmbeddingVector.from_list(value)


@dataclass(frozen=True)
class Trajectory:
    """One agent's record within a run: what it saw, produced, and why it re-ran."""

    role: AgentRole
    prompt: str
    prompt_embedding: EmbeddingVector
    output: str
    output_embedding: EmbeddingVector
    thought_summary: str
    refinement_reasons: tuple[str, ...] = ()
    context_items: tuple[tuple[str, float, str], ...] = ()
    context_centroid: EmbeddingVector | None = None
    aux_exchanges: tuple[tuple[str, str], ...] = ()  # (purpose, output) side calls

    def to_dict(self) -> dict:
        return {
            "role": self.role.value,
            "prompt": self.prompt,
            "prompt_embedding": self.prompt_embedding,
            "output": self.output,
            "output_embedding": self.output_embedding,
            "thought_summary": self.thought_summary,
            "refinement_reasons": list(self.refinement_reasons),
            "context_items": [[t, s, p] for t, s, p in self.context_items],
            "context_centroid": self.context_centroid,
            "aux_exchanges": [[p, o] for p, o in self.aux_exchanges],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Trajectory":
        return cls(
            role=AgentRole(d["role"]),
            prompt=d["prompt"],
            prompt_embedding=_vector(d["prompt_embedding"]),
            output=d["output"],
            output_embedding=_vector(d["output_embedding"]),
            thought_summary=d["thought_summary"],
            refinement_reasons=tuple(d.get("refinement_reasons", [])),
            context_items=tuple((t, s, p) for t, s, p in d.get("context_items", [])),
            context_centroid=None if d.get("context_centroid") in (None, [])
                             else _vector(d["context_centroid"]),
            aux_exchanges=tuple((p, o) for p, o in d.get("aux_exchanges", [])),
        )


class RunStatus(str, Enum):
    COMPLETED = "completed"
    FAILED = "failed"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class RefinementEvent:
    index: int
    routed_role: AgentRole
    reason: str

    def to_dict(self) -> dict:
        return {"index": self.index, "routed_role": self.routed_role.value,
                "reason": self.reason}

    @classmethod
    def from_dict(cls, d: dict) -> "RefinementEvent":
        return cls(d["index"], AgentRole(d["routed_role"]), d["reason"])


@dataclass(frozen=True)
class RunMetrics:
    penalty_score: float
    consistency_score: float
    consistency_zero_norm: bool
    alignment_hard_ok: bool
    alignment_soft_ok: bool
    alignment_cosine: float
    conflict_rate: float
    conflict_underpopulated: bool
    coordination_overhead: float

    def to_dict(self) -> dict:
        return {
            "penalty_score": self.penalty_score,
            "consistency_score": self.consistency_score,
            "consistency_zero_norm": self.consistency_zero_norm,
            "alignment_hard_ok": self.alignment_hard_ok,
            "alignment_soft_ok": self.alignment_soft_ok,
            "alignment_cosine": self.alignment_cosine,
            "conflict_rate": self.conflict_rate,
            "conflict_underpopulated": self.conflict_underpopulated,
            "coordination_overhead": self.coordination_overhead,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunMetrics":
        return cls(**d)


@dataclass(frozen=True)
class RunRecord:
    """Full trajectory of one (question, persona set, run index) execution."""

    experiment_id: str
    question_id: str
    question_text: str
    persona_set_id: str
    run_index: int
    status: RunStatus
    trajectories: dict  # AgentRole -> Trajectory
    proposed_paths: tuple[SolutionPath, ...]
    selected_path_id: int | None
    plan_text: str
    code_text: str
    kpi: dict | None
    analyzer_report: AnalyzerReport | None
    metrics: RunMetrics | None
    refinement_events: tuple[RefinementEvent, ...] = ()
    max_refinement_depth: int = 3
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.run_index < 1:
            raise ValueError("run_index is 1-based")
        if set(self.trajectories) != set(PIPELINE_ORDER):
            raise ValueError("trajectories must cover exactly the five roles")
        if len(self.refinement_events) > self.max_refinement_depth:
            raise ValueError("refinement count exceeds max_refinement_depth")
        if self.metrics is None and not self.failed:
            raise ValueError("only a failed run may lack metrics")

    def trajectory(self, role: AgentRole) -> Trajectory:
        return self.trajectories[role]

    @property
    def failed(self) -> bool:
        """A failed run has no metrics. Aggregation leaves it out of every
        metric row, stat block and drift pair, and counts it separately."""
        return self.status is RunStatus.FAILED

    def to_dict(self) -> dict:
        """The record tree that ``artifacts.canonical_json`` encodes.

        Embeddings stay ``EmbeddingVector`` objects, so the encoder can format
        each distinct vector once. The JSON payload, the form that schema
        validation and ``from_dict`` read, is
        ``json.loads(canonical_json(record.to_dict()))``.
        """
        return {
            "schema_version": self.schema_version,
            "experiment_id": self.experiment_id,
            "question_id": self.question_id,
            "question_text": self.question_text,
            "persona_set_id": self.persona_set_id,
            "run_index": self.run_index,
            "status": self.status.value,
            "trajectories": {role.value: traj.to_dict()
                             for role, traj in sorted(self.trajectories.items(),
                                                      key=lambda kv: kv[0].value)},
            "proposed_paths": [p.to_dict() for p in self.proposed_paths],
            "selected_path_id": self.selected_path_id,
            "plan_text": self.plan_text,
            "code_text": self.code_text,
            "kpi": self.kpi,
            "analyzer_report": self.analyzer_report.to_dict()
                               if self.analyzer_report else None,
            "metrics": self.metrics.to_dict() if self.metrics else None,
            "refinement_events": [e.to_dict() for e in self.refinement_events],
            "max_refinement_depth": self.max_refinement_depth,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """The record of a payload; an embedding field that is not a flat list
        of numbers, or vectors of different lengths, raise ``ValidationError``."""
        trajectories = {AgentRole(k): Trajectory.from_dict(v)
                        for k, v in d["trajectories"].items()}
        dims = {vector.dim for t in trajectories.values()
                for vector in (t.prompt_embedding, t.output_embedding, t.context_centroid)
                if vector is not None}
        if len(dims) > 1:
            raise ValidationError(f"embedding dims differ: {sorted(dims)}")
        return cls(
            experiment_id=d["experiment_id"],
            question_id=d["question_id"],
            question_text=d.get("question_text", ""),
            persona_set_id=d["persona_set_id"],
            run_index=d["run_index"],
            status=RunStatus(d["status"]),
            trajectories=trajectories,
            proposed_paths=tuple(SolutionPath.from_dict(p) for p in d["proposed_paths"]),
            selected_path_id=d["selected_path_id"],
            plan_text=d["plan_text"],
            code_text=d["code_text"],
            kpi=d.get("kpi"),
            analyzer_report=AnalyzerReport.from_dict(d["analyzer_report"])
                            if d.get("analyzer_report") else None,
            metrics=RunMetrics.from_dict(d["metrics"]) if d.get("metrics") else None,
            refinement_events=tuple(RefinementEvent.from_dict(e)
                                    for e in d.get("refinement_events", [])),
            max_refinement_depth=d.get("max_refinement_depth", 3),
            schema_version=d.get("schema_version", SCHEMA_VERSION),
        )
