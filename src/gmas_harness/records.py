"""Run-trajectory record types shared by the orchestrator, metrics, and persistence,
and the one definition of the run-file format: ``RunRecord.to_dict`` writes it,
``RunRecord.from_dict`` checks it."""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
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
        return cls(d["path_id"], tuple(d["steps"]), d["self_eval"], d["rationale"])


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


def _field(d: dict, key: str, *kinds: type):
    """``d[key]`` of a record payload, refused unless the key is there and the
    value's JSON type is one of ``kinds`` (str, int, float, bool, list, dict,
    NoneType; ``float`` admits an integer, and ``bool`` is neither)."""
    if key not in d:
        raise ValidationError(f"{key} is missing")
    value = d[key]
    if type(value) in kinds or (type(value) is int and float in kinds):
        return value
    raise ValidationError(f"{key} {value!r:.40} is not "
                          + " or ".join(kind.__name__ for kind in kinds))


def _vector(d: dict, key: str) -> EmbeddingVector:
    """The embedding field ``key`` of a payload: a flat list of numbers, or
    the vector already built from one (``to_dict`` gives these, and
    ``artifacts.load_run`` builds each distinct one once)."""
    value = d[key]
    if isinstance(value, EmbeddingVector):
        return value
    if type(value) is not list or not is_number_list(value):
        raise ValidationError(f"{key} {value!r:.40} is not a flat list of numbers")
    return EmbeddingVector.from_list(value)


# The embedding fields of a trajectory; all of a record's vectors share one length.
VECTOR_FIELDS = ("context_centroid", "output_embedding", "prompt_embedding")


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
        reasons = _field(d, "refinement_reasons", list)
        if set(map(type, reasons)) - {str}:
            raise ValidationError(f"refinement_reasons {reasons!r:.40} holds a non-string")
        return cls(
            role=AgentRole(_field(d, "role", str)),
            prompt=_field(d, "prompt", str),
            prompt_embedding=_vector(d, "prompt_embedding"),
            output=_field(d, "output", str),
            output_embedding=_vector(d, "output_embedding"),
            thought_summary=_field(d, "thought_summary", str),
            refinement_reasons=tuple(reasons),
            context_items=tuple((t, s, p) for t, s, p in _field(d, "context_items", list)),
            context_centroid=None if d["context_centroid"] in (None, [])
                             else _vector(d, "context_centroid"),
            aux_exchanges=tuple((p, o) for p, o in _field(d, "aux_exchanges", list)),
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


# [lo, hi] of each float metric; lo <= value <= hi also refuses NaN and infinity.
_MAX = sys.float_info.max
_METRIC_RANGES = {"penalty_score": (0.0, 100.0), "consistency_score": (0.0, 100.0),
                  "conflict_rate": (0.0, 1.0), "coordination_overhead": (0.0, _MAX),
                  "alignment_cosine": (-_MAX, _MAX)}


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
        """The metrics of a payload; a flag that is not a boolean, or a score
        that is not a number in its range, raises ``ValidationError``."""
        for field in fields(cls):
            if field.name not in _METRIC_RANGES:
                _field(d, field.name, bool)
                continue
            lo, hi = _METRIC_RANGES[field.name]
            value = _field(d, field.name, float)
            if not lo <= value <= hi:
                raise ValidationError(f"{field.name} {value!r} is outside [{lo:g}, {hi:g}]")
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
        each distinct vector once. The JSON payload, the form that
        ``from_dict`` reads, is ``json.loads(canonical_json(record.to_dict()))``.
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
        """The record of a run-file payload. ``ValidationError``, naming the
        field, refuses a schema version other than ``SCHEMA_VERSION``, a
        missing key or role, a field of the wrong JSON type, an unknown role
        or status, a metric out of its range, a run without metrics that did
        not fail, and embeddings that are not flat lists of numbers or
        differ in length."""
        version = d.get("schema_version") if type(d) is dict else None
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValidationError(f"schema_version {version!r} is not {SCHEMA_VERSION}")
        try:
            return cls._from_payload(d)
        except KeyError as exc:
            raise ValidationError(f"{exc.args[0]} is missing") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"malformed run record: {exc}") from exc

    @classmethod
    def _from_payload(cls, d: dict) -> "RunRecord":
        raw = _field(d, "trajectories", dict)
        missing = [role.value for role in PIPELINE_ORDER if role.value not in raw]
        if missing:
            raise ValidationError(f"trajectories lack {missing}")
        trajectories = {AgentRole(k): Trajectory.from_dict(_field(raw, k, dict))
                        for k in raw}
        dims = {vector.dim for t in trajectories.values()
                for vector in (getattr(t, name) for name in VECTOR_FIELDS)
                if vector is not None}
        if len(dims) > 1:
            raise ValidationError(f"embedding dims differ: {sorted(dims)}")
        report = _field(d, "analyzer_report", dict, type(None))
        metrics = _field(d, "metrics", dict, type(None))
        return cls(
            experiment_id=_field(d, "experiment_id", str),
            question_id=_field(d, "question_id", str),
            question_text=_field(d, "question_text", str),
            persona_set_id=_field(d, "persona_set_id", str),
            run_index=_field(d, "run_index", int),
            status=RunStatus(_field(d, "status", str)),
            trajectories=trajectories,
            proposed_paths=tuple(SolutionPath.from_dict(p)
                                 for p in _field(d, "proposed_paths", list)),
            selected_path_id=_field(d, "selected_path_id", int, type(None)),
            plan_text=_field(d, "plan_text", str),
            code_text=_field(d, "code_text", str),
            kpi=_field(d, "kpi", dict, type(None)),
            analyzer_report=None if report is None else AnalyzerReport.from_dict(report),
            metrics=None if metrics is None else RunMetrics.from_dict(metrics),
            refinement_events=tuple(RefinementEvent.from_dict(e)
                                    for e in _field(d, "refinement_events", list)),
            max_refinement_depth=_field(d, "max_refinement_depth", int),
            schema_version=d["schema_version"],
        )
