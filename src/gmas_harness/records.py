"""Run-trajectory record types shared by the orchestrator, metrics, and persistence,
and the one definition of the run-file format: ``RunRecord.to_dict`` writes it,
``RunRecord.from_dict`` checks it."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import repeat

from .analyzer import AnalyzerReport
from .embeddings import EmbeddingVector, number_vector
from .errors import ValidationError
from .scenario import AgentRole, PIPELINE_ORDER

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SolutionPath:
    path_id: int
    steps: tuple[str, ...]
    self_eval: float
    rationale: str = ""
    # canonical JSON pieces, set by ``artifacts`` on first encode
    json_parts: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        return cls(_field(d, "path_id", int), _strings(d, "steps"),
                   _field(d, "self_eval", float), _field(d, "rationale", str))


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


def _typed(key: str, value, *kinds: type):
    """``value``, the payload field ``key``, refused unless its JSON type is
    one of ``kinds`` (str, int, float, bool, list, dict, NoneType; ``float``
    admits an integer, and ``bool`` is neither)."""
    if type(value) in kinds or (type(value) is int and float in kinds):
        return value
    raise ValidationError(f"{key} {value!r:.40} is not "
                          + " or ".join(kind.__name__ for kind in kinds))


def _field(d: dict, key: str, *kinds: type):
    """``d[key]`` of a record payload, refused unless the key is there and
    ``_typed`` admits the value."""
    if key not in d:
        raise ValidationError(f"{key} is missing")
    return _typed(key, d[key], *kinds)


def _strings(d: dict, key: str) -> tuple[str, ...]:
    """``d[key]`` of a payload, a list of strings, as a tuple."""
    values = _field(d, key, list)
    if set(map(type, values)) - {str}:
        raise ValidationError(f"{key} {values!r:.40} holds a non-string")
    return tuple(values)


def _rows(d: dict, key: str, shapes: set[tuple[type, ...]]) -> tuple[tuple, ...]:
    """``d[key]`` of a payload, a list of lists, each of which has the JSON
    types of its items in one of ``shapes``, as a tuple of tuples."""
    rows = _field(d, key, list)
    if rows and (set(map(type, rows)) - {list}
                 or set(map(tuple, map(map, repeat(type), rows))) - shapes):
        raise ValidationError(f"{key} {rows!r:.40} holds a row of the wrong shape")
    return tuple(map(tuple, rows))


def _all_finite(key: str, value: dict | list | None):
    """``value``, a checked field named by ``key``, unless a float anywhere
    in it is not finite: the ``NaN`` and ``Infinity`` tokens and a literal
    past float64 (``1e400``), which ``json.loads`` accepts and
    ``canonical_json`` refuses. A loop rather than a recursion, which would
    cost a call per leaf."""
    stack = [] if value is None else [value]
    while stack:
        container = stack.pop()
        for item in container.values() if type(container) is dict else container:
            kind = type(item)
            if kind is float and not math.isfinite(item):
                raise ValidationError(f"{key} {value!r:.40} holds a non-finite number")
            if kind is dict or kind is list:
                stack.append(item)
    return value


# JSON types of a context item (text, score, provenance) and of an aux exchange
_CONTEXT_ITEM = {(str, float, str), (str, int, str)}
_AUX_EXCHANGE = {(str, str)}

_ROLES = {role.value: role for role in AgentRole}


def _role(name: str) -> AgentRole:
    """``AgentRole(name)`` by one dict lookup, a tenth of the enum call's
    cost; a run file names a role about a dozen times."""
    try:
        return _ROLES[name]
    except KeyError:
        raise ValueError(f"{name!r} is not a valid AgentRole") from None


def _vector(d: dict, key: str) -> EmbeddingVector:
    """The embedding field ``key`` of a payload: a non-empty flat list of
    numbers with a finite norm, or the vector already built from one (``to_dict`` gives
    these, and ``artifacts.load_run`` builds each distinct one once)."""
    value = d[key]
    if isinstance(value, EmbeddingVector):
        return value
    vector = number_vector(value)
    if vector is None:
        raise ValidationError(f"{key} {value!r:.40} is not a non-empty flat list of "
                              "numbers with a finite norm")
    return vector


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
    # canonical JSON pieces, set by ``artifacts`` on first encode; not a payload key
    json_parts: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        items = _rows(d, "context_items", _CONTEXT_ITEM)
        for _, score, _ in items:
            if not -math.inf < score < math.inf:  # NaN fails too; any int passes
                raise ValidationError(f"context_items {items!r:.40} holds a non-finite number")
        return cls(
            role=_role(_field(d, "role", str)),
            prompt=_field(d, "prompt", str),
            prompt_embedding=_vector(d, "prompt_embedding"),
            output=_field(d, "output", str),
            output_embedding=_vector(d, "output_embedding"),
            thought_summary=_field(d, "thought_summary", str),
            refinement_reasons=_strings(d, "refinement_reasons"),
            context_items=items,
            context_centroid=None if d["context_centroid"] is None
                             else _vector(d, "context_centroid"),
            aux_exchanges=_rows(d, "aux_exchanges", _AUX_EXCHANGE),
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
        return cls(_field(d, "index", int), _role(_field(d, "routed_role", str)),
                   _field(d, "reason", str))


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


def _schema_version(value) -> int:
    if type(value) is not int or value != SCHEMA_VERSION:
        raise ValidationError(f"schema_version {value!r} is not {SCHEMA_VERSION}")
    return value


def _trajectories(value) -> dict:
    """The trajectories by role; every role's must be there, and no other key."""
    raw = _typed("trajectories", value, dict)
    missing = [role.value for role in PIPELINE_ORDER if role.value not in raw]
    if missing:
        raise ValidationError(f"trajectories lack {missing}")
    return {_role(k): Trajectory.from_dict(_field(raw, k, dict)) for k in raw}


def _typed_as(key: str, *kinds: type):
    return lambda value: _typed(key, value, *kinds)


def _null_or(key: str, decode):
    return lambda value: None if _typed(key, value, dict, type(None)) is None else decode(value)


def _tuple_of(key: str, decode):
    return lambda value: tuple(map(decode, _typed(key, value, list)))


# How a run-file payload's field becomes its checked value in the record:
# ``RunRecord.from_dict`` applies these to a payload, and
# ``artifacts.load_run`` to each distinct value text of a run tree once.
PAYLOAD_FIELDS = {
    "analyzer_report": _null_or("analyzer_report", AnalyzerReport.from_dict),
    "code_text": _typed_as("code_text", str),
    "experiment_id": _typed_as("experiment_id", str),
    "kpi": lambda value: _all_finite("kpi", _typed("kpi", value, dict, type(None))),
    "max_refinement_depth": _typed_as("max_refinement_depth", int),
    "metrics": _null_or("metrics", RunMetrics.from_dict),
    "persona_set_id": _typed_as("persona_set_id", str),
    "plan_text": _typed_as("plan_text", str),
    "proposed_paths": _tuple_of("proposed_paths", SolutionPath.from_dict),
    "question_id": _typed_as("question_id", str),
    "question_text": _typed_as("question_text", str),
    "refinement_events": _tuple_of("refinement_events", RefinementEvent.from_dict),
    "run_index": _typed_as("run_index", int),
    "schema_version": _schema_version,
    "selected_path_id": _typed_as("selected_path_id", int, type(None)),
    "status": lambda value: RunStatus(_typed("status", value, str)),
    "trajectories": _trajectories,
}


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

        Each ``Trajectory``, ``SolutionPath``, the ``AnalyzerReport`` and each
        embedding stay objects, which the records of an experiment share, so
        the encoder can format each distinct one once and splice its text
        into every file that holds it. The JSON payload, the form that
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
            "trajectories": {role.value: traj for role, traj in self.trajectories.items()},
            "proposed_paths": self.proposed_paths,
            "selected_path_id": self.selected_path_id,
            "plan_text": self.plan_text,
            "code_text": self.code_text,
            "kpi": self.kpi,
            "analyzer_report": self.analyzer_report,
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
        not fail, embeddings that are not non-empty flat lists of numbers or
        differ in length, and analyzer findings that would not write back
        as they stand."""
        _schema_version(d.get("schema_version") if type(d) is dict else None)
        try:
            return cls.from_fields({key: decode(d[key])
                                    for key, decode in PAYLOAD_FIELDS.items()})
        except KeyError as exc:
            raise ValidationError(f"{exc.args[0]} is missing") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"malformed run record: {exc}") from exc

    @classmethod
    def from_fields(cls, values: dict) -> "RunRecord":
        """The record of checked field values, ``PAYLOAD_FIELDS``' of each
        key, once each trajectory is found under its own role and all the
        embeddings share one length; ``__post_init__`` checks the rest."""
        for role, trajectory in values["trajectories"].items():
            if trajectory.role is not role:
                raise ValidationError(f"trajectories.{role.value} holds the "
                                      f"{trajectory.role.value} trajectory")
        dims = {vector.dim for t in values["trajectories"].values()
                for vector in (getattr(t, name) for name in VECTOR_FIELDS)
                if vector is not None}
        if len(dims) > 1:
            raise ValidationError(f"embedding dims differ: {sorted(dims)}")
        return cls(**values)
