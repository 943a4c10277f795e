"""Canonical JSON persistence for run records and experiment manifests.

Canonical form: sorted keys, ASCII escapes, floats at 17 significant
digits, trailing newline. Identical records serialize to byte-identical
files, so reproducibility checks are plain byte comparisons. Timestamps
live only in sidecar ``*.meta.json`` files, never in canonical artifacts.

The encoder takes the record tree of ``RunRecord.to_dict``, in which
embeddings are ``EmbeddingVector`` objects. Each vector is encoded as a
JSON array of floats, and its text is computed once and reused for as long
as the vector lives, so a vector shared by many runs is formatted once.
Every file is written atomically (``write_atomic``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import weakref
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import jsonschema
import numpy as np

from .embeddings import EmbeddingVector
from .errors import ValidationError
from .records import RunRecord, SCHEMA_VERSION
from .scenario import AgentRole


def _fmt_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValidationError(f"non-finite float {value!r} cannot be persisted")
    if value == 0.0:
        return "0"
    return format(value, ".17g")


# Canonical text of each embedding vector, computed once and kept for as long
# as the vector lives. Equal vectors share one entry, which is sound because
# equal vectors have the same text (-0.0 and 0.0 both print as "0").
_VECTOR_TEXT: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _vector_text(vector: EmbeddingVector) -> str:
    text = _VECTOR_TEXT.get(vector)
    if text is None:
        values = vector.values
        finite = np.isfinite(values)
        if not finite.all():
            _fmt_float(float(values[~finite][0]))  # raises ValidationError naming it
        # the same text as _fmt_float per item, in one pass
        text = "[" + ",".join(["0" if v == 0.0 else "%.17g" % v
                               for v in values.tolist()]) + "]"
        _VECTOR_TEXT[vector] = text
    return text


def _encode(obj, out: list[str]) -> None:
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValidationError(f"non-string key {key!r} in canonical JSON")
            if i:
                out.append(",")
            out.append(encode_basestring_ascii(key))
            out.append(":")
            _encode(obj[key], out)
        out.append("}")
    elif isinstance(obj, EmbeddingVector):
        out.append(_vector_text(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    else:
        raise ValidationError(f"type {type(obj).__name__} not representable in canonical JSON")


def canonical_json(obj) -> str:
    """Deterministic JSON text for the object tree, without trailing newline."""
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so that a crash leaves the old file or the new.

    The text goes to ``.<name>.tmp`` in the same directory, which then
    replaces ``path`` in one ``os.replace``; the temp file is removed if
    anything fails. There is no fsync: this guards against a process crash,
    not against power loss.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def content_sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# ── run record persistence ───────────────────────────────────────────────────

def run_relpath(persona_set_id: str, question_id: str, run_index: int) -> Path:
    return Path("runs") / persona_set_id / question_id / f"run{run_index}.json"


def persist_run(record: RunRecord, root: str | Path,
                duration_s: float | None = None) -> Path:
    """Write the canonical artifact plus its timestamp/duration sidecar."""
    root = Path(root)
    path = root / run_relpath(record.persona_set_id, record.question_id,
                              record.run_index)
    try:
        text = canonical_json(record.to_dict()) + "\n"
    except ValidationError as exc:
        raise ValidationError(f"record {path.name} rejected: {exc}")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, text)
    sidecar = path.with_name(path.stem + ".meta.json")
    meta = {"written_at": datetime.now(timezone.utc).isoformat()}
    if duration_s is not None:
        meta["duration_s"] = duration_s
    write_atomic(sidecar, json.dumps(meta) + "\n")
    return path


def load_run(path: str | Path) -> RunRecord:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    return RunRecord.from_dict(raw)


def iter_run_files(root: str | Path):
    runs_dir = Path(root) / "runs"
    if not runs_dir.exists():
        return
    for path in sorted(runs_dir.glob("*/*/run*.json")):
        if not path.name.endswith(".meta.json"):
            yield path


# ── experiment manifest ──────────────────────────────────────────────────────

@dataclass(frozen=True)
class FileRef:
    path: str
    sha256: str

    @classmethod
    def of(cls, path: str | Path) -> "FileRef":
        p = Path(path)
        return cls(path=str(p), sha256=content_sha256(p.read_bytes()))

    def to_dict(self) -> dict:
        return {"path": self.path, "sha256": self.sha256}


@dataclass(frozen=True)
class ExperimentManifest:
    experiment_id: str
    config_snapshot: dict
    question_set: dict          # FileRef-shaped dict or inline summary
    persona_registry: dict
    dimensions: dict            # {"questions": n, "persona_sets": m, "runs": r}
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if any(v < 1 for v in self.dimensions.values()):
            raise ValidationError("run matrix dimensions must be positive")

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "config_snapshot": self.config_snapshot,
            "question_set": self.question_set,
            "persona_registry": self.persona_registry,
            "dimensions": self.dimensions,
            "schema_version": self.schema_version,
        }


def derive_experiment_id(snapshot: dict) -> str:
    """Deterministic id from the canonical config snapshot (no clock, no uuid)."""
    return "exp-" + content_sha256(canonical_json(snapshot))[:12]


def write_manifest(manifest: ExperimentManifest, root: str | Path) -> Path:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / "experiment.json"
    write_atomic(path, canonical_json(manifest.to_dict()) + "\n")
    return path


# ── artifact schema ──────────────────────────────────────────────────────────

_EMBEDDING = {"type": "array", "items": {"type": "number"}}

_TRAJECTORY_SCHEMA = {
    "type": "object",
    "required": ["role", "prompt", "prompt_embedding", "output", "output_embedding",
                 "thought_summary", "refinement_reasons"],
    "properties": {
        "role": {"enum": [r.value for r in AgentRole]},
        "prompt": {"type": "string"},
        "prompt_embedding": _EMBEDDING,
        "output": {"type": "string"},
        "output_embedding": _EMBEDDING,
        "thought_summary": {"type": "string"},
        "refinement_reasons": {"type": "array", "items": {"type": "string"}},
    },
}

RUN_RECORD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "experiment_id", "question_id", "persona_set_id",
                 "run_index", "status", "trajectories", "proposed_paths",
                 "plan_text", "code_text", "refinement_events"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment_id": {"type": "string"},
        "question_id": {"type": "string"},
        "persona_set_id": {"type": "string"},
        "run_index": {"type": "integer", "minimum": 1},
        "status": {"enum": ["completed", "failed", "budget_exhausted"]},
        "trajectories": {
            "type": "object",
            "required": [r.value for r in AgentRole],
            "additionalProperties": _TRAJECTORY_SCHEMA,
        },
        "proposed_paths": {"type": "array"},
        "selected_path_id": {"type": ["integer", "null"]},
        "plan_text": {"type": "string"},
        "code_text": {"type": "string"},
        "metrics": {
            "type": ["object", "null"],
            "properties": {
                "penalty_score": {"type": "number", "minimum": 0, "maximum": 100},
                "consistency_score": {"type": "number", "minimum": 0, "maximum": 100},
                "conflict_rate": {"type": "number", "minimum": 0, "maximum": 1},
                "coordination_overhead": {"type": "number", "minimum": 0},
            },
        },
        "refinement_events": {"type": "array"},
    },
}


def validate_record_dict(data: dict) -> None:
    """Schema-validate a run record payload; raises ValidationError on failure."""
    try:
        jsonschema.validate(data, RUN_RECORD_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ValidationError(
            f"run record schema violation at {exc.json_path}: {exc.message}")
