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

The loader mirrors this: ``load_run`` cuts each vector field's array out of
the file text, parses the rest with ``json.loads``, and decodes each array
through a ``VectorMemo`` that maps the array text to one shared vector, so
a report that loads the whole tree with one memo decodes each distinct
vector text once. The record is always the one the plain
``RunRecord.from_dict(json.loads(text))`` gives, and a file that decode
refuses is refused. ``records`` defines and checks the run-file format;
this module only encodes and decodes it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingVector
from .errors import ValidationError
from .records import VECTOR_FIELDS, RunRecord, SCHEMA_VERSION, number_vector


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


# Most vector texts of a run tree recur across its files (a seed-42 sample
# grid holds 727 distinct ones among 7,200), so the loader decodes each
# distinct text once through a VectorMemo of at most this many vectors.
VECTOR_MEMO_SIZE = 1024

_VECTOR_KEY_RE = re.compile('"(?:' + "|".join(VECTOR_FIELDS) + ')":\\[')


class VectorMemo:
    """Shared, read-only ``EmbeddingVector``s by the text they were decoded from.

    Keyed by a 16-byte blake2b digest of the text rather than by the text, and
    least recently used first out beyond ``VECTOR_MEMO_SIZE`` entries, so its
    memory is bounded whatever the size of the run tree.
    """

    def __init__(self):
        self._vectors: OrderedDict[bytes, EmbeddingVector] = OrderedDict()

    def __len__(self) -> int:
        return len(self._vectors)

    def get(self, text: str) -> EmbeddingVector | None:
        """The vector ``EmbeddingVector.from_list(json.loads(text))``, or None
        when ``text`` is not a JSON array of one or more finite numbers."""
        key = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
        vector = self._vectors.get(key)
        if vector is not None:
            self._vectors.move_to_end(key)
            return vector
        try:
            values = json.loads(text)
        except (ValueError, RecursionError):
            return None
        vector = number_vector(values) if type(values) is list and values else None
        if vector is None:
            return None
        self._vectors[key] = vector
        if len(self._vectors) > VECTOR_MEMO_SIZE:
            self._vectors.popitem(last=False)
        return vector


def load_run(path: str | Path, vectors: VectorMemo | None = None) -> RunRecord:
    """The record persisted at ``path``: equal to
    ``RunRecord.from_dict(json.loads(text))``, and refused where that is,
    with ``ValidationError`` for every payload ``from_dict`` refuses.

    Each vector field's array is cut out of the text before ``json.loads``
    parses the rest, and is decoded through ``vectors`` (a fresh memo when
    none is given), so records loaded with one memo share one
    ``EmbeddingVector`` per distinct array text.
    """
    text = Path(path).read_text(encoding="utf-8")
    raw = _decode_cut(text, VectorMemo() if vectors is None else vectors)
    return RunRecord.from_dict(json.loads(text) if raw is None else raw)


def _decode_cut(text: str, vectors: VectorMemo):
    """The payload of ``text`` with its vector fields' arrays already decoded,
    or None where the plain ``json.loads(text)`` must decide.

    An array runs from a vector field's ``[`` to the next ``]`` and stands in
    the rest as the string ``"\\u0000<n>"``. The result is None, and the file
    goes the plain way, when the rest spells a NUL itself, when it does not
    parse, when an array is not one or more numbers, or when an array is not
    the value of a trajectory's vector field (an ``output_embedding`` key in
    ``kpi``, say), so every payload returned is the plain decode's.
    """
    pieces, slots = [], {}
    end = 0
    match = _VECTOR_KEY_RE.search(text)
    while match:
        start = match.end() - 1
        close = text.find("]", start) + 1
        vector = vectors.get(text[start:close]) if close else None
        if vector is None:
            return None
        pieces.append(text[end:start])
        pieces.append(f'"\\u0000{len(slots)}"')
        slots[f"\x00{len(slots)}"] = vector
        end = close
        match = _VECTOR_KEY_RE.search(text, end)
    pieces.append(text[end:])
    if any("\\u0000" in piece for piece in pieces[::2]):
        return None
    try:
        raw = json.loads("".join(pieces))
    except ValueError:
        return None
    trajectories = raw.get("trajectories") if isinstance(raw, dict) else None
    if isinstance(trajectories, dict):
        for trajectory in trajectories.values():
            if isinstance(trajectory, dict):
                for field in VECTOR_FIELDS:
                    value = trajectory.get(field)
                    if type(value) is str and value in slots:
                        trajectory[field] = slots.pop(value)
    return None if slots else raw


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
