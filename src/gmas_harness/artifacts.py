"""Canonical JSON persistence for run records and experiment manifests.

Canonical form: sorted keys, ASCII escapes, floats at 17 significant
digits, trailing newline. Identical records serialize to byte-identical
files, so reproducibility checks are plain byte comparisons. Timestamps
and durations live only in each cell's ``cell.meta.json`` sidecar, never
in canonical artifacts.

The encoder takes the record tree of ``RunRecord.to_dict``, in which
embeddings are ``EmbeddingVector`` objects. Each vector is encoded as a
JSON array of floats. Its text is formatted the first time the vector is
encoded and kept on the vector itself (``EmbeddingVector.json_text``), so a
vector shared by many runs is formatted once. The encoder dispatches on the
exact type of each node; an instance of a subclass of a JSON type (a
``str``-valued ``Enum`` member, an ``OrderedDict``, a namedtuple, a
``float`` subclass) falls back to ``isinstance`` tests and is encoded as
its parent type is. Every file is written atomically (``write_atomic``).

The loader mirrors this: ``load_run`` cuts each role's trajectory object
out of the file text, parses the rest with ``json.loads``, and decodes each
object through a ``VectorMemo`` that maps the object text to one shared,
already checked ``Trajectory``. An object the memo has not seen has its
vector fields' arrays cut out in turn, each decoded through the same memo
to one shared vector. A report that loads the whole tree with one memo
decodes each distinct trajectory text, and each distinct vector text among
them, once. The record is always the one the plain
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
from collections import OrderedDict
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingVector, number_vector
from .errors import ConfigurationError, ValidationError
from .records import VECTOR_FIELDS, RunRecord, SCHEMA_VERSION, Trajectory
from .scenario import AgentRole


def _fmt_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValidationError(f"non-finite float {value!r} cannot be persisted")
    if value == 0.0:
        return "0"
    return format(value, ".17g")


def _vector_text(vector: EmbeddingVector) -> str:
    """The vector's canonical text, formatted on the first call and then kept
    on the vector: its values are a read-only copy, so the text cannot go
    stale. A vector with a non-finite value is refused on every call."""
    text = vector.json_text
    if text is None:
        values = vector.values
        finite = np.isfinite(values)
        if not finite.all():
            _fmt_float(float(values[~finite][0]))  # raises ValidationError naming it
        # the same text as _fmt_float per item (0.0 and -0.0 are falsy), in one pass
        text = "[" + ",".join(["%.17g" % v if v else "0" for v in values.tolist()]) + "]"
        object.__setattr__(vector, "json_text", text)
    return text


def _encode(obj, out) -> None:
    """Append the canonical text of ``obj`` through ``out``: one test of its
    exact type, then ``_encode_subclass`` for any other type."""
    t = type(obj)
    if t is str:
        out(_escape(obj))
    elif t is dict:
        _encode_dict(obj, out)
    elif t is EmbeddingVector:
        out(obj.json_text or _vector_text(obj))
    elif t is float:
        out(_fmt_float(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif t is int:
        out(str(obj))
    elif t is list or t is tuple:
        _encode_items(obj, out)
    else:
        _encode_subclass(obj, out)


def _encode_dict(obj: dict, out) -> None:
    try:
        keys = sorted(obj)
    except TypeError:
        raise ValidationError(f"non-string key among {list(obj)!r:.60} in canonical JSON")
    sep = "{"
    for key in keys:
        if type(key) is not str and not isinstance(key, str):
            raise ValidationError(f"non-string key {key!r} in canonical JSON")
        out(sep + _escape(key) + ":")
        sep = ","
        value = obj[key]
        if type(value) is str:
            out(_escape(value))
        else:
            _encode(value, out)
    out("}" if keys else "{}")


def _encode_items(obj, out) -> None:
    sep = "["
    for item in obj:
        out(sep)
        sep = ","
        if type(item) is str:
            out(_escape(item))
        else:
            _encode(item, out)
    out("]" if sep == "," else "[]")


def _encode_subclass(obj, out) -> None:
    """An instance of a subclass of a JSON type gets its parent type's text.
    The types are tested in a fixed order, so a class that derives from two
    of them always gets the first one's text."""
    if isinstance(obj, str):
        out(_escape(obj))
    elif isinstance(obj, int):  # bool cannot be subclassed, so not a bool
        out(str(obj))
    elif isinstance(obj, float):
        out(_fmt_float(obj))
    elif isinstance(obj, dict):
        _encode_dict(obj, out)
    elif isinstance(obj, EmbeddingVector):
        out(_vector_text(obj))
    elif isinstance(obj, (list, tuple)):
        _encode_items(obj, out)
    else:
        raise ValidationError(f"type {type(obj).__name__} not representable in canonical JSON")


def canonical_json(obj) -> str:
    """Deterministic JSON text for the object tree, without trailing newline."""
    parts: list[str] = []
    _encode(obj, parts.append)
    return "".join(parts)


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

def cell_relpath(persona_set_id: str, question_id: str) -> Path:
    return Path("runs") / persona_set_id / question_id


def run_relpath(persona_set_id: str, question_id: str, run_index: int) -> Path:
    return cell_relpath(persona_set_id, question_id) / f"run{run_index}.json"


def persist_run(record: RunRecord, root: str | Path) -> Path:
    """Write the canonical artifact, and nothing else; returns its path."""
    root = Path(root)
    path = root / run_relpath(record.persona_set_id, record.question_id,
                              record.run_index)
    try:
        text = canonical_json(record.to_dict()) + "\n"
    except ValidationError as exc:
        raise ValidationError(f"record {path.name} rejected: {exc}")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, text)
    return path


def persist_cell_meta(runs: list[dict], root: str | Path, persona_set_id: str,
                      question_id: str) -> Path:
    """Write a cell's timing sidecar, ``cell.meta.json`` next to its run
    files: ``{"runs": runs}``, one entry per run, not canonical JSON."""
    path = Path(root) / cell_relpath(persona_set_id, question_id) / "cell.meta.json"
    write_atomic(path, json.dumps({"runs": runs}) + "\n")
    return path


# Most vector and trajectory texts of a run tree recur across its files: a
# seed-42 sample grid holds 727 distinct vector texts among 7,200 and 510
# distinct trajectory texts among 2,400. The loader decodes each distinct text
# once through a VectorMemo of at most this many vectors and trajectories.
VECTOR_MEMO_SIZE = 1024
TRAJECTORY_MEMO_SIZE = 1024

_VECTOR_KEY_RE = re.compile('"(' + "|".join(VECTOR_FIELDS) + ')":\\[')
_ROLE_KEY_RE = re.compile('"(' + "|".join(role.value for role in AgentRole) + ')":\\{')
# The last key of a canonical trajectory object; the } after its value closes it.
_LAST_KEY = '"thought_summary":"'


class VectorMemo:
    """Shared, read-only ``EmbeddingVector``s and ``Trajectory``s by the text
    they were decoded from.

    Keyed by the SHA-256 digest of the text rather than by the text, and
    least recently used first out beyond ``VECTOR_MEMO_SIZE`` vectors and
    ``TRAJECTORY_MEMO_SIZE`` trajectories, so its memory is bounded whatever
    the size of the run tree. ``len`` counts the vectors.
    """

    def __init__(self):
        self._vectors: OrderedDict[bytes, EmbeddingVector] = OrderedDict()
        self._trajectories: OrderedDict[bytes, Trajectory] = OrderedDict()

    def __len__(self) -> int:
        return len(self._vectors)

    def get(self, text: str) -> EmbeddingVector | None:
        """The vector ``EmbeddingVector.from_list(json.loads(text))``, or None
        when ``text`` is not a JSON array of one or more numbers with a finite
        norm (``embeddings.number_vector``)."""
        return _recall(self._vectors, VECTOR_MEMO_SIZE, text, _decode_vector)

    def trajectory(self, text: str) -> Trajectory | None:
        """The trajectory ``Trajectory.from_dict(json.loads(text))``, its
        vector fields' arrays decoded through ``get``, or None when ``text``
        does not decode that way or ``from_dict`` refuses it."""
        return _recall(self._trajectories, TRAJECTORY_MEMO_SIZE, text,
                       self._decode_trajectory)

    def _decode_trajectory(self, text: str) -> Trajectory | None:
        cut = _cut_decode(text, _VECTOR_KEY_RE, _array_end, self.get)
        if cut is None or not _land(*cut):
            return None
        try:
            return Trajectory.from_dict(cut[0])
        except (ValidationError, KeyError, TypeError, ValueError, AttributeError):
            return None


def _recall(table: OrderedDict, limit: int, text: str, decode):
    """``decode(text)``, kept in ``table`` by a digest of ``text`` unless it
    is None; past ``limit`` entries the least recently used one goes."""
    key = hashlib.sha256(text.encode("utf-8")).digest()
    value = table.get(key)
    if value is not None:
        table.move_to_end(key)
        return value
    value = decode(text)
    if value is not None:
        table[key] = value
        if len(table) > limit:
            table.popitem(last=False)
    return value


def _decode_vector(text: str) -> EmbeddingVector | None:
    try:
        values = json.loads(text)
    except (ValueError, RecursionError):
        return None
    return number_vector(values)


def load_run(path: str | Path, vectors: VectorMemo | None = None) -> RunRecord:
    """The record persisted at ``path``: equal to
    ``RunRecord.from_dict(json.loads(text))``, and refused where that is,
    with ``ValidationError`` for every payload ``from_dict`` refuses.

    Each role's object under ``trajectories`` is cut out of the text before
    ``json.loads`` parses the rest, and is decoded through ``vectors`` (a
    fresh memo when none is given), which cuts each vector field's array out
    of the object in turn. Records loaded with one memo share one
    ``Trajectory`` per distinct object text, and one ``EmbeddingVector`` per
    distinct array text among the objects it decoded.
    """
    text = Path(path).read_text(encoding="utf-8")
    raw = _decode_cut(text, VectorMemo() if vectors is None else vectors)
    return RunRecord.from_dict(json.loads(text) if raw is None else raw)


def _decode_cut(text: str, memo: VectorMemo):
    """The payload of ``text`` with its trajectories already built, or None
    where the plain ``json.loads(text)`` must decide.

    A trajectory object runs from the ``{`` after a role key to the ``}``
    after the string value of its ``thought_summary`` key, the last key of a
    canonical trajectory. The result is None, and the file goes the plain
    way, when an object does not decode or ``Trajectory.from_dict`` refuses
    it, when the rest does not parse or spells a NUL, or when an object does
    not stand as the value of its role under ``trajectories`` (a role key in
    ``kpi``, say), so every payload returned is the plain decode's.
    """
    cut = _cut_decode(text, _ROLE_KEY_RE, _trajectory_end, memo.trajectory)
    if cut is None:
        return None
    raw, slots = cut
    trajectories = raw.get("trajectories") if type(raw) is dict else None
    return raw if _land(trajectories, slots) else None


def _cut_decode(text: str, key_re: re.Pattern, span_end, decode):
    """``(payload, slots)``: ``json.loads`` of ``text`` in which each span
    that opens at the end of a ``key_re`` match and closes at
    ``span_end(text, start)`` stands as the string ``"\\u0000<n>"``, and
    ``slots`` maps each such string to the matched key and ``decode`` of its
    span. None when a span does not close or decode, or when the rest spells
    a NUL itself or does not parse."""
    pieces, slots = [], {}
    end = 0
    match = key_re.search(text)
    while match:
        start = match.end() - 1
        close = span_end(text, start)
        value = decode(text[start:close]) if close else None
        if value is None:
            return None
        pieces += (text[end:start], f'"\\u0000{len(slots)}"')
        slots[f"\x00{len(slots)}"] = (match[1], value)
        end = close
        match = key_re.search(text, end)
    pieces.append(text[end:])
    if any("\\u0000" in piece for piece in pieces[::2]):
        return None
    try:
        return json.loads("".join(pieces)), slots
    except (ValueError, RecursionError):
        return None


def _land(parent, slots: dict) -> bool:
    """Put each slot's value in ``parent`` under its key; False, with
    ``parent`` left part done, unless every slot's string stands there."""
    if type(parent) is not dict:
        return False
    for placeholder, (key, value) in slots.items():
        if parent.get(key) != placeholder:
            return False
        parent[key] = value
    return True


def _array_end(text: str, start: int) -> int:
    """Just past the first ``]`` after ``start``, or 0 when there is none."""
    return text.find("]", start) + 1


def _trajectory_end(text: str, start: int) -> int:
    """Just past the ``}`` right after the string value of the first
    ``"thought_summary"`` key after ``start``, or 0 when there is no such
    ``}``. A quote closes the value when an even number of backslashes
    precedes it."""
    quote = text.find(_LAST_KEY, start)
    if quote < 0:
        return 0
    quote += len(_LAST_KEY) - 1
    while True:
        quote = text.find('"', quote + 1)
        if quote < 0:
            return 0
        slash = quote
        while text[slash - 1] == "\\":
            slash -= 1
        if (quote - slash) % 2 == 0:
            return quote + 2 if text.startswith("}", quote + 1) else 0


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


def read_manifest(root: str | Path) -> dict | None:
    """The manifest ``root/experiment.json``, or None when there is none.
    Raises ConfigurationError naming the file unless it is a JSON object
    with a string ``experiment_id`` and an object ``config_snapshot``."""
    path = Path(root) / "experiment.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"{path} cannot be read as an experiment manifest "
                                 f"({type(exc).__name__}: {exc})")
    if (type(manifest) is not dict or type(manifest.get("experiment_id")) is not str
            or type(manifest.get("config_snapshot")) is not dict):
        raise ConfigurationError(f"{path} cannot be read as an experiment manifest (not "
                                 "an object with a string experiment_id and an object "
                                 "config_snapshot)")
    return manifest
