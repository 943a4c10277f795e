"""Canonical JSON persistence for run records and experiment manifests.

Canonical form: sorted keys, ASCII escapes, floats at 17 significant
digits, trailing newline. Identical records serialize to byte-identical
files, so reproducibility checks are plain byte comparisons. Timestamps
and durations live only in each cell's ``cell.meta.json`` sidecar, never
in canonical artifacts.

The encoder takes the record tree of ``RunRecord.to_dict``, in which each
trajectory, solution path, the analyzer report and each embedding is a
frozen object that the records of an experiment share. Each shared part is
encoded once. A vector is encoded as a JSON array of floats, whose text is
formatted the first time the vector is encoded and kept on the vector
itself (``EmbeddingVector.json_text``). A ``Trajectory``, ``SolutionPath``
or ``AnalyzerReport`` keeps its canonical text in its ``json_parts`` slot
as pieces: the text between its string and vector values, each vector's
own ``json_text``, and its strings as they stand, escaped at each write. So
every later file that holds the part splices those pieces in, and the
pieces copy none of the long texts the part holds.

The encoder dispatches on the exact type of each node; an instance of a
subclass of a JSON type (a ``str``-valued ``Enum`` member, an
``OrderedDict``, a namedtuple, a ``float`` subclass) falls back to
``isinstance`` tests and is encoded as its parent type is. Every file is
written atomically (``write_atomic``).

The loader mirrors this: ``load_run`` cuts a canonical file at its known
sorted keys (the record's, the roles' under ``trajectories`` and each
trajectory's), and decodes each value text through a ``ValueMemo`` that
maps the text to one shared, already checked value. A report that loads the
whole tree with one memo decodes each distinct value text once. The record
is always the one the plain ``RunRecord.from_dict(json.loads(text))``
gives, and a file that decode refuses is refused. ``records`` defines and
checks the run-file format; this module only encodes and decodes it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

import numpy as np

from .analyzer import AnalyzerReport
from .embeddings import EmbeddingVector, number_vector
from .errors import FILE_NAME, ConfigurationError, ValidationError
from .records import (PAYLOAD_FIELDS, VECTOR_FIELDS, RunRecord, SCHEMA_VERSION,
                      SolutionPath, Trajectory)
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


# The frozen parts of a record that the records of an experiment share; each
# keeps its canonical text's pieces in its ``json_parts`` slot.
_PARTS = frozenset({Trajectory, SolutionPath, AnalyzerReport})


def _part_pieces(part) -> tuple:
    """The canonical text of ``part.to_dict()`` as pieces: each top-level
    string value is a 1-tuple that holds it, escaped on every write, each
    top-level vector is its ``json_text``, and a text piece holds what lies
    between them. So the pieces copy no string or vector text the part holds.
    A non-finite float anywhere in the part is refused."""
    payload = part.to_dict()
    pieces, text, sep = [], [], "{"
    for key in sorted(payload):
        text.append(sep + _escape(key) + ":")
        sep = ","
        value = payload[key]
        if type(value) is str:
            pieces += ("".join(text), (value,))
            text.clear()
        elif type(value) is EmbeddingVector:
            pieces += ("".join(text), value.json_text or _vector_text(value))
            text.clear()
        else:
            _encode(value, text.append)
    pieces.append("".join(text) + "}")
    return tuple(pieces)


def _encode_part(part, out) -> None:
    """Append the canonical text of a shared record part: its pieces are
    made on the first call and then kept on the part, which is frozen, so
    they cannot go stale. A part that is refused keeps none; two threads
    that meet a new part at once both make the same pieces."""
    pieces = part.json_parts
    if pieces is None:
        pieces = _part_pieces(part)
        object.__setattr__(part, "json_parts", pieces)
    for piece in pieces:
        out(piece if type(piece) is str else _escape(piece[0]))


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
    elif t in _PARTS:
        _encode_part(obj, out)
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
    not against power loss. The write goes through ``os`` calls, below the
    buffered file objects of ``io``.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            data = memoryview(text.encode("utf-8"))
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
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
    """``runs/<set id>/<question id>``, each id one path part, so under the root."""
    for part in (persona_set_id, question_id):
        if not FILE_NAME[2].fullmatch(part):
            raise ValidationError(f"{part!r:.60} is not {FILE_NAME[0]}")
    return Path("runs") / persona_set_id / question_id


def run_relpath(persona_set_id: str, question_id: str, run_index: int) -> Path:
    return cell_relpath(persona_set_id, question_id) / f"run{run_index}.json"


def persist_run(record: RunRecord, root: str | Path) -> Path:
    """Write the canonical artifact, and nothing else; returns its path."""
    relpath = run_relpath(record.persona_set_id, record.question_id, record.run_index)
    path = Path(root) / relpath
    try:
        text = canonical_json(record.to_dict()) + "\n"
    except ValidationError as exc:
        raise ValidationError(f"record {relpath.as_posix()} rejected: {exc}")
    try:
        write_atomic(path, text)
    except FileNotFoundError:  # the cell's first run: its directory is made once
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


# Most value texts of a run tree recur across its files: the 480 files of a
# seed-42 refine grid hold 877 distinct vector texts among 7,200, 594 distinct
# trajectory texts among 2,400 and 32 distinct kpi texts. The loader decodes
# each distinct text once through a ValueMemo of at most this many values.
VALUE_MEMO_SIZE = 4096
# A value text up to this long keys the memo as it stands, a longer one by
# its SHA-256 digest, so the memo holds no long text.
SHORT_TEXT = 256

_MISSING = object()


class ValueMemo:
    """Checked values of run files by the text they were decoded from.

    ``get(decode, text)`` is ``decode(text, memo)``, computed once per
    distinct pair and shared: an ``AnalyzerReport``, a ``kpi`` dict,
    ``RunMetrics``, a tuple of paths or events, a ``Trajectory``, an
    ``EmbeddingVector`` or a short scalar. An exception from ``decode``
    reaches the caller and keeps nothing. The least recently used value
    goes first beyond ``VALUE_MEMO_SIZE``, so the memo's memory is bounded
    whatever the size of the run tree.
    """

    def __init__(self):
        self._values: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._values)

    def get(self, decode, text: str):
        key = (decode, text if len(text) <= SHORT_TEXT
               else hashlib.sha256(text.encode("utf-8")).digest())
        value = self._values.get(key, _MISSING)
        if value is not _MISSING:
            self._values.move_to_end(key)
            return value
        value = self._values[key] = decode(text, self)
        if len(self._values) > VALUE_MEMO_SIZE:
            self._values.popitem(last=False)
        return value


def _cutter(keys) -> tuple[str, tuple[str, ...]]:
    """The text that opens an object whose first key is ``keys[0]``, and the
    text that opens each later key's value."""
    return '{"%s":' % keys[0], tuple(',"%s":' % key for key in keys[1:])


_RECORD_KEYS = sorted(field.name for field in fields(RunRecord))
_ROLES_IN_ORDER = sorted(AgentRole, key=lambda role: role.value)
# the payload keys: a slot that is no init argument (``json_parts``) is none
_TRAJECTORY_KEYS = sorted(field.name for field in fields(Trajectory) if field.init)
_RECORD = _cutter(_RECORD_KEYS)
_ROLES = _cutter([role.value for role in _ROLES_IN_ORDER])
_TRAJECTORY = _cutter(_TRAJECTORY_KEYS)


def _cut(text: str, start: int, end: int, cutter) -> list[tuple[int, int]] | None:
    """The ``(start, end)`` of each value of the object ``text[start:end]``
    under its keys in order, or None unless the object opens with the first
    key and each later key follows.

    The split is sound once each value text decodes as one JSON value.
    Inside a JSON string every ``"`` is escaped, so ``,"k":`` cannot lie
    within one string, and a span that starts just after a key's ``:`` and
    decodes whole ends where its value ends, at the object's own depth:
    the match after it is the object's next key. Any other first match (its
    comma inside a string, a key nested in the value, a later key of the
    object) cuts the value short or leaves more than it in the span, which
    then does not decode. So an object whose every value text decodes is
    exactly its keys, in this order, each with the value cut out for it.
    """
    head, separators = cutter
    if not text.startswith(head, start, end) or text[end - 1] != "}":
        return None
    spans, begin = [], start + len(head)
    for separator in separators:
        at = text.find(separator, begin, end)
        if at < 0:
            return None
        spans.append((begin, at))
        begin = at + len(separator)
    spans.append((begin, end - 1))
    return spans


# each record field's decode of its value text, as ValueMemo.get calls it
_FIELDS = {key: lambda text, _memo, decode=decode: decode(json.loads(text))
           for key, decode in PAYLOAD_FIELDS.items()}


def _decode_vector(text: str, _memo: ValueMemo) -> EmbeddingVector:
    """``EmbeddingVector.from_list(json.loads(text))``, refused unless
    ``text`` is a JSON array of one or more numbers with a finite norm
    (``embeddings.number_vector``)."""
    vector = number_vector(json.loads(text))
    if vector is None:
        raise ValidationError(f"{text:.40} is not a vector with a finite norm")
    return vector


def _decode_trajectory(text: str, memo: ValueMemo) -> Trajectory:
    """``Trajectory.from_dict(json.loads(text))`` of a canonical object, its
    vector fields' texts decoded through ``memo``."""
    spans = _cut(text, 0, len(text), _TRAJECTORY)
    if spans is None:
        raise ValidationError(f"{text:.40} is not a canonical trajectory")
    payload = {}
    for key, (start, end) in zip(_TRAJECTORY_KEYS, spans):
        value = text[start:end]
        payload[key] = (memo.get(_decode_vector, value) if key in VECTOR_FIELDS
                        and value != "null" else json.loads(value))
    return Trajectory.from_dict(payload)


def load_run(path: str | Path, memo: ValueMemo | None = None) -> RunRecord:
    """The record persisted at ``path``: equal to
    ``RunRecord.from_dict(json.loads(text))``, and refused where that is,
    with ``ValidationError`` for every payload ``from_dict`` refuses.

    A canonical file is cut at its keys (``_cut``): the record's, the roles'
    under ``trajectories`` and each trajectory's. Each value text goes
    through ``memo`` (a fresh one when none is given) to the checked value
    ``records.PAYLOAD_FIELDS`` makes of it, each trajectory object to a
    ``Trajectory`` and each vector array to an ``EmbeddingVector``, and
    ``RunRecord.from_fields`` makes the checks that span fields. Records
    loaded with one memo share one value per distinct text. Any cut, decode
    or check that fails sends the whole file the plain way.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        record = _decode_cut(text, ValueMemo() if memo is None else memo)
    except (ValidationError, ValueError, TypeError, KeyError, AttributeError,
            RecursionError):
        record = None
    return RunRecord.from_dict(json.loads(text)) if record is None else record


def _decode_cut(text: str, memo: ValueMemo) -> RunRecord | None:
    """The record of a canonical file's ``text``, or None where it does not cut."""
    spans = _cut(text, 0, len(text) - 1, _RECORD) if text.endswith("}\n") else None
    if spans is None:
        return None
    values = {}
    for key, (start, end) in zip(_RECORD_KEYS, spans):
        if key != "trajectories":
            values[key] = memo.get(_FIELDS[key], text[start:end])
            continue
        roles = _cut(text, start, end, _ROLES)
        if roles is None:
            return None
        values[key] = {role: memo.get(_decode_trajectory, text[begin:stop])
                       for role, (begin, stop) in zip(_ROLES_IN_ORDER, roles)}
    return RunRecord.from_fields(values)


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
