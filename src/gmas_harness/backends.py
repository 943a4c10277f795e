"""Uniform interface to text generation and embedding.

Two backends share one surface: a live OpenAI-compatible HTTP backend and
a fully deterministic scripted backend for offline runs. Scripted lookups
key on (role, prompt fingerprint, run index) with optional wildcards; a
seeded fallback generator answers anything the script does not cover, so
whole grid experiments can run hermetically. A scripted reply is a pure
function of (role, run index, full prompt), which the backend declares with
``PURE_REPLIES``, so the orchestrator may reuse a whole agent stage.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Protocol

from .embeddings import DEFAULT_DIM, DeterministicEmbedder, EmbeddingVector, number_vector
from .errors import (STR_OR_NULL, TEXT, ConfigurationError, DimensionMismatchError,
                     TransportError, list_rule, read_json_file, table_rule)
from .memo import Memo, hash_in_pieces

if TYPE_CHECKING:
    import socket
    import ssl

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GenerationRequest:
    system_prompt: str
    user_prompt: str
    temperature: float = 0.2
    max_tokens: int = 1024
    seed: int | None = None

    def __post_init__(self):
        if not self.system_prompt or not self.user_prompt:
            raise ValueError("prompts must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")

    @property
    def full_prompt(self) -> str:
        return self.system_prompt + "\n" + self.user_prompt


def prompt_fingerprint(role: str | None, full_prompt: str) -> str:
    """Stable hash of (role, full prompt text); scripts survive request reordering."""
    h = hashlib.sha256()
    h.update((role or "").encode("utf-8"))
    h.update(b"\x00")
    return hash_in_pieces(h, full_prompt.encode("utf-8")).hexdigest()[:16]


class Backend(Protocol):
    """Anything that can generate text and embed it.

    Both backends here embed each distinct text once per instance (one
    instance serves one experiment) and return the same vector object for
    every later request of that text. ``PURE_REPLIES`` is true when a reply
    is a function of (role, run index, request) alone; a backend that does
    not declare it is asked on every turn.
    """

    PURE_REPLIES: bool

    def generate(self, request: GenerationRequest, *, role: str | None = None,
                 run_index: int = 0) -> str: ...

    def generate_all(self, requests: list[GenerationRequest], *,
                     role: str | None = None, run_index: int = 0) -> list[str]:
        """One reply per request, in request order; the requests are independent."""
        ...

    def embed(self, text: str) -> EmbeddingVector: ...

    def close(self) -> None:
        """Release what the backend holds open; it may still be used afterwards."""
        ...

    @property
    def dim(self) -> int: ...


# ── scripted backend ─────────────────────────────────────────────────────────

@dataclass(frozen=True)
class ScriptEntry:
    """One canned response; None fields are wildcards, first full match wins."""

    response: str
    role: str | None = None
    run_index: int | None = None
    fingerprint: str | None = None
    prompt_contains: str | None = None

    def matches(self, role: str | None, run_index: int, fingerprint: str,
                full_prompt: str) -> bool:
        if self.role is not None and self.role != role:
            return False
        if self.run_index is not None and self.run_index != run_index:
            return False
        if self.fingerprint is not None and self.fingerprint != fingerprint:
            return False
        if self.prompt_contains is not None and self.prompt_contains not in full_prompt:
            return False
        return True


SCRIPT_ENTRY_TABLE = {"response": TEXT, "role": STR_OR_NULL,
                      "run_index": ("an integer or null", (int, type(None)), None),
                      "fingerprint": STR_OR_NULL, "prompt_contains": STR_OR_NULL}


def load_script(path: str | Path) -> list[ScriptEntry]:
    """Load script entries from a JSON array of ScriptEntry-shaped objects."""
    return read_json_file(path, "script", list_rule(table_rule(SCRIPT_ENTRY_TABLE)),
                          lambda raw: [ScriptEntry(**item) for item in raw])


class ScriptedBackend:
    """Deterministic test double: script replay plus a seeded fallback generator.

    Read-only after construction; safe to call from concurrent runs. A reply
    is a function of (role, run index, full prompt). With
    ``fallback_seed=None`` a script miss raises ConfigurationError, on every
    call.
    """

    PURE_REPLIES = True

    def __init__(self, script: list[ScriptEntry] | None = None,
                 fallback_seed: int | None = 42, dim: int = DEFAULT_DIM):
        self.script = list(script or [])
        self.fallback_seed = fallback_seed
        self._embedder = DeterministicEmbedder(dim)
        self._embeddings = Memo()

    @property
    def dim(self) -> int:
        return self._embedder.dim

    def generate(self, request: GenerationRequest, *, role: str | None = None,
                 run_index: int = 0) -> str:
        full = request.full_prompt
        fp = prompt_fingerprint(role, full)
        for entry in self.script:
            if entry.matches(role, run_index, fp, full):
                return entry.response
        if self.fallback_seed is None:
            raise ConfigurationError(
                f"script miss for role={role} run={run_index} fp={fp} and no fallback")
        return _fallback_response(self.fallback_seed, role, fp, run_index, full)

    def generate_all(self, requests: list[GenerationRequest], *,
                     role: str | None = None, run_index: int = 0) -> list[str]:
        return [self.generate(request, role=role, run_index=run_index)
                for request in requests]

    def embed(self, text: str) -> EmbeddingVector:
        return self._embeddings.get(text, lambda: self._embedder.embed(text))

    def close(self) -> None:
        pass


# ── fallback generator ───────────────────────────────────────────────────────
#
# The orchestrator's prompt templates carry stable task markers; the fallback
# switches on them so pipeline stages always receive parseable output. All
# variation is seeded by (fallback_seed, role, fingerprint, run_index).

PROPOSE_MARKER = "Propose exactly"
SELF_EVAL_MARKER = "Return only a number between 0 and 1"
PLAN_MARKER = "allocation DSL"
CODE_MARKER = "restricted imperative grammar"
QUESTIONS_MARKER = "one question per line"

_SLICE_RE = re.compile(r"slice (\w+) in cell (\w+): demand ([0-9.]+)")
_CELL_RE = re.compile(r"cell (\w+): capacity (\d+) prb")
_K_RE = re.compile(r"Propose exactly (\d+)")
_COUNT_RE = re.compile(r"Produce (\d+) ")
_PLAN_LINE_RE = re.compile(
    r"^(allocate \d+ prb to \w+|admit \w+|reject \w+|set_priority \w+ \d)$")


def _fallback_rng(seed: int, role: str | None, fp: str, run_index: int) -> random.Random:
    h = hashlib.blake2b(digest_size=8)
    h.update(f"{seed}|{role}|{fp}|{run_index}".encode("utf-8"))
    return random.Random(int.from_bytes(h.digest(), "big"))


def _fallback_response(seed: int, role: str | None, fp: str, run_index: int,
                       full_prompt: str) -> str:
    rng = _fallback_rng(seed, role, fp, run_index)
    if PROPOSE_MARKER in full_prompt:
        return _fallback_paths(rng, full_prompt)
    if SELF_EVAL_MARKER in full_prompt:
        return f"{0.35 + 0.6 * rng.random():.2f}"
    if PLAN_MARKER in full_prompt:
        return _fallback_plan(rng, full_prompt, run_index)
    if CODE_MARKER in full_prompt:
        return _fallback_code(rng, full_prompt, run_index)
    if QUESTIONS_MARKER in full_prompt:
        return _fallback_questions(rng, full_prompt)
    return f"[{role or 'agent'}] deterministic synthetic response {fp[:8]}."


_STEP_BANK = [
    "survey per cell load and slice demand from current telemetry",
    "rank slices by unmet demand and priority class",
    "allocate prb budget across the listed slices",
    "admit slices whose demand fits remaining capacity",
    "validate throughput and latency against kpi thresholds",
    "roll back any allocation that breaches cell capacity",
    "rebalance residual prb toward the most starved slice",
    "log the final allocation for the analyzer review",
]


def _fallback_paths(rng: random.Random, full_prompt: str) -> str:
    m = _K_RE.search(full_prompt)
    k = int(m.group(1)) if m else 3
    lines = []
    for i in range(1, k + 1):
        steps = rng.sample(_STEP_BANK, k=rng.randint(2, 4))
        lines.append(f"PATH {i}:")
        lines.extend(f"- {s}" for s in steps)
        lines.append(f"RATIONALE: ordering {i} trades exploration against kpi safety")
    return "\n".join(lines)


def _prompt_network(full_prompt: str):
    cells = {name: int(cap) for name, cap in _CELL_RE.findall(full_prompt)}
    slices = [(s, c, float(d)) for s, c, d in _SLICE_RE.findall(full_prompt)]
    return cells, slices


def _selected_steps(full_prompt: str) -> list[str]:
    steps: list[str] = []
    in_block = False
    for line in full_prompt.splitlines():
        if line.strip() == "Selected path:":
            in_block = True
            continue
        if in_block:
            if line.startswith("- "):
                steps.append(line[2:])
            else:
                break
    return steps


def _fallback_plan(rng: random.Random, full_prompt: str, run_index: int) -> str:
    cells, slices = _prompt_network(full_prompt)
    lines = [f"# implements: {step}" for step in _selected_steps(full_prompt)[:3]]
    if not slices:
        lines.append(f"allocate {rng.randint(2, 6)} prb to s1")
        lines.append("admit s1")
        return "\n".join(lines)
    remaining = dict(cells)
    for slice_id, cell_id, demand in slices:
        want = int(math.ceil(demand)) + rng.randint(1, 2)
        avail = remaining.get(cell_id, want)
        grant = max(1, min(want, avail))
        lines.append(f"allocate {grant} prb to {slice_id}")
        remaining[cell_id] = avail - grant
    for slice_id, _, _ in slices:
        lines.append(f"admit {slice_id}")
    if rng.random() < 0.5:
        chosen = rng.choice(slices)[0]
        lines.append(f"set_priority {chosen} {rng.randint(1, 5)}")
    return "\n".join(lines)


def _prompt_plan_lines(full_prompt: str) -> list[str]:
    return [ln.strip() for ln in full_prompt.splitlines()
            if _PLAN_LINE_RE.match(ln.strip())]


def _fallback_code(rng: random.Random, full_prompt: str, run_index: int) -> str:
    plan_lines = _prompt_plan_lines(full_prompt)
    minimalist = "fewest statements" in full_prompt
    lines = ["import ric"]
    if not minimalist:
        lines.insert(0, f"# implements plan: {'; '.join(plan_lines[:4])}")
    idx = 0
    for stmt in plan_lines:
        parts = stmt.split()
        if parts[0] == "allocate":
            idx += 1
            if minimalist:
                lines.append(f'ric.allocate_prb("{parts[4]}", {parts[1]})')
            else:
                lines.append(f'grant_{idx} = ric.allocate_prb("{parts[4]}", {parts[1]})')
                lines.append(f"ric.record_kpi(grant_{idx})")
        elif parts[0] in ("admit", "reject"):
            lines.append(f'ric.{parts[0]}("{parts[1]}")')
        elif parts[0] == "set_priority":
            lines.append(f'ric.set_priority("{parts[1]}", {parts[2]})')
    if not plan_lines:
        lines.append('ric.allocate_prb("s1", 2)')
    # planted warning-level blemishes, rarer in later runs, so offline grids
    # produce non-degenerate penalty distributions
    plant_p = max(0.05, 0.45 - 0.1 * max(run_index - 1, 0))
    if rng.random() < plant_p:
        lines.append('scratch_note = "draft"')
    if rng.random() < plant_p / 2:
        lines.append("# " + "review trail " * 12)
    return "\n".join(lines)


_QUESTION_BANK = [
    "How should {n} prb be divided between embb and urllc slices in a congested cell?",
    "Which handover threshold keeps drop rate under {n} percent during peak load?",
    "How can cell sleep cycles save energy while {n} slices stay within latency budgets?",
    "What reallocation policy recovers throughput when slice demand doubles across {n} cells?",
    "How should admission control react when {n} new slices request guaranteed bitrate?",
]


def _fallback_questions(rng: random.Random, full_prompt: str) -> str:
    m = _COUNT_RE.search(full_prompt)
    count = int(m.group(1)) if m else 5
    out = []
    for i in range(count):
        template = _QUESTION_BANK[i % len(_QUESTION_BANK)]
        out.append(template.format(n=rng.randint(2, 24)))
    return "\n".join(out)


# ── live backend ─────────────────────────────────────────────────────────────

class TokenBucket:
    """Single shared token bucket; acquire() blocks until a token is available."""

    def __init__(self, rate_per_s: float, capacity: int | None = None):
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_per_s
        self.capacity = capacity if capacity is not None else max(1, int(rate_per_s))
        self._tokens = float(self.capacity)
        self._last = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            time.sleep(wait)


_CHAT_PATH = "/v1/chat/completions"
_EMBEDDINGS_PATH = "/v1/embeddings"
# a space, a control or a non-ASCII character, none of which a request
# line can carry as it is
_UNSENDABLE = re.compile(r"[^\x21-\x7e]")
_MAX_LINE = 65536    # bytes in one status, header, chunk-size or trailer line
_MAX_FIELDS = 100    # header lines of one reply, or trailer lines of one body
_HEX = re.compile(rb"[0-9A-Fa-f]{1,16}")


class _Connection:
    """One HTTP/1.1 keep-alive connection: a socket and its read buffer.

    ``send`` writes a whole request in one ``sendall``, opening the socket
    first when it is closed; ``receive`` reads one reply and returns
    (status, body). 1xx interim replies are skipped, and a body is framed
    by ``Transfer-Encoding: chunked``, else ``Content-Length``, else the
    end of the stream. The socket is closed after any failed or half-read
    exchange and after a reply that does not keep the connection open.
    Bad framing raises ValueError; a peer that closes mid-reply raises
    ConnectionError.
    """

    def __init__(self, address: tuple[str, int], tls: ssl.SSLContext | None,
                 timeout_s: float):
        self.address = address
        self.tls = tls
        self.timeout_s = timeout_s
        self.sock: socket.socket | None = None
        self._buf = bytearray()
        self._pos = 0  # the first unread byte of _buf

    def close(self) -> None:
        sock, self.sock = self.sock, None
        self._buf.clear()
        self._pos = 0
        if sock is not None:
            sock.close()

    def send(self, request: bytes) -> None:
        try:
            if self.sock is None:
                self._open()
            self.sock.sendall(request)
        except BaseException:
            self.close()  # a half-sent request leaves the connection unusable
            raise

    def _open(self) -> None:
        import socket
        sock = socket.create_connection(self.address, self.timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.tls is not None:
                sock = self.tls.wrap_socket(sock, server_hostname=self.address[0])
        except BaseException:
            sock.close()
            raise
        self.sock = sock

    def receive(self) -> tuple[int, bytes]:
        try:
            status, body, keep_open = self._reply()
        except BaseException:
            self.close()  # a half-read reply leaves the connection unusable
            raise
        if keep_open and self._pos == len(self._buf):
            self._buf.clear()
            self._pos = 0
        else:  # the server closes it, or sent more than the reply
            self.close()
        return status, body

    def _reply(self) -> tuple[int, bytes, bool]:
        """(status, body, whether the connection stays open) of one reply."""
        while True:
            version, status = self._status_line()
            fields = self._fields()
            if status >= 200:
                break
        connection = fields.get(b"connection", b"").lower()
        if version == b"HTTP/1.1":
            keep_open = b"close" not in connection
        else:
            keep_open = b"keep-alive" in connection
        encoding = fields.get(b"transfer-encoding")
        length = fields.get(b"content-length")
        if status in (204, 304):
            return status, b"", keep_open
        if encoding is not None:
            if encoding.rsplit(b",", 1)[-1].strip().lower() == b"chunked":
                return status, self._chunked(), keep_open
        elif length is not None:
            if not length.isdigit():
                raise ValueError(f"malformed Content-Length {length[:40]!r}")
            return status, self._exactly(int(length)), keep_open
        return status, self._to_eof(), False

    def _status_line(self) -> tuple[bytes, int]:
        line = self._line()
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if (not version.startswith(b"HTTP/1.") or not code.isdigit() or code < b"100"
                or rest[3:4] not in (b"", b" ")):
            raise ValueError(f"malformed status line {line[:40]!r}")
        return version, int(code)

    def _fill(self, at_least: int = 1) -> None:
        """Append more bytes to the buffer; the peer closing is an error.
        ``recv`` allocates what it is asked for, so a claimed length is
        read in pieces of at most 1 MiB. The read bytes are dropped only
        once they are over half the buffer, so a reply arriving in many
        small pieces costs time linear in its size."""
        data = self.sock.recv(max(65536, min(at_least, 1 << 20)))
        if not data:
            raise ConnectionError("server closed the connection mid-reply")
        if self._pos > len(self._buf) >> 1:
            del self._buf[:self._pos]
            self._pos = 0
        self._buf += data

    def _line(self) -> bytes:
        """The next line of the buffer, without its CRLF or LF."""
        scanned = 0  # unread bytes already searched for the newline
        while (end := self._buf.find(b"\n", self._pos + scanned)) < 0:
            scanned = len(self._buf) - self._pos
            if scanned > _MAX_LINE:
                break
            self._fill()
        if end < 0 or end - self._pos > _MAX_LINE:
            raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
        line = bytes(self._buf[self._pos:end])
        self._pos = end + 1
        return line[:-1] if line.endswith(b"\r") else line

    def _fields(self) -> dict[bytes, bytes]:
        """Header or trailer lines up to the blank line, by lowercase name;
        repeated names join their values with commas."""
        fields: dict[bytes, bytes] = {}
        for _ in range(_MAX_FIELDS + 1):
            line = self._line()
            if not line:
                return fields
            name, colon, value = line.partition(b":")
            if not colon:
                raise ValueError(f"malformed header line {line[:40]!r}")
            name, value = name.strip().lower(), value.strip()
            fields[name] = fields[name] + b", " + value if name in fields else value
        raise ValueError(f"more than {_MAX_FIELDS} header lines")

    def _exactly(self, n: int) -> bytes:
        while len(self._buf) - self._pos < n:
            self._fill(n - (len(self._buf) - self._pos))
        body = bytes(self._buf[self._pos:self._pos + n])
        self._pos += n
        return body

    def _chunked(self) -> bytes:
        parts = []
        while True:
            size = self._line().split(b";", 1)[0].strip()
            if not _HEX.fullmatch(size):
                raise ValueError(f"malformed chunk size {size[:40]!r}")
            n = int(size, 16)
            if not n:
                break
            parts.append(self._exactly(n))
            if self._line():
                raise ValueError("chunk data longer than its size")
        self._fields()  # the trailer, which nothing reads
        return b"".join(parts)

    def _to_eof(self) -> bytes:
        parts = [bytes(self._buf[self._pos:])]
        while data := self.sock.recv(65536):
            parts.append(data)
        self._buf.clear()
        self._pos = 0
        return b"".join(parts)


def _peer_closed(conn: _Connection) -> bool:
    """True when an idle kept-alive connection is readable.

    Between requests the server has nothing to say, so a readable socket
    means it closed the connection (or broke the protocol), and the next
    request on it would fail. A TLS socket may also hold decrypted bytes
    that the socket itself no longer shows.
    """
    import select
    poller = select.poll()  # unlike select.select, no limit on the descriptor
    poller.register(conn.sock, select.POLLIN)
    return bool(poller.poll(0)) or (conn.tls is not None and conn.sock.pending() > 0)


class LiveBackend:
    """OpenAI-compatible wire protocol: /v1/chat/completions and /v1/embeddings.

    Each worker thread keeps its own HTTP/1.1 connections to ``api_base``
    alive across requests, one per request it has in flight at once, and
    reopens one when the server has closed it meanwhile. Each request goes
    out in one write; proxies and redirects are not supported.
    ``generate_all`` sends all its requests before it reads the first reply.
    Transient failures (connection errors, 429, 5xx, malformed bodies) are
    retried with exponential backoff, only for the requests that failed;
    other 4xx fail fast as configuration problems. A wrong embedding
    dimension is a hard error because every downstream metric would be
    meaningless. Embeddings are requested once per distinct text, which
    assumes the endpoint returns the same vector for the same input;
    failures are never cached. ``close`` closes every connection opened.
    A live model's replies are samples, so every run asks again.
    """

    PURE_REPLIES = False

    def __init__(self, api_base: str, api_key: str = "", *,
                 chat_model: str = "gpt-3.5-turbo",
                 embedding_model: str = "all-MiniLM-L6-v2",
                 dim: int = DEFAULT_DIM, retries: int = 3,
                 backoff_s: float = 0.5, rate_limit_per_s: float = 10.0,
                 timeout_s: float = 60.0):
        if not api_base:
            raise ConfigurationError("live backend needs an api_base (GMAS_API_BASE)")
        if retries < 1:
            raise ConfigurationError(f"retries {retries} must be at least 1")
        self.api_base = api_base.rstrip("/")
        url = urllib.parse.urlsplit(self.api_base)
        try:
            port = url.port
        except ValueError as exc:
            raise ConfigurationError(f"api_base {api_base!r}: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigurationError(f"api_base {api_base!r} is not an http(s) URL")
        if _UNSENDABLE.search(url.path):
            raise ConfigurationError(f"api_base {api_base!r}: the path holds a space, "
                                     "a control or a non-ASCII character")
        try:
            host = url.hostname.encode("idna").decode("ascii")
        except UnicodeError as exc:
            raise ConfigurationError(f"api_base {api_base!r}: {exc}") from None
        if not (api_key.isascii() and api_key.isprintable()):
            raise ConfigurationError("api_key holds a control or a non-ASCII character")
        default_port = 443 if url.scheme == "https" else 80
        self._address = (url.hostname, port or default_port)
        self._tls = None
        if url.scheme == "https":
            import ssl
            self._tls = ssl.create_default_context()
        if ":" in host:
            host = f"[{host}]"
        if port not in (None, default_port):
            host += f":{port}"
        auth = f"Authorization: Bearer {api_key}\r\n" if api_key else ""
        # each request's bytes up to the Content-Length value
        self._heads = {path: (f"POST {url.path}{path} HTTP/1.1\r\nHost: {host}\r\n"
                              f"Content-Type: application/json\r\n{auth}"
                              "Content-Length: ").encode("ascii")
                       for path in (_CHAT_PATH, _EMBEDDINGS_PATH)}
        self.api_key = api_key
        self.chat_model = chat_model
        self.embedding_model = embedding_model
        self._dim = dim
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self._bucket = TokenBucket(rate_limit_per_s)
        self._local = threading.local()
        self._opened: list[_Connection] = []
        self._opened_lock = threading.Lock()
        self._embeddings = Memo()

    @property
    def dim(self) -> int:
        return self._dim

    def close(self) -> None:
        """Close every connection this backend opened, on any thread."""
        with self._opened_lock:
            for conn in self._opened:
                conn.close()

    def _connections(self, n: int) -> list[_Connection]:
        """The first ``n`` of this thread's connections, adding new ones as needed."""
        conns = getattr(self._local, "conns", None)
        if conns is None:
            conns = self._local.conns = []
        while len(conns) < n:
            conn = _Connection(self._address, self._tls, self.timeout_s)
            with self._opened_lock:
                self._opened.append(conn)
            conns.append(conn)
        return conns[:n]

    def _send(self, conn: _Connection, path: str, payload: bytes) -> None:
        """POST ``payload`` on ``conn``, reconnecting if the server closed it."""
        if conn.sock is not None and _peer_closed(conn):
            conn.close()  # the request below connects again
        conn.send(self._heads[path] + b"%d\r\n\r\n" % len(payload) + payload)

    def _receive(self, conn: _Connection, url: str, attempt: int) -> dict:
        """The decoded reply to the request sent on ``conn``.

        Raises TransportError for a status worth retrying and
        ConfigurationError for any other that is not 200.
        """
        status, data = conn.receive()
        if status == 200:
            return json.loads(data)
        if status == 429 or status >= 500:
            raise TransportError(f"{url} returned {status}", attempts=attempt)
        text = data.decode("utf-8", errors="replace")
        raise ConfigurationError(f"{url} returned {status}: {text[:200]}")

    def _post_all(self, path: str, bodies: list[dict]) -> list[tuple[dict, int]]:
        """POST each body to ``path``; in body order, each decoded reply with
        the number of times its body was sent.

        Each round first sends every pending body on its own connection of
        this thread, then reads the replies in order. Only the bodies that
        failed go into the next round, one backoff later. A 4xx reply
        raises ConfigurationError once the round's other replies are read.
        """
        url = self.api_base + path
        payloads = [json.dumps(body, allow_nan=False).encode("utf-8") for body in bodies]
        replies: list = [None] * len(payloads)
        pending = list(range(len(payloads)))
        last_error: Exception | None = None
        for attempt in range(1, self.retries + 1):
            sent, failed = [], []
            for conn, i in zip(self._connections(len(pending)), pending):
                self._bucket.acquire()
                try:
                    self._send(conn, path, payloads[i])
                except OSError as exc:
                    last_error = exc
                    failed.append(i)
                else:
                    sent.append((conn, i))
            rejected: ConfigurationError | None = None
            for n, (conn, i) in enumerate(sent):
                try:
                    replies[i] = self._receive(conn, url, attempt), attempt
                except (OSError, ValueError, TransportError) as exc:
                    last_error = exc
                    failed.append(i)
                except ConfigurationError as exc:
                    rejected = rejected or exc
                except BaseException:
                    for unread, _ in sent[n + 1:]:
                        unread.close()
                    raise
            if rejected is not None:
                raise rejected
            pending = sorted(failed)
            if not pending:
                return replies
            if attempt < self.retries:
                delay = self.backoff_s * (2 ** (attempt - 1))
                logger.warning("%d of %d backend calls failed (attempt %d/%d), "
                               "retrying in %.2fs: %s", len(pending), len(payloads),
                               attempt, self.retries, delay, last_error)
                time.sleep(delay)
        raise TransportError(f"{url} failed after {self.retries} attempts: {last_error}",
                             attempts=self.retries)

    def _post(self, path: str, body: dict) -> tuple[dict, int]:
        return self._post_all(path, [body])[0]

    def _chat_body(self, request: GenerationRequest) -> dict:
        body = {
            "model": self.chat_model,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            body["seed"] = request.seed
        return body

    @staticmethod
    def _completion(data: dict, attempts: int) -> str:
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat completion payload: {exc}",
                                 attempts=attempts)
        if not content:
            raise TransportError("empty completion content", attempts=attempts)
        return content

    def generate(self, request: GenerationRequest, *, role: str | None = None,
                 run_index: int = 0) -> str:
        return self.generate_all([request], role=role, run_index=run_index)[0]

    def generate_all(self, requests: list[GenerationRequest], *,
                     role: str | None = None, run_index: int = 0) -> list[str]:
        replies = self._post_all(_CHAT_PATH, [self._chat_body(request)
                                              for request in requests])
        return [self._completion(data, attempts) for data, attempts in replies]

    def embed(self, text: str) -> EmbeddingVector:
        return self._embeddings.get(text, lambda: self._request_embedding(text))

    def _request_embedding(self, text: str) -> EmbeddingVector:
        data, attempts = self._post(_EMBEDDINGS_PATH,
                                    {"model": self.embedding_model, "input": text})
        try:
            values = data["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed embeddings payload: {exc}", attempts=attempts)
        vector = number_vector(values)
        if vector is None:
            raise TransportError(f"malformed embeddings payload: {values!r:.60} is not a "
                                 "non-empty list of numbers with a finite norm",
                                 attempts=attempts)
        if vector.dim != self._dim:
            raise DimensionMismatchError(
                f"endpoint returned dim {vector.dim}, experiment uses {self._dim}")
        return vector
