"""Uniform interface to text generation and embedding.

Two backends share one surface: a live OpenAI-compatible HTTP backend and
a fully deterministic scripted backend for offline runs. Scripted lookups
key on (role, prompt fingerprint, run index) with optional wildcards; a
seeded fallback generator answers anything the script does not cover, so
whole grid experiments can run hermetically. A scripted reply is a pure
function of (role, run index, full prompt), so the scripted backend works
out each distinct request's reply once.
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
from .errors import ConfigurationError, DimensionMismatchError, TransportError
from .memo import Memo, text_key

if TYPE_CHECKING:
    import http.client
    import socket

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
    h.update(full_prompt.encode("utf-8"))
    return h.hexdigest()[:16]


class Backend(Protocol):
    """Anything that can generate text and embed it.

    Both backends here embed each distinct text once per instance (one
    instance serves one experiment) and return the same vector object for
    every later request of that text.
    """

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


def load_script(path: str | Path) -> list[ScriptEntry]:
    """Load script entries from a JSON array of ScriptEntry-shaped objects."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = []
    for item in raw:
        if not item.get("response"):
            raise ConfigurationError(f"script entry without response in {path}")
        entries.append(ScriptEntry(
            response=item["response"],
            role=item.get("role"),
            run_index=item.get("run_index"),
            fingerprint=item.get("fingerprint"),
            prompt_contains=item.get("prompt_contains"),
        ))
    return entries


class ScriptedBackend:
    """Deterministic test double: script replay plus a seeded fallback generator.

    Read-only after construction; safe to call from concurrent runs. Every
    request enters ``generate``, which works out the reply to each distinct
    (role, run index, full prompt) once for the life of the backend. With
    ``fallback_seed=None`` a script miss raises ConfigurationError, on every
    call, since failures are never cached.
    """

    def __init__(self, script: list[ScriptEntry] | None = None,
                 fallback_seed: int | None = 42, dim: int = DEFAULT_DIM):
        self.script = list(script or [])
        self.fallback_seed = fallback_seed
        self._embedder = DeterministicEmbedder(dim)
        self._embeddings = Memo()
        self._replies = Memo()

    @property
    def dim(self) -> int:
        return self._embedder.dim

    def generate(self, request: GenerationRequest, *, role: str | None = None,
                 run_index: int = 0) -> str:
        full = request.full_prompt
        # repr tells the role None from the role "None"
        return self._replies.get(text_key(repr(role), str(run_index), full),
                                 lambda: self._reply(role, run_index, full))

    def _reply(self, role: str | None, run_index: int, full: str) -> str:
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


def _peer_closed(sock: socket.socket) -> bool:
    """True when an idle kept-alive socket is readable.

    Between requests the server has nothing to say, so a readable socket
    means it closed the connection (or broke the protocol), and the next
    request on it would fail.
    """
    import selectors
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


class LiveBackend:
    """OpenAI-compatible wire protocol: /v1/chat/completions and /v1/embeddings.

    Each worker thread keeps its own ``http.client`` connections to
    ``api_base`` alive across requests, one per request it has in flight at
    once, and reopens one when the server has closed it meanwhile.
    ``generate_all`` sends all its requests before it reads the first reply.
    Transient failures (connection errors, 429, 5xx, malformed bodies) are
    retried with exponential backoff, only for the requests that failed;
    other 4xx fail fast as configuration problems. A wrong embedding
    dimension is a hard error because every downstream metric would be
    meaningless. Embeddings are requested once per distinct text, which
    assumes the endpoint returns the same vector for the same input;
    failures are never cached. ``close`` closes every connection opened.
    """

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
        self._address = (url.hostname, port)
        self._tls = None
        if url.scheme == "https":
            import ssl
            self._tls = ssl.create_default_context()
        self._path_prefix = url.path
        self.api_key = api_key
        self.chat_model = chat_model
        self.embedding_model = embedding_model
        self._dim = dim
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self._bucket = TokenBucket(rate_limit_per_s)
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []
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

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _connections(self, n: int) -> list[http.client.HTTPConnection]:
        """The first ``n`` of this thread's connections, adding new ones as needed."""
        conns = getattr(self._local, "conns", None)
        if conns is None:
            conns = self._local.conns = []
        while len(conns) < n:
            import http.client
            host, port = self._address
            if self._tls is None:
                conn = http.client.HTTPConnection(host, port, timeout=self.timeout_s)
            else:
                conn = http.client.HTTPSConnection(host, port, timeout=self.timeout_s,
                                                   context=self._tls)
            with self._opened_lock:
                self._opened.append(conn)
            conns.append(conn)
        return conns[:n]

    def _send(self, conn: http.client.HTTPConnection, path: str, payload: bytes) -> None:
        """POST ``payload`` on ``conn``, reconnecting if the server closed it."""
        if conn.sock is not None and _peer_closed(conn.sock):
            conn.close()  # the request below connects again
        try:
            conn.request("POST", self._path_prefix + path, payload, self._headers())
        except BaseException:
            conn.close()  # a half-sent request leaves the connection unusable
            raise

    def _receive(self, conn: http.client.HTTPConnection, url: str, attempt: int) -> dict:
        """The decoded reply to the request sent on ``conn``.

        Raises TransportError for a status worth retrying and
        ConfigurationError for any other that is not 200.
        """
        try:
            resp = conn.getresponse()
            status, data = resp.status, resp.read()
        except BaseException:
            conn.close()  # a half-read reply leaves the connection unusable
            raise
        if status == 200:
            return json.loads(data)
        if status == 429 or status >= 500:
            raise TransportError(f"{url} returned {status}", attempts=attempt)
        text = data.decode("utf-8", errors="replace")
        raise ConfigurationError(f"{url} returned {status}: {text[:200]}")

    def _post_all(self, path: str, bodies: list[dict]) -> list[dict]:
        """POST each body to ``path``; the decoded replies, in body order.

        Each round first sends every pending body on its own connection of
        this thread, then reads the replies in order. Only the bodies that
        failed go into the next round, one backoff later. A 4xx reply
        raises ConfigurationError once the round's other replies are read.
        """
        import http.client
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
                except (OSError, http.client.HTTPException) as exc:
                    last_error = exc
                    failed.append(i)
                else:
                    sent.append((conn, i))
            rejected: ConfigurationError | None = None
            for n, (conn, i) in enumerate(sent):
                try:
                    replies[i] = self._receive(conn, url, attempt)
                except (OSError, http.client.HTTPException, ValueError,
                        TransportError) as exc:
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

    def _post(self, path: str, body: dict) -> dict:
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

    def _completion(self, data: dict) -> str:
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat completion payload: {exc}",
                                 attempts=self.retries)
        if not content:
            raise TransportError("empty completion content", attempts=self.retries)
        return content

    def generate(self, request: GenerationRequest, *, role: str | None = None,
                 run_index: int = 0) -> str:
        return self.generate_all([request], role=role, run_index=run_index)[0]

    def generate_all(self, requests: list[GenerationRequest], *,
                     role: str | None = None, run_index: int = 0) -> list[str]:
        replies = self._post_all("/v1/chat/completions",
                                 [self._chat_body(request) for request in requests])
        return [self._completion(data) for data in replies]

    def embed(self, text: str) -> EmbeddingVector:
        return self._embeddings.get(text, lambda: self._request_embedding(text))

    def _request_embedding(self, text: str) -> EmbeddingVector:
        data = self._post("/v1/embeddings", {"model": self.embedding_model, "input": text})
        try:
            values = data["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed embeddings payload: {exc}",
                                 attempts=self.retries)
        vector = number_vector(values)
        if vector is None:
            raise TransportError(f"malformed embeddings payload: {values!r:.60} is not a "
                                 "non-empty list of numbers with a finite norm",
                                 attempts=self.retries)
        if vector.dim != self._dim:
            raise DimensionMismatchError(
                f"endpoint returned dim {vector.dim}, experiment uses {self._dim}")
        return vector
