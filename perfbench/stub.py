"""OpenAI-compatible stub endpoint for the ``live-stub`` workload.

Serves ``POST /v1/chat/completions`` and ``POST /v1/embeddings`` over
HTTP/1.1 keep-alive with a fixed service delay per request, so the client
waits on something that behaves like a remote model and not on this
process's own CPU. ``GET /stats`` returns the request counters and
``POST /reset`` clears them together with the failure and embedding state.

It deliberately does not import ``gmas_harness``: a change to the code under
test must not change what the server costs. Chat answers are canned texts
chosen by the task markers of the harness's prompt templates; embeddings are
signed feature-hashing vectors over the tokens, normalised to unit length.

The first arrival of a seeded ~1% of distinct request bodies is answered with
503, under a lock, so the number of retries is the same for any scheduling of
concurrent clients.

    python3 perfbench/stub.py --seed 42 --dim 384

prints ``port <n>`` on its first line once it listens on 127.0.0.1, and
serves until it receives SIGTERM or SIGINT.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

FAIL_PER_MILLE = 10
CHAT_DELAY_S = 0.002
EMBED_DELAY_S = 0.0005

PROPOSE_RE = re.compile(r"Propose exactly (\d+)")
SELF_EVAL_MARKER = "Return only a number between 0 and 1"
PLAN_MARKER = "allocation DSL"
CODE_MARKER = "restricted imperative grammar"
CELL_RE = re.compile(r"^cell (\w+): capacity (\d+) prb$", re.M)
SLICE_RE = re.compile(r"^slice (\w+) in cell (\w+): demand ([0-9.]+) mbps$", re.M)
ALLOC_RE = re.compile(r"^allocate (\d+) prb to (\w+)$", re.M)
ADMIT_RE = re.compile(r"^admit (\w+)$", re.M)
TOKEN_RE = re.compile(r"[a-z0-9_]+")

STEPS = (
    "measure per cell load and slice demand",
    "rank slices by unmet demand",
    "grant prb to each slice in demand order",
    "admit every slice that fits its cell",
    "check throughput and latency against targets",
    "hold back prb that would exceed cell capacity",
)


def _digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _paths(k: int, h: int) -> str:
    lines = []
    for i in range(1, k + 1):
        start = (h >> (4 * i)) % len(STEPS)
        count = 2 + (h >> (4 * i + 2)) % 3
        lines.append(f"PATH {i}:")
        lines.extend(f"- {STEPS[(start + j) % len(STEPS)]}" for j in range(count))
        lines.append(f"RATIONALE: path {i} orders the steps by risk")
    return "\n".join(lines)


def _selected_steps(prompt: str) -> list[str]:
    _, found, rest = prompt.partition("Selected path:\n")
    steps = []
    for line in rest.splitlines() if found else ():
        if not line.startswith("- "):
            break
        steps.append(line[2:])
    return steps


def _plan(prompt: str) -> str:
    remaining = {cell: int(cap) for cell, cap in CELL_RE.findall(prompt)}
    lines = [f"# implements: {step}" for step in _selected_steps(prompt)]
    slices = SLICE_RE.findall(prompt)
    for slice_id, cell_id, demand in slices:
        grant = max(1, min(math.ceil(float(demand)) + 1, remaining.get(cell_id, 1)))
        remaining[cell_id] = remaining.get(cell_id, grant) - grant
        lines.append(f"allocate {grant} prb to {slice_id}")
    lines.extend(f"admit {slice_id}" for slice_id, _, _ in slices)
    return "\n".join(lines)


def _code(prompt: str) -> str:
    lines = ["import ric"]
    lines += [f'ric.allocate_prb("{s}", {n})' for n, s in ALLOC_RE.findall(prompt)]
    lines += [f'ric.admit("{s}")' for s in ADMIT_RE.findall(prompt)]
    return "\n".join(lines)


def completion(messages: list[dict]) -> str:
    prompt = "\n".join(m.get("content", "") for m in messages)
    h = _digest(prompt)
    k = PROPOSE_RE.search(prompt)
    if k:
        return _paths(int(k.group(1)), h)
    if SELF_EVAL_MARKER in prompt:
        return f"{0.35 + 0.6 * (h % 1000) / 1000:.2f}"
    if PLAN_MARKER in prompt:
        return _plan(prompt)
    if CODE_MARKER in prompt:
        return _code(prompt)
    return f"acknowledged {h % 100000}"


class Embedder:
    """Signed feature hashing over lowercase tokens, with a token cache."""

    def __init__(self, dim: int):
        self.dim = dim
        self._tokens: dict[str, tuple[int, float]] = {}

    def __call__(self, text: str) -> list[float]:
        vec = [0.0] * self.dim
        for token in TOKEN_RE.findall(text.lower()):
            hit = self._tokens.get(token)
            if hit is None:
                h = _digest("tok:" + token)
                hit = self._tokens[token] = (h % self.dim, 1.0 if h >> 63 else -1.0)
            vec[hit[0]] += hit[1]
        norm = math.sqrt(sum(v * v for v in vec))
        return [v / norm for v in vec] if norm else vec


class StubState:
    def __init__(self, seed: int, dim: int, chat_delay_s: float, embed_delay_s: float):
        self.seed = seed
        self.embedder = Embedder(dim)
        self.delays = {"/v1/chat/completions": chat_delay_s,
                       "/v1/embeddings": embed_delay_s}
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.errors_5xx = 0
            self.by_path: dict[str, int] = {}
            self.seen: set[bytes] = set()
            self.embeddings: dict[str, bytes] = {}

    def admit(self, path: str, body: bytes) -> bool:
        """Count the request; False when it is a seeded first-arrival failure."""
        key = hashlib.sha256(body).digest()
        with self.lock:
            self.requests += 1
            self.by_path[path] = self.by_path.get(path, 0) + 1
            if key in self.seen:
                return True
            self.seen.add(key)
            if _digest(f"{self.seed}:{key.hex()}") % 1000 < FAIL_PER_MILLE:
                self.errors_5xx += 1
                return False
            return True

    def stats(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "5xx": self.errors_5xx,
                    "by_path": dict(self.by_path)}

    def embedding(self, text: str) -> bytes:
        with self.lock:
            cached = self.embeddings.get(text)
        if cached is None:
            cached = json.dumps({"data": [{"embedding": self.embedder(text)}]}).encode()
            with self.lock:
                self.embeddings[text] = cached
        return cached


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Without this each keep-alive response waits on the client's delayed
        # ACK (about 40 ms), and the grid would measure the stub.
        disable_nagle_algorithm = True

        def log_message(self, *args):
            pass

        def _send(self, status: int, payload: bytes = b"") -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, json.dumps(state.stats()).encode())
            else:
                self._send(404)

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                state.reset()
                self._send(200, b"{}")
                return
            if self.path not in state.delays:
                self._send(404)
                return
            started = time.perf_counter()
            if not state.admit(self.path, body):
                self._send(503)
                return
            request = json.loads(body)
            if self.path == "/v1/embeddings":
                payload = state.embedding(request["input"])
            else:
                content = completion(request["messages"])
                payload = json.dumps({"choices": [{"message": {
                    "role": "assistant", "content": content}}]}).encode()
            delay = state.delays[self.path] - (time.perf_counter() - started)
            if delay > 0:
                time.sleep(delay)
            self._send(200, payload)

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dim", type=int, default=384)
    args = parser.parse_args()

    state = StubState(args.seed, args.dim, CHAT_DELAY_S, EMBED_DELAY_S)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True

    def stop(*_):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
