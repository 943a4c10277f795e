"""In-process stub of an OpenAI-compatible endpoint for integration tests."""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable


class StubOpenAIServer:
    """Serves /v1/chat/completions and /v1/embeddings with canned payloads.

    Any path prefix before ``/v1/`` is accepted and recorded as sent.
    ``completion_text`` is the chat reply, or a function of the request body
    that returns it. ``embedding`` is the values of every embeddings reply,
    ``[0.5] * dim`` by default. ``delay_s``, a function of the request body,
    holds each reply back that many seconds. ``peak_in_flight`` is the most
    requests the server has held unanswered at once. The first ``fail_first``
    requests are answered with ``status_on_fail`` and an empty body. By
    default each response closes its connection (HTTP/1.0). With
    ``keep_alive`` the server answers as HTTP/1.1 and keeps each connection
    open until the client closes it. With ``drop_keep_alive`` it answers as
    HTTP/1.1 too, and then closes the connection anyway after each response
    without saying so; ``dropped`` counts those closes.
    """

    def __init__(self, completion_text: str | Callable[[dict], str] = "stub completion",
                 dim: int = 8, fail_first: int = 0, status_on_fail: int = 500,
                 keep_alive: bool = False, drop_keep_alive: bool = False,
                 delay_s: Callable[[dict], float] | None = None,
                 embedding: list | None = None):
        self.completion_text = completion_text
        self.dim = dim
        self.embedding = [0.5] * dim if embedding is None else embedding
        self.fail_first = fail_first
        self.status_on_fail = status_on_fail
        self.requests: list[dict] = []
        self.dropped = threading.Semaphore(0)
        self.peak_in_flight = 0
        self._in_flight = 0
        self._failures_left = fail_first
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            if keep_alive or drop_keep_alive:
                protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def _reply(self, status: int, data: bytes = b"") -> None:
                self.send_response(status)
                if data:
                    self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                if drop_keep_alive:
                    self.close_connection = True
                    self.connection.shutdown(socket.SHUT_WR)
                    server.dropped.release()

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with server._lock:
                    server.requests.append({"path": self.path, "body": body,
                                            "auth": self.headers.get("Authorization")})
                    failing = server._failures_left > 0
                    if failing:
                        server._failures_left -= 1
                    server._in_flight += 1
                    server.peak_in_flight = max(server.peak_in_flight, server._in_flight)
                try:
                    if delay_s is not None:
                        time.sleep(delay_s(body))
                    self._answer(body, failing)
                finally:
                    with server._lock:
                        server._in_flight -= 1

            def _answer(self, body: dict, failing: bool) -> None:
                if failing:
                    self._reply(server.status_on_fail)
                elif self.path.endswith("/v1/chat/completions"):
                    text = server.completion_text
                    if callable(text):
                        text = text(body)
                    self._reply(200, json.dumps({"choices": [{"message": {
                        "role": "assistant", "content": text}}]}).encode())
                elif self.path.endswith("/v1/embeddings"):
                    self._reply(200, json.dumps(
                        {"data": [{"embedding": server.embedding}]}).encode())
                else:
                    self._reply(404)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubOpenAIServer":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
