"""In-process stub of an OpenAI-compatible endpoint for integration tests."""

from __future__ import annotations

import json
import socket
import ssl
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


class RawResponder:
    """A TCP server on localhost that answers each request with scripted bytes.

    The n-th request it reads, over all connections, is answered with
    ``replies[n]`` (the last one repeats). A reply is the raw bytes to send,
    or a pair (bytes, "close") after which the server closes that
    connection; ``closed`` is released after each such close. With
    ``write_size`` each reply goes out that many bytes per write. With
    ``tls``, a server-side SSLContext, each accepted connection speaks TLS
    and ``base_url`` is https. ``requests`` holds each request's raw bytes;
    ``connections`` counts the connections accepted.
    """

    def __init__(self, replies: list, write_size: int = 0,
                 host: str = "127.0.0.1", tls: ssl.SSLContext | None = None):
        self.replies = list(replies)
        self.write_size = write_size
        self.tls = tls
        self.requests: list[bytes] = []
        self.connections = 0
        self.closed = threading.Semaphore(0)
        self._lock = threading.Lock()
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.socket(family, socket.SOCK_STREAM)
        self._listener.bind((host, 0))
        self._listener.listen()
        self._address = self._listener.getsockname()[:2]
        self._threads: list[threading.Thread] = []
        self._open: list[socket.socket] = []
        self._accepting = threading.Thread(target=self._accept, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._address
        scheme = "https" if self.tls else "http"
        return f"{scheme}://[{host}]:{port}" if ":" in host else f"{scheme}://{host}:{port}"

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # the listener was closed
                return
            with self._lock:
                self.connections += 1
                self._open.append(conn)
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self._threads.append(thread)
            thread.start()

    @staticmethod
    def _read_request(conn: socket.socket, buf: bytes) -> tuple[bytes, bytes] | None:
        """(one request, the bytes after it), or None when the client closed."""
        while b"\r\n\r\n" not in buf:
            data = conn.recv(65536)
            if not data:
                return None
            buf += data
        head, _, rest = buf.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            data = conn.recv(65536)
            if not data:
                return None
            rest += data
        return head + b"\r\n\r\n" + rest[:length], rest[length:]

    def _serve(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = b""
        try:
            if self.tls is not None:
                plain, conn = conn, self.tls.wrap_socket(conn, server_side=True)
                with self._lock:  # __exit__ shuts down the socket that serves
                    self._open[self._open.index(plain)] = conn
            while True:
                got = self._read_request(conn, buf)
                if got is None:
                    return
                request, buf = got
                with self._lock:
                    reply = self.replies[min(len(self.requests), len(self.replies) - 1)]
                    self.requests.append(request)
                data, close = reply if isinstance(reply, tuple) else (reply, None)
                step = self.write_size or len(data)
                for i in range(0, len(data), step):
                    conn.sendall(data[i:i + step])
                if close == "close":
                    conn.close()
                    self.closed.release()
                    return
        except OSError:
            return
        finally:
            conn.close()

    def __enter__(self) -> "RawResponder":
        self._accepting.start()
        return self

    def __exit__(self, *exc):
        with self._lock:  # shutdown, unlike close, wakes a blocked accept or recv
            for sock in [self._listener] + self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._accepting.join(timeout=5)
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=5)


def http_reply(body: bytes, status: str = "200 OK", headers: str = "") -> bytes:
    """An HTTP/1.1 reply with a Content-Length and any extra header lines."""
    return (f"HTTP/1.1 {status}\r\n{headers}Content-Length: {len(body)}\r\n\r\n"
            .encode("latin-1") + body)


def chat_body(text: str) -> bytes:
    """The JSON of a chat completion whose content is ``text``."""
    return json.dumps({"choices": [{"message": {"role": "assistant",
                                                "content": text}}]}).encode()
