from __future__ import annotations

import collections
import gc
import hashlib
import json
import pathlib
import socket
import ssl
import sys
import threading
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmas_harness.backends import (GenerationRequest, LiveBackend, PLAN_MARKER,
                                   PROPOSE_MARKER, SELF_EVAL_MARKER, ScriptEntry,
                                   ScriptedBackend, TokenBucket, _Connection,
                                   load_script, prompt_fingerprint)
from gmas_harness.embeddings import DeterministicEmbedder
from gmas_harness.errors import (ConfigurationError, DimensionMismatchError,
                                 TransportError)
from gmas_harness.memo import HASH_PIECE, Memo, hash_in_pieces
from gmas_harness.orchestrator import RunConfig, Thresholds, run_grid
from gmas_harness.records import RunStatus
from gmas_harness.scenario import enumerate_grid, generate_questions
from conftest import TEST_DIM
from stub_server import RawResponder, StubOpenAIServer, chat_body, http_reply


def test_generation_request_validates_prompts_and_temperature():
    with pytest.raises(ValueError):
        GenerationRequest(system_prompt="", user_prompt="x")
    with pytest.raises(ValueError):
        GenerationRequest(system_prompt="x", user_prompt="")
    with pytest.raises(ValueError):
        GenerationRequest(system_prompt="x", user_prompt="y", temperature=2.5)
    with pytest.raises(ValueError):
        GenerationRequest(system_prompt="x", user_prompt="y", max_tokens=0)


def test_fingerprint_stable_and_role_sensitive():
    fp1 = prompt_fingerprint("Coder", "hello")
    fp2 = prompt_fingerprint("Coder", "hello")
    fp3 = prompt_fingerprint("Planner", "hello")
    assert fp1 == fp2
    assert fp1 != fp3
    assert len(fp1) == 16


_LENGTHS = st.sampled_from([0, 1, HASH_PIECE - 1, HASH_PIECE, HASH_PIECE + 1,
                            2 * HASH_PIECE, 3 * HASH_PIECE + 5]) | st.integers(0, 7000)


@settings(max_examples=100)
@given(_LENGTHS.flatmap(lambda n: st.text(min_size=n, max_size=n)))
def test_digests_fed_in_pieces_equal_one_shot_digests(text):
    data = text.encode("utf-8", "surrogatepass")
    for algorithm in (hashlib.sha256, hashlib.blake2b):
        assert hash_in_pieces(algorithm(), data).digest() == algorithm(data).digest()
    assert prompt_fingerprint("Coder", text) == \
        hashlib.sha256(b"Coder\x00" + data).hexdigest()[:16]


def _request(text="write the code"):
    return GenerationRequest(system_prompt="system", user_prompt=text)


def test_script_lookup_is_identity():
    req = _request()
    fp = prompt_fingerprint("Coder", req.full_prompt)
    backend = ScriptedBackend(
        script=[ScriptEntry(response="CANNED CODE", role="Coder", run_index=1,
                            fingerprint=fp)],
        fallback_seed=None, dim=16)
    assert backend.generate(req, role="Coder", run_index=1) == "CANNED CODE"


def test_scripted_generate_is_byte_identical_across_calls():
    backend = ScriptedBackend(fallback_seed=7, dim=16)
    req = _request("same request")
    out1 = backend.generate(req, role="Coder", run_index=2)
    out2 = backend.generate(req, role="Coder", run_index=2)
    assert out1 == out2
    assert out1  # non-empty per contract


def test_script_miss_without_fallback_is_configuration_error():
    backend = ScriptedBackend(script=[], fallback_seed=None, dim=16)
    with pytest.raises(ConfigurationError):
        backend.generate(_request(), role="Coder", run_index=1)


def test_script_miss_without_fallback_raises_on_every_call():
    backend = ScriptedBackend(script=[ScriptEntry(response="blank role", role="")],
                              fallback_seed=None, dim=16)
    for _ in range(3):
        with pytest.raises(ConfigurationError):
            backend.generate(_request(), role="Coder", run_index=1)
    # the role None and the empty role are distinct requests
    assert backend.generate(_request(), role="", run_index=1) == "blank role"
    for _ in range(3):
        with pytest.raises(ConfigurationError):
            backend.generate(_request(), role=None, run_index=1)


def _grid_requests(make_env, registry, monkeypatch, tmp_path, script=None, pure=True):
    """Every (request, role, run index, reply) of a small refining grid; a
    backend whose replies are not declared pure reuses no stage."""
    seen = []
    generate = ScriptedBackend.generate

    def logging_generate(self, request, *, role=None, run_index=0):
        reply = generate(self, request, role=role, run_index=run_index)
        seen.append((request, role, run_index, reply))
        return reply

    monkeypatch.setattr(ScriptedBackend, "generate", logging_generate)
    backend = ScriptedBackend(script=script, fallback_seed=42, dim=TEST_DIM)
    backend.PURE_REPLIES = pure
    config = RunConfig(thresholds=Thresholds(alignment=0.55))
    run_grid(generate_questions(2, seed=7), enumerate_grid(registry)[:3], 2,
             make_env(backend=backend, config=config), tmp_path)
    monkeypatch.setattr(ScriptedBackend, "generate", generate)
    return seen


def test_scripted_replies_equal_a_fresh_backends(make_env, registry, monkeypatch,
                                                 tmp_path):
    script = [ScriptEntry(response="PATH 1:\n- survey load\nRATIONALE: r",
                          role="Planner", run_index=2, prompt_contains=PROPOSE_MARKER)]
    seen = _grid_requests(make_env, registry, monkeypatch, tmp_path, script)
    distinct = {(role, run_index, request.full_prompt) for request, role, run_index, _ in seen}
    assert len(distinct) < len(seen)
    assert any(reply == script[0].response for *_, reply in seen)
    for request, role, run_index, reply in seen:
        fresh = ScriptedBackend(script=script, fallback_seed=42, dim=TEST_DIM)
        assert fresh.generate(request, role=role, run_index=run_index) == reply


def test_a_grid_sends_each_distinct_stage_request_once(make_env, registry, monkeypatch,
                                                       tmp_path):
    # a proposal or a code request holds the whole input of its stage, so a
    # request sent twice is a stage computed twice
    seen = _grid_requests(make_env, registry, monkeypatch, tmp_path)
    stage_requests = collections.Counter(
        (role, run_index, request.full_prompt) for request, role, run_index, _ in seen
        if role == "Coder" or PROPOSE_MARKER in request.user_prompt)
    assert set(stage_requests.values()) == {1}
    # where each run asks again, the grid repeats requests
    asked = _grid_requests(make_env, registry, monkeypatch, tmp_path / "asked", pure=False)
    assert len({(role, run_index, request.full_prompt)
                for request, role, run_index, _ in asked}) < len(asked)
    assert len(seen) < len(asked)


def test_script_entries_match_in_order_first_wins():
    backend = ScriptedBackend(
        script=[
            ScriptEntry(response="specific", role="Coder", prompt_contains="beta"),
            ScriptEntry(response="generic", role="Coder"),
        ],
        fallback_seed=None, dim=16)
    assert backend.generate(_request("alpha beta"), role="Coder") == "specific"
    assert backend.generate(_request("alpha"), role="Coder") == "generic"


def test_script_wildcards_ignore_unset_fields():
    backend = ScriptedBackend(
        script=[ScriptEntry(response="any run", role="Planner")],
        fallback_seed=None, dim=16)
    assert backend.generate(_request(), role="Planner", run_index=1) == "any run"
    assert backend.generate(_request(), role="Planner", run_index=9) == "any run"
    with pytest.raises(ConfigurationError):
        backend.generate(_request(), role="Coder", run_index=1)


def test_load_script_round_trip(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps([
        {"response": "hi", "role": "Coder", "run_index": 1},
        {"response": "there", "prompt_contains": "xyz"},
    ]))
    entries = load_script(path)
    assert entries[0] == ScriptEntry(response="hi", role="Coder", run_index=1)
    assert entries[1].prompt_contains == "xyz"
    path.write_text(json.dumps([{"role": "Coder"}]))
    with pytest.raises(ConfigurationError):
        load_script(path)


def test_fallback_paths_marker_produces_parseable_blocks():
    backend = ScriptedBackend(fallback_seed=1, dim=16)
    req = _request(f"{PROPOSE_MARKER} 3 solution paths for this question.")
    out = backend.generate(req, role="Planner", run_index=1)
    assert out.count("PATH ") == 3
    assert "RATIONALE:" in out


def test_fallback_self_eval_marker_produces_number():
    backend = ScriptedBackend(fallback_seed=1, dim=16)
    req = _request(f"Rate this path. {SELF_EVAL_MARKER}.")
    out = backend.generate(req, role="Planner", run_index=1)
    assert 0.0 <= float(out) <= 1.0


def test_fallback_plan_marker_reads_network_from_prompt():
    backend = ScriptedBackend(fallback_seed=1, dim=16)
    req = _request(
        f"Write a resource allocation plan in the {PLAN_MARKER}.\n"
        "Network:\n"
        "cell c1: capacity 20 prb\n"
        "slice s1 in cell c1: demand 4 mbps\n"
        "slice s2 in cell c1: demand 6 mbps")
    out = backend.generate(req, role="Allocator", run_index=1)
    assert "allocate" in out and "prb to s1" in out
    assert "admit s1" in out and "admit s2" in out


def test_fallback_plan_echoes_selected_path_not_context():
    backend = ScriptedBackend(fallback_seed=1, dim=16)
    req = _request(
        "Context:\n"
        "- [graph:n1] handover policy: change rules\n"
        "Task:\n"
        "Selected path:\n"
        "- survey slice demand\n"
        "- allocate prb budget\n"
        f"Write a resource allocation plan in the {PLAN_MARKER}.\n"
        "Network:\n"
        "cell c1: capacity 20 prb\n"
        "slice s1 in cell c1: demand 4 mbps")
    out = backend.generate(req, role="Allocator", run_index=1)
    assert "# implements: survey slice demand" in out
    assert "handover policy" not in out


def test_fallback_embed_matches_deterministic_embedder():
    backend = ScriptedBackend(fallback_seed=1, dim=16)
    a = backend.embed("allocate prb")
    b = backend.embed("allocate prb")
    assert a.tolist() == b.tolist()
    assert backend.embed("").is_zero()


_CACHED_BACKEND = ScriptedBackend(fallback_seed=1, dim=48)


@settings(max_examples=200)
@given(st.text(max_size=80) | st.sampled_from(["allocate prb", "", "s1 s1 s2"]))
def test_cached_embed_equals_fresh_embedder(text):
    first = _CACHED_BACKEND.embed(text)
    assert _CACHED_BACKEND.embed(text) is first
    assert first == DeterministicEmbedder(48).embed(text)


def test_cached_vector_cannot_be_written_through():
    backend = ScriptedBackend(fallback_seed=1, dim=16)
    vec = backend.embed("allocate prb")
    with pytest.raises(ValueError):
        vec.values[0] = 9.0
    assert backend.embed("allocate prb") == DeterministicEmbedder(16).embed("allocate prb")


def test_memo_computes_each_key_once_under_contention():
    memo = Memo()
    computed = []

    def compute(key):
        computed.append(key)
        time.sleep(0.001)  # widen the window in which other threads miss
        return ("value", key)

    results = []

    def worker():
        for key in range(20):
            results.append((key, memo.get(key, lambda: compute(key))))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert sorted(computed) == list(range(20))
    assert len(results) == 8 * 20
    assert all(value == ("value", key) for key, value in results)


def test_memo_caches_no_exception():
    memo = Memo()
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) == 1:
            raise TransportError("down", attempts=1)
        return "up"

    with pytest.raises(TransportError):
        memo.get("k", flaky)
    assert memo.get("k", flaky) == "up"
    assert memo.get("k", flaky) == "up"
    assert len(attempts) == 2


def test_token_bucket_limits_rate():
    bucket = TokenBucket(rate_per_s=50.0, capacity=1)
    bucket.acquire()
    start = time.monotonic()
    bucket.acquire()
    assert time.monotonic() - start >= 0.015


# ── live backend against the stub server ─────────────────────────────────────

def test_live_generate_returns_stub_body_content():
    with StubOpenAIServer(completion_text="the canned answer", dim=8) as server:
        backend = LiveBackend(server.base_url, api_key="k", dim=8,
                              rate_limit_per_s=1000)
        out = backend.generate(_request("ping"), role="Coder", run_index=1)
        assert out == "the canned answer"
        sent = server.requests[0]
        assert sent["path"] == "/v1/chat/completions"
        assert sent["auth"] == "Bearer k"
        assert sent["body"]["messages"][0]["role"] == "system"


def test_live_embed_returns_vector_of_configured_dim():
    with StubOpenAIServer(dim=8) as server:
        backend = LiveBackend(server.base_url, dim=8, rate_limit_per_s=1000)
        vec = backend.embed("text")
        assert vec.dim == 8
        assert vec.tolist() == [0.5] * 8


def test_live_embed_dimension_mismatch_is_hard_error():
    with StubOpenAIServer(dim=6) as server:
        backend = LiveBackend(server.base_url, dim=8, rate_limit_per_s=1000)
        with pytest.raises(DimensionMismatchError):
            backend.embed("text")


def test_live_retries_transient_failures_then_succeeds():
    with StubOpenAIServer(completion_text="after retry", fail_first=2) as server:
        backend = LiveBackend(server.base_url, dim=8, retries=3, backoff_s=0.01,
                              rate_limit_per_s=1000)
        assert backend.generate(_request()) == "after retry"
        assert len(server.requests) == 3


def test_live_gives_up_with_attempt_count():
    with StubOpenAIServer(fail_first=99) as server:
        backend = LiveBackend(server.base_url, dim=8, retries=3, backoff_s=0.01,
                              rate_limit_per_s=1000)
        with pytest.raises(TransportError) as exc:
            backend.generate(_request())
        assert exc.value.attempts == 3


def test_live_client_error_fails_fast():
    with StubOpenAIServer(fail_first=1, status_on_fail=401) as server:
        backend = LiveBackend(server.base_url, dim=8, retries=3, backoff_s=0.01,
                              rate_limit_per_s=1000)
        with pytest.raises(ConfigurationError):
            backend.generate(_request())
        assert len(server.requests) == 1


def test_live_embed_requests_each_text_once():
    with StubOpenAIServer(dim=8) as server:
        backend = LiveBackend(server.base_url, dim=8, rate_limit_per_s=1000)
        vectors = [backend.embed("same text") for _ in range(3)]
        assert all(v is vectors[0] for v in vectors)
        backend.embed("other text")
        assert [r["body"]["input"] for r in server.requests] == ["same text",
                                                                 "other text"]


def test_live_embed_retried_success_is_cached():
    with StubOpenAIServer(dim=8, fail_first=1) as server:
        backend = LiveBackend(server.base_url, dim=8, retries=3, backoff_s=0.01,
                              rate_limit_per_s=1000)
        for _ in range(3):
            assert backend.embed("text").tolist() == [0.5] * 8
        assert len(server.requests) == 2


def test_live_embed_failures_are_not_cached():
    with StubOpenAIServer(dim=6) as server:
        backend = LiveBackend(server.base_url, dim=8, rate_limit_per_s=1000)
        for _ in range(3):
            with pytest.raises(DimensionMismatchError):
                backend.embed("text")
        assert len(server.requests) == 3
    with StubOpenAIServer(dim=8, fail_first=3) as server:
        backend = LiveBackend(server.base_url, dim=8, retries=3, backoff_s=0.01,
                              rate_limit_per_s=1000)
        with pytest.raises(TransportError):
            backend.embed("text")
        assert backend.embed("text").tolist() == [0.5] * 8
        assert len(server.requests) == 4


@pytest.mark.parametrize("values", [[float("nan")] + [0.5] * 7, ["1.5"] + [0.5] * 7,
                                    [1e308] * 8, [True] * 8, 0.5],
                         ids=["NaN", "a string", "a norm that overflows", "true", "a number"])
def test_live_embedding_of_anything_but_finite_numbers_fails_the_run(
        make_env, registry, questions, tmp_path, values):
    with StubOpenAIServer(dim=8, embedding=values) as server:
        backend = LiveBackend(server.base_url, dim=8, rate_limit_per_s=1000)
        with pytest.raises(TransportError, match="malformed embeddings payload"):
            backend.embed("text")
        entries = run_grid(questions[:1], enumerate_grid(registry)[:1], 1,
                           make_env(backend=backend), tmp_path)
    assert [entry.status for entry in entries] == [RunStatus.FAILED]


def test_live_reopens_a_keep_alive_connection_the_server_closed():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with StubOpenAIServer(completion_text="fresh", drop_keep_alive=True) as server:
            backend = LiveBackend(server.base_url, dim=8, retries=1,
                                  rate_limit_per_s=1000)
            assert backend.generate(_request("first")) == "fresh"
            assert server.dropped.acquire(timeout=5)
            assert backend.generate(_request("second")) == "fresh"
            assert len(server.requests) == 2
            backend.close()
        del backend
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_live_connection_refused_uses_every_attempt():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    backend = LiveBackend(f"http://127.0.0.1:{port}", dim=8, retries=2,
                          backoff_s=0.01, rate_limit_per_s=1000)
    with pytest.raises(TransportError) as exc:
        backend.generate(_request())
    assert exc.value.attempts == 2


def test_live_retries_a_200_without_json():
    with StubOpenAIServer(completion_text="parsed", fail_first=1,
                          status_on_fail=200) as server:
        backend = LiveBackend(server.base_url, dim=8, retries=2, backoff_s=0.01,
                              rate_limit_per_s=1000)
        assert backend.generate(_request()) == "parsed"
        assert len(server.requests) == 2


def test_live_keeps_the_api_base_path_prefix():
    with StubOpenAIServer(dim=8) as server:
        backend = LiveBackend(server.base_url + "/prefix/", dim=8,
                              rate_limit_per_s=1000)
        backend.generate(_request())
        backend.embed("text")
        assert [r["path"] for r in server.requests] == [
            "/prefix/v1/chat/completions", "/prefix/v1/embeddings"]


# ── generate_all: one batch of independent requests ─────────────────────────

def _user_prompt(body):
    return body["messages"][1]["content"]


def test_scripted_generate_all_equals_generate_one_at_a_time():
    backend = ScriptedBackend(fallback_seed=42, dim=8)
    requests = [_request(text) for text in ("a", "b", "a", PLAN_MARKER)]
    assert backend.generate_all(requests, role="Planner", run_index=2) == [
        backend.generate(r, role="Planner", run_index=2) for r in requests]
    assert backend.generate_all([], role="Planner") == []


def test_live_generate_all_keeps_request_order_when_replies_finish_reversed():
    delays = {"first": 0.3, "second": 0.15, "third": 0.0}
    with StubOpenAIServer(completion_text=_user_prompt, keep_alive=True,
                          delay_s=lambda body: delays[_user_prompt(body)]) as server:
        backend = LiveBackend(server.base_url, dim=8, rate_limit_per_s=1000)
        try:
            assert backend.generate_all([_request(t) for t in delays]) == list(delays)
        finally:
            backend.close()


def test_live_generate_all_has_every_request_in_flight_at_once():
    with StubOpenAIServer(completion_text=_user_prompt, keep_alive=True,
                          delay_s=lambda body: 0.2) as server:
        backend = LiveBackend(server.base_url, dim=8, rate_limit_per_s=1000)
        try:
            assert backend.generate_all([_request(t) for t in "abc"]) == list("abc")
            assert server.peak_in_flight == 3
            assert backend.generate(_request("d")) == "d"  # the connections are reused
        finally:
            backend.close()
        assert len(server.requests) == 4


def test_live_generate_all_retries_only_the_failed_request():
    with StubOpenAIServer(completion_text=_user_prompt, fail_first=1,
                          status_on_fail=503) as server:
        backend = LiveBackend(server.base_url, dim=8, retries=3, backoff_s=0.01,
                              rate_limit_per_s=1000)
        assert backend.generate_all([_request(t) for t in "abc"]) == list("abc")
        bodies = [r["body"] for r in server.requests]
        assert len(bodies) == 4
        assert sorted(_user_prompt(b) for b in bodies[:3]) == list("abc")
        assert bodies[3] == bodies[0]  # the one answered with 503


def test_live_generate_all_client_error_leaves_the_thread_usable():
    with StubOpenAIServer(completion_text=_user_prompt, fail_first=1,
                          status_on_fail=400, keep_alive=True) as server:
        backend = LiveBackend(server.base_url, dim=8, retries=3, backoff_s=0.01,
                              rate_limit_per_s=1000)
        try:
            with pytest.raises(ConfigurationError):
                backend.generate_all([_request(t) for t in "abc"])
            assert len(server.requests) == 3
            assert backend.generate_all([_request(t) for t in "de"]) == list("de")
        finally:
            backend.close()
        assert len(server.requests) == 5


def test_live_generate_all_gives_up_with_attempt_count():
    with StubOpenAIServer(fail_first=99) as server:
        backend = LiveBackend(server.base_url, dim=8, retries=2, backoff_s=0.01,
                              rate_limit_per_s=1000)
        with pytest.raises(TransportError) as exc:
            backend.generate_all([_request(t) for t in "abc"])
        assert exc.value.attempts == 2
        assert len(server.requests) == 6


@pytest.mark.parametrize("api_base", ["ftp://127.0.0.1:1", "http://", "http://h:port",
                                      "http://127.0.0.1:1/a b", "http://127.0.0.1:1/a\x01b",
                                      "http://127.0.0.1:1/\u00e9", "http://a..b:1"])
def test_live_rejects_an_api_base_that_is_not_an_http_url(api_base):
    with pytest.raises(ConfigurationError):
        LiveBackend(api_base, dim=8)


@pytest.mark.parametrize("api_key", ["k\r\nX-Injected: 1", "cl\u00e9"])
def test_live_rejects_an_api_key_a_header_cannot_carry(api_key):
    with pytest.raises(ConfigurationError, match="api_key"):
        LiveBackend("http://127.0.0.1:1", api_key=api_key, dim=8)


@pytest.mark.parametrize("retries", [0, -1])
def test_live_refuses_fewer_than_one_attempt(retries):
    with pytest.raises(ConfigurationError, match="retries"):
        LiveBackend("http://127.0.0.1:1", dim=8, retries=retries)


def test_live_bad_reply_shape_counts_only_the_requests_sent():
    with StubOpenAIServer(completion_text="") as server:
        backend = LiveBackend(server.base_url, dim=8, retries=3, backoff_s=0.01,
                              rate_limit_per_s=1000)
        with pytest.raises(TransportError, match="empty completion content") as exc:
            backend.generate(_request())
        assert exc.value.attempts == 1
        assert len(server.requests) == 1
    with StubOpenAIServer(dim=8, embedding="not a list", fail_first=1) as server:
        backend = LiveBackend(server.base_url, dim=8, retries=3, backoff_s=0.01,
                              rate_limit_per_s=1000)
        with pytest.raises(TransportError, match="malformed embeddings payload") as exc:
            backend.embed("text")
        assert exc.value.attempts == 2
        assert len(server.requests) == 2


# ── the HTTP/1.1 transport against scripted reply bytes ─────────────────────

# a test CA and the localhost certificate it signed; tls/make_certs.sh
# writes them
_TLS = pathlib.Path(__file__).parent / "tls"


@pytest.fixture(params=["http", "https"])
def tls(request):
    """A RawResponder's server-side SSLContext, or None for plain http."""
    if request.param == "http":
        return None
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(_TLS / "localhost.crt", _TLS / "localhost.key")
    return context


def _raw_backend(responder, retries=1):
    backend = LiveBackend(responder.base_url, api_key="k", dim=8, retries=retries,
                          backoff_s=0.01, rate_limit_per_s=1000)
    if responder.tls is not None:  # trust the test CA instead of the system's
        backend._tls = ssl.create_default_context(cafile=_TLS / "ca.crt")
    return backend


def test_live_request_is_one_http11_post_with_its_headers(tls):
    body = chat_body("ok")
    with RawResponder([http_reply(body)], tls=tls) as responder:
        backend = _raw_backend(responder)
        try:
            assert backend.generate(_request("hello")) == "ok"
        finally:
            backend.close()
    head, _, payload = responder.requests[0].partition(b"\r\n\r\n")
    port = responder.base_url.rsplit(":", 1)[1]
    assert head.split(b"\r\n") == [
        b"POST /v1/chat/completions HTTP/1.1", b"Host: 127.0.0.1:" + port.encode(),
        b"Content-Type: application/json", b"Authorization: Bearer k",
        b"Content-Length: %d" % len(payload)]
    assert json.loads(payload)["messages"][1]["content"] == "hello"


def test_live_ipv6_host_is_bracketed():
    try:
        responder = RawResponder([http_reply(chat_body("v6"))], host="::1")
    except OSError:
        pytest.skip("no IPv6 loopback")
    with responder:
        backend = _raw_backend(responder)
        try:
            assert backend.generate(_request()) == "v6"
        finally:
            backend.close()
    port = responder.base_url.rsplit(":", 1)[1]
    assert b"\r\nHost: [::1]:" + port.encode() + b"\r\n" in responder.requests[0]


def test_live_reads_a_chunked_reply_with_a_trailer_and_keeps_the_connection(tls):
    body = chat_body("chunked answer")
    chunked = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
               + b"%x;ext=1\r\n" % 10 + body[:10] + b"\r\n"
               + b"%X\r\n" % (len(body) - 10) + body[10:] + b"\r\n"
               + b"0\r\nX-Checksum: abc\r\n\r\n")
    with RawResponder([chunked], tls=tls) as responder:
        backend = _raw_backend(responder)
        try:
            assert backend.generate(_request("a")) == "chunked answer"
            assert backend.generate(_request("b")) == "chunked answer"
        finally:
            backend.close()
    assert len(responder.requests) == 2
    assert responder.connections == 1


def test_live_reads_a_reply_sent_one_byte_per_write(tls):
    with RawResponder([http_reply(chat_body("slowly"), headers="Server: x\r\n")],
                      write_size=1, tls=tls) as responder:
        backend = _raw_backend(responder)
        try:
            assert backend.generate(_request()) == "slowly"
        finally:
            backend.close()


def test_live_skips_a_100_continue_before_the_reply():
    with RawResponder([b"HTTP/1.1 100 Continue\r\n\r\n"
                       + http_reply(chat_body("after continue"))]) as responder:
        backend = _raw_backend(responder)
        try:
            assert backend.generate(_request()) == "after continue"
        finally:
            backend.close()


def test_live_connection_close_reopens_without_spending_an_attempt(tls):
    reply = http_reply(chat_body("closing"), headers="Connection: close\r\n")
    with RawResponder([(reply, "close")], tls=tls) as responder:
        backend = _raw_backend(responder, retries=1)
        try:
            assert backend.generate(_request("a")) == "closing"
            assert all(conn.sock is None for conn in backend._opened)
            assert backend.generate(_request("b")) == "closing"
        finally:
            backend.close()
    assert len(responder.requests) == 2
    assert responder.connections == 2


@pytest.mark.parametrize("bad", [
    (b"HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n{\"choices\"", "close"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000\r\n\r\n{}", "close"),
    b"HTTP/1.1 200 OK\r\nContent-Length: 12abc\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n",
    b"HTTP/1.1 OK\r\nContent-Length: 2\r\n\r\n{}",
], ids=["a body shorter than its Content-Length", "a terabyte Content-Length",
        "a non-numeric Content-Length",
        "a malformed chunk size", "a status line without a code"])
def test_live_retries_a_reply_with_bad_framing(bad):
    with RawResponder([bad, http_reply(chat_body("second try"))]) as responder:
        backend = _raw_backend(responder, retries=2)
        try:
            assert backend.generate(_request()) == "second try"
        finally:
            backend.close()
    assert len(responder.requests) == 2
    assert responder.connections == 2  # the failed exchange closed its connection


@pytest.mark.parametrize("headers", ["X-Filler: %s\r\n" % ("x" * 70000),
                                     "X-Filler: x\r\n" * 101],
                         ids=["a header line over 64 KiB", "101 header lines"])
def test_live_refuses_an_oversized_header_block(headers):
    with RawResponder([http_reply(chat_body("never read"), headers=headers)]) as responder:
        backend = _raw_backend(responder, retries=2)
        try:
            with pytest.raises(TransportError,
                               match="longer than 65536 bytes|more than 100 header") as exc:
                backend.generate(_request())
        finally:
            backend.close()
    assert exc.value.attempts == 2
    assert len(responder.requests) == 2


def test_live_reads_a_reply_without_length_to_the_end_of_the_stream(tls):
    unframed = b"HTTP/1.1 200 OK\r\n\r\n" + chat_body("to the end")
    with RawResponder([(unframed, "close")], tls=tls) as responder:
        backend = _raw_backend(responder)
        try:
            assert backend.generate(_request("a")) == "to the end"
            assert backend.generate(_request("b")) == "to the end"
        finally:
            backend.close()
    assert responder.connections == 2


def test_live_idle_check_polls_a_descriptor_select_cannot_take(monkeypatch):
    import select

    def beyond_fd_setsize(*args):
        raise ValueError("filedescriptor out of range in select()")

    monkeypatch.setattr(select, "select", beyond_fd_setsize)
    with StubOpenAIServer(completion_text="fresh", drop_keep_alive=True) as server:
        backend = LiveBackend(server.base_url, dim=8, retries=1, rate_limit_per_s=1000)
        try:
            assert backend.generate(_request("first")) == "fresh"
            assert server.dropped.acquire(timeout=5)
            assert backend.generate(_request("second")) == "fresh"
        finally:
            backend.close()


def test_live_reopens_a_connection_the_server_closed_while_idle(tls):
    # the reply keeps the connection open, and then the server closes it
    with RawResponder([(http_reply(chat_body("fresh")), "close")], tls=tls) as responder:
        backend = _raw_backend(responder, retries=1)
        try:
            assert backend.generate(_request("first")) == "fresh"
            assert responder.closed.acquire(timeout=5)
            assert backend.generate(_request("second")) == "fresh"
        finally:
            backend.close()
    assert len(responder.requests) == 2
    assert responder.connections == 2


class _Drip:
    """A socket stand-in whose every recv returns the next ``step`` bytes."""

    def __init__(self, data: bytes, step: int):
        self.data, self.at, self.step = data, 0, step

    def recv(self, n: int) -> bytes:
        piece = self.data[self.at:self.at + min(n, self.step)]
        self.at += len(piece)
        return piece

    def close(self) -> None:
        pass


def test_live_reads_a_reply_in_small_pieces_in_linear_time():
    # Copying the unread buffer on each read, or searching a line again from
    # its start, costs seconds here: 1 MiB in 16-byte pieces is 65,536 reads.
    body = b" " * (1 << 20)
    reply = http_reply(body, headers="X-Filler: %s\r\n" % ("x" * 60000))
    conn = _Connection(("127.0.0.1", 9), None, 1.0)
    conn.sock = _Drip(reply, 16)
    started = time.perf_counter()
    assert conn.receive() == (200, body)
    assert time.perf_counter() - started < 2.0
    assert conn.sock is not None  # the whole reply was read; the connection stays
