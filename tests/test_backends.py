from __future__ import annotations

import gc
import json
import socket
import sys
import threading
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmas_harness import backends
from gmas_harness.backends import (GenerationRequest, LiveBackend, PLAN_MARKER,
                                   PROPOSE_MARKER, SELF_EVAL_MARKER, ScriptEntry,
                                   ScriptedBackend, TokenBucket, load_script,
                                   prompt_fingerprint)
from gmas_harness.embeddings import DeterministicEmbedder
from gmas_harness.errors import (ConfigurationError, DimensionMismatchError,
                                 TransportError)
from gmas_harness.memo import Memo
from gmas_harness.orchestrator import RunConfig, Thresholds, run_grid
from gmas_harness.records import RunStatus
from gmas_harness.scenario import enumerate_grid, generate_questions
from conftest import TEST_DIM
from stub_server import StubOpenAIServer


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


def _grid_requests(make_env, registry, monkeypatch, tmp_path, script=None):
    """Every (request, role, run index, reply) of a small refining grid."""
    seen = []
    generate = ScriptedBackend.generate

    def logging_generate(self, request, *, role=None, run_index=0):
        reply = generate(self, request, role=role, run_index=run_index)
        seen.append((request, role, run_index, reply))
        return reply

    monkeypatch.setattr(ScriptedBackend, "generate", logging_generate)
    backend = ScriptedBackend(script=script, fallback_seed=42, dim=TEST_DIM)
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


def test_fallback_runs_once_per_distinct_request(make_env, registry, monkeypatch,
                                                 tmp_path):
    calls = []
    fallback = backends._fallback_response

    def counting(seed, role, fp, run_index, full_prompt):
        calls.append((role, run_index, full_prompt))
        return fallback(seed, role, fp, run_index, full_prompt)

    monkeypatch.setattr(backends, "_fallback_response", counting)
    seen = _grid_requests(make_env, registry, monkeypatch, tmp_path)
    distinct = {(role, run_index, request.full_prompt) for request, role, run_index, _ in seen}
    assert len(distinct) < len(seen)
    assert sorted(calls) == sorted(distinct)


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


@pytest.mark.parametrize("api_base", ["ftp://127.0.0.1:1", "http://", "http://h:port"])
def test_live_rejects_an_api_base_that_is_not_an_http_url(api_base):
    with pytest.raises(ConfigurationError):
        LiveBackend(api_base, dim=8)


@pytest.mark.parametrize("retries", [0, -1])
def test_live_refuses_fewer_than_one_attempt(retries):
    with pytest.raises(ConfigurationError, match="retries"):
        LiveBackend("http://127.0.0.1:1", dim=8, retries=retries)
