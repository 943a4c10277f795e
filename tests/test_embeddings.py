from __future__ import annotations

import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmas_harness import embeddings
from gmas_harness.embeddings import (DEFAULT_DIM, DeterministicEmbedder,
                                     EmbeddingVector, centroid, cosine,
                                     deterministic_embed, number_vector, tokenize)
from gmas_harness.errors import DimensionMismatchError


def test_default_dimension_is_384():
    vec = deterministic_embed("allocate prb")
    assert vec.dim == DEFAULT_DIM == 384


def test_tokenize_lowercase_alphanumeric():
    assert tokenize("Allocate 10 PRB to s1!") == ["allocate", "10", "prb", "to", "s1"]
    assert tokenize("") == []


def test_empty_text_embeds_to_zero_vector():
    vec = deterministic_embed("", dim=32)
    assert vec.is_zero()
    assert vec.norm == 0.0


def test_embedding_is_deterministic():
    a = deterministic_embed("allocate prb to s1")
    b = deterministic_embed("allocate prb to s1")
    assert np.array_equal(a.values, b.values)


def test_repeated_token_scaling_removed_by_normalization():
    once = deterministic_embed("a")
    twice = deterministic_embed("a a")
    assert np.allclose(once.values, twice.values)


def test_nonzero_embedding_norm_is_one():
    # independent norm recomputation, not the cached .norm
    vec = deterministic_embed("allocate prb")
    norm = math.sqrt(sum(v * v for v in vec.tolist()))
    assert abs(norm - 1.0) < 1e-9


def test_disjoint_bucket_tokens_have_cosine_zero():
    # chosen by inspecting the bucket hash: 'prb' and 'slice' land apart
    emb = DeterministicEmbedder(384)
    assert emb.token_bucket("prb") != emb.token_bucket("slice")
    assert cosine(emb.embed("prb"), emb.embed("slice")) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=200)
@given(st.text(max_size=80))
def test_nonzero_embeddings_are_unit_norm(text):
    vec = deterministic_embed(text, dim=48)
    if not vec.is_zero():
        assert abs(vec.norm - 1.0) < 1e-9


@settings(max_examples=100)
@given(st.text(max_size=80))
def test_embed_pure_function_of_text(text):
    e = DeterministicEmbedder(48)
    assert np.array_equal(e.embed(text).values, e.embed(text).values)


def _loop_embed(text: str, dim: int) -> np.ndarray:
    """Reference: one keyed-hash bucket and sign per token occurrence."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokenize(text):
        data = token.encode("utf-8")
        bucket = hashlib.blake2b(data, digest_size=8, key=b"bucket").digest()
        sign = hashlib.blake2b(data, digest_size=1, key=b"sign").digest()
        vec[int.from_bytes(bucket, "big") % dim] += 1 if sign[0] % 2 == 0 else -1
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0.0 else vec


@settings(max_examples=200)
@given(st.text(max_size=120), st.sampled_from([1, 7, 48, 384]))
def test_embed_equals_per_token_loop_reference(text, dim):
    assert deterministic_embed(text, dim).values.tobytes() == \
        _loop_embed(text, dim).tobytes()


_PARAGRAPH_TEXTS = [
    "allocate prb\n\nadmit s1",
    "allocate prb\n\n\nadmit s1\n\n\n\nadmit s1",
    "\n\nleading blank lines",
    "trailing blank lines\n\n\n",
    "\n\n\n\n",
    "  \n\n\t\n\n \n\nslice s2 demand 4\n\n  ",
    "prb prb\n\nprb\n\nprb prb",
    "İstanbul İ\n\nİ cell\n\nİİ",
    "ΣΑΣ slice Σ\n\nΣ\n\nσς s1Σ Σs2",
    "",
]


@pytest.mark.parametrize("dim", [1, 7, 48, 384])
def test_paragraph_codes_give_the_per_token_reference(dim):
    embedder = DeterministicEmbedder(dim)
    for _ in range(2):  # the second pass reads every paragraph from the table
        for text in _PARAGRAPH_TEXTS:
            assert embedder.embed(text).values.tobytes() == _loop_embed(text, dim).tobytes()


def test_paragraph_table_cleared_mid_stream_gives_the_reference(monkeypatch):
    monkeypatch.setattr(embeddings, "_PARAGRAPH_TABLE_SIZE", 3)
    monkeypatch.setattr(embeddings, "_CODE_TABLE_SIZE", 5)
    embedder = DeterministicEmbedder(48)
    sizes = []
    texts = _PARAGRAPH_TEXTS + [f"slice s{i} in cell c{i}\n\nadmit s{i}" for i in range(20)]
    for text in texts + texts[::-1]:
        assert embedder.embed(text).values.tobytes() == _loop_embed(text, 48).tobytes()
        sizes.append(len(embedder._paragraphs))
    assert max(sizes) <= 3 + 1  # emptied on the miss after it grows past the bound
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


def test_shared_embedder_under_threads_gives_the_reference(monkeypatch):
    monkeypatch.setattr(embeddings, "_PARAGRAPH_TABLE_SIZE", 4)
    monkeypatch.setattr(embeddings, "_CODE_TABLE_SIZE", 8)
    texts = [f"slice s{i % 7} in cell c{i % 5}\n\nadmit s{i % 3}\n\nprb {i}"
             for i in range(40)]
    expected = {text: _loop_embed(text, 48).tobytes() for text in texts}
    embedder = DeterministicEmbedder(48)
    wrong = []

    def worker(offset):
        for text in texts[offset:] + texts[:offset]:
            if embedder.embed(text).values.tobytes() != expected[text]:
                wrong.append(text)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k * 5,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_vector_values_are_read_only_and_owned():
    source = np.array([3.0, 4.0])
    vec = EmbeddingVector(source)
    source[0] = 0.0
    assert vec.tolist() == [3.0, 4.0]
    with pytest.raises(ValueError):
        vec.values[0] = 1.0
    with pytest.raises(ValueError):
        deterministic_embed("allocate prb").values[:] = 0.0


def test_equal_vectors_hash_alike_across_signed_zeros():
    a = EmbeddingVector([0.0, 1.0])
    b = EmbeddingVector([-0.0, 1.0])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert np.signbit(b.values[0])  # hashing leaves the stored -0.0 as it was


def test_cosine_zero_vector_convention():
    zero = EmbeddingVector.from_list([0.0] * 8)
    one = EmbeddingVector.from_list([1.0] + [0.0] * 7)
    assert cosine(zero, zero) == 1.0
    assert cosine(zero, one) == 0.0
    assert cosine(one, one) == pytest.approx(1.0)


def test_cosine_dimension_mismatch_is_hard_error():
    a = EmbeddingVector.from_list([1.0, 0.0])
    b = EmbeddingVector.from_list([1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        cosine(a, b)


def test_centroid_is_normalized_mean():
    a = EmbeddingVector.from_list([1.0, 0.0])
    b = EmbeddingVector.from_list([0.0, 1.0])
    c = centroid([a, b], 2)
    expected = np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5])
    assert np.allclose(c.values, expected)


def test_centroid_of_nothing_is_zero():
    assert centroid([], 4).is_zero()


def test_centroid_of_zero_vectors_stays_zero():
    zero = EmbeddingVector.from_list([0.0, 0.0, 0.0])
    assert centroid([zero, zero], 3).is_zero()


@pytest.mark.parametrize("values", [
    [1e308, 1e308, 0.0], [1e200, -1e200], [math.nan, 0.0], [0.0, math.inf],
    [10 ** 400], [True, 0.0], ["1.5", 0.0], [[1.0]], [], (1.0, 2.0), None])
def test_number_vector_refuses_what_has_no_finite_norm(values):
    assert number_vector(values) is None


def test_number_vector_keeps_finite_numbers_exactly():
    assert number_vector([1e150, -1e150, 0, 3]).tolist() == [1e150, -1e150, 0.0, 3.0]
    # the overflowing vector of a cosine that would read 1.0 where it is 0.5
    assert number_vector([1e308, 0.0, 1e308]) is None
    assert cosine(number_vector([1e150, 1e150, 0.0]),
                  number_vector([1e150, 0.0, 1e150])) == pytest.approx(0.5)
