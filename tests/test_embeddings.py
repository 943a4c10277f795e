from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmas_harness.embeddings import (DEFAULT_DIM, DeterministicEmbedder,
                                     EmbeddingVector, centroid, cosine,
                                     deterministic_embed, tokenize)
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


def test_vector_values_are_read_only_and_owned():
    source = np.array([3.0, 4.0])
    vec = EmbeddingVector(source)
    source[0] = 0.0
    assert vec.tolist() == [3.0, 4.0]
    with pytest.raises(ValueError):
        vec.values[0] = 1.0
    with pytest.raises(ValueError):
        deterministic_embed("allocate prb").values[:] = 0.0


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
