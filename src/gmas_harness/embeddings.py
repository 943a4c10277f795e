"""Embedding vectors and the offline deterministic embedder.

The deterministic embedder is signed feature hashing: each lowercase
alphanumeric token is mapped to a bucket and a sign by two independent
keyed hashes, signed counts are accumulated, and the result is
L2-normalized unless it is all-zero. It exists so every metric in the
harness has an offline oracle that is a pure function of its input text.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

DEFAULT_DIM = 384

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase-alphanumeric tokens, in order of appearance."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """Fixed-length real vector with its L2 norm cached at construction.

    ``values`` is a private read-only copy, so one vector can be shared by
    any number of records, caches and threads.
    """

    values: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "norm", float(np.linalg.norm(arr)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash(self.values.tobytes())

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def is_zero(self) -> bool:
        return self.norm == 0.0

    def tolist(self) -> list[float]:
        return self.values.tolist()

    @classmethod
    def from_list(cls, values: list[float]) -> "EmbeddingVector":
        return cls(values)


@functools.lru_cache(maxsize=1 << 16)
def _token_feature(token: str, dim: int) -> tuple[int, int]:
    """(bucket, sign) of a token, from two independent keyed hashes."""
    data = token.encode("utf-8")
    bucket = hashlib.blake2b(data, digest_size=8, key=b"bucket").digest()
    sign = hashlib.blake2b(data, digest_size=1, key=b"sign").digest()
    return int.from_bytes(bucket, "big") % dim, 1 if sign[0] % 2 == 0 else -1


class DeterministicEmbedder:
    """Signed-feature-hashing embedder; same text always yields the same vector."""

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError(f"embedding dimension must be positive, got {dim}")
        self.dim = dim

    def embed(self, text: str) -> EmbeddingVector:
        features = [_token_feature(token, self.dim) for token in tokenize(text)]
        if not features:
            return EmbeddingVector(np.zeros(self.dim, dtype=np.float64))
        buckets, signs = zip(*features)
        # sums of +-1 are exact in float64, so the summation order is irrelevant
        vec = np.bincount(buckets, weights=signs, minlength=self.dim)
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            vec = vec / norm
        return EmbeddingVector(vec)

    def token_bucket(self, token: str) -> int:
        """Bucket index a single token hashes to (inspection aid for tests)."""
        return _token_feature(token, self.dim)[0]


def deterministic_embed(text: str, dim: int = DEFAULT_DIM) -> EmbeddingVector:
    """One-shot form of :class:`DeterministicEmbedder`."""
    return DeterministicEmbedder(dim).embed(text)


def _check_dims(a: EmbeddingVector, b: EmbeddingVector) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"embedding dims differ: {a.dim} vs {b.dim}")


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity with the harness zero-vector convention.

    Both vectors zero means the texts are treated as identical (1.0);
    exactly one zero means maximally dissimilar (0.0).
    """
    _check_dims(a, b)
    if a.is_zero() and b.is_zero():
        return 1.0
    if a.is_zero() or b.is_zero():
        return 0.0
    value = float(np.dot(a.values, b.values) / (a.norm * b.norm))
    return max(-1.0, min(1.0, value))  # shave float rounding past the unit ball


def centroid(vectors: list[EmbeddingVector], dim: int) -> EmbeddingVector:
    """L2-normalized mean of the vectors; zero vector if empty or all zero."""
    if not vectors:
        return EmbeddingVector(np.zeros(dim, dtype=np.float64))
    for v in vectors:
        if v.dim != dim:
            raise DimensionMismatchError(f"centroid over mixed dims: {v.dim} vs {dim}")
    mean = np.mean([v.values for v in vectors], axis=0)
    norm = np.linalg.norm(mean)
    if norm > 0.0:
        mean = mean / norm
    return EmbeddingVector(mean)
