"""Embedding vectors and the offline deterministic embedder.

The deterministic embedder is signed feature hashing: each lowercase
alphanumeric token is mapped to a bucket and a sign by two independent
keyed hashes, signed counts are accumulated, and the result is
L2-normalized unless it is all-zero. It exists so every metric in the
harness has an offline oracle that is a pure function of its input text.
No token spans a newline, so a text's tokens are those of its ``"\n\n"``
paragraphs, and the embedder reads each distinct paragraph's token codes
once and counts them all in one pass.
"""

from __future__ import annotations

import hashlib
import math
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
    # canonical JSON text of ``values``, set by ``artifacts`` on first encode
    json_text: str | None = field(default=None, init=False, repr=False)

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
        # + 0.0 turns -0.0 into 0.0, which __eq__ treats as equal
        return hash((self.values + 0.0).tobytes())

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


def number_vector(values) -> EmbeddingVector | None:
    """The vector of a decoded JSON value, or None unless it is a non-empty
    list of JSON numbers (``bool`` is not one) whose norm is a finite
    float64. A finite norm proves every value finite, so this refuses the
    ``NaN`` and ``Infinity`` tokens ``json.loads`` accepts and integers too
    large for a float, and also finite values whose squares overflow, whose
    cosines would come out wrong."""
    if type(values) is not list or not values or not set(map(type, values)) <= {int, float}:
        return None
    try:
        with np.errstate(over="ignore"):
            vector = EmbeddingVector(values)
    except OverflowError:
        return None
    return vector if math.isfinite(vector.norm) else None


# Tokens whose codes an embedder keeps; past this many it starts over, so a
# live grid's open vocabulary cannot grow the table without bound.
_CODE_TABLE_SIZE = 1 << 16

# Paragraphs whose codes an embedder keeps, bounded the same way; a seed-42
# refine grid embeds about 2,100 distinct paragraphs.
_PARAGRAPH_TABLE_SIZE = 1 << 12


def _token_code(token: str, dim: int) -> int:
    """A token's bucket, plus ``dim`` when its sign is negative; the bucket
    and the sign come from two independent keyed hashes."""
    data = token.encode("utf-8")
    bucket = hashlib.blake2b(data, digest_size=8, key=b"bucket").digest()
    sign = hashlib.blake2b(data, digest_size=1, key=b"sign").digest()
    return int.from_bytes(bucket, "big") % dim + (0 if sign[0] % 2 == 0 else dim)


class DeterministicEmbedder:
    """Signed-feature-hashing embedder; same text always yields the same vector."""

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError(f"embedding dimension must be positive, got {dim}")
        self.dim = dim
        self._codes: dict[str, int] = {}  # token -> _token_code(token, dim)
        # paragraph -> its tokens' codes as raw _code_dtype bytes; a table of
        # arrays left the seed-42 refine grid's peak RSS 2 MB higher
        self._paragraphs: dict[str, bytes] = {}
        self._code_dtype = np.min_scalar_type(2 * dim - 1)  # uint16 up to dim 32,768

    def _token_codes(self, tokens: list[str]) -> list[int]:
        codes = self._codes
        try:
            return [codes[token] for token in tokens]
        except KeyError:
            if len(codes) > _CODE_TABLE_SIZE:
                codes.clear()
            out = []
            for token in tokens:  # reads each code once, so a clear by another thread is safe
                code = codes.get(token)
                if code is None:
                    code = codes[token] = _token_code(token, self.dim)
                out.append(code)
            return out

    def _paragraph_codes(self, paragraph: str) -> bytes:
        table = self._paragraphs
        codes = table.get(paragraph)
        if codes is None:
            if len(table) > _PARAGRAPH_TABLE_SIZE:
                table.clear()
            codes = table[paragraph] = np.array(self._token_codes(tokenize(paragraph)),
                                                dtype=self._code_dtype).tobytes()
        return codes

    def embed(self, text: str) -> EmbeddingVector:
        codes = np.frombuffer(b"".join(map(self._paragraph_codes, text.split("\n\n"))),
                              dtype=self._code_dtype)
        if not codes.size:
            return EmbeddingVector(np.zeros(self.dim, dtype=np.float64))
        counts = np.bincount(codes, minlength=2 * self.dim)
        # integer counts, so the float64 difference is exactly the sum of the signs
        vec = np.subtract(counts[:self.dim], counts[self.dim:], dtype=np.float64)
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            vec = vec / norm
        return EmbeddingVector(vec)

    def token_bucket(self, token: str) -> int:
        """Bucket index a single token hashes to (inspection aid for tests)."""
        return _token_code(token, self.dim) % self.dim


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
