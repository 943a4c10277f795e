"""Key-to-value memo that computes each missing value once, also under threads,
and the piecewise hash feed by which a digest of a long text keeps the GIL."""

from __future__ import annotations

import threading
from typing import Callable, Hashable, TypeVar

V = TypeVar("V")

_MISSING = object()


class Memo:
    """Caches ``compute()`` results by key for the life of the owning object.

    Concurrent callers that miss on the same key wait for the first caller's
    result instead of computing it again. An exception from ``compute``
    reaches its caller and caches nothing, so the next call for that key
    computes afresh. Cached values are shared, so they must be immutable.
    """

    def __init__(self):
        self._values: dict = {}
        self._gates: dict = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], V]) -> V:
        value = self._values.get(key, _MISSING)
        if value is not _MISSING:
            return value
        with self._lock:
            gate = self._gates.setdefault(key, threading.Lock())
        with gate:
            value = self._values.get(key, _MISSING)
            if value is _MISSING:
                value = compute()
                self._values[key] = value
        with self._lock:
            self._gates.pop(key, None)
        return value


# hashlib lets go of the GIL while it hashes a buffer of 2,048 bytes or more,
# and a worker thread that lets go of it mid-run waits to get it back; fed in
# shorter pieces, a digest keeps it. The digest is the same.
HASH_PIECE = 2047


def hash_in_pieces(h, data: bytes):
    """``h`` after ``h.update(data)``, fed ``HASH_PIECE`` bytes at a time."""
    for start in range(0, len(data), HASH_PIECE):
        h.update(data[start:start + HASH_PIECE])
    return h

