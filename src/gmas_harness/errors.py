"""Exception hierarchy shared across the harness."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, TypeVar

T = TypeVar("T")


class GmasError(Exception):
    """Base class for all harness errors."""


class ConfigurationError(GmasError):
    """Invalid or incomplete configuration (bad registry, script miss, missing file)."""


def read_json_file(path: str | Path, kind: str, build: Callable[[Any], T]) -> T:
    """``build`` applied to the value of the UTF-8 JSON file at ``path``, which
    is decoded exactly as ``json.loads`` does. Any failure to read, decode or
    build, a ConfigurationError raised by ``build`` included, becomes one
    ConfigurationError naming the file and its ``kind``. ``build`` only takes
    the value apart, so no backend error is ever reported as a bad file."""
    try:
        return build(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError,
            RecursionError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path} is not a valid {kind} file "
                                 f"({type(exc).__name__}: {exc})") from None


class ValidationError(GmasError):
    """An artifact violates its contract (a non-finite float to persist, or a
    run file ``RunRecord.from_dict`` refuses)."""


class TransportError(GmasError):
    """Live backend call failed after all retry attempts."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class DimensionMismatchError(GmasError):
    """An embedding arrived with a different dimension than the experiment uses."""


class PlanSyntaxError(GmasError):
    """Allocation-DSL text failed to parse; carries the first offending location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.line = line
        self.column = column
