"""Exception hierarchy shared across the harness."""

from __future__ import annotations


class GmasError(Exception):
    """Base class for all harness errors."""


class ConfigurationError(GmasError):
    """Invalid or incomplete configuration (bad registry, script miss, missing file)."""


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
