"""Exception hierarchy shared across the harness, and the one reader of every
JSON input file with the checker of its declared table."""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, TypeVar

T = TypeVar("T")


class GmasError(Exception):
    """Base class for all harness errors."""


class ConfigurationError(GmasError):
    """Invalid or incomplete configuration (bad registry, script miss, missing file)."""


class Range(NamedTuple):
    """[lo, hi], or (lo, hi] when ``lo_open``; a float in it is finite too."""
    lo: float
    hi: float = math.inf
    lo_open: bool = False

    def __contains__(self, value) -> bool:
        return ((self.lo < value if self.lo_open else self.lo <= value) and value <= self.hi
                and (type(value) is int or math.isfinite(value)))

    def __str__(self) -> str:
        return f"{'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g}]"


class Each(NamedTuple):
    """Each item of a list, or each value of an object whose free keys all
    pass ``keys`` (any key when None), is held to ``rule``."""
    rule: tuple
    keys: tuple | None = None


# A rule is (what a value must be, its exact types, what it must be in). bool
# is not a number and an integer takes no float, not even 2.0. What it must be
# in is None (anything of those types), a Range, a tuple of values, a pattern a
# string matches whole, a table (an object's keys, each to its rule; any other
# key is refused), a list of rules (a row of that many items) or an Each.
INT_GE_0, INT_GE_1 = ("an integer", (int,), Range(0)), ("an integer", (int,), Range(1))
NUM_GE_0, NUM_GT_0 = (("a number", (int, float), Range(0)),
                      ("a number", (int, float), Range(0, lo_open=True)))
STR, STR_OR_NULL = ("a string", (str,), None), ("a string or null", (str, type(None)), None)
TEXT = ("a non-empty string", (str,), re.compile(".+", re.S))
# one path part below a directory: no separator, and not . or ..
FILE_NAME = ("a file name (no / or \\, not . or ..)", (str,),
             re.compile(r"(?!\.\.?\Z)[^/\\]+"))


def table_rule(table: dict) -> tuple:
    return ("an object", (dict,), table)


def list_rule(item: tuple) -> tuple:
    return ("a list", (list,), Each(item))


def check(value, rule: tuple, name: str) -> None:
    """Refuse ``value``, called ``name`` ("" for a whole file), with a
    ConfigurationError naming the key at fault unless ``rule`` admits it and
    everything in it."""
    what, types, allowed = rule
    kind = type(allowed)
    if (type(value) not in types or (kind is Range or kind is tuple) and value not in allowed
            # a number rule's value is read as a float, so an integer must fit one
            or float in types and type(value) is int and abs(value) > sys.float_info.max
            or kind is re.Pattern and not allowed.fullmatch(value)
            or kind is list and len(value) != len(allowed)):
        detail = f" in {allowed}" if kind is Range or kind is tuple else ""
        raise ConfigurationError(f"{name or 'the file'} must be {what}{detail}, "
                                 f"got {value!r:.60}")
    if kind is dict or kind is Each and type(value) is dict:
        for key, item in value.items():
            sub = f"{name}.{key}" if name else key
            if kind is Each and allowed.keys is not None:
                check(key, allowed.keys, f"a key of {name or 'the file'}")
            elif kind is dict and key not in allowed:
                raise ConfigurationError(f"unknown key {sub!r}")
            check(item, allowed.rule if kind is Each else allowed[key], sub)
    elif kind is list or kind is Each:
        for i, item in enumerate(value):
            check(item, allowed.rule if kind is Each else allowed[i], f"{name}[{i}]")


def read_json_file(path: str | Path, kind: str, rule: tuple, build: Callable[[Any], T]) -> T:
    """``build`` applied to the value of the UTF-8 JSON file at ``path``, which
    is decoded exactly as ``json.loads`` does and checked against ``rule``
    first. Any failure to read, decode, check or build becomes one
    ConfigurationError naming the file and its ``kind``. ``build`` only takes
    the value apart, so no backend error is ever reported as a bad file."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
        check(value, rule, "")
        return build(value)
    except (OSError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError,
            RecursionError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path} is not a valid {kind} file "
                                 f"({type(exc).__name__}: {exc})") from None


class ValidationError(GmasError):
    """An artifact violates its contract (a non-finite float to persist, a path
    outside its root, or a run file ``RunRecord.from_dict`` refuses)."""


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
