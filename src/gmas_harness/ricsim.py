"""Deterministic simulated RIC: allocation-DSL parsing, execution, KPI findings.

Grammar, one statement per line, tokens whitespace-separated, ``#`` starts
a comment::

    plan    := line*
    line    := alloc | admit | reject | setprio
    alloc   := "allocate" INT "prb" "to" ID
    admit   := "admit" ID
    reject  := "reject" ID
    setprio := "set_priority" ID INT(1..5)

Arbitrary generated code is never executed in-process; only this closed
DSL runs against the simulated network.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

from .analyzer import Dimension, Finding, Severity
from .errors import (INT_GE_1, NUM_GT_0, STR, ConfigurationError, PlanSyntaxError, list_rule,
                     read_json_file, table_rule)

_INT_RE = re.compile(r"^\d+$")
_ID_RE = re.compile(r"^[A-Za-z_]\w*$")
_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class PlanStatement:
    kind: str                 # allocate | admit | reject | set_priority
    slice_id: str
    amount: int | None = None  # prb count or priority level
    line: int = 0


@dataclass(frozen=True)
class ParsedPlan:
    statements: tuple[PlanStatement, ...]
    source: str


def parse_plan(text: str) -> ParsedPlan:
    """Parse plan text; raises PlanSyntaxError at the first offending token."""
    statements: list[PlanStatement] = []
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]
        if not tokens:
            continue
        statements.append(_parse_line(tokens, line_no, len(line)))
    return ParsedPlan(statements=tuple(statements), source=text)


def _fail(line: int, column: int, message: str):
    raise PlanSyntaxError(f"line {line}, column {column}: {message}", line, column)


def _expect(tokens, idx: int, line: int, line_len: int, what: str, pattern) -> tuple[str, int]:
    if idx >= len(tokens):
        _fail(line, line_len + 1, f"expected {what}, found end of line")
    value, col = tokens[idx]
    if isinstance(pattern, str):
        if value != pattern:
            _fail(line, col, f"expected '{pattern}', found {value!r}")
    elif not pattern.match(value):
        _fail(line, col, f"expected {what}, found {value!r}")
    return value, col


def _no_extra(tokens, idx: int, line: int):
    if idx < len(tokens):
        value, col = tokens[idx]
        _fail(line, col, f"unexpected token {value!r}")


def _parse_line(tokens, line_no: int, line_len: int) -> PlanStatement:
    keyword, col = tokens[0]
    if keyword == "allocate":
        amount, _ = _expect(tokens, 1, line_no, line_len, "integer", _INT_RE)
        _expect(tokens, 2, line_no, line_len, "'prb'", "prb")
        _expect(tokens, 3, line_no, line_len, "'to'", "to")
        slice_id, _ = _expect(tokens, 4, line_no, line_len, "identifier", _ID_RE)
        _no_extra(tokens, 5, line_no)
        return PlanStatement("allocate", slice_id, int(amount), line_no)
    if keyword in ("admit", "reject"):
        slice_id, _ = _expect(tokens, 1, line_no, line_len, "identifier", _ID_RE)
        _no_extra(tokens, 2, line_no)
        return PlanStatement(keyword, slice_id, None, line_no)
    if keyword == "set_priority":
        slice_id, _ = _expect(tokens, 1, line_no, line_len, "identifier", _ID_RE)
        level, level_col = _expect(tokens, 2, line_no, line_len, "integer", _INT_RE)
        if not 1 <= int(level) <= 5:
            _fail(line_no, level_col, f"priority {level} outside 1..5")
        _no_extra(tokens, 3, line_no)
        return PlanStatement("set_priority", slice_id, int(level), line_no)
    _fail(line_no, col, f"unknown statement {keyword!r}")


# ── simulated network ────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Cell:
    cell_id: str
    capacity_prb: int


@dataclass(frozen=True)
class Slice:
    slice_id: str
    cell_id: str
    demand_mbps: float


@dataclass(frozen=True)
class SimulatedNetwork:
    cells: tuple[Cell, ...]
    slices: tuple[Slice, ...]
    prb_rate_mbps: float = 1.0
    base_latency_ms: float = 20.0

    def __post_init__(self):
        cell_ids = {c.cell_id for c in self.cells}
        if len(cell_ids) != len(self.cells):
            raise ConfigurationError("duplicate cell ids")
        slice_ids = [s.slice_id for s in self.slices]
        if len(set(slice_ids)) != len(slice_ids):
            raise ConfigurationError("duplicate slice ids")
        for s in self.slices:
            if s.cell_id not in cell_ids:
                raise ConfigurationError(
                    f"slice {s.slice_id} references unknown cell {s.cell_id}")

    @classmethod
    def from_json(cls, path: str | Path) -> "SimulatedNetwork":
        # float fields get float(), so a file's 4 writes 4.0 in run files, as 4.0 does
        return read_json_file(path, "network", table_rule(NETWORK_TABLE), lambda raw: cls(
            cells=tuple(Cell(**c) for c in raw["cells"]),
            slices=tuple(Slice(s["slice_id"], s["cell_id"], float(s["demand_mbps"]))
                         for s in raw["slices"]),
            **{k: float(raw[k]) for k in ("prb_rate_mbps", "base_latency_ms") if k in raw}))

    def slice_map(self) -> dict[str, Slice]:
        return {s.slice_id: s for s in self.slices}

    def capacity_map(self) -> dict[str, int]:
        return {c.cell_id: c.capacity_prb for c in self.cells}


CELL_TABLE = {"cell_id": STR, "capacity_prb": INT_GE_1}
SLICE_TABLE = {"slice_id": STR, "cell_id": STR, "demand_mbps": NUM_GT_0}
NETWORK_TABLE = {"cells": list_rule(table_rule(CELL_TABLE)),
                 "slices": list_rule(table_rule(SLICE_TABLE)),
                 "prb_rate_mbps": NUM_GT_0, "base_latency_ms": NUM_GT_0}


@dataclass(frozen=True)
class SliceKpi:
    slice_id: str
    cell_id: str
    demand_mbps: float
    allocated_prb: int
    throughput_mbps: float
    latency_ms: float
    admission: str | None = None     # admitted | rejected | None
    priority: int | None = None


@dataclass(frozen=True)
class KpiReport:
    per_slice: tuple[SliceKpi, ...]
    totals: dict
    findings: tuple[Finding, ...]
    threshold_verdicts: dict | None = None

    def kpi(self, slice_id: str) -> SliceKpi:
        for k in self.per_slice:
            if k.slice_id == slice_id:
                return k
        raise KeyError(slice_id)

    def to_dict(self) -> dict:
        return {
            "per_slice": [{
                "slice_id": k.slice_id, "cell_id": k.cell_id,
                "demand_mbps": k.demand_mbps, "allocated_prb": k.allocated_prb,
                "throughput_mbps": k.throughput_mbps, "latency_ms": k.latency_ms,
                "admission": k.admission, "priority": k.priority,
            } for k in self.per_slice],
            "totals": self.totals,
            "findings": [f.to_dict() for f in self.findings],
            "threshold_verdicts": self.threshold_verdicts,
        }


_EFFECTIVE_FLOOR = 0.001  # Mbps floor in the latency denominator


def execute_plan(plan: ParsedPlan, network: SimulatedNetwork) -> KpiReport:
    """Apply statements in order against value copies of the network state.

    Allocations beyond remaining cell capacity are rejected whole; unknown
    slice ids skip the statement. Both are recorded as runtime findings.
    throughput = min(demand, allocated * prb_rate);
    latency = base_latency * demand / max(allocated * prb_rate, 0.001).
    """
    slices = network.slice_map()
    capacity = network.capacity_map()
    cell_used = {cell_id: 0 for cell_id in capacity}
    allocated: dict[str, int] = {sid: 0 for sid in slices}
    admission: dict[str, str] = {}
    priority: dict[str, int] = {}
    findings: list[Finding] = []

    for stmt in plan.statements:
        if stmt.slice_id not in slices:
            findings.append(Finding(Dimension.RUNTIME, "unknown_slice", Severity.ERROR,
                                    f"statement targets unknown slice '{stmt.slice_id}'",
                                    (stmt.line, 1)))
            continue
        if stmt.kind == "allocate":
            cell_id = slices[stmt.slice_id].cell_id
            if cell_used[cell_id] + stmt.amount > capacity[cell_id]:
                findings.append(Finding(
                    Dimension.RUNTIME, "capacity_exceeded", Severity.ERROR,
                    f"allocating {stmt.amount} prb to {stmt.slice_id} exceeds "
                    f"cell {cell_id} capacity {capacity[cell_id]} "
                    f"(used {cell_used[cell_id]})", (stmt.line, 1)))
                continue
            cell_used[cell_id] += stmt.amount
            allocated[stmt.slice_id] += stmt.amount
        elif stmt.kind == "admit":
            admission[stmt.slice_id] = "admitted"
        elif stmt.kind == "reject":
            admission[stmt.slice_id] = "rejected"
        elif stmt.kind == "set_priority":
            priority[stmt.slice_id] = stmt.amount

    per_slice = []
    for s in network.slices:
        rate = allocated[s.slice_id] * network.prb_rate_mbps
        throughput = min(s.demand_mbps, rate)
        latency = network.base_latency_ms * s.demand_mbps / max(rate, _EFFECTIVE_FLOOR)
        per_slice.append(SliceKpi(
            slice_id=s.slice_id, cell_id=s.cell_id, demand_mbps=s.demand_mbps,
            allocated_prb=allocated[s.slice_id], throughput_mbps=throughput,
            latency_ms=latency, admission=admission.get(s.slice_id),
            priority=priority.get(s.slice_id)))

    totals = {
        "allocated_prb": sum(k.allocated_prb for k in per_slice),
        "throughput_mbps": sum(k.throughput_mbps for k in per_slice),
        "mean_latency_ms": (sum(k.latency_ms for k in per_slice) / len(per_slice))
                           if per_slice else 0.0,
    }
    return KpiReport(per_slice=tuple(per_slice), totals=totals,
                     findings=tuple(findings))


@dataclass(frozen=True)
class KpiThresholds:
    min_throughput_ratio: float = 0.5
    max_latency_ms: float = 100.0


def check_thresholds(report: KpiReport, thresholds: KpiThresholds
                     ) -> tuple[list[Finding], KpiReport]:
    """Per-slice threshold findings (dimension=runtime) and a copy of the
    report with each slice's pass/fail verdicts filled in, in one pass."""
    findings: list[Finding] = []
    verdicts = {}
    for k in report.per_slice:
        ratio = k.throughput_mbps / k.demand_mbps
        throughput_ok = ratio >= thresholds.min_throughput_ratio
        latency_ok = k.latency_ms <= thresholds.max_latency_ms
        if not throughput_ok:
            findings.append(Finding(
                Dimension.RUNTIME, "throughput_below_ratio", Severity.ERROR,
                f"slice {k.slice_id} throughput ratio {ratio:.3f} below "
                f"{thresholds.min_throughput_ratio:g}"))
        if not latency_ok:
            findings.append(Finding(
                Dimension.RUNTIME, "latency_exceeded", Severity.ERROR,
                f"slice {k.slice_id} latency {k.latency_ms:.3f} ms above "
                f"{thresholds.max_latency_ms:g} ms"))
        verdicts[k.slice_id] = {"throughput_ok": throughput_ok, "latency_ok": latency_ok}
    return findings, replace(report, threshold_verdicts=verdicts)


def plan_findings_for_syntax_error(exc: PlanSyntaxError) -> list[Finding]:
    """A failed parse surfaces as one runtime-dimension error finding."""
    return [Finding(Dimension.RUNTIME, "plan_syntax_error", Severity.ERROR,
                    str(exc), (exc.line, exc.column))]
