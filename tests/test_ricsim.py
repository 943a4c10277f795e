from __future__ import annotations

import random

import pytest

from gmas_harness.errors import ConfigurationError, PlanSyntaxError
from gmas_harness.ricsim import (Cell, KpiReport, KpiThresholds, PlanStatement,
                                 SimulatedNetwork, Slice, check_thresholds,
                                 execute_plan, parse_plan,
                                 plan_findings_for_syntax_error)
from oracles import reference_simulate


# ── grammar ──────────────────────────────────────────────────────────────────

def test_single_allocate_statement():
    plan = parse_plan("allocate 10 prb to s1")
    assert plan.statements == (PlanStatement("allocate", "s1", 10, 1),)


def test_word_amount_is_syntax_error_at_token():
    with pytest.raises(PlanSyntaxError) as exc:
        parse_plan("allocate ten prb to s1")
    assert exc.value.line == 1
    assert exc.value.column == 10  # "ten" starts at column 10
    assert "ten" in str(exc.value)


def test_six_statement_fixture_matches_golden():
    text = ("# header comment\n"
            "allocate 5 prb to s1\n"
            "allocate 3 prb to s2   # trailing comment\n"
            "admit s1\n"
            "reject s3\n"
            "set_priority s1 2\n"
            "\n"
            "allocate 0 prb to s2\n")
    plan = parse_plan(text)
    assert plan.statements == (
        PlanStatement("allocate", "s1", 5, 2),
        PlanStatement("allocate", "s2", 3, 3),
        PlanStatement("admit", "s1", None, 4),
        PlanStatement("reject", "s3", None, 5),
        PlanStatement("set_priority", "s1", 2, 6),
        PlanStatement("allocate", "s2", 0, 8),
    )


def test_unknown_keyword_and_missing_tokens():
    with pytest.raises(PlanSyntaxError) as exc:
        parse_plan("deallocate 5 prb to s1")
    assert exc.value.column == 1
    with pytest.raises(PlanSyntaxError) as exc:
        parse_plan("allocate 5 prb to")
    assert exc.value.line == 1
    with pytest.raises(PlanSyntaxError):
        parse_plan("admit s1 extra")


def test_priority_range_enforced():
    with pytest.raises(PlanSyntaxError):
        parse_plan("set_priority s1 0")
    with pytest.raises(PlanSyntaxError):
        parse_plan("set_priority s1 6")
    assert parse_plan("set_priority s1 5").statements[0].amount == 5


def test_syntax_error_becomes_runtime_finding():
    try:
        parse_plan("allocate ten prb to s1")
    except PlanSyntaxError as exc:
        findings = plan_findings_for_syntax_error(exc)
    assert len(findings) == 1
    assert findings[0].rule_id == "plan_syntax_error"
    assert findings[0].dimension.value == "runtime"
    assert findings[0].location == (1, 10)


# ── network validation ───────────────────────────────────────────────────────

def test_network_validation():
    with pytest.raises(ConfigurationError):
        SimulatedNetwork(cells=(Cell("c1", 10),),
                         slices=(Slice("s1", "nope", 1.0),))
    with pytest.raises(ConfigurationError):
        Cell("c1", 0)
    with pytest.raises(ConfigurationError):
        Slice("s1", "c1", 0.0)


def test_network_json_round_trip(tmp_path, network):
    path = tmp_path / "net.json"
    path.write_text(
        '{"cells": [{"cell_id": "c1", "capacity_prb": 24},'
        ' {"cell_id": "c2", "capacity_prb": 16}],'
        ' "slices": [{"slice_id": "s1", "cell_id": "c1", "demand_mbps": 4.0},'
        ' {"slice_id": "s2", "cell_id": "c1", "demand_mbps": 6.0},'
        ' {"slice_id": "s3", "cell_id": "c2", "demand_mbps": 5.0}]}')
    assert SimulatedNetwork.from_json(path) == network


# ── execution semantics ──────────────────────────────────────────────────────

def test_demand_capped_throughput(network):
    report = execute_plan(parse_plan("allocate 5 prb to s1"), network)
    kpi = report.kpi("s1")
    assert kpi.allocated_prb == 5
    # demand 4.0, rate 5 * 1.0 -> min(4.0, 5.0) = 4.0
    assert kpi.throughput_mbps == 4.0


def test_zero_allocation_latency_floor():
    network = SimulatedNetwork(cells=(Cell("c1", 10),),
                               slices=(Slice("s1", "c1", 4.0),))
    report = execute_plan(parse_plan("allocate 0 prb to s1"), network)
    assert report.kpi("s1").latency_ms == pytest.approx(20.0 * 4.0 / 0.001)
    assert report.kpi("s1").latency_ms == pytest.approx(80000.0)


def test_over_capacity_statement_rejected_whole(network):
    report = execute_plan(parse_plan("allocate 20 prb to s1\n"
                                     "allocate 10 prb to s2"), network)
    assert report.kpi("s1").allocated_prb == 20
    assert report.kpi("s2").allocated_prb == 0  # 20 + 10 > 24, rejected whole
    assert [f.rule_id for f in report.findings] == ["capacity_exceeded"]
    assert report.findings[0].location == (2, 1)


def test_unknown_slice_is_finding_and_skip(network):
    report = execute_plan(parse_plan("allocate 5 prb to ghost\nadmit ghost"),
                          network)
    assert [f.rule_id for f in report.findings] == ["unknown_slice", "unknown_slice"]
    assert report.totals["allocated_prb"] == 0


def test_admission_and_priority_recorded(network):
    report = execute_plan(parse_plan("admit s1\nreject s2\nset_priority s3 4"),
                          network)
    assert report.kpi("s1").admission == "admitted"
    assert report.kpi("s2").admission == "rejected"
    assert report.kpi("s3").priority == 4


def test_execution_is_deterministic(network):
    text = "allocate 6 prb to s1\nallocate 9 prb to s2\nadmit s1"
    a = execute_plan(parse_plan(text), network)
    b = execute_plan(parse_plan(text), network)
    assert a == b


def test_capacity_conservation_under_adversarial_plan(network):
    text = "\n".join(f"allocate 9 prb to s{1 + i % 3}" for i in range(20))
    report = execute_plan(parse_plan(text), network)
    by_cell: dict[str, int] = {}
    for kpi in report.per_slice:
        by_cell[kpi.cell_id] = by_cell.get(kpi.cell_id, 0) + kpi.allocated_prb
    assert by_cell["c1"] <= 24
    assert by_cell["c2"] <= 16


# ── threshold evaluation ─────────────────────────────────────────────────────

def test_all_slices_satisfied_yields_no_findings(network):
    text = "allocate 5 prb to s1\nallocate 7 prb to s2\nallocate 6 prb to s3"
    report = execute_plan(parse_plan(text), network)
    assert check_thresholds(report, KpiThresholds())[0] == []


def test_low_throughput_ratio_fires():
    network = SimulatedNetwork(cells=(Cell("c1", 10),),
                               slices=(Slice("s1", "c1", 10.0),))
    report = execute_plan(parse_plan("allocate 3 prb to s1"), network)
    findings, _ = check_thresholds(report, KpiThresholds(min_throughput_ratio=0.5))
    # ratio 0.3 < 0.5 fires; latency 20*10/3 = 66.67 stays under 100
    assert [f.rule_id for f in findings] == ["throughput_below_ratio"]
    assert report.kpi("s1").latency_ms == pytest.approx(200.0 / 3.0)


def test_two_violations_from_hand_computation():
    # slice a: 2 prb on demand 8 -> ratio 0.25 (fail), latency 20*8/2 = 80 (pass)
    # slice b: 0 prb on demand 1 -> ratio 0 (fail), latency 20*1/0.001 = 20000 (fail)
    network = SimulatedNetwork(cells=(Cell("c1", 30),),
                               slices=(Slice("a", "c1", 8.0), Slice("b", "c1", 1.0)))
    report = execute_plan(parse_plan("allocate 2 prb to a"), network)
    findings, _ = check_thresholds(report, KpiThresholds(0.5, 100.0))
    assert sorted(f.rule_id for f in findings) == \
        ["latency_exceeded", "throughput_below_ratio", "throughput_below_ratio"]


def test_attach_verdicts(network):
    report = execute_plan(parse_plan("allocate 5 prb to s1"), network)
    verdicts = check_thresholds(report, KpiThresholds())[1].threshold_verdicts
    assert verdicts["s1"] == {"throughput_ok": True, "latency_ok": True}
    assert verdicts["s2"]["throughput_ok"] is False


def test_thresholds_must_be_positive():
    with pytest.raises(ConfigurationError):
        KpiThresholds(min_throughput_ratio=0.0)


# ── oracle equivalence ───────────────────────────────────────────────────────

def _random_network(rng: random.Random) -> SimulatedNetwork:
    n_cells = rng.randint(1, 3)
    cells = tuple(Cell(f"c{i}", rng.randint(4, 30)) for i in range(n_cells))
    n_slices = rng.randint(1, 5)
    slices = tuple(Slice(f"s{i}", f"c{rng.randrange(n_cells)}",
                         round(rng.uniform(0.5, 12.0), 3))
                   for i in range(n_slices))
    return SimulatedNetwork(cells=cells, slices=slices,
                            prb_rate_mbps=rng.choice([0.5, 1.0, 2.0]),
                            base_latency_ms=rng.choice([10.0, 20.0]))


def _random_plan(rng: random.Random, network: SimulatedNetwork) -> str:
    slice_ids = [s.slice_id for s in network.slices] + ["ghost"]
    lines = []
    for _ in range(rng.randint(1, 14)):
        kind = rng.choice(["allocate", "allocate", "allocate", "admit", "reject",
                           "set_priority", "comment"])
        sid = rng.choice(slice_ids)
        if kind == "allocate":
            lines.append(f"allocate {rng.randint(0, 25)} prb to {sid}")
        elif kind == "set_priority":
            lines.append(f"set_priority {sid} {rng.randint(1, 5)}")
        elif kind == "comment":
            lines.append("# noise comment")
        else:
            lines.append(f"{kind} {sid}")
    return "\n".join(lines)


def _network_dict(network: SimulatedNetwork) -> dict:
    return {
        "cells": [{"cell_id": c.cell_id, "capacity_prb": c.capacity_prb}
                  for c in network.cells],
        "slices": [{"slice_id": s.slice_id, "cell_id": s.cell_id,
                    "demand_mbps": s.demand_mbps} for s in network.slices],
        "prb_rate_mbps": network.prb_rate_mbps,
        "base_latency_ms": network.base_latency_ms,
    }


def _assert_reports_match(report: KpiReport, oracle: dict):
    assert len(report.per_slice) == len(oracle["kpis"])
    for kpi in report.per_slice:
        expected = oracle["kpis"][kpi.slice_id]
        assert kpi.allocated_prb == expected["allocated_prb"]
        assert kpi.throughput_mbps == pytest.approx(expected["throughput_mbps"],
                                                    abs=1e-9)
        assert kpi.latency_ms == pytest.approx(expected["latency_ms"], abs=1e-9)
        assert kpi.admission == expected["admission"]
        assert kpi.priority == expected["priority"]
    for key in ("allocated_prb", "throughput_mbps", "mean_latency_ms"):
        assert report.totals[key] == pytest.approx(oracle["totals"][key], abs=1e-9)
    got_errors = sorted((f.rule_id, f.location[0]) for f in report.findings)
    assert got_errors == sorted(oracle["errors"])


def test_interpreter_matches_reference_on_seeded_suite():
    rng = random.Random(20260810)
    cases = 0
    networks = [_random_network(rng) for _ in range(12)]
    for network in networks:
        for _ in range(10):
            plan_text = _random_plan(rng, network)
            report = execute_plan(parse_plan(plan_text), network)
            oracle = reference_simulate(plan_text, _network_dict(network))
            _assert_reports_match(report, oracle)
            used = oracle["cell_used"]
            caps = {c.cell_id: c.capacity_prb for c in network.cells}
            assert all(used[c] <= caps[c] for c in caps)
            cases += 1
    assert cases >= 100
