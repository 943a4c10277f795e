"""Simulated RIC: execute an allocation-DSL plan and check KPI thresholds.

The interpreter enforces per-cell capacity (over-allocations are rejected
whole and recorded as runtime findings) and derives throughput/latency
from the allocation: throughput = min(demand, prb * rate),
latency = base_latency * demand / max(prb * rate, 0.001).
"""

from pathlib import Path

from gmas_harness import (KpiThresholds, SimulatedNetwork, check_thresholds, execute_plan,
                          parse_plan)

SAMPLE = Path(__file__).parent.parent / "sample_data"

network = SimulatedNetwork.from_json(SAMPLE / "network.json")
print("network:")
for cell in network.cells:
    print(f"  cell {cell.cell_id}: {cell.capacity_prb} prb")
for s in network.slices:
    print(f"  slice {s.slice_id} in {s.cell_id}: demand {s.demand_mbps:g} mbps")

PLAN = """# rebalance toward the congested cell
allocate 5 prb to s1
allocate 7 prb to s2
allocate 2 prb to s3
allocate 99 prb to s2   # over capacity: rejected whole
admit s1
admit s2
admit s3
set_priority s1 2
"""

report = execute_plan(parse_plan(PLAN), network)
print("\nper-slice KPIs:")
for kpi in report.per_slice:
    print(f"  {kpi.slice_id}: {kpi.allocated_prb} prb, "
          f"{kpi.throughput_mbps:g} mbps, {kpi.latency_ms:.1f} ms, "
          f"admission={kpi.admission}")

print("\nruntime findings from execution:")
for f in report.findings:
    print(f"  [{f.severity.value}] {f.rule_id}: {f.message}")

findings, _ = check_thresholds(report, KpiThresholds(min_throughput_ratio=0.5,
                                                     max_latency_ms=100.0))
print("\nthreshold findings:")
for f in findings or []:
    print(f"  [{f.severity.value}] {f.rule_id}: {f.message}")
if not findings:
    print("  (all slices within thresholds)")
