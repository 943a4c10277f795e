"""Independent reference implementations used as test oracles.

Nothing here imports the production interpreter, metric, or aggregation
code paths it checks: the simulator re-implements the DSL semantics with
regex matching and plain dict state; statistics use exact Fraction
arithmetic; cosines are plain Python loops over stored lists.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_ALLOC = re.compile(r"^allocate (\d+) prb to ([A-Za-z_]\w*)$")
_ADMIT = re.compile(r"^admit ([A-Za-z_]\w*)$")
_REJECT = re.compile(r"^reject ([A-Za-z_]\w*)$")
_SETPRIO = re.compile(r"^set_priority ([A-Za-z_]\w*) ([1-5])$")


def reference_simulate(plan_text: str, network: dict) -> dict:
    """Second, separately written interpreter for the allocation DSL."""
    caps = {c["cell_id"]: c["capacity_prb"] for c in network["cells"]}
    home = {s["slice_id"]: s["cell_id"] for s in network["slices"]}
    demand = {s["slice_id"]: s["demand_mbps"] for s in network["slices"]}
    rate = network.get("prb_rate_mbps", 1.0)
    base_latency = network.get("base_latency_ms", 20.0)

    used = {cell: 0 for cell in caps}
    grants = {sid: 0 for sid in home}
    admission: dict[str, str] = {}
    priority: dict[str, int] = {}
    errors: list[tuple[str, int]] = []

    for line_no, raw in enumerate(plan_text.split("\n"), start=1):
        stripped = re.sub(r"\s+", " ", raw.split("#", 1)[0].strip())
        if not stripped:
            continue
        m = _ALLOC.match(stripped)
        if m:
            amount, sid = int(m.group(1)), m.group(2)
            if sid not in home:
                errors.append(("unknown_slice", line_no))
                continue
            cell = home[sid]
            if used[cell] + amount > caps[cell]:
                errors.append(("capacity_exceeded", line_no))
                continue
            used[cell] += amount
            grants[sid] += amount
            continue
        m = _ADMIT.match(stripped)
        if m:
            sid = m.group(1)
            if sid not in home:
                errors.append(("unknown_slice", line_no))
            else:
                admission[sid] = "admitted"
            continue
        m = _REJECT.match(stripped)
        if m:
            sid = m.group(1)
            if sid not in home:
                errors.append(("unknown_slice", line_no))
            else:
                admission[sid] = "rejected"
            continue
        m = _SETPRIO.match(stripped)
        if m:
            sid = m.group(1)
            if sid not in home:
                errors.append(("unknown_slice", line_no))
            else:
                priority[sid] = int(m.group(2))
            continue
        raise AssertionError(f"oracle fed unparseable line {line_no}: {raw!r}")

    kpis = {}
    for sid in home:
        granted_rate = grants[sid] * rate
        throughput = demand[sid] if demand[sid] < granted_rate else granted_rate
        denom = granted_rate if granted_rate > 0.001 else 0.001
        latency = base_latency * demand[sid] / denom
        kpis[sid] = {
            "cell_id": home[sid],
            "allocated_prb": grants[sid],
            "throughput_mbps": throughput,
            "latency_ms": latency,
            "admission": admission.get(sid),
            "priority": priority.get(sid),
        }
    totals = {
        "allocated_prb": sum(g["allocated_prb"] for g in kpis.values()),
        "throughput_mbps": sum(g["throughput_mbps"] for g in kpis.values()),
        "mean_latency_ms": (sum(g["latency_ms"] for g in kpis.values()) / len(kpis))
                           if kpis else 0.0,
    }
    return {"kpis": kpis, "totals": totals, "errors": errors, "cell_used": used}


# ── exact statistics ─────────────────────────────────────────────────────────

def exact_mean(values) -> float:
    values = list(values)
    return float(sum(Fraction(v) for v in values) / len(values))


def exact_median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return float((Fraction(ordered[mid - 1]) + Fraction(ordered[mid])) / 2)


def exact_pstdev(values) -> float:
    values = list(values)
    mean = sum(Fraction(v) for v in values) / len(values)
    var = sum((Fraction(v) - mean) ** 2 for v in values) / len(values)
    return math.sqrt(var)


# ── plain-python vector math ─────────────────────────────────────────────────

def plain_cosine(a: list[float], b: list[float]) -> float:
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


def plain_drift(vectors: list[list[float]]) -> list:
    return [1.0 - plain_cosine(a, b) for a, b in zip(vectors, vectors[1:])]


# ── independent CSV aggregation over raw artifact JSON ───────────────────────

def reference_csv_rows(run_dicts: list[dict]) -> dict:
    """Metric CSV rows straight from raw artifact dicts, sorted like the CLI."""
    run_dicts = sorted(run_dicts, key=lambda d: (d["persona_set_id"],
                                                 d["question_id"], d["run_index"]))
    rows = {"penalty.csv": [], "consistency.csv": [], "overhead.csv": [],
            "conflict.csv": [], "drift.csv": []}
    for d in run_dicts:
        metrics = d.get("metrics")
        if not metrics:
            continue
        base = [d["experiment_id"], d["persona_set_id"], d["question_id"],
                d["run_index"]]
        rows["penalty.csv"].append(base + [metrics["penalty_score"]])
        rows["consistency.csv"].append(base + [metrics["consistency_score"]])
        rows["overhead.csv"].append(base + [metrics["coordination_overhead"]])
        rows["conflict.csv"].append(base + [metrics["conflict_rate"]])

    cells: dict[tuple, list[dict]] = {}
    for d in run_dicts:
        if d["status"] == "failed":
            continue  # drift pairs the runs on either side of a failed run
        cells.setdefault((d["persona_set_id"], d["question_id"]), []).append(d)
    drift_rows = []
    for (set_id, question_id), ds in sorted(cells.items()):
        ds = sorted(ds, key=lambda d: d["run_index"])
        roles = sorted(ds[0]["trajectories"])
        for role in roles:
            vectors = [d["trajectories"][role]["output_embedding"] for d in ds]
            for t, distance in enumerate(plain_drift(vectors)):
                drift_rows.append([ds[0]["experiment_id"], set_id, question_id,
                                   ds[t]["run_index"], ds[t + 1]["run_index"],
                                   distance, role])
    drift_rows.sort(key=lambda r: (r[1], r[2], r[3], r[6]))
    rows["drift.csv"] = drift_rows
    return rows
