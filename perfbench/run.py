"""Grid benchmark of the gmas harness: one workload per invocation.

    python3 perfbench/run.py --workload sample-grid --seed 42 --seconds 40 --trace 0

Run from the root of a checkout. The seed picks the question set
(``generate_questions(count, seed=seed)``, template mode) and sets ``seed`` and
``backend.fallback_seed`` in the generated config; the harness receives only
these generated files. Each grid pass runs in a fresh process
(``workload.py``) through the entry points of ``gmas grid`` and
``gmas report``.

With ``--trace 0`` the benchmark takes set-up samples, then grid passes
while the next pass is expected to end within ``--seconds`` (at least one),
and prints the end-to-end metrics. With ``--trace 1`` it makes one untraced
and one traced pass and prints the per-layer metrics, taken from spans, with
the tracing overhead.

Times are scaled to a reference machine speed: each wall time is multiplied
by ``PROBE_REF_S`` over the mean speed-probe sample taken during it (see
``workload.SpeedProbe``), because the speed of a small shared VM drifts by
tens of percent within a minute. The unscaled wall times are printed too.

Every invocation checks the outputs: the five metric CSVs against
``tests/oracles.reference_csv_rows`` recomputed from the run JSON, the run
tree bytes across the passes of the invocation and, at the default seed, the
tree, CSV digests and status and route counts recorded in
``perfbench/reference.json``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when a check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path("perfbench")
WORK = Path(".perfbench_work")
REFERENCE = BENCH / "reference.json"
REQUIRED = (Path("BENCHMARK.json"), Path("src/gmas_harness/cli.py"),
            Path("sample_data/experiment.json"), Path("tests/oracles.py"))
DEFAULT_SEED = 42
SETUP_SAMPLES = 3
REPORT_REPEATS = 5
PASS_TIMEOUT_S = 170
# Config entries holding paths; rewritten so they resolve from the generated config.
PATH_KEYS = (("stores", "corpus_dir"), ("stores", "graph_path"), ("network_path",),
             ("policy_rules_path",))
CSV_NAMES = ("penalty.csv", "consistency.csv", "drift.csv", "overhead.csv",
             "conflict.csv")
FLOAT_TOL = 1e-9  # relative and absolute, CSV value against the oracle's
# Times are scaled to the speed at which one speed-probe sample (workload.SpeedProbe)
# takes this long: the median sample on the 2-CPU machine the baseline was taken on.
PROBE_REF_S = 0.0015
PROBE_MARGIN_S = 0.05
MAX_COVERAGE_GAP = 0.1  # traced self times must sum to within 10% of the grid


@dataclass(frozen=True)
class Workload:
    config: str
    questions: int
    runs: int
    workers: int
    live: bool = False


WORKLOADS = {
    "sample-grid": Workload("sample_data/experiment.json", questions=5, runs=3, workers=1),
    "refine-grid": Workload("perfbench/data/refine/experiment.json", questions=5, runs=3,
                            workers=2),
    "live-stub": Workload("perfbench/data/live/experiment.json", questions=2, runs=3,
                          workers=2, live=True),
}



class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ── inputs ───────────────────────────────────────────────────────────────────

def prepare_inputs(name: str, workload: Workload, seed: int) -> dict:
    """Write the seed's question set and config under the workload's work dir."""
    if "src" not in sys.path:
        sys.path.insert(0, "src")
    from gmas_harness.scenario import generate_questions, save_questions

    work = WORK / name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    questions = work / "questions.json"
    save_questions(generate_questions(workload.questions, seed=seed), questions)

    template = Path(workload.config)
    raw = json.loads(template.read_text(encoding="utf-8"))
    raw["seed"] = seed
    raw.setdefault("backend", {})["fallback_seed"] = seed
    for keys in PATH_KEYS:
        holder = raw
        for key in keys[:-1]:
            holder = holder.get(key, {})
        if keys[-1] in holder:
            target = template.parent / holder[keys[-1]]
            holder[keys[-1]] = os.path.relpath(target, work)
    config = work / "experiment.json"
    config.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return {"questions": str(questions), "config": str(config), "work": work,
            "dim": int(raw.get("embedding_dim", 384))}


# ── stub server and workload processes ───────────────────────────────────────

@contextmanager
def stub_server(seed: int, dim: int):
    proc = subprocess.Popen([sys.executable, str(BENCH / "stub.py"), "--seed", str(seed),
                             "--dim", str(dim)], stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            raise BenchError("stub server did not start")
        yield f"http://127.0.0.1:{line[1]}"
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def run_pass(name: str, workload: Workload, inputs: dict, mode: str, label: str,
             api_base: str | None, report_repeats: int = 1) -> dict:
    """One workload process; returns its measurements, times scaled."""
    out = inputs["work"] / label
    if out.exists():
        shutil.rmtree(out)
    spec = {"mode": mode, "questions": inputs["questions"], "config": inputs["config"],
            "runs": workload.runs, "workers": workload.workers, "out": str(out),
            "report_repeats": report_repeats, "api_base": api_base,
            "spans": str(inputs["work"] / "spans.jsonl")}
    spec_path = inputs["work"] / f"{label}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(["src"] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("GMAS_API_KEY", None)
    env.pop("GMAS_API_BASE", None)
    if api_base:
        env["GMAS_API_BASE"] = api_base
        request = urllib.request.Request(api_base + "/reset", data=b"{}", method="POST")
        urllib.request.urlopen(request, timeout=10).close()
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "workload.py"), str(spec_path)],
                              capture_output=True, text=True, env=env,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} {label} pass exceeded {PASS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} {label} pass exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    p = json.loads(lines[-1])
    p["out"] = out
    p["wall_s"] = time.monotonic() - spawned
    samples = p.pop("probe")
    p["setup_raw_s"] = p["grid_start"] - spawned
    p["setup_s"] = p["setup_raw_s"] * speed_factor(samples, spawned, p["grid_start"])
    if "grid_end" in p:
        p["grid_raw_s"] = p["grid_end"] - p["grid_start"]
        p["grid_factor"] = speed_factor(samples, p["grid_start"], p["grid_end"])
        p["grid_s"] = p["grid_raw_s"] * p["grid_factor"]
        p["cell_s"] = [c * p["grid_factor"] for c in p["cell_s"]]
        p["report_raw_s"] = [end - start for start, end in p["reports"]]
        p["report_factor"] = [speed_factor(samples, start, end)
                              for start, end in p["reports"]]
        p["report_s"] = [t * f for t, f in zip(p["report_raw_s"], p["report_factor"])]
    return p


def speed_factor(samples: list, start: float, end: float) -> float:
    """PROBE_REF_S over the mean probe sample taken in [start, end].

    Multiplying a wall time by this factor gives the time at the reference
    speed. Samples taken just before and just after the interval count too
    (within PROBE_MARGIN_S), so a short interval bracketed by samples, such
    as set-up or one report, has some.
    """
    inside = [s for t, s in samples
              if start - PROBE_MARGIN_S <= t <= end + PROBE_MARGIN_S]
    if not inside:
        raise BenchError("no speed-probe sample near a measured interval")
    return PROBE_REF_S / statistics.fmean(inside)


# ── checks ───────────────────────────────────────────────────────────────────

def tree_files(root: Path) -> list[Path]:
    """The canonical files ``gmas grid`` writes; timestamped sidecars excluded."""
    runs = sorted(p for p in (root / "runs").glob("*/*/run*.json")
                  if not p.name.endswith(".meta.json"))
    return [root / "experiment.json", root / "memory.json"] + runs


def tree_digest(root: Path) -> tuple[str, int, int]:
    """(sha256 over paths and bytes, run count, canonical run bytes)."""
    h = hashlib.sha256()
    runs = run_bytes = 0
    for path in tree_files(root):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
        if path.parent.parent.parent.name == "runs":
            runs += 1
            run_bytes += len(data)
    return h.hexdigest(), runs, run_bytes


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", "tests/oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_csvs(root: Path, run_dicts: list[dict]) -> list[str]:
    """Metric CSVs against the independent oracle, floats at FLOAT_TOL."""
    expected = load_oracles().reference_csv_rows(run_dicts)
    problems = []
    for name in CSV_NAMES:
        with (root / name).open(newline="", encoding="utf-8") as handle:
            got = list(csv.reader(handle))[1:]
        want = expected[name]
        if len(got) != len(want):
            problems.append(f"{name}: {len(got)} rows, oracle has {len(want)}")
            continue
        for row, (g, w) in enumerate(zip(got, want), start=2):
            same = len(g) == len(w) and all(
                math.isclose(float(gv), wv, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
                if isinstance(wv, float) else gv == str(wv)
                for gv, wv in zip(g, w))
            if not same:
                problems.append(f"{name} line {row}: {g} != oracle {w}")
                break
    return problems


def observe(root: Path) -> tuple[dict, list[str]]:
    """Status and route counts, CSV digests and oracle problems of one tree."""
    run_dicts = [json.loads(p.read_text(encoding="utf-8"))
                 for p in tree_files(root)[2:]]
    status = Counter(d["status"] for d in run_dicts)
    routes = Counter(e["routed_role"] for d in run_dicts for e in d["refinement_events"])
    seen = {
        "status": dict(sorted(status.items())),
        "routes": dict(sorted(routes.items())),
        "csv_sha256": {n: hashlib.sha256((root / n).read_bytes()).hexdigest()
                       for n in CSV_NAMES},
    }
    return seen, check_csvs(root, run_dicts)


def check_reference(name: str, seen: dict) -> list[str]:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    want = reference["workloads"][name].get("reference", {})
    return [f"{key}: {seen.get(key)} != reference {want.get(key)}"
            for key in ("questions_sha256", "tree_sha256", "csv_sha256", "status", "routes")
            if seen.get(key) != want.get(key)]


# ── metrics ──────────────────────────────────────────────────────────────────

def with_units(values: dict, kind: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it exactly."""
    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload: Workload, setups: list[float], passes: list[dict],
               runs: int, run_bytes: int, failed: int) -> dict:
    med = statistics.median
    requests = [p["http_requests"] if workload.live else p["backend_calls"]
                for p in passes]
    cells = [t for p in passes for t in p["cell_s"]]
    values = {
        "setup_s": med(setups + [p["setup_s"] for p in passes]),
        "runs_per_s": med(runs / p["grid_s"] for p in passes),
        "cell_s_p50": med(cells),
        "cell_s_p90": p90(cells),
        "report_s": med(t for p in passes for t in p["report_s"]),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "artifact_bytes_per_run": run_bytes / runs,
        "ok_run_share": (runs - failed) / runs,
        "backend_requests_per_run": med(requests) / runs,
    }
    return with_units(values, "end_to_end")


def per_layer(workers: int, untraced: dict, traced: dict, seen: dict) -> tuple[dict, list]:
    factors = {"setup": traced["setup_s"] / traced["setup_raw_s"],
               "grid": traced["grid_factor"], "report": traced["report_factor"][0]}
    spans = {}
    for key, v in traced["spans"].items():
        f = factors[key.split(":", 1)[0]]
        spans[key] = {"calls": v["calls"], "self_s": v["self_s"] * f,
                      "inclusive_s": v["inclusive_s"] * f}
    zero = {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0}

    def get(name: str, field: str):
        return sum(spans.get(f"{phase}:{name}", zero)[field] for phase in ("grid", "report"))

    routes = seen["routes"]
    gen_calls = get("backends.generate", "calls")
    embed_calls = get("backends.embed", "calls")
    retrieve_calls = get("knowledge.retrieve_rag", "calls") + get("knowledge.retrieve_graph",
                                                                  "calls")
    requests = traced["http_requests"]
    grid_self = sum(v["self_s"] for k, v in spans.items() if k.startswith("grid:"))
    m = {
        "config.build_env.s": spans.get("setup:config.build_env", zero)["inclusive_s"],
        "orchestrator.run_cell.self_s": get("orchestrator.run_cell", "self_s"),
        "orchestrator.execute_run.calls": get("orchestrator.execute_run", "calls"),
        "orchestrator.execute_run.self_s": get("orchestrator.execute_run", "self_s"),
        "orchestrator.refinements.planner": routes.get("Planner", 0),
        "orchestrator.refinements.allocator": routes.get("Allocator", 0),
        "orchestrator.refinements.coder": routes.get("Coder", 0),
        "backends.generate.calls": gen_calls,
        "backends.generate.s": get("backends.generate", "self_s"),
        "backends.embed.calls": embed_calls,
        "backends.embed.s": get("backends.embed", "self_s"),
        "backends.embed.distinct_share":
            traced["distinct"]["backends.embed"] / embed_calls if embed_calls else 0.0,
        "backends.http.requests": requests,
        "backends.http.5xx": traced["http_5xx"],
        "backends.http.retry_share":
            (requests - gen_calls - embed_calls) / requests if requests else 0.0,
        "backends.bucket_wait_s": get("backends.bucket_wait", "self_s"),
        "embeddings.embed.calls": get("embeddings.embed", "calls"),
        "embeddings.embed.s": get("embeddings.embed", "self_s"),
        "knowledge.retrieve_rag.calls": get("knowledge.retrieve_rag", "calls"),
        "knowledge.retrieve_rag.s": get("knowledge.retrieve_rag", "self_s"),
        "knowledge.retrieve_graph.calls": get("knowledge.retrieve_graph", "calls"),
        "knowledge.retrieve_graph.s": get("knowledge.retrieve_graph", "self_s"),
        "knowledge.retrieve.distinct_share":
            traced["distinct"]["knowledge.retrieve"] / retrieve_calls if retrieve_calls
            else 0.0,
        "analyzer.parse_code.calls": get("analyzer.parse_code", "calls"),
        "analyzer.parse_code.s": get("analyzer.parse_code", "self_s"),
        "analyzer.rules.s": sum(get(f"analyzer.{n}", "self_s") for n in
                                ("run_static_checks", "enforce_policy", "formal_lite_check")),
        "analyzer.build_report.s": get("analyzer.build_report", "self_s"),
        "ricsim.parse_plan.s": get("ricsim.parse_plan", "self_s"),
        "ricsim.execute_plan.calls": get("ricsim.execute_plan", "calls"),
        "ricsim.execute_plan.s": get("ricsim.execute_plan", "self_s"),
        "safety.check_alignment.calls": get("safety.check_alignment", "calls"),
        "safety.check_alignment.s": get("safety.check_alignment", "self_s"),
        "safety.conflict_rate.s": get("safety.conflict_rate", "self_s"),
        "safety.consistency_score.s": get("safety.consistency_score", "self_s"),
        "records.to_dict.s": get("records.to_dict", "self_s"),
        "records.from_dict.s": get("records.from_dict", "self_s"),
        "artifacts.persist_run.calls": get("artifacts.persist_run", "calls"),
        "artifacts.persist_run.s": get("artifacts.persist_run", "self_s"),
        "artifacts.canonical_json.s": get("artifacts.canonical_json", "self_s"),
        "artifacts.bytes_written": traced["bytes_written"],
        "artifacts.load_run.calls": get("artifacts.load_run", "calls"),
        "artifacts.load_run.s": get("artifacts.load_run", "self_s"),
        "reporting.aggregate_csv.s": get("reporting.aggregate_csv", "self_s"),
        "reporting.emit_report.s": get("reporting.emit_report", "self_s"),
        "trace.overhead": traced["grid_s"] / untraced["grid_s"] - 1.0,
        "trace.self_coverage": grid_self / (workers * traced["grid_s"]),
    }

    walls = {"grid": workers * traced["grid_s"], "report": traced["report_s"][0],
             "setup": traced["setup_s"]}
    table = sorted(((k.split(":", 1)[0], k.split(":", 1)[1], v["calls"], v["self_s"],
                     v["self_s"] / walls[k.split(":", 1)[0]]) for k, v in spans.items()),
                   key=lambda row: (row[0], -row[3]))
    return with_units(m, "per_layer"), table


# ── driver ───────────────────────────────────────────────────────────────────

def measure(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list]:
    workload = WORKLOADS[name]
    inputs = prepare_inputs(name, workload, seed)
    problems: list[str] = []
    with (stub_server(seed, inputs["dim"]) if workload.live else nullcontext()) as api_base:
        deadline = time.monotonic() + seconds
        if trace:
            passes = [run_pass(name, workload, inputs, "grid", "untraced", api_base),
                      run_pass(name, workload, inputs, "traced", "traced", api_base)]
            setups = []
        else:
            setups = [run_pass(name, workload, inputs, "setup", "setup", api_base)["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
            passes = []
            while True:
                label = f"pass{len(passes) + 1}"
                passes.append(run_pass(name, workload, inputs, "grid", label, api_base,
                                       REPORT_REPEATS))
                if time.monotonic() + passes[-1]["wall_s"] > deadline:
                    break
    digests = []
    for p in passes:
        print(f"{p['out'].name}: grid {p['grid_raw_s']:.3f} s wall, speed factor "
              f"{p['grid_factor']:.3f}; report {statistics.median(p['report_raw_s']):.3f} s "
              f"wall; set-up {p['setup_raw_s']:.3f} s wall")
        digests.append(tree_digest(p["out"]))
        if p is not passes[-1]:
            shutil.rmtree(p["out"])
        if p["grid_exit"] != 0 or any(p["report_exit"]):
            problems.append(f"pass {p['out'].name}: gmas grid/report exit codes "
                            f"{p['grid_exit']}/{p['report_exit']}")
    if len({d[0] for d in digests}) != 1:
        problems.append(f"run trees differ across passes: {[d[0] for d in digests]}")
    seen, oracle_problems = observe(passes[-1]["out"])
    problems += oracle_problems
    seen["tree_sha256"] = digests[-1][0]
    seen["questions_sha256"] = hashlib.sha256(
        Path(inputs["questions"]).read_bytes()).hexdigest()
    if seed == DEFAULT_SEED:
        print("reference " + json.dumps(seen, sort_keys=True))
        problems += check_reference(name, seen)
    _, runs, run_bytes = digests[-1]
    failed = seen["status"].get("failed", 0)
    if trace:
        metrics, table = per_layer(workload.workers, passes[0], passes[1], seen)
        coverage = metrics["trace.self_coverage"]["value"]
        if abs(coverage - 1.0) > MAX_COVERAGE_GAP:
            problems.append(f"span self times cover {coverage:.1%} of the traced grid")
    else:
        metrics, table = end_to_end(workload, setups, passes, runs, run_bytes, failed), []
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return ({"correct": not problems, "attempted": runs * len(passes),
             "failed": failed * len(passes), "metrics": metrics}, table)


def main() -> int:
    parser = argparse.ArgumentParser(description="gmas harness grid benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from a checkout of the harness; missing {missing}",
              file=sys.stderr)
        return 2
    try:
        result, table = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if table:
        print(f"{'phase':<7} {'span':<32} {'calls':>8} {'self_s':>9} {'share':>7}")
        for phase, span, calls, self_s, share in table:
            print(f"{phase:<7} {span:<32} {calls:>8} {self_s:>9.4f} {share:>7.1%}")
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
