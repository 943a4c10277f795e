"""End-to-end grid experiment on the scripted backend, fully offline.

Runs 2 questions x 8 persona sets x 3 runs through the whole pipeline
(Planner -> Coordinator -> Allocator -> Coder -> Analyzer with targeted
refinement), persists canonical JSON artifacts, aggregates the metric
CSVs, and emits the markdown report plus SVG charts into demo_out/.

Equivalent CLI:
    gmas grid --questions sample_data/questions.json --runs 3 \
        --config sample_data/experiment.json --out demo_out --max-sets 8
"""

import shutil
from collections import Counter
from pathlib import Path

from gmas_harness import PersonaRegistry, enumerate_grid, summarize_cells
from gmas_harness.config import build_env, load_experiment_config
from gmas_harness.orchestrator import run_grid
from gmas_harness.reporting import aggregate_csv, emit_report
from gmas_harness.scenario import load_questions

SAMPLE = Path(__file__).parent.parent / "sample_data"
OUT = Path(__file__).parent.parent / "demo_out"

if OUT.exists():
    shutil.rmtree(OUT)

config = load_experiment_config(SAMPLE / "experiment.json")
env = build_env(config, experiment_id="exp-demo")
questions = load_questions(SAMPLE / "questions.json")[:2]
persona_sets = enumerate_grid(PersonaRegistry.builtin())[:8]

print(f"running {len(questions)} questions x {len(persona_sets)} sets x 3 runs...")
# run_grid persists each record and each cell's memory under OUT and returns
# one status entry per run
entries = run_grid(questions, persona_sets, runs=3, env=env, out_root=OUT, workers=2)
print("statuses:", dict(Counter(entry.status.value for entry in entries)))

# gmas report: read the tree one cell at a time, write the metric CSVs, keep
# one summary per cell and render the report from the summary of the cells
result = aggregate_csv(OUT)
summary = summarize_cells(result.cells, tau_d=config.run.thresholds.drift)
print("\nmean penalty by run:")
for run_index, stats in sorted(summary.per_run.items()):
    print(f"  run {run_index}: mean {stats['penalty']['mean']:.2f}, "
          f"median {stats['penalty']['median']:.2f}")

print("\nmean Coder drift by transition:")
for label, stats in summary.per_transition.items():
    print(f"  {label}: {stats['mean']:.4f}")

report_path = emit_report(summary, OUT / "report")
print(f"\n{result.runs} artifacts aggregated into "
      f"{', '.join(sorted(result.csv_paths))}")
print(f"report: {report_path}")
print(f"charts: {sorted(p.name for p in (OUT / 'report').glob('*.svg'))}")
