"""Checks that an offline workload's run tree equals what ``gmas grid`` writes.

    python3 perfbench/check_cli.py --workload sample-grid --seed 42

Run from the root of a checkout. It generates the workload's inputs for the
seed, runs one benchmark pass and ``python -m gmas_harness.cli grid`` on the
same files, and compares the canonical files of the two trees
(``experiment.json``, ``memory.json`` and every ``run<k>.json``; the
timestamped sidecars are left out). Exit code 0 when they are byte-identical,
1 when they differ.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    offline = sorted(name for name, w in run.WORKLOADS.items() if not w.live)
    parser.add_argument("--workload", required=True, choices=offline)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args()

    workload = run.WORKLOADS[args.workload]
    inputs = run.prepare_inputs(args.workload, workload, args.seed)
    bench = run.run_pass(args.workload, workload, inputs, "grid", "bench", None)["out"]
    cli_out = inputs["work"] / "cli"
    if cli_out.exists():
        shutil.rmtree(cli_out)
    env = dict(os.environ, PYTHONPATH="src")
    subprocess.run([sys.executable, "-m", "gmas_harness.cli", "grid",
                    "--questions", inputs["questions"], "--runs", str(workload.runs),
                    "--config", inputs["config"], "--out", str(cli_out),
                    "--workers", str(workload.workers)],
                   env=env, check=True, stdout=subprocess.DEVNULL)

    bench_files = [p.relative_to(bench) for p in run.tree_files(bench)]
    cli_files = [p.relative_to(cli_out) for p in run.tree_files(cli_out)]
    differ = sorted(set(bench_files) ^ set(cli_files))
    differ += [rel for rel in bench_files if rel in set(cli_files)
               and (bench / rel).read_bytes() != (cli_out / rel).read_bytes()]
    print(f"{args.workload} seed {args.seed}: {len(bench_files)} benchmark files, "
          f"{len(cli_files)} gmas grid files, {len(differ)} differ")
    for rel in differ[:10]:
        print(f"  differs: {rel}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
