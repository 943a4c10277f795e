"""Check that ``load_run`` gives the plain decode of every benchmark run file.

Run from the repository root after ``perfbench/run.py`` has left its run
trees under ``.perfbench_work/``:

    python3 tests/check_loader.py sample-grid refine-grid live-stub

Every run file of each named workload's trees (``.perfbench_work/<workload>/
<pass>/runs``) loads through one ``ValueMemo`` shared by all of them, and
each record must equal ``RunRecord.from_dict(json.loads(text))``. Exits 1
when a record differs, or when a workload has no tree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from gmas_harness.artifacts import ValueMemo, iter_run_files, load_run
from gmas_harness.records import RunRecord

WORK = Path(".perfbench_work")


def main(workloads: list[str]) -> int:
    memo, problems = ValueMemo(), []
    for workload in workloads:
        roots = sorted(runs.parent for runs in (WORK / workload).glob("*/runs"))
        if not roots:
            problems.append(f"{workload}: no run tree under {WORK / workload}")
        for root in roots:
            paths = list(iter_run_files(root))
            differ = [path for path in paths if load_run(path, memo) != RunRecord.from_dict(
                json.loads(path.read_text(encoding="utf-8")))]
            print(f"{root}: {len(paths)} run files, {len(differ)} differ from the plain decode")
            problems += [f"{path} loads unlike the plain decode" for path in differ]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
