"""Check that ``load_run`` gives the plain decode of every benchmark run file,
and that each record it gives re-encodes to the file's exact bytes.

Run from the repository root after ``perfbench/run.py`` has left its run
trees under ``.perfbench_work/``:

    python3 tests/check_loader.py sample-grid refine-grid live-stub

Every run file of each named workload's trees (``.perfbench_work/<workload>/
<pass>/runs``) loads through one ``ValueMemo`` shared by all of them, and
each record must equal ``RunRecord.from_dict(json.loads(text))``. Since the
memo shares one trajectory, path list or report among the files that hold
its text, as a grid shares them among its records, re-encoding each record
with ``canonical_json`` also checks that each part's encoded text is
spliced into every file that holds it. Exits 1 when a record differs, when
one re-encodes to other bytes, or when a workload has no tree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from gmas_harness.artifacts import ValueMemo, canonical_json, iter_run_files, load_run
from gmas_harness.records import RunRecord

WORK = Path(".perfbench_work")


def main(workloads: list[str]) -> int:
    memo, problems = ValueMemo(), []
    for workload in workloads:
        roots = sorted(runs.parent for runs in (WORK / workload).glob("*/runs"))
        if not roots:
            problems.append(f"{workload}: no run tree under {WORK / workload}")
        for root in roots:
            paths, differ, reencoded = list(iter_run_files(root)), [], []
            for path in paths:
                text = path.read_text(encoding="utf-8")
                record = load_run(path, memo)
                if record != RunRecord.from_dict(json.loads(text)):
                    differ.append(path)
                if canonical_json(record.to_dict()) + "\n" != text:
                    reencoded.append(path)
            print(f"{root}: {len(paths)} run files, {len(differ)} differ from the plain "
                  f"decode, {len(reencoded)} re-encode to other bytes")
            problems += [f"{path} loads unlike the plain decode" for path in differ]
            problems += [f"{path} re-encodes to other bytes" for path in reencoded]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
