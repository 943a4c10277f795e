"""Generate the committed report goldens: the ``report.md`` and the three SVG
charts that ``gmas report`` writes for two fixture trees.

Run from the repository root:

    python3 tests/make_report_golden.py

The trees are the hand-specified golden records of ``fixture_records.py``
and one scripted cell whose Coder fails in run 2. ``tests/test_reporting.py``
asserts that ``gmas report`` still writes these bytes, so any change to the
aggregation, the summaries or the rendering of the report shows up as a diff.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).parent))

from gmas_harness.artifacts import persist_run  # noqa: E402
from gmas_harness.cli import cli_dispatch  # noqa: E402

from fixture_records import golden_fixture_records, persist_coder_fails_in_run2  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "report"
BUNDLE = ("report.md", "penalty_by_run.svg", "consistency_by_set.svg",
          "drift_by_transition.svg")


def _persist_golden_records(root: Path) -> None:
    for record in golden_fixture_records():
        persist_run(record, root)


TREES = {"golden": _persist_golden_records, "failed_run2": persist_coder_fails_in_run2}


def report_bundle(name: str, work: Path) -> dict[str, bytes]:
    """The files of the report bundle that ``gmas report`` writes for the tree
    ``name``, built under ``work``."""
    root = work / name
    TREES[name](root)
    if cli_dispatch(["report", "--root", str(root), "--out", str(root / "report")]) != 0:
        raise RuntimeError(f"gmas report failed on the {name} tree")
    return {file: (root / "report" / file).read_bytes() for file in BUNDLE}


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        for name in TREES:
            out_dir = GOLDEN / name
            out_dir.mkdir(parents=True, exist_ok=True)
            for file, data in report_bundle(name, Path(work)).items():
                (out_dir / file).write_bytes(data)
            print(f"wrote {out_dir}")


if __name__ == "__main__":
    main()
