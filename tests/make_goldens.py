"""Generate the committed golden CSVs from the fixture record set.

Run once from the repository root:

    python3 tests/make_goldens.py

Goldens are produced by the independent aggregation path in oracles.py,
never by the production aggregator they validate.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from gmas_harness.artifacts import canonical_json  # noqa: E402

from fixture_records import golden_fixture_records  # noqa: E402
from oracles import reference_csv_rows  # noqa: E402

HEADERS = {
    "penalty.csv": ["experiment_id", "persona_set_id", "question_id", "run_index",
                    "penalty_score"],
    "consistency.csv": ["experiment_id", "persona_set_id", "question_id", "run_index",
                        "consistency_score"],
    "drift.csv": ["experiment_id", "persona_set_id", "question_id", "from_run",
                  "to_run", "distance", "agent_role"],
    "overhead.csv": ["experiment_id", "persona_set_id", "question_id", "run_index",
                     "coordination_overhead"],
    "conflict.csv": ["experiment_id", "persona_set_id", "question_id", "run_index",
                     "conflict_rate"],
}


def fmt(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        return format(value, ".17g")
    return str(value)


def main() -> None:
    out_dir = Path(__file__).parent / "data" / "golden"
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = reference_csv_rows([json.loads(canonical_json(r.to_dict()))
                               for r in golden_fixture_records()])
    for name, header in HEADERS.items():
        path = out_dir / name
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows[name]:
                writer.writerow([fmt(v) for v in row])
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
