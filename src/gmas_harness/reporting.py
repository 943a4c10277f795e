"""CSV aggregation over persisted runs, plus report and chart emission.

``gmas report`` reads the run tree one cell at a time (``aggregate_csv``):
it loads each run file once, summarizes the cell in one pass
(``safety.summarize_cell``), writes the cell's CSV rows from that
``SafetySummary`` alone, keeps it and drops the records. All cells
load through one ``artifacts.ValueMemo``, so each distinct value text (a
trajectory, an embedding, a kpi, an analyzer report...) is decoded once per
report, and memory stays bounded by the largest cell plus the memo's
``VALUE_MEMO_SIZE`` values. ``safety.summarize_cells``
then applies the drift threshold and summarizes the grid, from which
``emit_report`` renders the markdown report and the hand-rolled SVG charts
(axes, bars, polylines only).
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import logging
from dataclasses import dataclass
from pathlib import Path

from .artifacts import ValueMemo, _fmt_float, iter_run_files, load_run, run_relpath
from .errors import ValidationError
from .records import RunRecord
from .safety import GridSummary, SafetySummary, summarize_cell
from .scenario import AgentRole

logger = logging.getLogger(__name__)

CSV_NAMES = ("penalty.csv", "consistency.csv", "drift.csv", "overhead.csv",
             "conflict.csv")

_HEADERS = {
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


def _fmt(value) -> str:
    return _fmt_float(value) if isinstance(value, float) else str(value)


@dataclass
class AggregateResult:
    csv_paths: dict  # name -> Path
    cells: list      # SafetySummary per cell, sorted by (set, question)
    corrupt: list    # paths that failed to load

    @property
    def runs(self) -> int:
        """Run files loaded, failed runs included."""
        return sum(len(cell.run_indices) + cell.failed for cell in self.cells)

    @property
    def failed(self) -> int:
        return sum(cell.failed for cell in self.cells)

    @property
    def ok(self) -> bool:
        return not self.corrupt


def aggregate_csv(root: str | Path, out_dir: str | Path | None = None) -> AggregateResult:
    """Aggregate every persisted run under root into the five metric CSVs.

    Cells (``runs/<set>/<question>/``) are read one at a time: a cell's runs
    are loaded and summarized (``summarize_cell``), the summary is written as
    CSV rows, and the records are dropped, so memory is bounded by the
    largest cell plus one ``ValueMemo``, fresh for each call, through which
    every cell's values are decoded. Failed runs
    (``RunRecord.failed``) give no metric rows, and drift pairs consecutive
    non-failed runs of a cell. A file that does not load, or whose ids
    disagree with its path, is skipped with a logged error and reported in
    the result so the CLI can exit nonzero; so is every file of a cell whose
    runs disagree on the embedding length or the experiment id.
    """
    root = Path(root)
    out_dir = Path(out_dir) if out_dir else root
    out_dir.mkdir(parents=True, exist_ok=True)

    cells: list[SafetySummary] = []
    corrupt: list[Path] = []
    memo = ValueMemo()
    paths = {name: out_dir / name for name in CSV_NAMES}
    with contextlib.ExitStack() as stack:
        writers = {}
        for name, path in paths.items():
            handle = stack.enter_context(path.open("w", newline="", encoding="utf-8"))
            writers[name] = csv.writer(handle)
            writers[name].writerow(_HEADERS[name])
        for _, cell_paths in itertools.groupby(iter_run_files(root),
                                               key=lambda path: path.parent):
            records = _load_cell(cell_paths, corrupt, memo)
            if records:
                cells.append(summarize_cell(records))
                _write_cell_rows(writers, cells[-1])
            del records  # the next cell loads while only summaries are held
    return AggregateResult(csv_paths=paths, cells=cells, corrupt=corrupt)


def _load_cell(paths, corrupt: list[Path], memo: ValueMemo) -> list[RunRecord]:
    """One cell's loadable runs; bad files go to ``corrupt``, and so do all of
    a cell whose records disagree on the embedding length or experiment id."""
    loaded = []
    for path in paths:
        try:
            record = load_run(path, memo)
            relpath = run_relpath(record.persona_set_id, record.question_id,
                                  record.run_index)
            if relpath.parts != path.parts[-4:]:
                raise ValidationError(f"record ids belong at {relpath.as_posix()}")
        except Exception as exc:
            logger.error("corrupt artifact %s: %s", path, exc)
            corrupt.append(path)
            continue
        loaded.append((record, path))
    dims = {record.trajectory(AgentRole.CODER).output_embedding.dim
            for record, _ in loaded}
    experiments = {record.experiment_id for record, _ in loaded}
    if len(dims) > 1 or len(experiments) > 1:
        for _, path in loaded:
            logger.error("corrupt artifact %s: its cell's runs disagree: embedding dims "
                         "%s, experiment ids %s", path, sorted(dims), sorted(experiments))
            corrupt.append(path)
        return []
    return [record for record, _ in loaded]


def _write_cell_rows(writers: dict, cell: SafetySummary) -> None:
    """A row per non-failed run, and in drift.csv per transition, then role name."""
    base = [cell.experiment_id, cell.persona_set_id, cell.question_id]
    for name, values in (("penalty.csv", cell.penalty_scores),
                         ("consistency.csv", cell.consistency_scores),
                         ("overhead.csv", cell.coordination_overheads),
                         ("conflict.csv", cell.conflict_rates)):
        writers[name].writerows(map(_fmt, base + [run, value])
                                for run, value in zip(cell.run_indices, values))
    roles = sorted(cell.drift, key=lambda role: role.value)
    transitions = zip(cell.run_indices, cell.run_indices[1:])
    writers["drift.csv"].writerows(
        map(_fmt, base + [i, j, cell.drift[role][t], role.value])
        for t, (i, j) in enumerate(transitions) for role in roles)


# ── svg charts ───────────────────────────────────────────────────────────────

_W, _H = 640, 360
_MARGIN = 50


def _scale(values: list[float]) -> tuple[float, float]:
    lo = min(0.0, min(values))
    hi = max(values)
    if hi == lo:
        hi = lo + 1.0
    return lo, hi


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<text x="{_W / 2:g}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_H - _MARGIN}" '
        f'stroke="black"/>',
    ]


def _y_pos(value: float, lo: float, hi: float) -> float:
    usable = _H - 2 * _MARGIN
    return _H - _MARGIN - (value - lo) / (hi - lo) * usable


def bar_chart_svg(labels: list[str], values: list[float], title: str) -> str:
    if not values:
        return _empty_chart(title)
    lo, hi = _scale(values)
    parts = _svg_header(title)
    parts.append(f'<text x="{_MARGIN - 8}" y="{_MARGIN}" text-anchor="end" '
                 f'font-size="10">{hi:.6g}</text>')
    n = len(values)
    span = (_W - 2 * _MARGIN) / n
    width = span * 0.7
    for i, (label, value) in enumerate(zip(labels, values)):
        x = _MARGIN + span * i + span * 0.15
        y = _y_pos(value, lo, hi)
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{width:.2f}" '
                     f'height="{_H - _MARGIN - y:.2f}" fill="steelblue"/>')
        parts.append(f'<text x="{x + width / 2:.2f}" y="{y - 4:.2f}" '
                     f'text-anchor="middle" font-size="9">{value:.6g}</text>')
        parts.append(f'<text x="{x + width / 2:.2f}" y="{_H - _MARGIN + 14:.2f}" '
                     f'text-anchor="middle" font-size="9">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def line_chart_svg(labels: list[str], values: list[float], title: str) -> str:
    if not values:
        return _empty_chart(title)
    lo, hi = _scale(values)
    parts = _svg_header(title)
    n = len(values)
    span = (_W - 2 * _MARGIN) / max(n - 1, 1)
    points = []
    for i, value in enumerate(values):
        x = _MARGIN + span * i
        y = _y_pos(value, lo, hi)
        points.append((x, y))
    poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    data = ",".join(f"{v:.6g}" for v in values)
    parts.append(f'<polyline points="{poly}" fill="none" stroke="darkorange" '
                 f'stroke-width="2" data-values="{data}"/>')
    for (x, y), value, label in zip(points, values, labels):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="darkorange"/>')
        parts.append(f'<text x="{x:.2f}" y="{y - 8:.2f}" text-anchor="middle" '
                     f'font-size="9">{value:.6g}</text>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MARGIN + 14:.2f}" '
                     f'text-anchor="middle" font-size="9">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _empty_chart(title: str) -> str:
    return "\n".join(_svg_header(title) + [
        f'<text x="{_W / 2:g}" y="{_H / 2:g}" text-anchor="middle" '
        f'font-size="12">no data</text>', "</svg>"])


# ── report emission ──────────────────────────────────────────────────────────

def _block_line(stats: dict) -> str:
    return (f"mean {stats['mean']:.6g}, median {stats['median']:.6g}, "
            f"std {stats['std']:.6g}, n={stats['count']}")


def emit_report(summary: GridSummary | None, out_dir: str | Path) -> Path:
    """Markdown summary plus per-metric SVG charts, all from one GridSummary.

    ``None`` (no runs) or a summary without a non-failed run reports 'no data'.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.md"
    lines = ["# Safety report"]
    if summary is not None:
        lines.append(f"{summary.overall['penalty']['count'] + summary.failed} runs, "
                     f"{summary.failed} failed")
    lines.append("")
    if summary is None or not summary.per_run:
        report_path.write_text("\n".join(lines + ["no data"]) + "\n", encoding="utf-8")
        return report_path

    overall = summary.overall
    lines += ["## Analyzer penalty by run", "", "| run | mean | median | std | n |",
              "|-----|------|--------|-----|---|"]
    for run, blocks in summary.per_run.items():
        stats = blocks["penalty"]
        lines.append(f"| {run} | {stats['mean']:.6g} | {stats['median']:.6g} | "
                     f"{stats['std']:.6g} | {stats['count']} |")

    set_ids = sorted(summary.per_set,
                     key=lambda k: (-summary.per_set[k]["penalty"]["mean"], k))
    lines += ["", "## Persona sets by mean penalty", "", "Top:"]
    lines += [f"- {k}: {summary.per_set[k]['penalty']['mean']:.6g}" for k in set_ids[:3]]
    if len(set_ids) > 3:
        lines += ["", "Bottom:"]
        lines += [f"- {k}: {summary.per_set[k]['penalty']['mean']:.6g}"
                  for k in set_ids[-3:]]
    lines += ["", "## Allocator-Coder consistency", "",
              _block_line(overall["consistency"]), ""]

    if summary.per_transition:
        lines += ["## Coder cross-run drift by transition", "",
                  f"{summary.drift_alerts} of {overall['drift']['count']} Coder "
                  f"transitions above tau_d {summary.tau_d:g}"]
        lines += [f"- {label}: {_block_line(stats)}"
                  for label, stats in summary.per_transition.items()]
        lines.append("")

    for title, key in (("Coordination overhead", "coordination_overhead"),
                       ("Contextual conflict rate", "conflict_rate")):
        lines += [f"## {title}", "", _block_line(overall[key]), ""]
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    (out_dir / "penalty_by_run.svg").write_text(
        bar_chart_svg([f"run {r}" for r in summary.per_run],
                      [blocks["penalty"]["mean"] for blocks in summary.per_run.values()],
                      "Mean analyzer penalty by run"), encoding="utf-8")
    (out_dir / "consistency_by_set.svg").write_text(
        bar_chart_svg([f"s{i + 1}" for i in range(len(set_ids))],
                      [summary.per_set[k]["consistency"]["mean"] for k in set_ids],
                      "Mean consistency by persona set"), encoding="utf-8")
    (out_dir / "drift_by_transition.svg").write_text(
        line_chart_svg(list(summary.per_transition),
                       [stats["mean"] for stats in summary.per_transition.values()],
                       "Mean Coder drift by run transition"), encoding="utf-8")
    return report_path
