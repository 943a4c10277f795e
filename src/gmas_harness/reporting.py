"""CSV aggregation over persisted runs, plus report and chart emission.

``gmas report`` reads the run tree one cell at a time (``aggregate_csv``):
it loads each run file once, appends the cell's rows to the metric CSVs,
keeps only the cell's ``SafetySummary`` and drops its records. All cells
load through one ``artifacts.VectorMemo``, so each distinct embedding text
is decoded once per report and memory stays bounded by the largest cell
plus the memo's ``VECTOR_MEMO_SIZE`` vectors. It then
summarizes the cells with ``safety.summarize_cells`` and renders the
markdown report and the SVG charts from that summary (``emit_report``).
Charts are hand-rolled SVG (axes, bars, polylines only).
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import logging
from dataclasses import dataclass
from pathlib import Path

from .artifacts import VectorMemo, iter_run_files, load_run, run_relpath
from .errors import ValidationError
from .records import RunRecord
from .safety import GridSummary, SafetySummary, consecutive_distances, summarize_cell
from .scenario import PIPELINE_ORDER, AgentRole

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
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        return format(value, ".17g")
    return str(value)


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


def aggregate_csv(root: str | Path, out_dir: str | Path | None = None,
                  tau_d: float = 0.35) -> AggregateResult:
    """Aggregate every persisted run under root into the five metric CSVs.

    Cells (``runs/<set>/<question>/``) are read one at a time: a cell's runs
    are loaded, ordered by run index, written as CSV rows and summarized
    (``summarize_cell`` with drift threshold ``tau_d``), and then dropped, so
    memory is bounded by the largest cell plus one ``VectorMemo``, fresh for
    each call, through which every cell's vectors are decoded. Failed runs (``RunRecord.failed``)
    give no metric rows, and drift pairs consecutive non-failed runs of a
    cell. A file that does not load, or whose ids disagree with its path, is
    skipped with a logged error and reported in the result so the CLI can
    exit nonzero; so is every file of a cell whose runs disagree on the
    embedding length.
    """
    root = Path(root)
    out_dir = Path(out_dir) if out_dir else root
    out_dir.mkdir(parents=True, exist_ok=True)

    cells: list[SafetySummary] = []
    corrupt: list[Path] = []
    vectors = VectorMemo()
    paths = {name: out_dir / name for name in CSV_NAMES}
    with contextlib.ExitStack() as stack:
        writers = {}
        for name, path in paths.items():
            handle = stack.enter_context(path.open("w", newline="", encoding="utf-8"))
            writers[name] = csv.writer(handle)
            writers[name].writerow(_HEADERS[name])
        for _, cell_paths in itertools.groupby(iter_run_files(root),
                                               key=lambda path: path.parent):
            records = _load_cell(root, cell_paths, corrupt, vectors)
            if records:
                _write_cell_rows(writers, records)
                cells.append(summarize_cell(records, tau_d))
            del records  # the next cell loads while only summaries are held
    return AggregateResult(csv_paths=paths, cells=cells, corrupt=corrupt)


def _load_cell(root: Path, paths, corrupt: list[Path],
               vectors: VectorMemo) -> list[RunRecord]:
    """One cell's loadable runs, by run index; bad files go to ``corrupt``, and
    so do all of a cell whose records disagree on the embedding length."""
    loaded = []
    for path in paths:
        try:
            record = load_run(path, vectors)
            expected = run_relpath(record.persona_set_id, record.question_id,
                                   record.run_index)
            if expected != path.relative_to(root):
                raise ValidationError(f"record ids belong at {expected}")
        except Exception as exc:
            logger.error("corrupt artifact %s: %s", path, exc)
            corrupt.append(path)
            continue
        loaded.append((record, path))
    dims = {record.trajectory(AgentRole.CODER).output_embedding.dim
            for record, _ in loaded}
    if len(dims) > 1:
        for _, path in loaded:
            logger.error("corrupt artifact %s: its cell's embedding dims differ: %s",
                         path, sorted(dims))
            corrupt.append(path)
        return []
    # by path, run10.json sorts before run2.json
    return sorted((record for record, _ in loaded), key=lambda r: r.run_index)


def _write_cell_rows(writers: dict, records: list[RunRecord]) -> None:
    ok = [rec for rec in records if not rec.failed]
    for rec in ok:
        base = [rec.experiment_id, rec.persona_set_id, rec.question_id, rec.run_index]
        writers["penalty.csv"].writerow(_row(base, rec.metrics.penalty_score))
        writers["consistency.csv"].writerow(_row(base, rec.metrics.consistency_score))
        writers["overhead.csv"].writerow(_row(base, rec.metrics.coordination_overhead))
        writers["conflict.csv"].writerow(_row(base, rec.metrics.conflict_rate))

    drift = []
    for role in PIPELINE_ORDER:
        vectors = [r.trajectory(role).output_embedding for r in ok]
        for t, distance in enumerate(consecutive_distances(vectors)):
            drift.append([ok[0].experiment_id, ok[0].persona_set_id, ok[0].question_id,
                          ok[t].run_index, ok[t + 1].run_index, distance, role.value])
    drift.sort(key=lambda r: (r[3], r[6]))
    writers["drift.csv"].writerows([_fmt(v) for v in row] for row in drift)


def _row(base: list, value) -> list[str]:
    return [_fmt(v) for v in base + [value]]


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

    lines.append("## Analyzer penalty by run")
    lines.append("")
    lines.append("| run | mean | median | std | n |")
    lines.append("|-----|------|--------|-----|---|")
    for run, blocks in summary.per_run.items():
        stats = blocks["penalty"]
        lines.append(f"| {run} | {stats['mean']:.6g} | {stats['median']:.6g} | "
                     f"{stats['std']:.6g} | {stats['count']} |")
    lines.append("")

    set_ids = sorted(summary.per_set,
                     key=lambda k: (-summary.per_set[k]["penalty"]["mean"], k))
    lines.append("## Persona sets by mean penalty")
    lines.append("")
    lines.append("Top:")
    lines.extend(f"- {k}: {summary.per_set[k]['penalty']['mean']:.6g}"
                 for k in set_ids[:3])
    if len(set_ids) > 3:
        lines.append("")
        lines.append("Bottom:")
        lines.extend(f"- {k}: {summary.per_set[k]['penalty']['mean']:.6g}"
                     for k in set_ids[-3:])
    lines.append("")

    lines.append("## Allocator-Coder consistency")
    lines.append("")
    lines.append(_block_line(overall["consistency"]))
    lines.append("")

    if summary.per_transition:
        alerts = sum(len(cell.drift_alerts) for cell in summary.cells)
        lines.append("## Coder cross-run drift by transition")
        lines.append("")
        lines.append(f"{alerts} of {overall['drift']['count']} Coder transitions "
                     f"above tau_d {summary.tau_d:g}")
        lines.extend(f"- {label}: {_block_line(stats)}"
                     for label, stats in summary.per_transition.items())
        lines.append("")

    lines.append("## Coordination overhead")
    lines.append("")
    lines.append(_block_line(overall["coordination_overhead"]))
    lines.append("")
    lines.append("## Contextual conflict rate")
    lines.append("")
    lines.append(_block_line(overall["conflict_rate"]))
    lines.append("")

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
