"""Command-line surface tying the harness together.

Exit codes: 0 success, 1 validation problem (bad flags, findings,
config errors), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .analyzer import PolicyRuleSet, build_report, enforce_policy, parse_code
from .artifacts import (ExperimentManifest, FileRef, derive_experiment_id, read_manifest,
                        run_relpath, write_manifest)
from .config import CONFIG_TABLE, build_env, load_experiment_config, parse_thresholds
from .errors import ConfigurationError, GmasError, PlanSyntaxError, ValidationError, check
from .orchestrator import run_grid
from .records import RunStatus
from .reporting import aggregate_csv, emit_report
from .ricsim import (KpiThresholds, SimulatedNetwork, check_thresholds, execute_plan,
                     parse_plan)
from .safety import summarize_cells
from .scenario import (PersonaRegistry, PersonaSet, Topic, enumerate_grid,
                       generate_questions, load_questions, save_questions)

logger = logging.getLogger(__name__)


def load_registry_arg(path: str | None) -> PersonaRegistry:
    return PersonaRegistry.from_json(path) if path else PersonaRegistry.builtin()

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gmas",
                     description="Safety-evaluation harness for generative "
                                 "multi-agent telecom orchestration")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen-questions", help="generate an O-RAN question set")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mode", choices=["template", "llm"], default="template")
    gen.add_argument("--config", help="experiment config (needed for llm mode)")
    gen.add_argument("--topics", nargs="*", help="topic weights, topic=weight")
    gen.add_argument("--out", help="write JSON here instead of stdout")

    grid = sub.add_parser("grid", help="run the full question x persona-set grid")
    grid.add_argument("--questions", required=True)
    grid.add_argument("--personas", help="persona registry JSON; builtin when omitted")
    grid.add_argument("--runs", type=int, required=True)
    grid.add_argument("--config", required=True)
    grid.add_argument("--out", required=True, help="artifact root directory")
    grid.add_argument("--workers", type=int)
    grid.add_argument("--grid-mode", choices=["strict", "relaxed"])
    grid.add_argument("--max-sets", type=int, help="run only the first N persona sets")

    run = sub.add_parser("run", help="run a single (question, persona set) cell")
    run.add_argument("--question", required=True, help="question id")
    run.add_argument("--set", required=True, dest="set_id", help="persona set id")
    run.add_argument("--questions", required=True)
    run.add_argument("--personas")
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)

    report = sub.add_parser("report", help="aggregate CSVs and emit the report bundle")
    report.add_argument("--root", required=True)
    report.add_argument("--out", help="report directory (default <root>/report)")

    vp = sub.add_parser("validate-policy", help="run the policy engine on a code file")
    vp.add_argument("--code", required=True)
    vp.add_argument("--rules", required=True)

    sim = sub.add_parser("simulate", help="execute an allocation plan on a network")
    sim.add_argument("--plan", required=True)
    sim.add_argument("--network", required=True)
    sim.add_argument("--min-throughput-ratio", type=float,
                     default=KpiThresholds.min_throughput_ratio)
    sim.add_argument("--max-latency-ms", type=float, default=KpiThresholds.max_latency_ms)
    return parser


def _parse_topics(pairs) -> dict | None:
    if not pairs:
        return None
    return {Topic(name): float(weight) if weight else 1.0
            for name, _, weight in (pair.partition("=") for pair in pairs)}


def _cmd_gen_questions(args) -> int:
    backend, llm = None, {}
    if args.mode == "llm":
        if not args.config:
            raise ConfigurationError("llm mode needs --config for the backend")
        from .config import build_backend
        config = load_experiment_config(args.config)
        backend = build_backend(config)
        llm = {"backend": backend, "max_tokens": config.run.max_tokens}
    try:
        questions = generate_questions(args.count, _parse_topics(args.topics),
                                       mode=args.mode, seed=args.seed, **llm)
    finally:
        if backend is not None:
            backend.close()
    if args.out:
        save_questions(questions, args.out)
        print(f"wrote {len(questions)} questions to {args.out}")
    else:
        print(json.dumps([{"id": q.id, "text": q.text, "topic": q.topic.value}
                          for q in questions], indent=2))
    return EXIT_OK


def _experiment_id(config, questions: FileRef, personas: FileRef | None,
                   runs: int, grid_mode: str) -> str:
    snapshot = {
        "config": config.raw,
        "questions_sha": questions.sha256,
        "personas_sha": personas.sha256 if personas else "builtin",
        "runs": runs,
        "grid_mode": grid_mode,
    }
    return derive_experiment_id(snapshot)


def _write_grid_manifest(root: Path, experiment_id: str, config,
                         questions: FileRef, personas: FileRef | None,
                         n_questions: int, n_sets: int, runs: int) -> None:
    manifest = ExperimentManifest(
        experiment_id=experiment_id,
        config_snapshot=config.raw,
        question_set=questions.to_dict(),
        persona_registry=personas.to_dict() if personas else {"path": "builtin", "sha256": ""},
        dimensions={"questions": n_questions, "persona_sets": n_sets, "runs": runs},
    )
    write_manifest(manifest, root)


def _check_out_tree(root: Path, experiment_id: str) -> None:
    """Refuse an artifact root whose ``experiment.json`` names another
    experiment or is not a manifest, so no run lands in another experiment's
    tree. An absent manifest, or one of the same experiment, passes."""
    manifest = read_manifest(root)
    if manifest is not None and manifest["experiment_id"] != experiment_id:
        raise ConfigurationError(f"{root} holds experiment {manifest['experiment_id']!r}, "
                                 f"not {experiment_id}; choose another --out")


def _run_experiment(args, config, registry, questions, persona_sets, grid_mode: str,
                    workers: int):
    """The grid of ``gmas grid`` and ``gmas run``: the manifest, then every
    cell persisted under ``args.out``, which must not hold another
    experiment. Returns (experiment id, root, entries)."""
    question_file = FileRef.of(args.questions)
    persona_file = FileRef.of(args.personas) if args.personas else None
    experiment_id = _experiment_id(config, question_file, persona_file, args.runs, grid_mode)
    root = Path(args.out)
    _check_out_tree(root, experiment_id)
    env = build_env(config, experiment_id, registry)
    try:
        root.mkdir(parents=True, exist_ok=True)
        _write_grid_manifest(root, experiment_id, config, question_file, persona_file,
                             len(questions), len(persona_sets), args.runs)
        entries = run_grid(questions, persona_sets, args.runs, env, root, workers=workers)
    finally:
        env.backend.close()
    return experiment_id, root, entries


def _failed(entries) -> int:
    return sum(1 for entry in entries if entry.status is RunStatus.FAILED)


def _require_positive(**flags) -> None:
    """Refuse, naming it, each count flag given below 1, before anything is
    built or written."""
    for name, value in flags.items():
        if value is not None and value < 1:
            raise ConfigurationError(f"--{name.replace('_', '-')} must be at least 1, "
                                     f"got {value}")


def _cmd_grid(args) -> int:
    config = load_experiment_config(args.config)
    workers = args.workers if args.workers is not None else config.workers
    _require_positive(runs=args.runs, max_sets=args.max_sets, workers=workers)
    registry = load_registry_arg(args.personas)
    questions = load_questions(args.questions)
    grid_mode = args.grid_mode or config.grid_mode
    persona_sets = enumerate_grid(registry, mode=grid_mode)
    if args.max_sets is not None:
        persona_sets = persona_sets[:args.max_sets]
    experiment_id, root, entries = _run_experiment(args, config, registry, questions,
                                                   persona_sets, grid_mode, workers)
    failed = _failed(entries)
    print(f"{experiment_id}: {len(entries)} runs persisted under {root} "
          f"({failed} failed)")
    return EXIT_RUNTIME if failed else EXIT_OK


def _cmd_run(args) -> int:
    _require_positive(runs=args.runs)
    config = load_experiment_config(args.config)
    registry = load_registry_arg(args.personas)
    questions = {q.id: q for q in load_questions(args.questions)}
    if args.question not in questions:
        raise ConfigurationError(f"question {args.question!r} not in {args.questions}")
    persona_set = PersonaSet.parse(args.set_id)
    _, root, entries = _run_experiment(args, config, registry, [questions[args.question]],
                                       [persona_set], "single", workers=1)
    for entry in entries:
        path = root / run_relpath(entry.persona_set_id, entry.question_id,
                                  entry.run_index)
        print(f"{entry.status.value}: {path}")
    return EXIT_RUNTIME if _failed(entries) else EXIT_OK


def _cmd_report(args) -> int:
    root = Path(args.root)
    out_dir = Path(args.out) if args.out else root / "report"
    manifest = read_manifest(root)
    snapshot = manifest["config_snapshot"] if manifest is not None else {}
    result = aggregate_csv(root)
    summary = (summarize_cells(result.cells, parse_thresholds(snapshot).drift)
               if result.cells else None)
    report_path = emit_report(summary, out_dir)
    print(f"aggregated {result.runs} runs into {len(result.csv_paths)} CSVs; "
          f"report at {report_path}")
    if result.corrupt:
        for path in result.corrupt:
            print(f"corrupt artifact skipped: {path}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_validate_policy(args) -> int:
    code = Path(args.code).read_text(encoding="utf-8")
    rules = PolicyRuleSet.from_json(args.rules)
    tree = parse_code(code)
    findings = enforce_policy(tree, rules)
    report = build_report(findings)
    for f in findings:
        loc = f"line {f.location[0]}" if f.location else "-"
        print(f"[{f.severity.value}] {f.rule_id} ({loc}): {f.message}")
    print(f"penalty: {report.penalty_score:g}")
    return EXIT_VALIDATION if findings else EXIT_OK


def _cmd_simulate(args) -> int:
    rules = CONFIG_TABLE["thresholds"][2]
    for key in ("min_throughput_ratio", "max_latency_ms"):
        check(getattr(args, key), rules[key], f"--{key.replace('_', '-')}")
    network = SimulatedNetwork.from_json(args.network)
    plan_text = Path(args.plan).read_text(encoding="utf-8")
    try:
        plan = parse_plan(plan_text)
    except PlanSyntaxError as exc:
        print(f"plan syntax error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    thresholds = KpiThresholds(min_throughput_ratio=args.min_throughput_ratio,
                               max_latency_ms=args.max_latency_ms)
    findings, report = check_thresholds(execute_plan(plan, network), thresholds)
    payload = report.to_dict()
    payload["threshold_findings"] = [f.to_dict() for f in findings]
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_VALIDATION if (findings or report.findings) else EXIT_OK


_COMMANDS = {
    "gen-questions": _cmd_gen_questions,
    "grid": _cmd_grid,
    "run": _cmd_run,
    "report": _cmd_report,
    "validate-policy": _cmd_validate_policy,
    "simulate": _cmd_simulate,
}


def cli_dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, ValidationError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GmasError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - last-resort guard
        logger.exception("unhandled failure")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()
