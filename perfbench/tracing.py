"""Span tracing of the harness's layers, installed from outside the package.

Each wrapped function records a span: name, start, end, parent span, thread,
run id and benchmark phase. Spans stay in memory and are written as JSON
lines when the workload ends. The wrappers replace the name in every
``gmas_harness`` module namespace that holds it (``orchestrator.retrieve_rag``
as well as ``knowledge.retrieve_rag``), so inclusive times double-count;
every figure here is self time, a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

# (span name, module, function): module-level functions, patched wherever imported.
FUNCTIONS = (
    ("config.build_env", "gmas_harness.config", "build_env"),
    ("orchestrator.run_cell", "gmas_harness.orchestrator", "run_cell"),
    ("orchestrator.execute_run", "gmas_harness.orchestrator", "execute_run"),
    ("knowledge.retrieve_rag", "gmas_harness.knowledge", "retrieve_rag"),
    ("knowledge.retrieve_graph", "gmas_harness.knowledge", "retrieve_graph"),
    ("analyzer.parse_code", "gmas_harness.analyzer", "parse_code"),
    ("analyzer.run_static_checks", "gmas_harness.analyzer", "run_static_checks"),
    ("analyzer.enforce_policy", "gmas_harness.analyzer", "enforce_policy"),
    ("analyzer.formal_lite_check", "gmas_harness.analyzer", "formal_lite_check"),
    ("analyzer.build_report", "gmas_harness.analyzer", "build_report"),
    ("ricsim.parse_plan", "gmas_harness.ricsim", "parse_plan"),
    ("ricsim.execute_plan", "gmas_harness.ricsim", "execute_plan"),
    ("safety.check_alignment", "gmas_harness.safety", "check_alignment"),
    ("safety.conflict_rate", "gmas_harness.safety", "conflict_rate"),
    ("safety.consistency_score", "gmas_harness.safety", "consistency_score"),
    ("artifacts.persist_run", "gmas_harness.artifacts", "persist_run"),
    ("artifacts.canonical_json", "gmas_harness.artifacts", "canonical_json"),
    ("artifacts.load_run", "gmas_harness.artifacts", "load_run"),
    ("reporting.aggregate_csv", "gmas_harness.reporting", "aggregate_csv"),
    ("reporting.emit_report", "gmas_harness.reporting", "emit_report"),
)

# (span name, module, class, method): patched on the class.
METHODS = (
    ("backends.generate", "gmas_harness.backends", "ScriptedBackend", "generate"),
    ("backends.generate", "gmas_harness.backends", "LiveBackend", "generate"),
    ("backends.embed", "gmas_harness.backends", "ScriptedBackend", "embed"),
    ("backends.embed", "gmas_harness.backends", "LiveBackend", "embed"),
    ("backends.bucket_wait", "gmas_harness.backends", "TokenBucket", "acquire"),
    ("embeddings.embed", "gmas_harness.embeddings", "DeterministicEmbedder", "embed"),
    ("records.to_dict", "gmas_harness.records", "RunRecord", "to_dict"),
    ("records.from_dict", "gmas_harness.records", "RunRecord", "from_dict"),
)


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[tuple] = []
        self.distinct: dict[str, set] = {"backends.embed": set(), "knowledge.retrieve": set()}
        self.bytes_written: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.run = None
        return stack

    def wrap(self, name: str, fn, key=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            phase = self.phase
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append((span_id, parent, name, threading.get_ident(),
                                   self._local.run, phase, start, end,
                                   end - start - frame[1]))
            if key is not None and phase == "grid":
                self.distinct[key[0]].add(key[1](*args, **kwargs))
            if post is not None:
                post(result)
            return result
        return traced

    def set_run(self, question, persona_set, run_index, *_args, **_kwargs):
        self._stack()
        self._local.run = f"{persona_set.set_id}/{question.id}/run{run_index}"

    def install(self) -> None:
        """Wrap every traced function and method of the imported harness."""
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("gmas_harness") and m is not None]
        keys = {
            "backends.embed": ("backends.embed", lambda _self, text: text),
            "knowledge.retrieve_rag": ("knowledge.retrieve", _retrieve_key),
            "knowledge.retrieve_graph": ("knowledge.retrieve", _retrieve_key),
        }
        posts = {"artifacts.persist_run":
                 lambda path: self.bytes_written.append(Path(path).stat().st_size)}
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original, keys.get(name), posts.get(name))
            if name == "orchestrator.execute_run":
                traced = _before(self.set_run, traced)
            for m in modules:
                for field, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, field, traced)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw, keys.get(name)))

    def write_jsonl(self, path: Path) -> None:
        fields = ("id", "parent", "name", "thread", "run", "phase", "start", "end",
                  "self_s")
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")

    def totals(self) -> dict[str, dict]:
        """Calls and self seconds per span name and phase."""
        out: dict[str, dict] = {}
        for _, _, name, _, _, phase, start, end, self_s in self.spans:
            entry = out.setdefault(f"{phase}:{name}",
                                   {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["inclusive_s"] += end - start
        return out


def _retrieve_key(store, query, top_k, *args, agent_role="", **kwargs):
    return (type(store).__name__, query, top_k, args[:-1], agent_role)


def _before(hook, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hook(*args, **kwargs)
        return fn(*args, **kwargs)
    return wrapper
