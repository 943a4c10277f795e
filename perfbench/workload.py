"""One workload pass in a fresh process: set-up, grid and report.

    python3 perfbench/workload.py <spec.json>

The spec names the generated inputs, the artifact root, the worker count,
the mode (``setup``: stop at the first cell; ``grid``; ``traced``: grid with
span tracing) and, for the live workload, the stub's address. The pass goes
through the same entry points as ``gmas grid`` and ``gmas report``
(``cli_dispatch``); the benchmark only wraps names around them to take
times. The last line of standard output is a JSON object with the raw
measurements and the speed probe's samples; ``run.py`` turns those into
metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
import urllib.request
from pathlib import Path


class SpeedProbe:
    """Samples how fast the machine runs the measuring thread.

    A sample times a fixed pure-Python loop with the calling thread's CPU
    clock: waiting on the interpreter lock or on I/O does not count, and the
    program under test cannot change what the loop costs, so a sample changes
    only with the speed the machine gives that thread at that moment. It is
    taken in the thread that does the work, between units of work, because
    the two CPUs of a small VM drift apart. Samples are
    ``(monotonic time, seconds)`` pairs.
    """

    LOOPS = 20_000
    EVERY_S = 0.2

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._local = threading.local()

    def sample(self) -> None:
        started = time.thread_time()
        total = 0
        for i in range(self.LOOPS):
            total += i * i % 7
        self.samples.append((time.monotonic(), time.thread_time() - started))

    def maybe_sample(self) -> None:
        """Sample when this thread has not sampled for ``EVERY_S`` seconds."""
        now = time.monotonic()
        if now >= getattr(self._local, "next", 0.0):
            self._local.next = now + self.EVERY_S
            self.sample()


class SetupDone(BaseException):
    """Raised at the first cell of a set-up-only pass; not a harness error."""


def stub_stats(api_base: str | None) -> dict:
    if not api_base:
        return {"requests": 0, "5xx": 0}
    with urllib.request.urlopen(api_base + "/stats", timeout=10) as resp:
        return json.loads(resp.read())


def counted(counter: list, fn):
    def wrapper(*args, **kwargs):
        counter.append(1)
        return fn(*args, **kwargs)
    return wrapper


def run(spec: dict, result: dict, probe: SpeedProbe) -> None:
    mode = spec["mode"]
    from gmas_harness import backends, cli, orchestrator

    tracer = None
    if mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    backend_calls: list = []
    for cls in (backends.ScriptedBackend, backends.LiveBackend):
        for attr in ("generate", "embed"):
            setattr(cls, attr, counted(backend_calls, getattr(cls, attr)))

    cell_s: list[float] = []
    run_cell = orchestrator.run_cell

    def timed_run_cell(*args, **kwargs):
        probe.maybe_sample()
        started = time.perf_counter()
        try:
            return run_cell(*args, **kwargs)
        finally:
            cell_s.append(time.perf_counter() - started)

    orchestrator.run_cell = timed_run_cell

    run_grid = cli.run_grid

    def timed_run_grid(*args, **kwargs):
        result["grid_start"] = time.monotonic()
        probe.sample()
        if mode == "setup":
            raise SetupDone
        if tracer is not None:
            tracer.phase = "grid"
        before, calls_before = stub_stats(spec["api_base"]), len(backend_calls)
        records = run_grid(*args, **kwargs)
        result["grid_end"] = time.monotonic()
        after = stub_stats(spec["api_base"])
        result["backend_calls"] = len(backend_calls) - calls_before
        result["http_requests"] = after["requests"] - before["requests"]
        result["http_5xx"] = after["5xx"] - before["5xx"]
        if tracer is not None:
            tracer.phase = "report"
        return records

    cli.run_grid = timed_run_grid

    out = spec["out"]
    grid_args = ["grid", "--questions", spec["questions"], "--runs", str(spec["runs"]),
                 "--config", spec["config"], "--out", out,
                 "--workers", str(spec["workers"])]
    try:
        result["grid_exit"] = cli.cli_dispatch(grid_args)
    except SetupDone:
        return
    result["cell_s"] = cell_s

    result["reports"] = []
    result["report_exit"] = []
    for _ in range(spec["report_repeats"]):
        probe.sample()
        started = time.monotonic()
        result["report_exit"].append(cli.cli_dispatch(["report", "--root", out]))
        result["reports"].append((started, time.monotonic()))
        probe.sample()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.write_jsonl(Path(spec["spans"]))
        result["spans"] = tracer.totals()
        result["distinct"] = {k: len(v) for k, v in tracer.distinct.items()}
        result["bytes_written"] = sum(tracer.bytes_written)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result: dict = {"mode": spec["mode"]}
    probe = SpeedProbe()
    probe.sample()
    run(spec, result, probe)
    result["probe"] = probe.samples
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
