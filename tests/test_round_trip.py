"""The run-file format is closed under round trip.

Every run file the harness writes loads and writes back byte for byte. A
run file changed by hand is either refused by ``load_run`` with
``ValidationError``, or loads to a record that writes back and reloads as
an equal record, so ``gmas report`` never aggregates a record that its own
encoder could not have written.

The sweep mutates two payloads: a run of a seed-42 grid with the refine
benchmark's config (refinement events, analyzer findings with and without a
location, KPIs, three solution paths) and the failed run of the scripted
cell whose Coder is down in run 2 (no metrics, report or KPIs). It deletes
every key, and replaces every value by each of ``REPLACEMENTS``, descending
into the first ``LIST_ITEMS`` items of each list: about 4,700 mutants.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from gmas_harness.artifacts import ValueMemo, canonical_json, iter_run_files, load_run
from gmas_harness.cli import cli_dispatch
from gmas_harness.errors import ValidationError
from gmas_harness.records import VECTOR_FIELDS, RunRecord
from fixture_records import persist_coder_fails_in_run2

REPO = Path(__file__).parent.parent

# One value of each JSON kind, a non-finite number (json.loads reads "NaN"),
# and strings that name a role and a status.
REPLACEMENTS = [None, True, 0, -1, 1.5, float("nan"), "", "Coder", "completed",
                [], [1, 2], {}, {"a": 1}]
LIST_ITEMS = 2
# Values each embedding keeps in the mutated payloads; the format checks do
# not depend on the length, and short arrays keep a mutant near 1 ms.
VECTOR_VALUES = 3


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """The refine tree (1 persona set x 5 questions x 2 runs) and the failed-run cell."""
    refine = tmp_path_factory.mktemp("refine")
    assert cli_dispatch([
        "grid", "--questions", str(REPO / "sample_data" / "questions.json"),
        "--runs", "2", "--max-sets", "1", "--workers", "1",
        "--config", str(REPO / "perfbench" / "data" / "refine" / "experiment.json"),
        "--out", str(refine)]) == 0
    failed = tmp_path_factory.mktemp("failed")
    persist_coder_fails_in_run2(failed)
    return {"refine": refine, "failed": failed}


def test_every_file_the_harness_wrote_writes_back_byte_for_byte(trees):
    paths = [path for root in trees.values() for path in iter_run_files(root)]
    assert len(paths) == 13
    memo = ValueMemo()
    for path in paths:
        assert canonical_json(load_run(path, memo).to_dict()) + "\n" == \
            path.read_text(encoding="utf-8"), path


def _payload(trees, name: str) -> dict:
    """The payload to mutate, its embeddings cut to ``VECTOR_VALUES`` values."""
    if name == "refine":
        # the first completed run that was refined and holds a located finding
        path = next(p for p in iter_run_files(trees["refine"])
                    if '"status":"completed"' in (text := p.read_text(encoding="utf-8"))
                    and '"refinement_events":[{' in text and '"location":[' in text)
    else:
        path = next(p for p in iter_run_files(trees["failed"]) if p.name == "run2.json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    for trajectory in payload["trajectories"].values():
        for field in VECTOR_FIELDS:
            if trajectory[field] is not None:
                trajectory[field] = trajectory[field][:VECTOR_VALUES]
    return payload


def _positions(node, path=()):
    """The path of every dict value, and of the first items of every list."""
    if type(node) is dict:
        children = node.items()
    elif type(node) is list:
        children = enumerate(node[:LIST_ITEMS])
    else:
        return
    for key, child in list(children):
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _mutants(payload: dict):
    """(where, text) of each mutant; ``payload`` is restored after each."""
    for path in list(_positions(payload)):
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        original = parent[key]
        if type(parent) is dict:
            del parent[key]
            yield (path, "deleted"), json.dumps(payload, separators=(",", ":"))
        for value in REPLACEMENTS:
            parent[key] = value
            yield (path, value), json.dumps(payload, separators=(",", ":"))
        parent[key] = original


@pytest.mark.parametrize("name", ["refine", "failed"])
def test_every_mutant_is_refused_or_round_trips(trees, tmp_path, name):
    payload = _payload(trees, name)
    path = tmp_path / "run1.json"
    path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    load_run(path)  # the unmutated payload loads
    memo = ValueMemo()
    refused, failures = 0, []
    for where, text in _mutants(payload):
        path.write_text(text, encoding="utf-8")
        try:
            record = load_run(path, memo)
        except ValidationError:
            refused += 1
            continue
        except Exception as exc:
            failures.append(f"{where}: load_run raised {exc!r:.80}")
            continue
        try:
            again = RunRecord.from_dict(json.loads(canonical_json(record.to_dict())))
        except Exception as exc:
            failures.append(f"{where}: loads, then fails to round-trip: {exc!r:.80}")
            continue
        if again != record:
            failures.append(f"{where}: loads, then round-trips to another record")
    assert failures == []
    assert refused > 0
