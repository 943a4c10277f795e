"""The declared table of every JSON input format, checked through its reader.

Cases are generated from the tables themselves: for each entry, a value of a
wrong JSON type and a value just outside its range, values or pattern, and
for each object an unknown key, each nested in the smallest document that
reaches the entry.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from gmas_harness.analyzer import POLICY_TABLE, PolicyRuleSet
from gmas_harness.backends import SCRIPT_ENTRY_TABLE, ScriptEntry, ScriptedBackend, load_script
from gmas_harness.config import CONFIG_TABLE, load_experiment_config
from gmas_harness.errors import ConfigurationError, Each, Range, list_rule, table_rule
from gmas_harness.knowledge import CORPUS_MANIFEST, GRAPH_TABLE, load_corpus_dir, load_graph
from gmas_harness.ricsim import (CELL_TABLE, NETWORK_TABLE, SLICE_TABLE, Cell,
                                 SimulatedNetwork, Slice)
from gmas_harness.scenario import (PERSONA_TABLE, QUESTION_TABLE, Persona, PersonaRegistry,
                                   Question, load_questions)

REPO = Path(__file__).parent.parent

# kind (as the reader's error names it): (file name, reader of its path, rule)
FORMATS = {
    "experiment config": ("experiment.json", load_experiment_config,
                          table_rule(CONFIG_TABLE)),
    "question set": ("questions.json", load_questions, list_rule(table_rule(QUESTION_TABLE))),
    "persona registry": ("personas.json", PersonaRegistry.from_json,
                         list_rule(table_rule(PERSONA_TABLE))),
    "network": ("network.json", SimulatedNetwork.from_json, table_rule(NETWORK_TABLE)),
    "policy rules": ("policy_rules.json", PolicyRuleSet.from_json, table_rule(POLICY_TABLE)),
    "graph": ("graph.json", lambda path: load_graph(path, None), table_rule(GRAPH_TABLE)),
    "corpus manifest": ("manifest.json", lambda path: load_corpus_dir(path.parent),
                        CORPUS_MANIFEST),
    "script": ("script.json", load_script, list_rule(table_rule(SCRIPT_ENTRY_TABLE))),
}


def _join(name: str, key: str) -> str:
    return f"{name}.{key}" if name else key


def _walk(rule: tuple, leaf, name: str = ""):
    """(message, document) for each (message, value) that ``leaf(rule, name)``
    gives at ``rule`` and at each rule nested in it, the value placed in the
    smallest document that reaches it (a row's other items are "x")."""
    yield from leaf(rule, name)
    _, types, allowed = rule
    if type(allowed) is dict:
        for key, sub in allowed.items():
            yield from ((m, {key: doc}) for m, doc in _walk(sub, leaf, _join(name, key)))
    elif type(allowed) is list:
        for i, sub in enumerate(allowed):
            yield from ((m, ["x"] * i + [doc] + ["x"] * (len(allowed) - 1 - i))
                        for m, doc in _walk(sub, leaf, f"{name}[{i}]"))
    elif type(allowed) is Each and list in types:
        yield from ((m, [doc]) for m, doc in _walk(allowed.rule, leaf, f"{name}[0]"))
    elif type(allowed) is Each:
        yield from ((m, {"k": doc}) for m, doc in _walk(allowed.rule, leaf, _join(name, "k")))


def _outside(types, allowed):
    """Values of the types just outside ``allowed``."""
    if type(allowed) is tuple:
        yield "bogus"
    elif type(allowed) is Range:
        step = math.nextafter if float in types else lambda x, to: x + (1 if to > x else -1)
        if math.isfinite(allowed.lo):
            yield allowed.lo if allowed.lo_open else step(allowed.lo, -math.inf)
        if math.isfinite(allowed.hi):
            yield step(allowed.hi, math.inf)
        if float in types:
            yield from (math.nan, math.inf, 10 ** 400)  # no float holds 10 ** 400
    elif type(allowed) is re.Pattern:
        refused = [s for s in ("", ".", "..", "a/b", "a b") if not allowed.fullmatch(s)]
        assert refused, allowed
        yield from refused
    elif type(allowed) is list:
        yield from (["x"] * (len(allowed) - 1), ["x"] * (len(allowed) + 1))


def _refusals(rule: tuple, name: str):
    """A value of a wrong JSON type, then each value just outside the rule,
    an unknown key of a table and a key an Each refuses."""
    _, types, allowed = rule
    shown = name or "the file"
    if float in types:
        wrong = ("1", True)
    elif int in types:
        wrong = ("1", True, 2.5)
    elif str in types:
        wrong = (1,)
    else:
        wrong = (5, {} if list in types else [])
    for value in (*wrong, *_outside(types, allowed)):
        yield f"{shown} must be", value
    if type(allowed) is dict:
        yield f"unknown key {_join(name, 'bogus')!r}", {"bogus": 1}
    if type(allowed) is Each and allowed.keys is not None:
        for key in _outside(allowed.keys[1], allowed.keys[2]):
            yield f"a key of {shown} must be", {key: None}


def _bounds(rule: tuple, name: str):
    _, types, allowed = rule
    if type(allowed) is Range:
        for bound in (allowed.lo, allowed.hi):
            if math.isfinite(bound) and not (bound == allowed.lo and allowed.lo_open):
                yield name, types[0](bound)


_REFUSED = [(kind, message, doc) for kind, (_, _, rule) in FORMATS.items()
            for message, doc in _walk(rule, _refusals)]


@pytest.mark.parametrize("kind, message, doc", _REFUSED,
                         ids=[f"{kind}: {json.dumps(doc)}" for kind, _, doc in _REFUSED])
def test_every_entry_refuses_a_wrong_type_or_a_value_out_of_range(tmp_path, kind, message,
                                                                   doc):
    name, reader, _ = FORMATS[kind]
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")  # json.dumps writes NaN and Infinity
    with pytest.raises(ConfigurationError, match=re.escape(
            f"{path} is not a valid {kind} file (ConfigurationError: {message}")):
        reader(path)


# The smallest file of each format that its reader builds; a bound's document
# is laid over it so that the whole file, not only the table, must admit it.
_VALID = {"experiment config": {},
          "network": {"cells": [{"cell_id": "c1", "capacity_prb": 10}],
                      "slices": [{"slice_id": "s1", "cell_id": "c1", "demand_mbps": 1.0}]}}


def _over(base, doc):
    """``doc`` laid over ``base``: objects key by key, lists item by item."""
    if type(base) is dict and type(doc) is dict:
        return {**base, **{key: _over(base.get(key), value) for key, value in doc.items()}}
    if type(base) is list and type(doc) is list:
        return [_over(b, d) for b, d in zip(base, doc)] + doc[len(base):] + base[len(doc):]
    return doc


_ADMITTED = [(kind, doc) for kind, (_, _, rule) in FORMATS.items()
             for _, doc in _walk(rule, _bounds)]


@pytest.mark.parametrize("kind, doc", _ADMITTED,
                         ids=[f"{kind}: {json.dumps(doc)}" for kind, doc in _ADMITTED])
def test_the_bounds_themselves_are_admitted(tmp_path, kind, doc):
    name, reader, _ = FORMATS[kind]
    path = tmp_path / name
    path.write_text(json.dumps(_over(_VALID[kind], doc)), encoding="utf-8")
    reader(path)


_BUILT = [(QUESTION_TABLE, Question), (PERSONA_TABLE, Persona), (CELL_TABLE, Cell),
          (SLICE_TABLE, Slice), (NETWORK_TABLE, SimulatedNetwork),
          (POLICY_TABLE, PolicyRuleSet), (SCRIPT_ENTRY_TABLE, ScriptEntry)]


@pytest.mark.parametrize("table, cls", _BUILT, ids=[cls.__name__ for _, cls in _BUILT])
def test_each_table_holds_the_fields_its_reader_builds(table, cls):
    assert set(table) == {f.name for f in fields(cls)}


@pytest.mark.parametrize("data", ["sample_data", "perfbench/data/refine"])
def test_the_shipped_input_files_load(data):
    data = REPO / data
    for kind, (name, reader, _) in FORMATS.items():
        for path in data.glob(f"**/{name}"):
            if kind == "graph":
                load_graph(path, ScriptedBackend(fallback_seed=0, dim=8))
            else:
                reader(path)
