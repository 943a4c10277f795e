from __future__ import annotations

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from gmas_harness.analyzer import DEFAULT_SEVERITY_WEIGHTS, Severity
from gmas_harness.config import CONFIG_TABLE, load_experiment_config, parse_thresholds
from gmas_harness.errors import ConfigurationError
from gmas_harness.orchestrator import RunConfig, Thresholds

REPO = Path(__file__).parent.parent


def _write(tmp_path, raw: dict):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_absent_keys_take_the_dataclass_defaults(tmp_path):
    config = load_experiment_config(_write(tmp_path, {"network_path": "network.json"}))
    assert config.run == RunConfig()
    assert config.severity_weights == DEFAULT_SEVERITY_WEIGHTS
    assert parse_thresholds({}) == Thresholds()


def test_present_keys_override_only_themselves(tmp_path):
    config = load_experiment_config(_write(tmp_path, {
        "network_path": "network.json", "top_k": 2,
        "thresholds": {"alignment": 0.5},
        "severity_weights": {"error": 20}}))
    assert config.run == RunConfig(top_k=2, thresholds=Thresholds(alignment=0.5))
    assert config.severity_weights == {**DEFAULT_SEVERITY_WEIGHTS, Severity.ERROR: 20.0}
    assert isinstance(config.severity_weights[Severity.ERROR], float)


# Each of these loaded and then failed the first run of a grid (a negative
# memory budget ran, but cut every memory digest to "...").
@pytest.mark.parametrize("override, key", [
    ({"consistency_alpha": 1.5}, "consistency_alpha"),
    ({"consistency_alpha": -0.1}, "consistency_alpha"),
    ({"top_k": 0}, "top_k"),
    ({"hop_expand": 2}, "hop_expand"),
    ({"temperature": 3.0}, "temperature"),
    ({"temperature": -0.5}, "temperature"),
    ({"max_tokens": 0}, "max_tokens"),
    ({"memory_budget_chars": -1}, "memory_budget_chars"),
    ({"severity_weights": {"warning": 0}}, "severity_weights.warning"),
    ({"severity_weights": {"critical": -30}}, "severity_weights.critical"),
    ({"backend": {"mode": "live", "retries": 0}}, "backend.retries"),
    ({"workers": 0}, "workers"),
    ({"workers": -2}, "workers"),
    ({"workers": "two"}, "workers"),
    ({"workers": "2"}, "workers"),
    ({"workers": 1.5}, "workers"),
    ({"workers": True}, "workers"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v)
def test_setting_a_run_cannot_use_is_refused_naming_its_key(tmp_path, override, key):
    path = _write(tmp_path, {"network_path": "network.json", **override})
    with pytest.raises(ConfigurationError, match=re.escape(key)):
        load_experiment_config(path)


@pytest.mark.parametrize("override, key", [
    ({"max_refinement_dept": 9}, "'max_refinement_dept'"),
    ({"thresholds": {"alignmnt": 0.5}}, "'thresholds.alignmnt'"),
    ({"backend": {"mode": "scripted", "retry": 2}}, "'backend.retry'"),
    ({"stores": {"chunksize": 200}}, "'stores.chunksize'"),
    ({"severity_weights": {"fatal": 50}}, "'severity_weights.fatal'"),
], ids=["top level", "thresholds", "backend", "stores", "severity_weights"])
def test_unknown_key_is_refused_naming_it(tmp_path, override, key):
    path = _write(tmp_path, {"network_path": "network.json", **override})
    with pytest.raises(ConfigurationError, match=re.escape(f"unknown config key {key}")):
        load_experiment_config(path)


@pytest.mark.parametrize("config", sorted(
    str(p.relative_to(REPO)) for p in [REPO / "sample_data" / "experiment.json",
                                       *(REPO / "perfbench" / "data").glob("*/experiment.json")]))
def test_committed_configs_load(config):
    loaded = load_experiment_config(REPO / config)
    assert loaded.raw == json.loads((REPO / config).read_text(encoding="utf-8"))


# The top-level keys that set up the experiment rather than a RunConfig field.
ENVIRONMENT_KEYS = {"severity_weights", "backend", "stores", "embedding_dim", "network_path",
                    "policy_rules_path", "workers", "grid_mode"}


def test_the_table_holds_every_run_knob_and_threshold():
    assert set(CONFIG_TABLE[""]) - ENVIRONMENT_KEYS == {f.name for f in fields(RunConfig)}
    assert set(CONFIG_TABLE["thresholds"]) == {f.name for f in fields(Thresholds)}


def _outside(types, allowed):
    """Values of the wrong JSON type for a rule, then each value just outside
    its range or set."""
    if float in types:
        yield from ("1", True)
    elif int in types:
        yield from ("1", True, 2.5)
    elif str in types:
        yield 1
    else:
        yield from (5, [])
    if type(allowed) is tuple:
        yield "bogus"
    elif allowed is not None:
        step = math.nextafter if float in types else lambda x, to: x + (1 if to > x else -1)
        if math.isfinite(allowed.lo):
            yield allowed.lo if allowed.lo_open else step(allowed.lo, -math.inf)
        if math.isfinite(allowed.hi):
            yield step(allowed.hi, math.inf)
        if float in types:
            yield from (math.nan, math.inf)


def _nest(section: str, key: str, value) -> dict:
    raw = {key: value}
    for name in reversed(section.split(".") if section else []):
        raw = {name: raw}
    return raw


_REFUSED = [(f"{section}.{key}" if section else key, _nest(section, key, value))
            for section, rules in CONFIG_TABLE.items() for key, (_, types, allowed)
            in rules.items() for value in _outside(types, allowed)]


@pytest.mark.parametrize("key, raw", _REFUSED, ids=[json.dumps(raw) for _, raw in _REFUSED])
def test_every_key_refuses_a_wrong_type_or_a_value_out_of_range(tmp_path, key, raw):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(raw), encoding="utf-8")  # json.dumps writes NaN and Infinity
    with pytest.raises(ConfigurationError, match=re.escape(f"{key} must be")):
        load_experiment_config(path)


def test_the_bounds_themselves_are_admitted(tmp_path):
    for section, rules in CONFIG_TABLE.items():
        for key, (_, types, allowed) in rules.items():
            if allowed is None or type(allowed) is tuple:
                continue
            for bound in (allowed.lo, allowed.hi):
                if math.isfinite(bound) and not (bound == allowed.lo and allowed.lo_open):
                    path = _write(tmp_path, _nest(section, key, types[0](bound)))
                    load_experiment_config(path)


@pytest.mark.parametrize("text", ["[]", "5", '"experiment"', "null"])
def test_a_file_that_is_not_an_object_is_refused(tmp_path, text):
    path = tmp_path / "experiment.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigurationError, match="must hold a JSON object"):
        load_experiment_config(path)


def test_a_snapshots_thresholds_are_checked_through_the_table():
    with pytest.raises(ConfigurationError, match=re.escape("thresholds.drift must be")):
        parse_thresholds({"thresholds": {"drift": "0.3"}})
    with pytest.raises(ConfigurationError, match=re.escape("thresholds must be an object")):
        parse_thresholds({"thresholds": 5})
    assert parse_thresholds({"thresholds": {"conflict": 1}}) == Thresholds(conflict=1)
