from __future__ import annotations

import json

from gmas_harness.analyzer import DEFAULT_SEVERITY_WEIGHTS, Severity
from gmas_harness.config import load_experiment_config, parse_thresholds
from gmas_harness.orchestrator import RunConfig, Thresholds


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
