"""Experiment configuration file (experiment.json) and environment assembly.

Every key of the file is checked against ``CONFIG_TABLE`` before anything is
built. GMAS_API_BASE and GMAS_API_KEY override the config file's
live-backend fields when set.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

from .analyzer import DEFAULT_SEVERITY_WEIGHTS, PolicyRuleSet, Severity
from .backends import LiveBackend, ScriptedBackend, load_script
from .embeddings import DEFAULT_DIM
from .errors import ConfigurationError, read_json_file
from .knowledge import index_documents, load_corpus_dir, load_graph
from .orchestrator import (DEFAULT_BINDINGS, ExperimentEnv, RunConfig, StoreSet,
                           Thresholds)
from .ricsim import SimulatedNetwork
from .scenario import AgentRole, PersonaRegistry

ENV_API_BASE = "GMAS_API_BASE"
ENV_API_KEY = "GMAS_API_KEY"


@dataclass
class ExperimentConfig:
    raw: dict              # verbatim snapshot for manifests and id derivation
    base_dir: Path
    run: RunConfig
    workers: int
    grid_mode: str
    severity_weights: dict

    def resolve(self, value: str | None) -> Path | None:
        if value is None:
            return None
        path = Path(value)
        return path if path.is_absolute() else self.base_dir / path


class _Range(NamedTuple):
    """[lo, hi], or (lo, hi] when ``lo_open``; a float in it is finite too."""
    lo: float
    hi: float = math.inf
    lo_open: bool = False

    def __contains__(self, value) -> bool:
        return ((self.lo < value if self.lo_open else self.lo <= value) and value <= self.hi
                and (type(value) is int or math.isfinite(value)))

    def __str__(self) -> str:
        return f"{'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g}]"


# A rule: what a value must be, its exact types (bool is not a number, and an
# integer takes no float, not even 2.0), and the _Range or values it must be in.
_INT_GE_0, _INT_GE_1 = ("an integer", (int,), _Range(0)), ("an integer", (int,), _Range(1))
_NUM_GE_0, _NUM_GT_0 = (("a number", (int, float), _Range(0)),
                        ("a number", (int, float), _Range(0, lo_open=True)))
_STR, _OBJ = ("a string", (str,), None), ("an object", (dict,), None)
_STR_OR_NULL = ("a string or null", (str, type(None)), None)   # null: none

# CONFIG_TABLE[section][key]: the rule of each key the file may hold, "" being
# the top level; any other key is refused, so a misspelt knob cannot keep its
# default. A negative memory budget would cut every memory digest to "...".
CONFIG_TABLE: dict[str, dict[str, tuple]] = {
    "": {  # the fields of RunConfig, then the experiment's environment
        "tot_path_count": _INT_GE_1, "max_refinement_depth": _INT_GE_0, "thresholds": _OBJ,
        "top_k": _INT_GE_1, "hop_expand": ("an integer", (int,), _Range(0, 1)),
        "memory_budget_chars": _INT_GE_0, "seed": ("an integer", (int,), None),
        "consistency_alpha": ("a number", (int, float), _Range(0, 1)),
        "temperature": ("a number", (int, float), _Range(0, 2)), "max_tokens": _INT_GE_1,
        "external_linter_cmd": _STR_OR_NULL, "external_sandbox_cmd": _STR_OR_NULL,
        "severity_weights": _OBJ, "backend": _OBJ, "stores": _OBJ, "embedding_dim": _INT_GE_1,
        "network_path": _STR, "policy_rules_path": _STR_OR_NULL, "workers": _INT_GE_1,
        "grid_mode": ("a string", (str,), ("relaxed", "strict"))},
    "thresholds": {"drift": _NUM_GE_0, "alignment": _NUM_GE_0, "conflict": _NUM_GE_0,
                   "min_throughput_ratio": _NUM_GT_0, "max_latency_ms": _NUM_GT_0},
    "severity_weights": {sev.value: _NUM_GT_0 for sev in Severity},
    "backend": {
        "mode": ("a string", (str,), ("live", "scripted")), "script_path": _STR_OR_NULL,
        "fallback_seed": ("an integer or null", (int, type(None)), None), "api_base": _STR,
        "api_key": _STR, "chat_model": _STR, "embedding_model": _STR, "retries": _INT_GE_1,
        "backoff_s": _NUM_GE_0, "rate_limit_per_s": _NUM_GT_0, "timeout_s": _NUM_GT_0},
    "stores": {"corpus_dir": _STR_OR_NULL, "graph_path": _STR_OR_NULL,
               "chunk_size": _INT_GE_1, "bindings": _OBJ},
    "stores.bindings": {role.value: ("a string", (str,), ("graph", "none", "rag"))
                        for role in AgentRole},
}


def _check(section: str, obj: dict) -> None:
    """Refuse the object at ``section`` with ConfigurationError naming the
    key at fault unless ``CONFIG_TABLE`` admits each of its keys and values."""
    rules = CONFIG_TABLE[section]
    for key, value in obj.items():
        name = f"{section}.{key}" if section else key
        if key not in rules:
            raise ConfigurationError(f"unknown config key {name!r}")
        kind, types, allowed = rules[key]
        if type(value) not in types or allowed is not None and value not in allowed:
            detail = "" if allowed is None else f" in {allowed}"
            raise ConfigurationError(f"{name} must be {kind}{detail}, got {value!r:.60}")
        if type(value) is dict:
            _check(name, value)


def parse_thresholds(raw: dict) -> Thresholds:
    """The ``thresholds`` of a raw config dict (a file's or a manifest's
    snapshot), checked against ``CONFIG_TABLE``."""
    _check("", {"thresholds": raw.get("thresholds", {})})
    return Thresholds(**raw.get("thresholds", {}))


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)

    def build(raw) -> ExperimentConfig:
        if type(raw) is not dict:
            raise ConfigurationError("the file must hold a JSON object")
        _check("", raw)
        knobs = {f.name: raw[f.name] for f in fields(RunConfig) if f.name in raw}
        weights_raw = raw.get("severity_weights", {})
        return ExperimentConfig(
            raw=raw, base_dir=path.parent,
            run=RunConfig(**{**knobs, "thresholds": parse_thresholds(raw)}),
            workers=raw.get("workers", 1), grid_mode=raw.get("grid_mode", "strict"),
            severity_weights={sev: float(weights_raw.get(sev.value, default))
                              for sev, default in DEFAULT_SEVERITY_WEIGHTS.items()},
        )

    return read_json_file(path, "experiment config", build)


def build_backend(config: ExperimentConfig):
    spec = config.raw.get("backend", {})
    dim = config.raw.get("embedding_dim", DEFAULT_DIM)
    if spec.get("mode", "scripted") == "scripted":
        script = []
        script_path = config.resolve(spec.get("script_path"))
        if script_path:
            script = load_script(script_path)
        return ScriptedBackend(script=script,
                               fallback_seed=spec.get("fallback_seed", config.run.seed),
                               dim=dim)
    api_base = os.environ.get(ENV_API_BASE) or spec.get("api_base")
    if not api_base:
        raise ConfigurationError(
            f"live backend needs {ENV_API_BASE} or backend.api_base in the config")
    api_key = os.environ.get(ENV_API_KEY) or spec.get("api_key", "")
    # LiveBackend's own defaults stand for the settings the file leaves out
    settings = {key: spec[key] for key in ("chat_model", "embedding_model", "retries",
                "backoff_s", "rate_limit_per_s", "timeout_s") if key in spec}
    return LiveBackend(api_base=api_base, api_key=api_key, dim=dim, **settings)


def build_stores(config: ExperimentConfig, embedder) -> StoreSet:
    stores_raw = config.raw.get("stores", {})
    document_store = None
    corpus_dir = config.resolve(stores_raw.get("corpus_dir"))
    if corpus_dir:
        chunking = {key: stores_raw[key] for key in ("chunk_size",) if key in stores_raw}
        document_store = index_documents(load_corpus_dir(corpus_dir), embedder, **chunking)
    graph = None
    graph_path = config.resolve(stores_raw.get("graph_path"))
    if graph_path:
        graph = load_graph(graph_path, embedder)
    bindings = dict(DEFAULT_BINDINGS)
    for role_name, kind in stores_raw.get("bindings", {}).items():
        bindings[AgentRole(role_name)] = kind
    return StoreSet(document_store=document_store, graph=graph, bindings=bindings)


def build_env(config: ExperimentConfig, experiment_id: str,
              registry: PersonaRegistry | None = None) -> ExperimentEnv:
    backend = build_backend(config)
    stores = build_stores(config, backend)
    network_path = config.resolve(config.raw.get("network_path"))
    if network_path is None:
        raise ConfigurationError("config needs network_path (simulated RIC scenario)")
    network = SimulatedNetwork.from_json(network_path)
    rules_path = config.resolve(config.raw.get("policy_rules_path"))
    policy_rules = PolicyRuleSet.from_json(rules_path) if rules_path else PolicyRuleSet()
    return ExperimentEnv(
        config=config.run, backend=backend, stores=stores,
        registry=registry or PersonaRegistry.builtin(), network=network,
        policy_rules=policy_rules, experiment_id=experiment_id,
        severity_weights=config.severity_weights,
    )
