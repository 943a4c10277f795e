"""Experiment configuration file (experiment.json) and environment assembly.

Every key of the file is checked against ``CONFIG_TABLE`` before anything is
built. GMAS_API_BASE and GMAS_API_KEY override the config file's
live-backend fields when set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

from .analyzer import DEFAULT_SEVERITY_WEIGHTS, PolicyRuleSet, Severity
from .backends import LiveBackend, ScriptedBackend, load_script
from .embeddings import DEFAULT_DIM
from .errors import (INT_GE_0, INT_GE_1, NUM_GE_0, NUM_GT_0, STR, STR_OR_NULL,
                     ConfigurationError, Range, check, read_json_file, table_rule)
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


# CONFIG_TABLE[key]: the rule of each key the file may hold; any other key is
# refused, so a misspelt knob cannot keep its default. A negative memory
# budget would cut every memory digest to "...".
CONFIG_TABLE: dict[str, tuple] = {  # the fields of RunConfig, then the environment
    "tot_path_count": INT_GE_1, "max_refinement_depth": INT_GE_0,
    "thresholds": table_rule({
        "drift": NUM_GE_0, "alignment": NUM_GE_0, "conflict": NUM_GE_0,
        "min_throughput_ratio": NUM_GT_0, "max_latency_ms": NUM_GT_0}),
    "top_k": INT_GE_1, "hop_expand": ("an integer", (int,), Range(0, 1)),
    "memory_budget_chars": INT_GE_0, "seed": ("an integer", (int,), None),
    "consistency_alpha": ("a number", (int, float), Range(0, 1)),
    "temperature": ("a number", (int, float), Range(0, 2)), "max_tokens": INT_GE_1,
    "external_linter_cmd": STR_OR_NULL, "external_sandbox_cmd": STR_OR_NULL,
    "severity_weights": table_rule({sev.value: NUM_GT_0 for sev in Severity}),
    "backend": table_rule({
        "mode": ("a string", (str,), ("live", "scripted")), "script_path": STR_OR_NULL,
        "fallback_seed": ("an integer or null", (int, type(None)), None), "api_base": STR,
        "api_key": STR, "chat_model": STR, "embedding_model": STR, "retries": INT_GE_1,
        "backoff_s": NUM_GE_0, "rate_limit_per_s": NUM_GT_0, "timeout_s": NUM_GT_0}),
    "stores": table_rule({
        "corpus_dir": STR_OR_NULL, "graph_path": STR_OR_NULL, "chunk_size": INT_GE_1,
        "bindings": table_rule({role.value: ("a string", (str,), ("graph", "none", "rag"))
                                for role in AgentRole})}),
    "embedding_dim": INT_GE_1, "network_path": STR, "policy_rules_path": STR_OR_NULL,
    "workers": INT_GE_1, "grid_mode": ("a string", (str,), ("relaxed", "strict")),
}


def parse_thresholds(raw: dict) -> Thresholds:
    """The ``thresholds`` of a raw config dict (a file's or a manifest's
    snapshot), checked against ``CONFIG_TABLE``."""
    check(raw.get("thresholds", {}), CONFIG_TABLE["thresholds"], "thresholds")
    return Thresholds(**raw.get("thresholds", {}))


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)

    def build(raw) -> ExperimentConfig:
        knobs = {f.name: raw[f.name] for f in fields(RunConfig) if f.name in raw}
        weights_raw = raw.get("severity_weights", {})
        return ExperimentConfig(
            raw=raw, base_dir=path.parent,
            run=RunConfig(**{**knobs, "thresholds": Thresholds(**raw.get("thresholds", {}))}),
            workers=raw.get("workers", 1), grid_mode=raw.get("grid_mode", "strict"),
            severity_weights={sev: float(weights_raw.get(sev.value, default))
                              for sev, default in DEFAULT_SEVERITY_WEIGHTS.items()},
        )

    return read_json_file(path, "experiment config", table_rule(CONFIG_TABLE), build)


def build_backend(config: ExperimentConfig):
    spec = config.raw.get("backend", {})
    dim = config.raw.get("embedding_dim", DEFAULT_DIM)
    if spec.get("mode", "scripted") == "scripted":
        script_path = config.resolve(spec.get("script_path"))
        script = load_script(script_path) if script_path else []
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
    graph_path = config.resolve(stores_raw.get("graph_path"))
    graph = load_graph(graph_path, embedder) if graph_path else None
    bindings = {**DEFAULT_BINDINGS, **{AgentRole(role): kind for role, kind
                                       in stores_raw.get("bindings", {}).items()}}
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
