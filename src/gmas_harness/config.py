"""Experiment configuration file (experiment.json) and environment assembly.

GMAS_API_BASE and GMAS_API_KEY override the config file's live-backend
fields when set.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .analyzer import DEFAULT_SEVERITY_WEIGHTS, PolicyRuleSet
from .backends import LiveBackend, ScriptedBackend, load_script
from .embeddings import DEFAULT_DIM
from .errors import ConfigurationError
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
    backend_mode: str      # scripted | live
    workers: int
    grid_mode: str
    severity_weights: dict

    def resolve(self, value: str | None) -> Path | None:
        if value is None:
            return None
        path = Path(value)
        return path if path.is_absolute() else self.base_dir / path


def _present(raw: dict, cls) -> dict:
    """The entries of ``raw`` that name fields of the dataclass ``cls``."""
    return {f.name: raw[f.name] for f in fields(cls) if f.name in raw}


def parse_thresholds(raw: dict) -> Thresholds:
    """The ``thresholds`` of a raw config dict (a file's or a manifest's snapshot)."""
    return Thresholds(**_present(raw.get("thresholds", {}), Thresholds))


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")

    run = RunConfig(**{**_present(raw, RunConfig), "thresholds": parse_thresholds(raw)})
    weights_raw = raw.get("severity_weights", {})
    weights = {sev: float(weights_raw.get(sev.value, default))
               for sev, default in DEFAULT_SEVERITY_WEIGHTS.items()}
    backend_mode = raw.get("backend", {}).get("mode", "scripted")
    if backend_mode not in ("scripted", "live"):
        raise ConfigurationError(f"unknown backend mode {backend_mode!r}")
    return ExperimentConfig(
        raw=raw, base_dir=path.parent, run=run, backend_mode=backend_mode,
        workers=int(raw.get("workers", 1)), grid_mode=raw.get("grid_mode", "strict"),
        severity_weights=weights,
    )


def build_backend(config: ExperimentConfig):
    spec = config.raw.get("backend", {})
    dim = int(config.raw.get("embedding_dim", DEFAULT_DIM))
    if config.backend_mode == "scripted":
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
    return LiveBackend(
        api_base=api_base, api_key=api_key,
        chat_model=spec.get("chat_model", "gpt-3.5-turbo"),
        embedding_model=spec.get("embedding_model", "all-MiniLM-L6-v2"),
        dim=dim, retries=int(spec.get("retries", 3)),
        backoff_s=float(spec.get("backoff_s", 0.5)),
        rate_limit_per_s=float(spec.get("rate_limit_per_s", 10.0)),
        timeout_s=float(spec.get("timeout_s", 60.0)),
    )


def build_stores(config: ExperimentConfig, embedder) -> StoreSet:
    stores_raw = config.raw.get("stores", {})
    document_store = None
    corpus_dir = config.resolve(stores_raw.get("corpus_dir"))
    if corpus_dir:
        corpus = load_corpus_dir(corpus_dir)
        document_store = index_documents(corpus, embedder,
                                         chunk_size=int(stores_raw.get("chunk_size", 400)))
    graph = None
    graph_path = config.resolve(stores_raw.get("graph_path"))
    if graph_path:
        graph = load_graph(graph_path, embedder)
    bindings = dict(DEFAULT_BINDINGS)
    for role_name, kind in stores_raw.get("bindings", {}).items():
        if kind not in ("rag", "graph", "none"):
            raise ConfigurationError(f"unknown store binding {kind!r}")
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
