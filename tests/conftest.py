from __future__ import annotations

import pytest

from gmas_harness.backends import ScriptedBackend
from gmas_harness.embeddings import DeterministicEmbedder
from gmas_harness.orchestrator import ExperimentEnv, RunConfig, StoreSet
from gmas_harness.scenario import PersonaRegistry, generate_questions

from factories import TEST_DIM, small_network, small_policy_rules


@pytest.fixture
def embedder():
    return DeterministicEmbedder(TEST_DIM)


@pytest.fixture
def registry():
    return PersonaRegistry.builtin()


@pytest.fixture
def network():
    return small_network()


@pytest.fixture
def policy_rules():
    return small_policy_rules()


@pytest.fixture
def questions():
    return generate_questions(2, seed=7)


@pytest.fixture
def make_env(registry, network, policy_rules):
    def _make(backend=None, config=None, stores=None, rules=policy_rules,
              experiment_id="exp-test"):
        return ExperimentEnv(
            config=config or RunConfig(),
            backend=backend or ScriptedBackend(fallback_seed=42, dim=TEST_DIM),
            stores=stores or StoreSet(),
            registry=registry,
            network=network,
            policy_rules=rules,
            experiment_id=experiment_id,
        )
    return _make
