"""Record fixtures shared by the golden tests and their generators: hand-specified
records, and one scripted cell whose Coder fails in run 2."""

from __future__ import annotations

from pathlib import Path

from gmas_harness.backends import ScriptedBackend
from gmas_harness.embeddings import EmbeddingVector
from gmas_harness.errors import TransportError
from gmas_harness.orchestrator import ExperimentEnv, RunConfig, StoreSet, run_cell
from gmas_harness.scenario import (AgentRole, PersonaRegistry, enumerate_grid,
                                   generate_questions)

from factories import FACTORY_DIM, TEST_DIM, make_record, small_network, small_policy_rules

SET_A = ("Planner=Default+Coordinator=Default+Allocator=Default+"
         "Coder=Default+Analyzer=Default")
SET_B = ("Planner=CreativeThinker+Coordinator=Default+Allocator=Default+"
         "Coder=Minimalist+Analyzer=Default")


def _axis(i: int) -> EmbeddingVector:
    values = [0.0] * FACTORY_DIM
    values[i] = 1.0
    return EmbeddingVector.from_list(values)


def golden_fixture_records():
    """2 sets x 2 questions x 2 runs with hand-picked metric values."""
    spec = [
        (SET_A, "q1", 1, 90.0, 81.5, 0.0, 4.0, _axis(0)),
        (SET_A, "q1", 2, 95.0, 85.0, 0.0, 4.0, _axis(1)),
        (SET_A, "q2", 1, 40.0, 73.8, 0.25, 6.0, _axis(0)),
        (SET_A, "q2", 2, 60.0, 77.125, 0.25, 4.0, _axis(0)),
        (SET_B, "q1", 1, 5.0, 85.6, 0.5, 9.0, _axis(2)),
        (SET_B, "q1", 2, 35.0, 88.0, 0.5, 6.0, _axis(3)),
        (SET_B, "q2", 1, 100.0, 92.0, 0.0, 4.0, _axis(2)),
        (SET_B, "q2", 2, 100.0, 92.0, 0.0, 4.0, _axis(2)),
    ]
    return [make_record(set_id=set_id, question_id=q, run_index=run,
                        penalty=pen, consistency=cons, conflict=conf,
                        overhead=over, coder_vec=vec,
                        experiment_id="exp-golden")
            for set_id, q, run, pen, cons, conf, over, vec in spec]


class _CoderFailsInRun2(ScriptedBackend):
    def generate(self, request, *, role=None, run_index=0):
        if role == AgentRole.CODER.value and run_index == 2:
            raise TransportError("coder backend down")
        return super().generate(request, role=role, run_index=run_index)


def persist_coder_fails_in_run2(root: Path) -> list:
    """Run one scripted cell x 3 runs under root, its Coder backend down in
    run 2; the cell's ``RunEntry``s."""
    registry = PersonaRegistry.builtin()
    env = ExperimentEnv(config=RunConfig(),
                        backend=_CoderFailsInRun2(fallback_seed=42, dim=TEST_DIM),
                        stores=StoreSet(), registry=registry, network=small_network(),
                        policy_rules=small_policy_rules(), experiment_id="exp-test")
    entries, _ = run_cell(generate_questions(2, seed=7)[0], enumerate_grid(registry)[0],
                          3, env, root)
    return entries
