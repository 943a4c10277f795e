"""Builders for synthetic run records used across test modules."""

from __future__ import annotations

import itertools
import threading
import weakref

from gmas_harness.analyzer import PolicyRuleSet
from gmas_harness.embeddings import EmbeddingVector
from gmas_harness.records import (RefinementEvent, RunMetrics, RunRecord, RunStatus,
                                  Trajectory)
from gmas_harness.ricsim import Cell, SimulatedNetwork, Slice
from gmas_harness.scenario import PIPELINE_ORDER, AgentRole

FACTORY_DIM = 8
TEST_DIM = 64  # small but collision-sparse enough for metric tests


def small_network() -> SimulatedNetwork:
    return SimulatedNetwork(
        cells=(Cell("c1", 24), Cell("c2", 16)),
        slices=(Slice("s1", "c1", 4.0), Slice("s2", "c1", 6.0),
                Slice("s3", "c2", 5.0)))


def small_policy_rules() -> PolicyRuleSet:
    return PolicyRuleSet(
        forbidden_calls=("os.system", "eval", "ric.shutdown_cell"),
        forbidden_imports=("os", "subprocess"),
        conflict_rules=(("admit", "reject", "slice"),),
        resource_caps=(("prb", 40),),
    )


def _zero() -> EmbeddingVector:
    return EmbeddingVector.from_list([0.0] * FACTORY_DIM)


def stub_trajectory(role: AgentRole, output_vec: EmbeddingVector | None = None,
                    output: str = "") -> Trajectory:
    return Trajectory(role=role, prompt=f"prompt for {role.value}",
                      prompt_embedding=_zero(), output=output,
                      output_embedding=output_vec or _zero(),
                      thought_summary=f"{role.value} summary")


def make_record(set_id: str = "Planner=Default+Coordinator=Default+"
                              "Allocator=Default+Coder=Default+Analyzer=Default",
                question_id: str = "q1", run_index: int = 1,
                penalty: float = 100.0, consistency: float = 100.0,
                conflict: float = 0.0, overhead: float = 4.0,
                coder_vec: EmbeddingVector | None = None,
                refinements: tuple[RefinementEvent, ...] = (),
                experiment_id: str = "exp-fixture",
                status: RunStatus = RunStatus.COMPLETED) -> RunRecord:
    trajectories = {}
    for role in PIPELINE_ORDER:
        vec = coder_vec if role is AgentRole.CODER else None
        trajectories[role] = stub_trajectory(role, vec)
    metrics = RunMetrics(
        penalty_score=penalty, consistency_score=consistency,
        consistency_zero_norm=False, alignment_hard_ok=True,
        alignment_soft_ok=True, alignment_cosine=1.0, conflict_rate=conflict,
        conflict_underpopulated=False, coordination_overhead=overhead)
    return RunRecord(
        experiment_id=experiment_id, question_id=question_id,
        question_text=f"question {question_id}", persona_set_id=set_id,
        run_index=run_index, status=status, trajectories=trajectories,
        proposed_paths=(), selected_path_id=None, plan_text="allocate 1 prb to s1",
        code_text="import ric", kpi=None, analyzer_report=None, metrics=metrics,
        refinement_events=refinements,
        max_refinement_depth=max(3, len(refinements)))


class LiveRecords:
    """Peak number of records, returned by the wrapped functions, alive at once.

    ``RunRecord`` is unhashable (it holds a dict), so the records are held by
    weak reference in a ``WeakValueDictionary`` rather than a ``WeakSet``.
    The count is taken each time a wrapped function returns a record.
    """

    def __init__(self):
        self._live = weakref.WeakValueDictionary()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self.calls = 0
        self.peak = 0

    def wrap(self, fn):
        def tracked(*args, **kwargs):
            record = fn(*args, **kwargs)
            with self._lock:
                self._live[next(self._ids)] = record
                self.calls += 1
                self.peak = max(self.peak, len(self._live))
            return record
        return tracked
