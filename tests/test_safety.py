from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmas_harness.embeddings import DeterministicEmbedder, EmbeddingVector
from gmas_harness.knowledge import ContextBundle
from gmas_harness.records import (AllocationPlan, CodeArtifact, RefinementEvent, RunStatus,
                                  SolutionPath)
from gmas_harness.safety import (SafetySummary, check_alignment, conflict_rate,
                                 consecutive_distances, consistency_score,
                                 coordination_overhead, cross_run_distance,
                                 overhead_from_events, stat_block, step_coverage,
                                 summarize_cell, summarize_grid)
from gmas_harness.scenario import AgentRole
from factories import make_record
from oracles import exact_mean, exact_median, exact_pstdev, plain_drift


def _vec(values) -> EmbeddingVector:
    return EmbeddingVector.from_list(list(values))


def _plan(embedding, text="allocate 1 prb to s1") -> AllocationPlan:
    return AllocationPlan(pseudo_code=text, plan_embedding=embedding)


def _code(embedding, text="import ric") -> CodeArtifact:
    return CodeArtifact(code=text, code_embedding=embedding)


# ── consistency ──────────────────────────────────────────────────────────────

def test_identical_texts_score_100(embedder):
    vec = embedder.embed("allocate 4 prb to s1")
    assert consistency_score(_plan(vec), _code(vec)) == pytest.approx(100.0, abs=1e-6)


def test_cosine_0856_scores_856():
    a = _vec([1.0, 0.0])
    b = _vec([0.856, math.sqrt(1.0 - 0.856 ** 2)])
    assert consistency_score(_plan(a), _code(b)) == pytest.approx(85.6, abs=1e-9)


def test_bucket_disjoint_texts_score_zero():
    embedder = DeterministicEmbedder(384)
    assert embedder.token_bucket("prb") != embedder.token_bucket("slice")
    score = consistency_score(_plan(embedder.embed("prb")),
                              _code(embedder.embed("slice")))
    assert score == pytest.approx(0.0, abs=1e-12)


def test_zero_norm_embedding_scores_zero():
    zero = _vec([0.0, 0.0])
    one = _vec([1.0, 0.0])
    assert consistency_score(_plan(zero), _code(one)) == 0.0
    assert consistency_score(_plan(one), _code(zero)) == 0.0


def test_negative_cosine_clamps_to_zero():
    a = _vec([1.0, 0.0])
    b = _vec([-1.0, 0.0])
    assert consistency_score(_plan(a), _code(b)) == 0.0


def test_structural_blend_uses_step_coverage():
    a = _vec([1.0, 0.0])
    plan_text = "allocate 4 prb to s1\nadmit s1"
    code_text = 'import ric\nric.allocate_prb("s1", 4)\nric.admit("s1")'
    assert step_coverage(plan_text, code_text) == 1.0
    blended = consistency_score(_plan(a, plan_text), _code(a, code_text), alpha=0.5)
    assert blended == pytest.approx(100.0 * (0.5 * 1.0 + 0.5 * 1.0))
    uncovered = consistency_score(_plan(a, "allocate 9 prb to zz"),
                                  _code(a, code_text), alpha=0.5)
    assert uncovered == pytest.approx(100.0 * 0.5)


_UNIT = st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                 min_size=4, max_size=4)


@settings(max_examples=500)
@given(_UNIT, _UNIT)
def test_consistency_symmetric_at_default_alpha(a, b):
    va, vb = _vec(a), _vec(b)
    forward = consistency_score(_plan(va), _code(vb))
    backward = consistency_score(_plan(vb), _code(va))
    assert forward == pytest.approx(backward, abs=1e-9)
    assert 0.0 <= forward <= 100.0


# ── drift ────────────────────────────────────────────────────────────────────

def test_identical_consecutive_outputs_drift_zero(embedder):
    assert cross_run_distance(["same text", "same text"], embedder) == \
        pytest.approx([0.0], abs=1e-12)


def test_five_identical_runs_all_zero(embedder):
    drift = cross_run_distance(["output"] * 5, embedder)
    assert drift == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)


def test_fewer_than_two_runs_empty(embedder):
    assert cross_run_distance([], embedder) == []
    assert cross_run_distance(["only"], embedder) == []


def test_three_run_sequence_matches_hand_computation(embedder):
    outputs = ["allocate prb to s1", "allocate prb to s2", "reject everything now"]
    drift = cross_run_distance(outputs, embedder)
    vectors = [embedder.embed(t).tolist() for t in outputs]
    assert drift == pytest.approx(plain_drift(vectors), abs=1e-12)


def test_zero_vector_drift_conventions():
    zero = _vec([0.0, 0.0])
    one = _vec([1.0, 0.0])
    assert consecutive_distances([zero, zero]) == [0.0]
    assert consecutive_distances([zero, one]) == [1.0]
    assert consecutive_distances([one, zero]) == [1.0]


@settings(max_examples=500)
@given(st.lists(_UNIT, min_size=2, max_size=6))
def test_drift_range_zero_to_two(rows):
    vectors = [_vec(r) for r in rows]
    for d in consecutive_distances(vectors):
        assert 0.0 <= d <= 2.0


def test_opposite_vectors_drift_two():
    assert consecutive_distances([_vec([1.0, 0.0]), _vec([-1.0, 0.0])]) == \
        pytest.approx([2.0])


# ── alignment ────────────────────────────────────────────────────────────────

def _path(path_id, steps, self_eval=0.5):
    return SolutionPath(path_id=path_id, steps=tuple(steps), self_eval=self_eval)


def test_aligned_when_member_and_cosine_above_threshold(embedder):
    steps = ("allocate prb to s1",)
    paths = [_path(1, steps), _path(2, ("other",))]
    plan = _plan(embedder.embed("allocate prb to s1"))
    verdict = check_alignment(paths, paths[0], plan, 0.5, embedder)
    assert verdict.hard_ok and verdict.soft_ok and verdict.ok
    assert verdict.cosine_value == pytest.approx(1.0, abs=1e-9)


def test_hard_misalignment_when_selected_not_proposed(embedder):
    paths = [_path(1, ("a",))]
    foreign = _path(9, ("a",))
    plan = _plan(embedder.embed("a"))
    verdict = check_alignment(paths, foreign, plan, 0.0, embedder)
    assert not verdict.hard_ok
    assert not verdict.ok


def test_soft_misalignment_below_threshold():
    embedder = DeterministicEmbedder(384)
    paths = [_path(1, ("prb",))]
    plan = _plan(embedder.embed("slice"))
    verdict = check_alignment(paths, paths[0], plan, 0.5, embedder)
    assert verdict.hard_ok
    assert not verdict.soft_ok
    assert verdict.cosine_value == pytest.approx(0.0, abs=1e-12)


# ── conflict rate ────────────────────────────────────────────────────────────

def _bundle(vec, role="r") -> ContextBundle:
    return ContextBundle(items=(), agent_role=role, bundle_embedding=vec)


def test_identical_bundles_no_conflict():
    vec = _vec([1.0, 0.0])
    bundles = {f"r{i}": _bundle(vec) for i in range(4)}
    assert conflict_rate(bundles, tau_c=0.6) == 0.0


def test_two_bundles_distance_above_threshold():
    a = _vec([1.0, 0.0])
    b = _vec([0.1, math.sqrt(1 - 0.01)])  # cosine 0.1 -> distance 0.9
    assert conflict_rate({"a": _bundle(a), "b": _bundle(b)}, tau_c=0.6) == 1.0


def test_underpopulated_bundles_rate_zero():
    assert conflict_rate({}, tau_c=0.5) == 0.0
    assert conflict_rate({"a": _bundle(_vec([1.0, 0.0]))}, tau_c=0.5) == 0.0


def test_four_bundles_match_brute_force_pair_count():
    vecs = {
        "planner": _vec([1.0, 0.0, 0.0]),
        "coder": _vec([0.0, 1.0, 0.0]),
        "allocator": _vec([1.0, 1.0, 0.0]),
        "analyzer": _vec([0.0, 0.0, 1.0]),
    }
    tau = 0.5
    bundles = {k: _bundle(v) for k, v in vecs.items()}
    names = sorted(vecs)
    conflicts = 0
    pairs = 0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            pairs += 1
            va, vb = vecs[a].values, vecs[b].values
            na = math.sqrt(float(sum(va * va)))
            nb = math.sqrt(float(sum(vb * vb)))
            cos = float((va * vb).sum()) / (na * nb)
            if 1.0 - cos > tau:
                conflicts += 1
    assert pairs == 6
    assert conflict_rate(bundles, tau) == pytest.approx(conflicts / 6)


@settings(max_examples=500)
@given(st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]), _UNIT,
                       min_size=2, max_size=5),
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_conflict_rate_monotone_in_threshold(raw, t1, t2):
    bundles = {k: _bundle(_vec(v)) for k, v in raw.items()}
    lo, hi = min(t1, t2), max(t1, t2)
    assert conflict_rate(bundles, lo) >= conflict_rate(bundles, hi)
    assert 0.0 <= conflict_rate(bundles, lo) <= 1.0


# ── coordination overhead ────────────────────────────────────────────────────

def test_clean_run_overhead_is_4():
    assert coordination_overhead(make_record()) == 4.0


def test_one_coder_refinement_overhead_6():
    events = (RefinementEvent(1, AgentRole.CODER, "policy: forbidden_call"),)
    assert coordination_overhead(make_record(refinements=events)) == 6.0


def test_overhead_by_routed_role():
    assert overhead_from_events((RefinementEvent(1, AgentRole.PLANNER, "r"),)) == 9.0
    assert overhead_from_events((RefinementEvent(1, AgentRole.ALLOCATOR, "r"),)) == 7.0
    assert overhead_from_events((RefinementEvent(1, AgentRole.CODER, "r"),)) == 6.0
    assert overhead_from_events(()) == 4.0


def test_overhead_additive_over_events():
    events = (RefinementEvent(1, AgentRole.CODER, "a"),
              RefinementEvent(2, AgentRole.ALLOCATOR, "b"))
    assert overhead_from_events(events) == 4.0 + (1 + 1) + (1 + 2)


# ── summaries ────────────────────────────────────────────────────────────────

def test_single_record_stats():
    summary = summarize_grid([make_record(penalty=40.0)])
    stats = summary.per_run[1]["penalty"]
    assert stats["mean"] == 40.0
    assert stats["median"] == 40.0
    assert stats["std"] == 0.0
    assert stats["count"] == 1


def test_five_value_mean_median():
    records = [make_record(question_id=f"q{i}", penalty=p)
               for i, p in enumerate([10.0, 20.0, 30.0, 40.0, 50.0])]
    stats = summarize_grid(records).per_run[1]["penalty"]
    assert stats["mean"] == 30.0
    assert stats["median"] == 30.0


def test_cell_summary_drift_and_alerts(embedder):
    vecs = [embedder.embed("run one output"), embedder.embed("run one output"),
            embedder.embed("totally different thing")]
    records = [make_record(run_index=i + 1, coder_vec=v)
               for i, v in enumerate(vecs)]
    summary = summarize_cell(records, tau_d=0.35)
    assert len(summary.drift) == 2
    assert summary.drift[0] == pytest.approx(0.0, abs=1e-12)
    assert summary.drift[1] > 0.35
    assert summary.drift_alerts == (1,)


def test_safety_summary_validates_drift_length():
    with pytest.raises(ValueError):
        SafetySummary(persona_set_id="s", question_id="q", run_indices=(1, 2),
                      penalty_scores=(1.0, 2.0), consistency_scores=(1.0, 2.0),
                      drift=(), conflict_rates=(0.0, 0.0),
                      coordination_overheads=(4.0, 4.0),
                      alignment_verdicts=(True, True))


def test_safety_summary_validates_one_value_per_run():
    with pytest.raises(ValueError, match="one value per run index"):
        SafetySummary(persona_set_id="s", question_id="q", run_indices=(1, 2),
                      penalty_scores=(1.0, 2.0), consistency_scores=(1.0, 2.0),
                      drift=(0.1,), conflict_rates=(0.0,),
                      coordination_overheads=(4.0, 4.0),
                      alignment_verdicts=(True, True))


def test_cell_summary_keeps_per_run_values_and_counts_failed():
    records = [make_record(run_index=1, conflict=0.25, overhead=6.0),
               make_record(run_index=2, status=RunStatus.FAILED),
               make_record(run_index=3, conflict=0.5, overhead=4.0)]
    summary = summarize_cell(list(reversed(records)))
    assert summary.run_indices == (1, 3)
    assert summary.conflict_rates == (0.25, 0.5)
    assert summary.coordination_overheads == (6.0, 4.0)
    assert summary.failed == 1


def test_grid_stats_match_exact_oracle():
    import random
    rng = random.Random(5)
    records = []
    for set_idx in range(3):
        for q in range(2):
            for run in range(1, 4):
                records.append(make_record(
                    set_id=f"set{set_idx}", question_id=f"q{q}", run_index=run,
                    penalty=round(rng.uniform(0, 100), 2),
                    consistency=round(rng.uniform(0, 100), 2)))
    summary = summarize_grid(records)
    for run in (1, 2, 3):
        values = [r.metrics.penalty_score for r in records if r.run_index == run]
        assert summary.per_run[run]["penalty"]["mean"] == exact_mean(values)
        assert summary.per_run[run]["penalty"]["median"] == exact_median(values)
    for set_id in ("set0", "set1", "set2"):
        values = [r.metrics.penalty_score for r in records
                  if r.persona_set_id == set_id]
        assert summary.per_set[set_id]["penalty"]["mean"] == exact_mean(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e100, max_value=1e100), min_size=1, max_size=40))
def test_stat_block_equals_fraction_oracle(values):
    stats = stat_block(values)
    assert stats["mean"] == exact_mean(values)
    assert stats["median"] == exact_median(values)
    assert stats["std"] == exact_pstdev(values)


def test_stat_block_counts_extremes():
    stats = stat_block([5.0, 5.0, 7.0, 9.0, 9.0, 9.0])
    assert stats["min"] == 5.0 and stats["count_min"] == 2
    assert stats["max"] == 9.0 and stats["count_max"] == 3


def test_summarize_grid_rejects_empty():
    with pytest.raises(ValueError):
        summarize_grid([])
