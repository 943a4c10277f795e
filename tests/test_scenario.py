from __future__ import annotations

import json
import math
import re
from collections import Counter

import pytest

from gmas_harness.backends import ScriptedBackend, ScriptEntry
from gmas_harness.errors import ConfigurationError
from gmas_harness.scenario import (AgentRole, PIPELINE_ORDER, Persona,
                                   PersonaRegistry, PersonaSet,
                                   ROLE_CHARTERS, Topic, enumerate_grid,
                                   generate_questions, load_questions,
                                   render_persona_prompt, save_questions)


def _single_persona_registry():
    return PersonaRegistry([
        Persona("Default", role, "", "Apply the standard operating procedure.")
        for role in PIPELINE_ORDER])


def test_builtin_registry_has_two_personas_per_role(registry):
    for role in PIPELINE_ORDER:
        assert len(registry.for_role(role)) == 2


def test_builtin_registry_carries_the_named_specialists(registry):
    assert registry.get("CreativeThinker", AgentRole.PLANNER)
    assert registry.get("Strategic", AgentRole.COORDINATOR)
    assert registry.get("FairnessOriented", AgentRole.ALLOCATOR)
    assert registry.get("Minimalist", AgentRole.CODER)
    assert registry.get("StrictAssessor", AgentRole.ANALYZER)


def test_duplicate_persona_rejected():
    persona = Persona("X", AgentRole.CODER, "", "frag")
    with pytest.raises(ConfigurationError):
        PersonaRegistry([persona, persona])


def test_empty_prompt_fragment_rejected(tmp_path):
    path = tmp_path / "personas.json"
    path.write_text(json.dumps([{"id": "X", "role": "Coder", "orientation": "",
                                 "prompt_fragment": ""}]))
    with pytest.raises(ConfigurationError,
                       match=re.escape("[0].prompt_fragment must be a non-empty string")):
        PersonaRegistry.from_json(path)


def test_registry_json_round_trip(registry, tmp_path):
    path = tmp_path / "personas.json"
    registry.to_json(path)
    loaded = PersonaRegistry.from_json(path)
    assert loaded.all() == registry.all()


# ── grid enumeration ─────────────────────────────────────────────────────────

def test_grid_is_32_sets_each_persona_in_16(registry):
    sets = enumerate_grid(registry)
    assert len(sets) == 32
    assert len({s.set_id for s in sets}) == 32
    counts = Counter()
    for s in sets:
        for role, pid in s.assignment:
            counts[(role, pid)] += 1
    assert all(count == 16 for count in counts.values())


def test_grid_ordering_stable_and_lexicographic(registry):
    sets_a = enumerate_grid(registry)
    sets_b = enumerate_grid(registry)
    assert [s.set_id for s in sets_a] == [s.set_id for s in sets_b]
    keys = [tuple(pid for _, pid in s.assignment) for s in sets_a]
    assert keys == sorted(keys)


def test_strict_grid_rejects_wrong_persona_count(registry):
    extra = PersonaRegistry(list(p for p in _iter_personas(registry)) + [
        Persona("ThirdCoder", AgentRole.CODER, "", "frag")])
    with pytest.raises(ConfigurationError) as exc:
        enumerate_grid(extra, mode="strict")
    assert "Coder" in str(exc.value)


def _iter_personas(registry):
    for role in PIPELINE_ORDER:
        yield from registry.for_role(role)


def test_relaxed_grid_single_persona_per_role_gives_one_set():
    sets = enumerate_grid(_single_persona_registry(), mode="relaxed")
    assert len(sets) == 1


def test_relaxed_grid_three_coders_gives_48(registry):
    # registered last, sorted first among the Coders
    extra = PersonaRegistry(list(_iter_personas(registry)) + [
        Persona("AnotherCoder", AgentRole.CODER, "", "frag")])
    sets = enumerate_grid(extra, mode="relaxed")
    assert len(sets) == 48
    keys = [tuple(pid for _, pid in s.assignment) for s in sets]
    assert keys == sorted(set(keys))


def test_set_id_round_trips(registry):
    for s in enumerate_grid(registry):
        assert PersonaSet.parse(s.set_id) == s


def test_persona_set_requires_all_five_roles():
    with pytest.raises(ValueError):
        PersonaSet(tuple([(AgentRole.PLANNER, "Default")]))


# ── persona prompt rendering ─────────────────────────────────────────────────

def test_render_omits_empty_orientation(registry):
    default = registry.get("Default", AgentRole.PLANNER)
    text = render_persona_prompt(default, ROLE_CHARTERS[AgentRole.PLANNER])
    assert "Orientation:" not in text
    assert ROLE_CHARTERS[AgentRole.PLANNER] in text
    assert default.prompt_fragment in text


def test_render_includes_charter_and_fragment(registry):
    strict = registry.get("StrictAssessor", AgentRole.ANALYZER)
    text = render_persona_prompt(strict, ROLE_CHARTERS[AgentRole.ANALYZER])
    assert ROLE_CHARTERS[AgentRole.ANALYZER] in text
    assert strict.prompt_fragment in text
    assert "Orientation: " + strict.orientation in text


def test_render_is_deterministic(registry):
    persona = registry.get("Minimalist", AgentRole.CODER)
    charter = ROLE_CHARTERS[AgentRole.CODER]
    assert render_persona_prompt(persona, charter) == \
        render_persona_prompt(persona, charter)


# ── question generation ──────────────────────────────────────────────────────

def test_template_questions_distinct_and_stable():
    a = generate_questions(5, mode="template", seed=7)
    b = generate_questions(5, mode="template", seed=7)
    assert [q.text for q in a] == [q.text for q in b]
    assert len({q.text for q in a}) == 5
    assert [q.id for q in a] == ["q1", "q2", "q3", "q4", "q5"]


def test_question_count_precondition():
    with pytest.raises(ValueError):
        generate_questions(0, seed=1)


def test_topic_mix_restricts_topics():
    qs = generate_questions(6, topic_mix={Topic.ENERGY: 1.0}, seed=3)
    assert all(q.topic is Topic.ENERGY for q in qs)


@pytest.mark.parametrize("mode", ["template", "llm"])
@pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf])
def test_a_negative_or_non_finite_topic_weight_is_refused(weight, mode):
    with pytest.raises(ValueError, match="the weight of topic slicing must be"):
        generate_questions(3, topic_mix={Topic.SLICING: weight, Topic.ENERGY: 2.0},
                           mode=mode, seed=1, backend=ScriptedBackend(dim=16))


def test_template_exhaustion_is_an_error():
    with pytest.raises(ConfigurationError):
        generate_questions(200, topic_mix={Topic.HANDOVER: 1.0}, seed=3)


def test_llm_questions_replay_script():
    canned = "\n".join(f"How should cell c{i} rebalance load?" for i in range(1, 6))
    backend = ScriptedBackend(
        script=[ScriptEntry(response=canned, role="QuestionGenerator")],
        fallback_seed=None, dim=16)
    qs = generate_questions(5, mode="llm", seed=1, backend=backend)
    assert [q.text for q in qs] == canned.splitlines()


def test_llm_questions_deduplicate_and_fail_when_short():
    backend = ScriptedBackend(
        script=[ScriptEntry(response="same line\nsame line", role="QuestionGenerator")],
        fallback_seed=None, dim=16)
    with pytest.raises(ConfigurationError):
        generate_questions(2, mode="llm", seed=1, backend=backend)


def test_llm_mode_requires_backend():
    with pytest.raises(ConfigurationError):
        generate_questions(2, mode="llm", seed=1)


def test_questions_json_round_trip(tmp_path):
    qs = generate_questions(4, seed=11)
    path = tmp_path / "questions.json"
    save_questions(qs, path)
    assert load_questions(path) == qs


def test_question_text_non_empty(tmp_path):
    path = tmp_path / "questions.json"
    path.write_text(json.dumps([{"id": "q1", "text": "", "topic": "slicing"}]))
    with pytest.raises(ConfigurationError,
                       match=re.escape("[0].text must be a non-empty string")):
        load_questions(path)
