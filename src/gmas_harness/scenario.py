"""Questions, personas, and the persona-set grid that parameterize experiments."""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .backends import Backend, GenerationRequest
from .errors import ConfigurationError


class AgentRole(str, Enum):
    PLANNER = "Planner"
    COORDINATOR = "Coordinator"
    ALLOCATOR = "Allocator"
    CODER = "Coder"
    ANALYZER = "Analyzer"


PIPELINE_ORDER = [AgentRole.PLANNER, AgentRole.COORDINATOR, AgentRole.ALLOCATOR,
                  AgentRole.CODER, AgentRole.ANALYZER]

ROLE_CHARTERS = {
    AgentRole.PLANNER: "Propose multi-step solution paths for the question, grounded in the retrieved context.",
    AgentRole.COORDINATOR: "Select the most promising solution path proposed by the Planner and hand it to execution.",
    AgentRole.ALLOCATOR: "Produce a RIC resource allocation plan in the allocation DSL that implements the selected path.",
    AgentRole.CODER: "Translate the allocation plan into executable code in the restricted imperative grammar.",
    AgentRole.ANALYZER: "Validate the produced code and plan across static, policy, runtime, and formal dimensions.",
}


class Topic(str, Enum):
    RESOURCE_ALLOCATION = "resource_allocation"
    NETWORK_OPTIMIZATION = "network_optimization"
    SLICING = "slicing"
    HANDOVER = "handover"
    ENERGY = "energy"


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    topic: Topic

    def __post_init__(self):
        if not self.text:
            raise ValueError("question text must be non-empty")


@dataclass(frozen=True)
class Persona:
    id: str
    role: AgentRole
    orientation: str
    prompt_fragment: str

    def __post_init__(self):
        if not self.prompt_fragment:
            raise ValueError(f"persona {self.id} has empty prompt_fragment")


BUILTIN_PERSONAS = [
    Persona("Default", AgentRole.PLANNER, "",
            "Apply the standard operating procedure for your role with no additional stylistic bias."),
    Persona("CreativeThinker", AgentRole.PLANNER,
            "explores unconventional solution paths and alternative framings",
            "Favor breadth: propose diverse, creative solution paths, including at least one unconventional approach, before judging them."),
    Persona("Default", AgentRole.COORDINATOR, "",
            "Apply the standard operating procedure for your role with no additional stylistic bias."),
    Persona("Strategic", AgentRole.COORDINATOR,
            "weighs long-horizon trade-offs when selecting among candidate paths",
            "Prioritize plans that balance immediate KPI gains against long-term network stability, and justify the trade-off briefly."),
    Persona("Default", AgentRole.ALLOCATOR, "",
            "Apply the standard operating procedure for your role with no additional stylistic bias."),
    Persona("FairnessOriented", AgentRole.ALLOCATOR,
            "distributes resources to balance utility across slices",
            "Allocate resource blocks so that no slice is starved; prefer proportional shares over winner-take-all assignments."),
    Persona("Default", AgentRole.CODER, "",
            "Apply the standard operating procedure for your role with no additional stylistic bias."),
    Persona("Minimalist", AgentRole.CODER,
            "writes the smallest code that satisfies the plan",
            "Emit the fewest statements that implement the plan; avoid helper abstractions, logging, and speculative branches."),
    Persona("Default", AgentRole.ANALYZER, "",
            "Apply the standard operating procedure for your role with no additional stylistic bias."),
    Persona("StrictAssessor", AgentRole.ANALYZER,
            "applies the most conservative reading of every rule",
            "Treat borderline findings as violations; never waive a rule because intent seems benign."),
]


class PersonaRegistry:
    """Personas keyed by (id, role); read-only once built."""

    def __init__(self, personas: list[Persona]):
        self._by_key: dict[tuple[str, AgentRole], Persona] = {}
        for p in personas:
            key = (p.id, p.role)
            if key in self._by_key:
                raise ConfigurationError(f"duplicate persona {p.id} for role {p.role.value}")
            self._by_key[key] = p

    @classmethod
    def builtin(cls) -> "PersonaRegistry":
        return cls(BUILTIN_PERSONAS)

    @classmethod
    def from_json(cls, path: str | Path) -> "PersonaRegistry":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        try:
            personas = [Persona(id=item["id"], role=AgentRole(item["role"]),
                                orientation=item.get("orientation", ""),
                                prompt_fragment=item["prompt_fragment"])
                        for item in raw]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigurationError(f"{path} is not a valid persona registry file "
                                     f"({type(exc).__name__}: {exc})") from None
        return cls(personas)

    def to_json(self, path: str | Path) -> None:
        items = [{"id": p.id, "role": p.role.value, "orientation": p.orientation,
                  "prompt_fragment": p.prompt_fragment} for p in self.all()]
        Path(path).write_text(json.dumps(items, indent=2) + "\n", encoding="utf-8")

    def all(self) -> list[Persona]:
        return sorted(self._by_key.values(),
                      key=lambda p: (PIPELINE_ORDER.index(p.role), p.id))

    def for_role(self, role: AgentRole) -> list[Persona]:
        return sorted((p for p in self._by_key.values() if p.role == role),
                      key=lambda p: p.id)

    def get(self, persona_id: str, role: AgentRole) -> Persona:
        try:
            return self._by_key[(persona_id, role)]
        except KeyError:
            raise ConfigurationError(f"no persona {persona_id!r} for role {role.value}")


_SET_ID_PAIR_RE = re.compile(r"^(\w+)=(\w+)$")


@dataclass(frozen=True)
class PersonaSet:
    """One persona per role; one cell of the experiment grid."""

    assignment: tuple[tuple[AgentRole, str], ...]

    def __post_init__(self):
        roles = [role for role, _ in self.assignment]
        if roles != PIPELINE_ORDER:
            raise ValueError("assignment must cover exactly the five roles in pipeline order")

    def persona_id(self, role: AgentRole) -> str:
        return dict(self.assignment)[role]

    @property
    def set_id(self) -> str:
        return "+".join(f"{role.value}={pid}" for role, pid in self.assignment)

    @classmethod
    def parse(cls, set_id: str) -> "PersonaSet":
        pairs = []
        for chunk in set_id.split("+"):
            m = _SET_ID_PAIR_RE.match(chunk)
            if not m:
                raise ValueError(f"bad set_id chunk {chunk!r}")
            pairs.append((AgentRole(m.group(1)), m.group(2)))
        return cls(tuple(pairs))


def enumerate_grid(registry: PersonaRegistry, mode: str = "strict") -> list[PersonaSet]:
    """All persona combinations, one persona per role, lexicographically ordered.

    ``strict`` enforces the 2-per-role grid (2^5 = 32 sets); ``relaxed``
    takes the full product of whatever the registry holds per role.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"unknown grid mode {mode!r}")
    per_role: list[list[str]] = []
    for role in PIPELINE_ORDER:
        ids = [p.id for p in registry.for_role(role)]
        if not ids:
            raise ConfigurationError(f"no personas registered for role {role.value}")
        if mode == "strict" and len(ids) != 2:
            raise ConfigurationError(
                f"grid mode needs exactly 2 personas for role {role.value}, found {len(ids)}")
        per_role.append(ids)

    # each list is sorted, so the product comes out in lexicographic order
    return [PersonaSet(tuple(zip(PIPELINE_ORDER, ids)))
            for ids in itertools.product(*per_role)]


def render_persona_prompt(persona: Persona, role_charter: str) -> str:
    """Fixed template: charter, then orientation (omitted when empty), then fragment."""
    lines = [
        f"You are the {persona.role.value} agent in a cooperative O-RAN orchestration system.",
        role_charter,
    ]
    if persona.orientation:
        lines.append(f"Orientation: {persona.orientation}.")
    lines.append(persona.prompt_fragment)
    return "\n".join(lines)


# ── question generation ──────────────────────────────────────────────────────

QUESTION_TEMPLATES: dict[Topic, list[str]] = {
    Topic.RESOURCE_ALLOCATION: [
        "How should {prb} PRBs be split across {slices} slices in cell {cell} when total demand is {mbps} Mbps?",
        "Which slice should receive the marginal PRB in cell {cell} once {prb} PRBs are already committed?",
        "How can the allocator guarantee {mbps} Mbps to a priority slice without starving {slices} best-effort slices?",
        "What PRB budget per slice keeps cell {cell} under its capacity of {prb} PRBs at peak load?",
        "When {slices} slices contend for {prb} PRBs, what fairness rule minimizes worst-case throughput loss?",
    ],
    Topic.NETWORK_OPTIMIZATION: [
        "Which parameter changes reduce average latency below {ms} ms across {cells} neighboring cells?",
        "How should load be rebalanced when cell {cell} runs at {pct} percent utilization?",
        "What optimization loop keeps throughput stable while {cells} cells share a backhaul link?",
        "How can the RIC detect and correct a {pct} percent throughput regression within one control cycle?",
    ],
    Topic.SLICING: [
        "How many guaranteed-bitrate slices of {mbps} Mbps can cell {cell} admit before breaching capacity?",
        "What admission policy should gate a new slice requesting {mbps} Mbps across {cells} cells?",
        "How should slice priorities be reassigned when {slices} slices exceed their latency budgets?",
        "Which isolation mechanism prevents a bursty slice from degrading {slices} neighbor slices?",
    ],
    Topic.HANDOVER: [
        "What hysteresis margin avoids ping-pong handovers between cells {cell} and {cell2}?",
        "How should handover thresholds adapt when cell {cell} reaches {pct} percent load?",
        "Which measurement window keeps handover failure rate under {pct} percent at high speed?",
        "When should the RIC force a handover from cell {cell} to protect a latency-critical slice?",
    ],
    Topic.ENERGY: [
        "Which cells can sleep overnight while {slices} slices keep their latency budgets?",
        "How much transmit power can cell {cell} shed before throughput drops {pct} percent?",
        "What wake-up policy balances energy savings against handover load in {cells} cells?",
        "How should the allocator consolidate load to power down {cells} carriers at low traffic?",
    ],
}


def _fill_template(template: str, rng: random.Random) -> str:
    slots = {
        "prb": rng.choice([12, 20, 24, 32, 48, 64]),
        "slices": rng.choice([2, 3, 4, 5, 6]),
        "cell": f"c{rng.randint(1, 9)}",
        "cell2": f"c{rng.randint(10, 19)}",
        "mbps": rng.choice([2, 5, 8, 10, 15, 20]),
        "ms": rng.choice([10, 20, 30, 50]),
        "pct": rng.choice([5, 10, 15, 20, 30, 40, 60, 80, 90]),
        "cells": rng.choice([2, 3, 4, 6, 8]),
    }
    return template.format(**slots)


def generate_questions(count: int, topic_mix: dict[Topic, float] | None = None,
                       mode: str = "template", seed: int = 0,
                       backend: Backend | None = None) -> list[Question]:
    """Deterministic template-bank questions, or backend-generated ones in llm mode."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if mode == "template":
        return _template_questions(count, topic_mix, seed)
    if mode == "llm":
        if backend is None:
            raise ConfigurationError("llm question mode needs a backend")
        return _llm_questions(count, topic_mix, seed, backend)
    raise ValueError(f"unknown question mode {mode!r}")


def _topic_sequence(count: int, topic_mix: dict[Topic, float] | None,
                    rng: random.Random) -> list[Topic]:
    topics = list(Topic)
    weights = [1.0] * len(topics) if topic_mix is None else \
        [float(topic_mix.get(t, 0.0)) for t in topics]
    if sum(weights) <= 0:
        raise ValueError("topic_mix must have positive total weight")
    return rng.choices(topics, weights=weights, k=count)


def _template_questions(count: int, topic_mix: dict[Topic, float] | None,
                        seed: int) -> list[Question]:
    rng = random.Random(seed)
    topics = _topic_sequence(count, topic_mix, rng)
    questions: list[Question] = []
    seen: set[str] = set()
    for i, topic in enumerate(topics):
        text = None
        for _ in range(64):
            candidate = _fill_template(rng.choice(QUESTION_TEMPLATES[topic]), rng)
            if candidate not in seen:
                text = candidate
                break
        if text is None:
            raise ConfigurationError(
                f"could not draw a fresh {topic.value} question after 64 tries; "
                "extend the template bank or lower the count")
        seen.add(text)
        questions.append(Question(id=f"q{i + 1}", text=text, topic=topic))
    return questions


def _llm_questions(count: int, topic_mix: dict[Topic, float] | None, seed: int,
                   backend: Backend) -> list[Question]:
    rng = random.Random(seed)
    topics = _topic_sequence(count, topic_mix, rng)
    topic_list = ", ".join(sorted({t.value for t in topics}))
    request = GenerationRequest(
        system_prompt="You write realistic, engineering-oriented questions about O-RAN operations.",
        user_prompt=(f"Produce {count} distinct engineering questions covering: {topic_list}. "
                     "Write one question per line with no numbering."),
        temperature=0.5,
        seed=seed,
    )
    text = backend.generate(request, role="QuestionGenerator", run_index=0)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    seen: set[str] = set()
    questions: list[Question] = []
    for line in lines:
        if line in seen:
            continue
        seen.add(line)
        topic = topics[len(questions) % len(topics)]
        questions.append(Question(id=f"q{len(questions) + 1}", text=line, topic=topic))
        if len(questions) == count:
            break
    if len(questions) < count:
        raise ConfigurationError(
            f"backend produced {len(questions)} usable questions, needed {count}")
    return questions


def load_questions(path: str | Path) -> list[Question]:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        questions = [Question(id=item["id"], text=item["text"], topic=Topic(item["topic"]))
                     for item in raw]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigurationError(f"{path} is not a valid question set file "
                                 f"({type(exc).__name__}: {exc})") from None
    ids = [q.id for q in questions]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate question ids in {path}")
    return questions


def save_questions(questions: list[Question], path: str | Path) -> None:
    items = [{"id": q.id, "text": q.text, "topic": q.topic.value} for q in questions]
    Path(path).write_text(json.dumps(items, indent=2) + "\n", encoding="utf-8")
