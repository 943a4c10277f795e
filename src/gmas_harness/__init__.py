"""Safety-evaluation harness for cooperative generative multi-agent systems
in telecom orchestration."""

from .analyzer import (AnalyzerReport, Dimension, Finding, PolicyRuleSet, Severity,
                       aggregate_penalty, build_report, enforce_policy,
                       formal_lite_check, parse_code, run_static_checks)
from .backends import (Backend, GenerationRequest, LiveBackend, ScriptedBackend,
                       ScriptEntry, prompt_fingerprint)
from .embeddings import (DeterministicEmbedder, EmbeddingVector, cosine,
                         deterministic_embed)
from .errors import (ConfigurationError, DimensionMismatchError, GmasError,
                     PlanSyntaxError, TransportError, ValidationError)
from .knowledge import (ContextBundle, DocumentStore, KnowledgeGraph, build_graph,
                        index_documents, load_graph, retrieve_graph, retrieve_rag)
from .orchestrator import (ExperimentEnv, RunConfig, RunEntry, StoreSet, Thresholds,
                           execute_run, memory_digest, propose_paths,
                           route_refinement, run_grid, select_path)
from .records import (AllocationPlan, CodeArtifact, RunMetrics, RunRecord,
                      RunStatus, SolutionPath, Trajectory)
from .ricsim import (KpiReport, KpiThresholds, SimulatedNetwork, check_thresholds,
                     execute_plan, parse_plan)
from .safety import (SafetySummary, check_alignment, conflict_rate,
                     consistency_score, cross_run_distance, summarize_cells,
                     summarize_grid)
from .scenario import (AgentRole, Persona, PersonaRegistry, PersonaSet, Question,
                       Topic, enumerate_grid, generate_questions,
                       render_persona_prompt)

__version__ = "0.1.0"
