"""Context providers: document retrieval (RAG) and graph retrieval (GraphRAG).

Stores are immutable after build and scanned linearly; corpora here are
desk-scale, so no approximate-nearest-neighbor structures.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .embeddings import EmbeddingVector, centroid, cosine, tokenize
from .errors import (FILE_NAME, STR, ConfigurationError, Each, list_rule, read_json_file,
                     table_rule)

logger = logging.getLogger(__name__)


class SourceTag(str, Enum):
    STANDARDS = "standards"
    PAPERS = "papers"
    CODEBASE = "codebase"
    SPECS = "specs"


@dataclass(frozen=True)
class DocumentChunk:
    doc_id: str
    chunk_index: int
    text: str
    embedding: EmbeddingVector
    source_tag: SourceTag


@dataclass(frozen=True)
class ContextBundle:
    """Ranked retrieval results for one agent, with their normalized centroid."""

    items: tuple[tuple[str, float, str], ...]  # (text, score, provenance)
    agent_role: str
    bundle_embedding: EmbeddingVector

    def __post_init__(self):
        scores = [score for _, score, _ in self.items]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("bundle scores must be non-increasing")


def _bundle(items: list[tuple[str, float, str]], vectors: list[EmbeddingVector],
            agent_role: str, dim: int) -> ContextBundle:
    return ContextBundle(items=tuple(items), agent_role=agent_role,
                         bundle_embedding=centroid(vectors, dim))


def split_into_chunks(text: str, chunk_size: int) -> list[str]:
    """Greedy line packing: chunks of <= chunk_size chars, split on line boundaries.

    A line longer than chunk_size is hard-split at chunk_size. Joining a line
    onto a non-empty chunk costs len(line) + 1 for the newline.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    lines = text.split("\n")
    chunks: list[str] = []
    current: list[str] = []
    current_len = 0
    def flush():
        nonlocal current, current_len
        if current:
            chunks.append("\n".join(current))
            current = []
            current_len = 0
    for line in lines:
        while len(line) > chunk_size:
            flush()
            chunks.append(line[:chunk_size])
            line = line[chunk_size:]
        cost = len(line) if not current else current_len + 1 + len(line)
        if cost > chunk_size:
            flush()
            cost = len(line)
        current.append(line)
        current_len = cost
    flush()
    return [c for c in chunks if c.strip()]


class DocumentStore:
    """Chunked, embedded document corpus with cosine linear-scan retrieval."""

    def __init__(self, chunks: list[DocumentChunk], dim: int):
        self.chunks = list(chunks)
        self.dim = dim


def index_documents(corpus: list[tuple[str, str, SourceTag]], embedder,
                    chunk_size: int = 400) -> DocumentStore:
    """Chunk and embed a corpus of (doc_id, text, source_tag) triples."""
    if not corpus:
        raise ConfigurationError("cannot index an empty corpus")
    chunks: list[DocumentChunk] = []
    for doc_id, text, tag in corpus:
        pieces = split_into_chunks(text, chunk_size)
        if not pieces:
            logger.warning("document %s is empty, skipping", doc_id)
            continue
        for i, piece in enumerate(pieces):
            chunks.append(DocumentChunk(doc_id=doc_id, chunk_index=i, text=piece,
                                        embedding=embedder.embed(piece),
                                        source_tag=SourceTag(tag)))
    return DocumentStore(chunks, embedder.dim)


# The corpus manifest maps each file name in the directory to its source tag.
CORPUS_MANIFEST = ("an object", (dict,), Each(
    ("a source tag", (str,), tuple(tag.value for tag in SourceTag)), keys=FILE_NAME))


def load_corpus_dir(directory: str | Path) -> list[tuple[str, str, SourceTag]]:
    """Directory of UTF-8 text files plus a manifest.json mapping file -> source tag."""
    directory = Path(directory)
    manifest = read_json_file(directory / "manifest.json", "corpus manifest", CORPUS_MANIFEST,
                              lambda raw: [(name, SourceTag(raw[name])) for name in sorted(raw)])
    return [(name, (directory / name).read_text(encoding="utf-8"), tag)
            for name, tag in manifest]


def retrieve_rag(store: DocumentStore, query: str, top_k: int, embedder,
                 agent_role: str = "") -> ContextBundle:
    """Top-k chunks by cosine to the query; ties broken by (doc_id, chunk_index)."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    query_emb = embedder.embed(query)
    scored = [(cosine(query_emb, c.embedding), c) for c in store.chunks]
    scored.sort(key=lambda sc: (-sc[0], sc[1].doc_id, sc[1].chunk_index))
    picked = scored[:top_k]
    items = [(c.text, score, f"{c.doc_id}#{c.chunk_index}") for score, c in picked]
    vectors = [c.embedding for _, c in picked]
    return _bundle(items, vectors, agent_role, store.dim)


# ── knowledge graph ──────────────────────────────────────────────────────────

@dataclass(frozen=True)
class GraphNode:
    node_id: str
    label: str
    text: str
    embedding: EmbeddingVector


@dataclass(frozen=True)
class GraphEdge:
    src: str
    dst: str
    relation: str


class KnowledgeGraph:
    """Relational context store; nodes embedded over label + text."""

    def __init__(self, nodes: list[GraphNode], edges: list[GraphEdge], dim: int):
        self.nodes = {n.node_id: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise ConfigurationError("duplicate node_id in graph")
        for e in edges:
            if e.src not in self.nodes or e.dst not in self.nodes:
                raise ConfigurationError(f"edge {e.src}->{e.dst} references a missing node")
        self.edges = list(edges)
        self.dim = dim
        self._adjacent: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        for e in edges:
            self._adjacent[e.src].append(e.dst)
            self._adjacent[e.dst].append(e.src)

    def neighbors(self, node_id: str) -> list[str]:
        return sorted(set(self._adjacent[node_id]))


def build_graph(nodes: list[tuple[str, str, str]], edges: list[tuple[str, str, str]],
                embedder) -> KnowledgeGraph:
    """Build from (node_id, label, text) and (src, dst, relation) tuples."""
    graph_nodes = [GraphNode(node_id=nid, label=label, text=text,
                             embedding=embedder.embed(label + "\n" + text))
                   for nid, label, text in nodes]
    graph_edges = [GraphEdge(src=s, dst=d, relation=r) for s, d, r in edges]
    return KnowledgeGraph(graph_nodes, graph_edges, embedder.dim)


GRAPH_TABLE = {"nodes": list_rule(table_rule({"id": STR, "label": STR, "text": STR})),
               "edges": list_rule(table_rule({"src": STR, "dst": STR, "relation": STR}))}


def load_graph(path: str | Path, embedder) -> KnowledgeGraph:
    def parts(raw) -> tuple[list, list]:
        nodes = [(n["id"], n["label"], n.get("text", "")) for n in raw["nodes"]]
        edges = [(e["src"], e["dst"], e.get("relation", "related"))
                 for e in raw.get("edges", [])]
        return nodes, edges

    return build_graph(*read_json_file(path, "graph", table_rule(GRAPH_TABLE), parts), embedder)


def retrieve_graph(graph: KnowledgeGraph, query: str, top_k: int, hop_expand: int,
                   embedder, agent_role: str = "") -> ContextBundle:
    """Keyword + embedding seed retrieval with optional one-hop expansion.

    Seeds are the union of keyword matches (query tokens overlapping node
    label tokens, case-insensitive) and the top_k nodes by cosine. With
    hop_expand=1, neighbors of seeds join as candidates at 0.5x their best
    parent's score; a node that is both a seed and a neighbor of a stronger
    seed takes the better of its two scores. Candidates are ranked by score
    descending, seeds before neighbors on ties, then node_id ascending, and
    truncated to top_k. This ordering keeps results monotone in top_k.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if hop_expand not in (0, 1):
        raise ValueError("hop_expand must be 0 or 1")
    if not graph.nodes:
        raise ConfigurationError("graph is empty")

    query_tokens = set(tokenize(query))
    query_emb = embedder.embed(query)
    scores = {nid: cosine(query_emb, node.embedding) for nid, node in graph.nodes.items()}

    keyword_seeds = {nid for nid, node in graph.nodes.items()
                     if query_tokens & set(tokenize(node.label))}
    by_embedding = sorted(graph.nodes, key=lambda nid: (-scores[nid], nid))[:top_k]
    seeds = keyword_seeds | set(by_embedding)

    candidates: dict[str, tuple[float, int]] = {nid: (scores[nid], 0) for nid in seeds}
    if hop_expand == 1:
        for seed in seeds:
            for nb in graph.neighbors(seed):
                inherited = 0.5 * scores[seed]
                if nb in candidates:
                    score, channel = candidates[nb]
                    if inherited > score:
                        candidates[nb] = (inherited, channel)
                else:
                    candidates[nb] = (inherited, 1)

    ranked = sorted(candidates.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))
    picked = ranked[:top_k]
    items = [(graph.nodes[nid].label + ": " + graph.nodes[nid].text, score,
              f"graph:{nid}") for nid, (score, _) in picked]
    vectors = [graph.nodes[nid].embedding for nid, _ in picked]
    return _bundle(items, vectors, agent_role, graph.dim)
