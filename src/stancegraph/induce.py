"""Unsupervised schema induction.

Pools predicates from a corpus of instance graphs, clusters them with
seeded k-means (k-means++ init, Lloyd iterations, empty-cluster repair),
picks the cluster count by silhouette, summarizes each cluster through the
P2 prompt, builds the weighted multi-relational schema graph, and extracts
small subgraph filters for the kernel model.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .embed import EmbeddingProvider
from .errors import (EmptyCorpusError, InvalidFilterCountError, InvalidKError,
                     SchemaFormatError, SingleClusterError,
                     UnassignedPredicateError)
from .fol import FolGraph, Relation
from .gateway import Gateway, render_p2

LIBRARY_VERSION = 1
KMEANS_MAX_ITER = 300


@dataclass
class ClusteringResult:
    k: int
    assignments: np.ndarray        # (n,) int cluster ids
    centroids: np.ndarray          # (k, d)
    inertia: float
    seed: int


@dataclass
class SchemaNode:
    id: int
    summary: str
    centroid: np.ndarray
    summary_embedding: np.ndarray
    members: list[str]
    fallback: bool = False

    @property
    def member_count(self) -> int:
        return len(self.members)


@dataclass
class SchemaEdge:
    src: int
    dst: int
    relation: Relation
    weight: float


@dataclass
class SchemaGraph:
    nodes: list[SchemaNode]
    edges: list[SchemaEdge]


@dataclass
class SchemaFilter:
    node_ids: list[int]            # schema node ids, center first
    features: np.ndarray           # (n_nodes, d)
    adjacency: np.ndarray          # (n_nodes, n_nodes) relation-collapsed
    center: int


@dataclass
class SchemaLibrary:
    dimension: int
    seed: int
    graph: SchemaGraph
    clustering: ClusteringResult
    providers: dict = field(default_factory=dict)
    config_fingerprint: str = ""

    @property
    def k(self) -> int:
        return self.clustering.k


# ---------------------------------------------------------------------------
# Predicate pooling

def collect_predicates(corpus: list[FolGraph]) -> list[tuple[str, np.ndarray]]:
    """Pool distinct predicates across the corpus, lexicographically ordered,
    paired with their (already attached) embeddings."""
    if not corpus:
        raise EmptyCorpusError("corpus is empty")
    pool: dict[str, np.ndarray] = {}
    for graph in corpus:
        for node in graph.nodes:
            if node.is_schema:
                continue
            key = node.canonical()
            if key not in pool:
                if node.embedding is None:
                    raise EmptyCorpusError(
                        f"predicate {key!r} has no embedding attached")
                pool[key] = np.asarray(node.embedding, dtype=np.float64)
    if not pool:
        raise EmptyCorpusError("corpus contains no predicates")
    return [(key, pool[key]) for key in sorted(pool)]


# ---------------------------------------------------------------------------
# K-means

def kmeans(points: np.ndarray, k: int, seed: int) -> ClusteringResult:
    """Lloyd's algorithm with k-means++ initialization and deterministic
    empty-cluster repair (re-seed from the point farthest from its centroid)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidKError(f"k={k} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        dists = _sq_dists(points, centroids)
        new_assignments = np.argmin(dists, axis=1)
        # repair empty clusters from the farthest points
        for cluster in range(k):
            if not np.any(new_assignments == cluster):
                assigned = dists[np.arange(n), new_assignments]
                farthest = int(np.argmax(assigned))
                new_assignments[farthest] = cluster
                centroids[cluster] = points[farthest]
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for cluster in range(k):
            centroids[cluster] = points[assignments == cluster].mean(axis=0)
    inertia = float(np.sum((points - centroids[assignments]) ** 2))
    return ClusteringResult(k=k, assignments=assignments, centroids=centroids,
                            inertia=inertia, seed=seed)


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.sum(diff * diff, axis=2)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[i] = points[idx]
        closest = np.minimum(closest, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


# ---------------------------------------------------------------------------
# Silhouette and K selection

def silhouette(points: np.ndarray, assignments: np.ndarray) -> float:
    """Mean per-point separation score (b - a) / (a + b), where a is the mean
    intra-cluster distance and b the smallest mean distance to another
    cluster. Singletons and degenerate a = b = 0 points contribute 0."""
    points = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    labels = np.unique(assignments)
    if labels.size < 2:
        raise SingleClusterError("silhouette needs at least 2 clusters")
    n = points.shape[0]
    dmat = np.sqrt(np.maximum(_sq_dists(points, points), 0.0))
    scores = np.zeros(n, dtype=np.float64)
    for i in range(n):
        own = assignments[i]
        mask_own = (assignments == own)
        size_own = int(mask_own.sum())
        if size_own <= 1:
            continue  # singleton contributes 0
        a = float(dmat[i, mask_own].sum() / (size_own - 1))
        b = min(float(dmat[i, assignments == other].mean())
                for other in labels if other != own)
        denom = a + b
        if denom == 0.0:
            continue
        scores[i] = (b - a) / denom
    return float(scores.mean())


def select_k(points: np.ndarray, k_grid: list[int], seed: int,
             fits: Optional[dict[int, ClusteringResult]] = None
             ) -> tuple[int, dict[int, float]]:
    """Run kmeans + silhouette per grid value; argmax score, ties to smaller K.
    Each K's fit is stored in `fits` when given, so the caller can reuse it."""
    scores: dict[int, float] = {}
    fits = {} if fits is None else fits
    for k in sorted(k_grid):
        fits[k] = kmeans(points, k, seed)
        scores[k] = silhouette(points, fits[k].assignments) if k >= 2 else -1.0
    best = max(sorted(scores), key=lambda k: scores[k])  # sorted → ties to smaller K
    return best, scores


# ---------------------------------------------------------------------------
# Cluster abstraction via P2

def abstract_clusters(result: ClusteringResult,
                      pool: list[tuple[str, np.ndarray]],
                      gateway: Optional[Gateway],
                      provider: EmbeddingProvider,
                      model_id: str = "default-model",
                      p2_max_lines: int = 50) -> list[SchemaNode]:
    """One P2 summary per cluster (batched past the line cap); summary
    embeddings via the provider; nearest-member fallback on P2 failure."""
    nodes: list[SchemaNode] = []
    for cluster in range(result.k):
        members = [pool[i][0] for i in range(len(pool))
                   if result.assignments[i] == cluster]
        if not members:
            raise UnassignedPredicateError(f"cluster {cluster} is empty")
        centroid = result.centroids[cluster]
        summary, fallback = _summarize(members, gateway, model_id, p2_max_lines)
        if not summary.strip():
            summary, fallback = _nearest_member(members, pool, centroid), True
        summary_embedding = provider.embed_batch([summary])[0]
        nodes.append(SchemaNode(id=cluster, summary=summary, centroid=centroid,
                                summary_embedding=summary_embedding,
                                members=members, fallback=fallback))
    return nodes


def _summarize(members: list[str], gateway: Optional[Gateway],
               model_id: str, p2_max_lines: int) -> tuple[str, bool]:
    if gateway is None:
        return "", True
    parts = []
    try:
        for start in range(0, len(members), p2_max_lines):
            req = render_p2(members[start:start + p2_max_lines],
                            model_id=model_id, max_lines=p2_max_lines)
            parts.append(gateway.complete(req).strip())
        return " ".join(p for p in parts if p), False
    except Exception:
        return "", True


def _nearest_member(members: list[str], pool: list[tuple[str, np.ndarray]],
                    centroid: np.ndarray) -> str:
    embeddings = dict(pool)
    best, best_dist = members[0], float("inf")
    for member in members:
        dist = float(np.sum((embeddings[member] - centroid) ** 2))
        if dist < best_dist:
            best, best_dist = member, dist
    return best


# ---------------------------------------------------------------------------
# Schema graph

def build_schema_graph(nodes: list[SchemaNode], corpus: list[FolGraph],
                       result: ClusteringResult,
                       pool: list[tuple[str, np.ndarray]]) -> SchemaGraph:
    """Aggregate inter-cluster instance edges into weighted schema edges,
    normalized by the global maximum count so the heaviest edge has weight 1."""
    cluster_of = {key: int(result.assignments[i]) for i, (key, _) in enumerate(pool)}
    counts: dict[tuple[int, int, Relation], int] = {}
    for graph in corpus:
        for src, dst, rel in graph.edges:
            if rel is Relation.INSTANCE_OF:
                continue
            ku = graph.nodes[src].canonical()
            kv = graph.nodes[dst].canonical()
            if ku not in cluster_of or kv not in cluster_of:
                raise UnassignedPredicateError(
                    f"predicate without cluster assignment: {ku if ku not in cluster_of else kv!r}")
            i, j = cluster_of[ku], cluster_of[kv]
            if i == j:
                continue
            counts[(i, j, rel)] = counts.get((i, j, rel), 0) + 1
    edges: list[SchemaEdge] = []
    if counts:
        max_count = max(counts.values())
        for (i, j, rel) in sorted(counts, key=lambda t: (t[0], t[1], t[2].value)):
            edges.append(SchemaEdge(i, j, rel, counts[(i, j, rel)] / max_count))
    return SchemaGraph(nodes=nodes, edges=edges)


# ---------------------------------------------------------------------------
# Filter extraction

def extract_filters(graph: SchemaGraph, n_filters: int, hop: int = 1,
                    size_cap: int = 6) -> list[SchemaFilter]:
    """Filters = hop-neighborhood subgraphs around the n_filters most
    populous schema nodes, truncated to size_cap by edge weight to the
    center; features are summary embeddings."""
    if not 1 <= n_filters <= len(graph.nodes):
        raise InvalidFilterCountError(
            f"n_filters={n_filters} outside [1, {len(graph.nodes)}]")
    order = sorted(graph.nodes, key=lambda n: (-n.member_count, n.id))
    centers = [n.id for n in order[:n_filters]]
    by_id = {n.id: n for n in graph.nodes}
    # adjacency lookup with relation channels summed
    weight: dict[tuple[int, int], float] = {}
    neighbors: dict[int, set[int]] = {n.id: set() for n in graph.nodes}
    for e in graph.edges:
        weight[(e.src, e.dst)] = weight.get((e.src, e.dst), 0.0) + e.weight
        neighbors[e.src].add(e.dst)
        neighbors[e.dst].add(e.src)

    filters = []
    for center in sorted(centers):
        frontier = {center}
        seen = {center}
        for _ in range(hop):
            frontier = {v for u in frontier for v in neighbors[u]} - seen
            seen |= frontier
        others = sorted(seen - {center},
                        key=lambda v: (-max(weight.get((center, v), 0.0),
                                            weight.get((v, center), 0.0)), v))
        ids = [center] + others[:size_cap - 1]
        feats = np.stack([by_id[i].summary_embedding for i in ids])
        adj = np.zeros((len(ids), len(ids)), dtype=np.float64)
        pos = {v: i for i, v in enumerate(ids)}
        for (u, v), w in weight.items():
            if u in pos and v in pos:
                adj[pos[u], pos[v]] = w
        filters.append(SchemaFilter(node_ids=ids, features=feats,
                                    adjacency=adj, center=center))
    return filters


def assign_to_cluster(embedding: np.ndarray, result: ClusteringResult) -> int:
    """Nearest centroid in Euclidean distance; ties go to the smaller id."""
    dists = np.sum((result.centroids - np.asarray(embedding, dtype=np.float64)) ** 2,
                   axis=1)
    return int(np.argmin(dists))


# ---------------------------------------------------------------------------
# Persistence

def save_library(library: SchemaLibrary, path: str) -> None:
    doc = {
        "version": LIBRARY_VERSION,
        "d": library.dimension,
        "seed": library.seed,
        "nodes": [
            {
                "id": n.id,
                "summary": n.summary,
                "centroid": [float(x) for x in n.centroid],
                "summary_embedding": [float(x) for x in n.summary_embedding],
                "members": n.members,
                "member_count": n.member_count,
                "fallback": n.fallback,
            }
            for n in library.graph.nodes
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "relation": e.relation.value,
             "weight": e.weight}
            for e in library.graph.edges
        ],
        "assignments": [int(a) for a in library.clustering.assignments],
        "inertia": library.clustering.inertia,
        "providers": library.providers,
        "config_fingerprint": library.config_fingerprint,
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, sort_keys=True, indent=1)
        fh.write("\n")


def load_library(path: str) -> SchemaLibrary:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaFormatError(f"invalid schema library JSON: {exc}") from exc
    version = doc.get("version")
    if version != LIBRARY_VERSION:
        raise SchemaFormatError(
            f"library version {version} != supported {LIBRARY_VERSION}",
            field="version")
    for key in ("d", "seed", "nodes", "edges"):
        if key not in doc:
            raise SchemaFormatError("missing field", field=key)
    nodes = []
    for nd in doc["nodes"]:
        try:
            nodes.append(SchemaNode(
                id=nd["id"], summary=nd["summary"],
                centroid=np.asarray(nd["centroid"], dtype=np.float64),
                summary_embedding=np.asarray(nd["summary_embedding"], dtype=np.float64),
                members=list(nd["members"]), fallback=nd.get("fallback", False)))
        except KeyError as exc:
            raise SchemaFormatError("missing node field", field=str(exc)) from exc
    edges = [SchemaEdge(e["src"], e["dst"], Relation(e["relation"]), e["weight"])
             for e in doc["edges"]]
    centroids = (np.stack([n.centroid for n in nodes])
                 if nodes else np.zeros((0, doc["d"])))
    clustering = ClusteringResult(
        k=len(nodes),
        assignments=np.asarray(doc.get("assignments", []), dtype=np.int64),
        centroids=centroids,
        inertia=float(doc.get("inertia", 0.0)),
        seed=doc["seed"])
    return SchemaLibrary(dimension=doc["d"], seed=doc["seed"],
                         graph=SchemaGraph(nodes=nodes, edges=edges),
                         clustering=clustering,
                         providers=doc.get("providers", {}),
                         config_fingerprint=doc.get("config_fingerprint", ""))


def induce_library(corpus: list[FolGraph], provider: EmbeddingProvider,
                   gateway: Optional[Gateway], seed: int,
                   k_grid: Optional[list[int]] = None,
                   k_fixed: Optional[int] = None,
                   model_id: str = "default-model",
                   config_fingerprint: str = "") -> SchemaLibrary:
    """End-to-end induction: pool → (select_k | fixed K) → kmeans →
    abstract → schema graph."""
    pool = collect_predicates(corpus)
    points = np.stack([vec for _, vec in pool])
    if k_fixed is not None:
        result = kmeans(points, min(k_fixed, len(pool)), seed)
    else:
        grid = [k for k in (k_grid or [4, 8, 16, 32, 64]) if k <= len(pool)]
        if not grid:
            grid = [min(2, len(pool))]
        fits: dict[int, ClusteringResult] = {}
        k, _ = select_k(points, grid, seed, fits)
        result = fits[k]
    nodes = abstract_clusters(result, pool, gateway, provider, model_id=model_id)
    graph = build_schema_graph(nodes, corpus, result, pool)
    return SchemaLibrary(dimension=points.shape[1], seed=seed, graph=graph,
                         clustering=result,
                         providers={"embedding": provider.name},
                         config_fingerprint=config_fingerprint)
