"""Unsupervised schema induction.

Pools predicates from a corpus of instance graphs, clusters them with
seeded k-means (k-means++ init, Lloyd iterations, empty-cluster repair),
picks the cluster count by silhouette, summarizes each cluster through the
P2 prompt, and builds the weighted multi-relational schema graph.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .embed import EmbeddingProvider
from .errors import (DimensionMismatchError, EmptyCorpusError, InvalidKError,
                     SchemaFormatError, SingleClusterError, StanceGraphError,
                     UnassignedPredicateError)
from .fol import FolGraph, Relation
from .gateway import Gateway, render_p2

LIBRARY_VERSION = 3
KMEANS_MAX_ITER = 300
# Largest (rows, m, d) float64 difference block `_sq_dists` builds: 2**20
# elements, 8 MB. The silhouette pass keeps each of its temporaries to an
# eighth of it. Memory stays bounded as the predicate pool grows.
_CHUNK_ELEMENTS = 1 << 20
# Largest relative error of a Gram-expanded squared distance the silhouette
# pass accepts; larger ones are recomputed from differences.
_SILHOUETTE_RTOL = 1e-12


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
    paired with their (already attached) embeddings; DimensionMismatchError
    naming both sizes when two embeddings differ in size."""
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
    keys = sorted(pool)
    first = pool[keys[0]]
    for key in keys:
        if pool[key].shape != first.shape:
            raise DimensionMismatchError(
                f"predicate embeddings differ in size: {keys[0]!r} has d={first.size}, "
                f"{key!r} has d={pool[key].size}")
    return [(key, pool[key]) for key in keys]


# ---------------------------------------------------------------------------
# K-means

def kmeans(points: np.ndarray, k: int, seed: int) -> ClusteringResult:
    """Lloyd's algorithm with k-means++ initialization and deterministic
    empty-cluster repair (re-seed from the point farthest from its centroid).
    Assignments come from `_nearest`, which equals the argmin of `_sq_dists`
    exactly; the repair reads `_sq_dists` values."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidKError(f"k={k} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    norms = np.einsum("ij,ij->i", points, points)
    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        new_assignments = _nearest(points, norms, centroids)
        if np.bincount(new_assignments, minlength=k).min() == 0:
            # repair empty clusters from the farthest points
            dists = _sq_dists(points, centroids)
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


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances between the rows of a and b, from
    (rows, m, d) difference blocks of at most _CHUNK_ELEMENTS elements (one
    row when a single row is larger), each squared in place. Each entry is
    the same contiguous length-d reduction whatever the block size, so the
    result does not depend on the chunking bit for bit."""
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    rows = max(1, _CHUNK_ELEMENTS // max(1, b.shape[0] * b.shape[1]))
    for start in range(0, a.shape[0], rows):
        diff = a[start:start + rows, None, :] - b[None, :, :]
        diff *= diff
        np.sum(diff, axis=2, out=out[start:start + rows])
        del diff  # one block alive at a time
    return out


# Forward-error bound of the Gram expansion. With u = eps/2 the unit
# roundoff, s = |x|^2 + |c|^2, D = |x - c|^2 the exact value and
# gamma_n = n*u / (1 - n*u) (Higham, "Accuracy and Stability of Numerical
# Algorithms", 2nd ed., ch. 3; the dot-product bound holds for any summation
# order, so for any BLAS):
# - G = (|x|^2 - 2 x.c) + |c|^2: the two norms and the dot product are
#   length-d sums, within gamma_d*|x|^2, gamma_d*|c|^2 and
#   gamma_d*|x||c| <= gamma_d*s/2 of exact; the two additions add at most
#   u*2s and u*3s. So |G - D| <= (2*gamma_d + 5u)*s, to first order.
# - F, the `_sq_dists` entry: d squared differences (gamma_3 each), summed
#   in some order (gamma_(d-1)), so |F - D| <= gamma_(d+2)*D, and
#   D <= 2s. So |F - D| <= 2*gamma_(d+2)*s.
# Together |G - F| <= (4d + 9)*u*s to first order. _gram_bound(d) gives
# 2*(d + 8)*eps*s = (4d + 32)*u*s; the extra 23u*s covers the second-order
# terms, computing s itself from rounded norms (within gamma_d), and the
# rounding of a gap and of the bound, for d up to about 10**6. It assumes
# finite values whose squares neither overflow nor underflow.
def _gram_bound(d: int) -> float:
    """The factor that, times s = |x|^2 + |c|^2, bounds both |G - D| and
    |F - D| above, and so |G - F| with room to spare."""
    return 2 * (d + 8) * np.finfo(np.float64).eps


def _gram_sq_dists(a: np.ndarray, a_norms: np.ndarray, b: np.ndarray,
                   b_norms: np.ndarray) -> np.ndarray:
    """(n, m) squared distances as |a|^2 - 2a.b + |b|^2, one GEMM; each entry
    within _gram_bound(d) * (|a_i|^2 + |b_j|^2) of the exact value."""
    out = a @ b.T
    out *= -2.0
    out += a_norms[:, None]
    out += b_norms
    return out


def _nearest(points: np.ndarray, norms: np.ndarray,
             centroids: np.ndarray) -> np.ndarray:
    """Each point's nearest centroid: np.argmin(_sq_dists(points, centroids),
    axis=1) exactly, ties to the lower index included, from one GEMM. With
    E = _gram_bound(d) * (|x|^2 + max |c|^2) per row, every Gram entry is
    within E of its `_sq_dists` entry. So when the best two Gram distances
    are more than 2E apart, the Gram argmin is strictly nearest in
    `_sq_dists` too; the rows where they are not are re-checked with
    `_sq_dists`."""
    c_norms = np.einsum("ij,ij->i", centroids, centroids)
    gram = _gram_sq_dists(points, norms, centroids, c_norms)
    nearest = np.argmin(gram, axis=1)
    if centroids.shape[0] > 1:
        best2 = np.partition(gram, 1, axis=1)
        bound = _gram_bound(points.shape[1]) * (norms + c_norms.max())
        close = np.flatnonzero(best2[:, 1] - best2[:, 0] <= 2.0 * bound)
        if close.size:
            nearest[close] = np.argmin(_sq_dists(points[close], centroids), axis=1)
    return nearest


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
    return silhouettes(points, [assignments])[0]


def silhouettes(points: np.ndarray, labelings: list[np.ndarray]) -> list[float]:
    """`silhouette` of each labeling of the same points, from one chunked
    pass over the pairwise distances: each row block's distances to all
    points (one GEMM, with the entries it could get wrong recomputed from
    differences) are summed per cluster of every labeling at once, through
    a stacked one-hot (n, sum of K) matrix."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    rows = np.arange(n)
    codes, sizes, offsets = [], [], [0]
    for assignments in labelings:
        labels, code = np.unique(np.asarray(assignments), return_inverse=True)
        if labels.size < 2:
            raise SingleClusterError("silhouette needs at least 2 clusters")
        codes.append(code.reshape(-1))
        sizes.append(np.bincount(codes[-1]))
        offsets.append(offsets[-1] + labels.size)
    onehot = np.zeros((n, offsets[-1]), dtype=np.float64)
    for code, offset in zip(codes, offsets):
        onehot[rows, offset + code] = 1.0
    sums = np.empty_like(onehot)           # per-point distance sum per cluster
    norms = np.einsum("ij,ij->i", points, points)
    # A Gram entry G is within E = _gram_bound(d) * (|x|^2 + |y|^2) of the
    # exact squared distance; it is used where E <= 1e-12 * G, so it is not
    # negative, its square root is within 1e-12 relative of the exact
    # distance, and the per-point scores, being (b - a) / (a + b), within
    # about 1e-12 too. The rest (the diagonal, near-duplicate pairs) are
    # recomputed from differences.
    slack = _gram_bound(points.shape[1]) / _SILHOUETTE_RTOL
    rows_per_block = max(1, _CHUNK_ELEMENTS // (8 * n))
    for start in range(0, n, rows_per_block):
        stop = min(start + rows_per_block, n)
        block = _gram_sq_dists(points[start:stop], norms[start:stop], points, norms)
        i, j = np.nonzero(block < slack * np.add.outer(norms[start:stop], norms))
        block[i, j] = _paired_sq_dists(points, start + i, j)
        sums[start:stop] = np.sqrt(block, out=block) @ onehot
    scores = []
    for code, size, offset in zip(codes, sizes, offsets):
        own_size = size[code]
        means = sums[:, offset:offset + size.size] / size
        a = sums[rows, offset + code] / np.maximum(own_size - 1, 1)
        means[rows, code] = np.inf
        b = means.min(axis=1)
        denom = a + b
        valid = (own_size > 1) & (denom != 0.0)   # singletons, a = b = 0 score 0
        point_scores = np.zeros(n, dtype=np.float64)
        point_scores[valid] = (b[valid] - a[valid]) / denom[valid]
        scores.append(float(point_scores.mean()))
    return scores


def _paired_sq_dists(points: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|points[i] - points[j]|^2 for index arrays i and j, from (pairs, d)
    difference blocks of at most _CHUNK_ELEMENTS / 8 elements."""
    out = np.empty(i.size, dtype=np.float64)
    step = max(1, _CHUNK_ELEMENTS // (8 * points.shape[1]))
    for start in range(0, i.size, step):
        diff = points[i[start:start + step]]
        diff -= points[j[start:start + step]]
        diff *= diff
        np.sum(diff, axis=1, out=out[start:start + step])
    return out


def select_k(points: np.ndarray, k_grid: list[int], seed: int,
             fits: Optional[dict[int, ClusteringResult]] = None
             ) -> tuple[int, dict[int, float]]:
    """Run kmeans per grid value and score every fit with K >= 2 in one
    silhouette pass (K < 2 scores -1); argmax score, ties to smaller K.
    Each K's fit is stored in `fits` when given, so the caller can reuse it."""
    fits = {} if fits is None else fits
    grid = sorted(set(k_grid))
    for k in grid:
        fits[k] = kmeans(points, k, seed)
    scored = [k for k in grid if k >= 2]
    scores = dict.fromkeys(grid, -1.0)
    scores.update(zip(scored, silhouettes(points, [fits[k].assignments
                                                   for k in scored])))
    best = max(grid, key=lambda k: scores[k])  # sorted → ties to smaller K
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
            req = render_p2(members[start:start + p2_max_lines], model_id=model_id)
            parts.append(gateway.complete(req).strip())
        return " ".join(p for p in parts if p), False
    except StanceGraphError:
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


def assign_to_cluster(embedding: np.ndarray, result: ClusteringResult) -> int:
    """Nearest centroid in Euclidean distance; ties go to the smaller id."""
    dists = np.sum((result.centroids - np.asarray(embedding, dtype=np.float64)) ** 2,
                   axis=1)
    return int(np.argmin(dists))


# ---------------------------------------------------------------------------
# Persistence
#
# Libraries and checkpoints share one binary layout, the idea behind .npy
# (https://numpy.org/neps/nep-0001-npy-format.html) and safetensors
# (https://github.com/huggingface/safetensors):
#
#   the 8-byte MAGIC of the artifact's kind
#   the header's byte length, little-endian <Q
#   the header: a sort_keys UTF-8 JSON object of the plain fields, "version",
#     and "tensors", which gives each array as {"dtype", "shape", "offset"};
#     space-padded to 8 bytes, so the payload starts 8-byte aligned
#   the payload: each array's little-endian C-order bytes at its offset
#
# A tensor is one np.frombuffer over the bytes already read, with no text
# step in between.

MAGIC = {"checkpoint": b"\x93SGMODEL", "library": b"\x93SGLIBRY"}
_PREAMBLE = struct.Struct("<8sQ")
_DTYPES = {"<f8": np.float64, "<i8": np.int64}


def write_artifact(path: str, kind: str, version: int, fields: dict,
                   tensors: dict[str, np.ndarray]) -> None:
    """Write `fields` and the float or int `tensors` as a `kind` artifact."""
    entries, payload, offset = {}, [], 0
    for name, array in tensors.items():
        dtype = {"f": "<f8", "i": "<i8"}[array.dtype.kind]
        payload.append(np.ascontiguousarray(array, dtype).tobytes())
        entries[name] = {"dtype": dtype, "shape": list(array.shape), "offset": offset}
        offset += len(payload[-1])
    header = json.dumps({**fields, "version": version, "tensors": entries},
                        ensure_ascii=False, sort_keys=True).encode("utf-8")
    header += b" " * (-len(header) % 8)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_PREAMBLE.pack(MAGIC[kind], len(header)) + header)
        fh.writelines(payload)


def read_artifact(data: bytes, kind: str, version: int
                  ) -> tuple[dict, Callable[..., np.ndarray]]:
    """The header of the `kind` artifact whose bytes are `data`, and a
    function `tensor(name, dtype="<f8")` that decodes one of its arrays into
    a writable copy. SchemaFormatError names what is wrong: another kind of
    file, another version (the JSON files of earlier versions included), a
    header that is cut short or is not a JSON object, or a tensor entry that
    is malformed, misaligned, overlaps another or runs past the end; and,
    from `tensor`, a missing tensor, another dtype or a non-finite value."""
    magic = data[:8]
    if magic != MAGIC[kind]:
        raise _foreign(data, kind, version)
    if len(data) < _PREAMBLE.size:
        raise SchemaFormatError(f"{kind} file of {len(data)} bytes is shorter than "
                                f"its {_PREAMBLE.size}-byte preamble")
    size = _PREAMBLE.unpack_from(data)[1]
    start = _PREAMBLE.size + size
    if start > len(data):
        raise SchemaFormatError(f"{kind} header of {size} bytes runs past the end "
                                f"of the {len(data)}-byte file")
    if size % 8:
        raise SchemaFormatError(f"{kind} header length {size} is not a multiple of 8")
    try:
        header = json.loads(data[_PREAMBLE.size:start])
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SchemaFormatError(f"{kind} header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise SchemaFormatError(f"{kind} header is not a JSON object")
    if header.get("version") != version:
        raise SchemaFormatError(f"{kind} version {header.get('version')!r} != {version}",
                                field="version")
    spans = _spans(header.get("tensors"), len(data) - start)

    def tensor(name: str, dtype: str = "<f8") -> np.ndarray:
        if name not in spans:
            raise SchemaFormatError(f"{kind} has no tensor {name}", field=name)
        declared, shape, offset, _ = spans[name]
        if declared != dtype:
            raise SchemaFormatError(f"tensor {name}: dtype {declared}, expected {dtype}")
        array = np.frombuffer(data, dtype, math.prod(shape), start + offset)
        array = array.astype(_DTYPES[dtype]).reshape(shape)
        if dtype == "<f8" and not np.isfinite(array).all():
            raise SchemaFormatError(f"tensor {name} contains non-finite values")
        return array

    return header, tensor


def _spans(entries: object, size: int) -> dict[str, tuple]:
    """Each tensor entry's (dtype, shape, offset, end) in a payload of
    `size` bytes; SchemaFormatError naming the tensor unless all of them
    are well formed, 8-byte aligned, disjoint and inside the payload."""
    if not isinstance(entries, dict):
        raise SchemaFormatError("header has no tensors object", field="tensors")
    spans = {}
    for name, entry in entries.items():
        try:
            dtype, shape, offset = entry["dtype"], entry["shape"], entry["offset"]
        except (TypeError, KeyError) as exc:
            raise SchemaFormatError(f"tensor {name}: {entry!r} is not a "
                                    "{dtype, shape, offset} entry") from exc
        if dtype not in _DTYPES:
            raise SchemaFormatError(f"tensor {name}: dtype {dtype!r} is not one of "
                                    f"{sorted(_DTYPES)}")
        if not (type(shape) is list and all(type(n) is int and n >= 0 for n in shape)):
            raise SchemaFormatError(f"tensor {name}: shape {shape!r} is not a list of counts")
        if not (type(offset) is int and offset >= 0 and offset % 8 == 0):
            raise SchemaFormatError(f"tensor {name}: offset {offset!r} is not a "
                                    "multiple of 8 (misaligned)")
        end = offset + 8 * math.prod(shape)
        if offset > size:
            raise SchemaFormatError(f"tensor {name}: offset {offset} is past the end "
                                    f"of the {size}-byte payload")
        if end > size:
            raise SchemaFormatError(f"tensor {name}: bytes {offset}..{end} run past the "
                                    f"end of the {size}-byte payload (truncated)")
        spans[name] = (dtype, shape, offset, end)
    ordered = sorted(spans, key=lambda name: spans[name][2:])
    for before, after in zip(ordered, ordered[1:]):
        if spans[after][2] < spans[before][3]:
            raise SchemaFormatError(f"tensors {before} and {after} overlap")
    return spans


def _foreign(data: bytes, kind: str, version: int) -> SchemaFormatError:
    """The error for a file that does not open with `kind`'s magic."""
    for other, magic in MAGIC.items():
        if data[:8] == magic:
            return SchemaFormatError(f"this file is a {other}, not a {kind}")
    if data[:1] == b"{":  # earlier versions wrote one JSON object
        try:
            old = json.loads(data)
        except ValueError:
            old = None
        if isinstance(old, dict) and "version" in old:
            other = "checkpoint" if "layers" in old else "library"
            if other != kind:
                return SchemaFormatError(f"this file is a {other} (JSON, version "
                                         f"{old['version']!r}), not a {kind}")
            return SchemaFormatError(f"{kind} version {old['version']!r} != {version} "
                                     "(a JSON file of an earlier layout)", field="version")
    return SchemaFormatError(f"not a {kind} file: bad magic {data[:8]!r}, "
                             f"expected {MAGIC[kind]!r}")


def save_library(library: SchemaLibrary, path: str) -> None:
    """Write the library. The nodes' centroids and summary embeddings are
    two (K, d) tensors; node i is row i. Edges are an (E, 3) int tensor of
    src, dst and an index into the header's relation list, and an (E,)
    weight tensor. Node ids (the index), member counts and the assignments
    (which the member lists give) are not stored."""
    nodes, edges = library.graph.nodes, library.graph.edges
    shape = (len(nodes), library.dimension)
    relations = list(Relation)
    fields = {
        "d": library.dimension,
        "seed": library.seed,
        "nodes": [{"summary": n.summary, "members": n.members, "fallback": n.fallback}
                  for n in nodes],
        "relations": [r.value for r in relations],
        "inertia": library.clustering.inertia,
        "providers": library.providers,
        "config_fingerprint": library.config_fingerprint,
    }
    write_artifact(path, "library", LIBRARY_VERSION, fields, {
        "centroids": np.reshape([n.centroid for n in nodes], shape),
        "summary_embeddings": np.reshape([n.summary_embedding for n in nodes], shape),
        "edges": np.array([(e.src, e.dst, relations.index(e.relation)) for e in edges],
                          dtype=np.int64).reshape(-1, 3),
        "edge_weights": np.array([e.weight for e in edges], dtype=np.float64),
    })


def load_library(path: str, data: Optional[bytes] = None) -> SchemaLibrary:
    """The library saved at `path`; `data`, when given, is that file's
    bytes, already read. Node i's centroid and summary embedding are row i
    of `clustering.centroids` and of one decoded (K, d) stack, and
    `clustering.assignments` is rebuilt from the member lists."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    doc, tensor = read_artifact(data, "library", LIBRARY_VERSION)
    try:
        d = doc["d"]
        if not (type(d) is int and d >= 1):
            raise SchemaFormatError(f"d={d!r} is not a positive int", field="d")
        k = len(doc["nodes"])
        stacks = {}
        for key in ("centroids", "summary_embeddings"):
            stacks[key] = tensor(key)
            if stacks[key].shape != (k, d):
                raise SchemaFormatError(
                    f"tensor {key}: shape {list(stacks[key].shape)}, expected "
                    f"[{k}, {d}] for {k} nodes and d={d}", field=key)
        nodes = []
        for i, nd in enumerate(doc["nodes"]):
            if type(nd["members"]) is not list:
                raise SchemaFormatError(f"node {i} members are not a list", field="members")
            nodes.append(SchemaNode(
                id=i, summary=nd["summary"],
                centroid=stacks["centroids"][i],
                summary_embedding=stacks["summary_embeddings"][i],
                members=nd["members"], fallback=nd["fallback"]))
        edges = _edges(tensor("edges", "<i8"), tensor("edge_weights"),
                       doc["relations"], k)
        assignments = _assignments(nodes)
    except KeyError as exc:
        raise SchemaFormatError("missing library field", field=str(exc)) from exc
    except (TypeError, ValueError) as exc:  # wrong shape or value
        raise SchemaFormatError(f"malformed schema library: {exc}") from exc
    clustering = ClusteringResult(
        k=k, assignments=assignments, centroids=stacks["centroids"],
        inertia=float(doc.get("inertia", 0.0)), seed=doc["seed"])
    return SchemaLibrary(dimension=d, seed=doc["seed"],
                         graph=SchemaGraph(nodes=nodes, edges=edges),
                         clustering=clustering,
                         providers=doc.get("providers", {}),
                         config_fingerprint=doc.get("config_fingerprint", ""))


def _edges(columns: np.ndarray, weights: np.ndarray, relations: list,
           k: int) -> list[SchemaEdge]:
    """The edges that (E, 3) columns of src, dst and an index into
    `relations`, and (E,) weights give; SchemaFormatError naming the first
    edge whose endpoint is not a node id in [0, k), whose relation index
    is out of range, or whose weight (a count over the largest count) is
    not in (0, 1]."""
    if not (columns.ndim == 2 and columns.shape[1] == 3
            and weights.shape == (len(columns),)):
        raise SchemaFormatError(f"edges {list(columns.shape)} and edge_weights "
                                f"{list(weights.shape)} are not [E, 3] and [E]",
                                field="edges")
    kinds = [Relation(r) for r in relations]
    for column, name, bound, what in ((0, "src", k, "a node id"), (1, "dst", k, "a node id"),
                                      (2, "relation", len(kinds), "a relation index")):
        bad = np.flatnonzero((columns[:, column] < 0) | (columns[:, column] >= bound))
        if bad.size:
            i = int(bad[0])
            raise SchemaFormatError(f"edge {i} {name}={columns[i, column]} is not {what} "
                                    f"in [0, {bound})", field=name)
    bad = np.flatnonzero(~((weights > 0) & (weights <= 1)))
    if bad.size:
        i = int(bad[0])
        raise SchemaFormatError(f"edge {i} weight={weights[i]} is not in (0, 1]",
                                field="edge_weights")
    return [SchemaEdge(src, dst, kinds[rel], weight)
            for (src, dst, rel), weight in zip(columns.tolist(), weights.tolist())]


def _assignments(nodes: list[SchemaNode]) -> np.ndarray:
    """Each pooled predicate's node id, in sorted predicate order (the
    pool's order); SchemaFormatError for a member that is not a string or
    that two nodes list."""
    owner = {member: i for i, node in enumerate(nodes) for member in node.members}
    if len(owner) != sum(len(node.members) for node in nodes):
        counts = Counter(member for node in nodes for member in node.members)
        twice = next(member for member, count in counts.items() if count > 1)
        raise SchemaFormatError(f"predicate {twice!r} is listed in more than one node",
                                field="members")
    if not set(map(type, owner)) <= {str}:
        raise SchemaFormatError("members are not all strings", field="members")
    keys = sorted(owner)
    return np.fromiter(map(owner.__getitem__, keys), np.int64, len(keys))


def induce_library(corpus: list[FolGraph], provider: EmbeddingProvider,
                   gateway: Optional[Gateway], seed: int,
                   k_grid: Optional[list[int]] = None,
                   k_fixed: Optional[int] = None,
                   model_id: str = "default-model",
                   config_fingerprint: str = "",
                   p2_max_lines: int = 50) -> SchemaLibrary:
    """End-to-end induction: pool → (select_k | fixed K) → kmeans →
    abstract → schema graph. DimensionMismatchError, before any P2 call,
    when the corpus embeddings and the provider differ in d."""
    pool = collect_predicates(corpus)
    points = np.stack([vec for _, vec in pool])
    if points.shape[1] != provider.dimension:
        raise DimensionMismatchError(
            f"the graph records' predicate embeddings have d={points.shape[1]}, but "
            f"the {provider.name} embedding provider gives d={provider.dimension}")
    if k_fixed is not None:
        result = kmeans(points, min(k_fixed, len(pool)), seed)
    else:
        grid = [k for k in (k_grid or [4, 8, 16, 32, 64]) if k <= len(pool)]
        if not grid:
            grid = [min(2, len(pool))]
        fits: dict[int, ClusteringResult] = {}
        k, _ = select_k(points, grid, seed, fits)
        result = fits[k]
    nodes = abstract_clusters(result, pool, gateway, provider, model_id=model_id,
                              p2_max_lines=p2_max_lines)
    graph = build_schema_graph(nodes, corpus, result, pool)
    return SchemaLibrary(dimension=points.shape[1], seed=seed, graph=graph,
                         clustering=result,
                         providers={"embedding": provider.name},
                         config_fingerprint=config_fingerprint)
