"""The graph-kernel stance model.

Per node v of the instance graph, its padded k-hop subgraph is compared to a
bank of schema-derived filters with a p-step random-walk kernel

    k(G_v, H) = s^T W (A_sub ⊗ A_filt)^p s,   s = vec(X_sub X_filt^T)

computed via the vec identity ((A ⊗ B) vec(S) = vec(A S B^T) with row-major
vec), never materializing the Kronecker matrix. All layers share one
subgraph size and radius, filter size, walk length p and g, which the model
states once. A graph is prepared once (`prepare`): its node features and
every node's subgraph as node indices and a padded adjacency. `forward`
takes a minibatch of graphs and concatenates their node rows, and
`backward` runs it back from its cache, so one layer of the whole batch is
a few batched tensor ops: subgraph features are rows of a zero-padded
feature matrix, and the walk runs over (N, F, n_sub, n_filt) against the
layer's stacked filters. Each node keeps its top-g kernel scores as
features, layers stack, and a per-graph summed readout feeds a small ReLU
head with softmax. All gradients are hand-derived reverse mode. The walk
and the scores match scoring each pair alone bit for bit, because top-g
breaks ties on the last bit; everything after them is GEMMs and segment
sums over the batch, which match a per-graph loop to within rounding.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .config import RunConfig
from .errors import (ConfigError, DimensionMismatchError,
                     FingerprintMismatchError, IndexOutOfRangeError,
                     InvalidFilterCountError, InvalidGError, SchemaFormatError,
                     ShapeMismatchError)
from .fol import FolGraph, FolNode, Predicate, Relation
from .induce import (SchemaGraph, SchemaLibrary, assign_to_cluster,
                     read_artifact, write_artifact)

CHECKPOINT_VERSION = 4
# The stacked parameter arrays of a layer and of the head, by attribute name.
LAYER_TENSORS = ("filter_feats", "filter_adjs", "W")
HEAD_TENSORS = ("W_h", "b_h", "W_o", "b_o")
# The sizes every layer shares, stated once on the model.
SIZES = ("p", "g", "hop", "n_sub", "n_filt")
# Each count a model is built from: its RunConfig field and least valid value.
COUNTS = {"dimension": ("dimension", 1), "layers": ("layers", 1), "hidden": ("hidden", 1),
          "n_filters": ("n_filters", 1), "p": ("walk_length", 0), "g": ("top_g", 1),
          "hop": ("subgraph_hop", 0), "n_sub": ("n_sub", 1), "n_filt": ("n_filt", 1)}


def graph_adjacency(graph: FolGraph,
                    weights: dict[Relation, float]) -> np.ndarray:
    """Collapse the typed edge list into one weighted adjacency matrix."""
    n = len(graph.nodes)
    adj = np.zeros((n, n), dtype=np.float64)
    for src, dst, rel in graph.edges:
        adj[src, dst] += weights[rel]
    return adj


# ---------------------------------------------------------------------------
# Subgraph extraction

@dataclass
class PaddedSubgraph:
    adjacency: np.ndarray      # (n_sub, n_sub)
    features: np.ndarray       # (n_sub, f); rows past valid_count are zero
    valid_count: int
    node_indices: list[int]    # graph node ids, center first


@dataclass
class SubgraphBatch:
    """Every node's padded k-hop subgraph: row j of node v's subgraph is
    node node_indices[v, j], or a zero row where that is -1, so its
    features are `_zero_row(X)[node_indices[v]]`."""
    adjacency: np.ndarray      # (N, n_sub, n_sub)
    node_indices: np.ndarray   # (N, n_sub) node ids, -1 when padded


def _zero_row(a: np.ndarray) -> np.ndarray:
    """`a` with a zero row appended, which index -1 picks."""
    return np.concatenate([a, np.zeros((1,) + a.shape[1:])])


def _hops(linked: np.ndarray, sources: np.ndarray, hop: int) -> np.ndarray:
    """Each node's hop distance from each boolean row of `sources` over the
    boolean skeleton `linked`, or hop + 1 when it is farther."""
    reached = frontier = sources
    dist = np.where(reached, 0, hop + 1)
    for h in range(1, hop + 1):
        frontier = (frontier @ linked) & ~reached
        dist[frontier] = h
        reached = reached | frontier
    return dist


def _cut(adjacency: np.ndarray, key: np.ndarray, reached: np.ndarray,
         size: int) -> SubgraphBatch:
    """Per row of `key`, the `size` nodes of least key (ties to the smaller
    index), -1 where a node is not `reached`, padded with -1; and their
    adjacency, zero at the padding."""
    n = adjacency.shape[0]
    order = np.argsort(key, axis=1, kind="stable")[:, :size]
    node_indices = np.full((key.shape[0], size), -1)
    node_indices[:, :order.shape[1]] = np.where(
        np.take_along_axis(reached, order, axis=1), order, -1)
    padded = np.zeros((n + 1, n + 1))           # a zero last row and column
    padded[:n, :n] = adjacency
    return SubgraphBatch(
        adjacency=padded[node_indices[:, :, None], node_indices[:, None, :]],
        node_indices=node_indices)


def khop_subgraphs(adjacency: np.ndarray, hop: int, n_sub: int) -> SubgraphBatch:
    """Boolean BFS from every node at once over the undirected skeleton out
    to `hop` hops; node order is center first, then by hop distance then
    node index; truncated to n_sub and zero-padded."""
    n = adjacency.shape[0]
    dist = _hops((adjacency != 0) | (adjacency.T != 0), np.eye(n, dtype=bool), hop)
    return _cut(adjacency, dist * n + np.arange(n), dist <= hop, n_sub)


def schema_filters(graph: SchemaGraph, n_filters: int, hop: int,
                   n_filt: int) -> SubgraphBatch:
    """The schema filters as subgraphs over the schema nodes: around each
    of the n_filters nodes with the most members (ties to the smaller id),
    in id order, the nodes within `hop` hops along edges either way, center
    first, then by the larger of the summed edge weights to and from the
    center (ties to the smaller id); truncated to n_filt and zero-padded.
    A filter's features are `_zero_row(summary embeddings)[node_indices]`."""
    k = len(graph.nodes)
    if not 1 <= n_filters <= k:
        raise InvalidFilterCountError(f"n_filters={n_filters} outside [1, {k}]")
    src = np.array([e.src for e in graph.edges], dtype=np.int64)
    dst = np.array([e.dst for e in graph.edges], dtype=np.int64)
    weight = np.zeros((k, k))
    np.add.at(weight, (src, dst), [e.weight for e in graph.edges])  # in edge order
    linked = np.zeros((k, k), dtype=bool)
    linked[src, dst] = linked[dst, src] = True
    members = np.array([len(node.members) for node in graph.nodes])
    centers = np.sort(np.argsort(-members, kind="stable")[:n_filters])
    reached = _hops(linked, np.eye(k, dtype=bool)[centers], hop) <= hop
    key = np.where(reached, -np.maximum(weight[centers], weight[:, centers].T), np.inf)
    key[np.arange(n_filters), centers] = -np.inf
    return _cut(weight, key, reached, n_filt)


def khop_subgraph(adjacency: np.ndarray, features: np.ndarray, v: int,
                  hop: int, n_sub: int) -> PaddedSubgraph:
    """Node v's view of khop_subgraphs."""
    n = adjacency.shape[0]
    if not 0 <= v < n:
        raise IndexOutOfRangeError(f"node {v} outside graph of size {n}")
    batch = khop_subgraphs(adjacency, hop, n_sub)
    indices = batch.node_indices[v]
    return PaddedSubgraph(adjacency=batch.adjacency[v],
                          features=_zero_row(features)[indices],
                          valid_count=int((indices >= 0).sum()),
                          node_indices=indices[indices >= 0].tolist())


# ---------------------------------------------------------------------------
# Random-walk kernel (vec-identity form), batched over nodes and filters.
# Every product is a stacked matmul whose per-item shapes match the one-pair
# form (Xs Xf^T, A S B^T, W s, s.t), so numpy makes the same BLAS call per
# pair and each score is bit-identical to scoring its pair alone. Top-g
# needs that: filters cut from the same schema neighbourhood score equal up
# to the last bit, and a GEMM over pairs would break their ties differently.

def _walk(sub_feat: np.ndarray, sub_adj: np.ndarray, filt_feat: np.ndarray,
          filt_adj: np.ndarray, p: int) -> list[np.ndarray]:
    """[S_0 .. S_p] for subgraphs (..., n_sub, f) against filters
    (..., n_filt, f) broadcast together: S_0 = Xs Xf^T, S_r = As S_{r-1} Af^T."""
    if sub_feat.shape[-1] != filt_feat.shape[-1]:
        raise ShapeMismatchError(
            f"feature dims differ: {sub_feat.shape[-1]} vs {filt_feat.shape[-1]}")
    steps = [sub_feat @ np.swapaxes(filt_feat, -1, -2)]
    for _ in range(p):
        steps.append(sub_adj @ steps[-1] @ np.swapaxes(filt_adj, -1, -2))
    return steps


def _kernel_values(s0: np.ndarray, sp: np.ndarray, W: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """vec(S_0)^T W vec(S_p) over the leading axes of s0 and sp, and W vec(S_p)."""
    q = s0.shape[-2] * s0.shape[-1]
    if W.shape != (q, q):
        raise ShapeMismatchError(f"W shape {W.shape} inconsistent with q={q}")
    w_sp = W @ sp.reshape(*sp.shape[:-2], q, 1)
    return (s0.reshape(*s0.shape[:-2], 1, q) @ w_sp)[..., 0, 0], w_sp[..., 0]


def _topg(scores: np.ndarray, g: int) -> np.ndarray:
    """Per row, the indices of the g largest scores, ties to the smaller
    index, sorted ascending."""
    if not 1 <= g <= scores.shape[1]:
        raise InvalidGError(f"g={g} outside [1, {scores.shape[1]}]")
    return np.sort(np.argsort(-scores, axis=1, kind="stable")[:, :g], axis=1)


# ---------------------------------------------------------------------------
# Model parameters

@dataclass
class KernelLayerParams:
    filter_feats: np.ndarray          # (F, n_filt, f)
    filter_adjs: np.ndarray           # (F, n_filt, n_filt)
    W: np.ndarray                     # (q, q), q = n_sub * n_filt


@dataclass
class Model:
    layers: list[KernelLayerParams]
    W_h: np.ndarray                   # (h, D)
    b_h: np.ndarray                   # (h,)
    W_o: np.ndarray                   # (C, h)
    b_o: np.ndarray                   # (C,)
    dimension: int
    labels: list[str]
    relation_weights: dict[Relation, float]
    p: int                            # walk steps
    g: int                            # kernel scores kept per node and layer
    hop: int                          # subgraph radius
    n_sub: int                        # subgraph size
    n_filt: int                       # filter size
    library_fingerprint: str = ""
    config_fingerprint: str = ""
    seed: int = 0

    def parameters(self) -> "OrderedDict[str, np.ndarray]":
        """The stacked parameter arrays themselves, by name: per layer
        `layer{l}.filter_feats`, `.filter_adjs` and `.W`, then the head's
        `head.W_h`, `.b_h`, `.W_o` and `.b_o`. An in-place update of an
        entry writes the model."""
        return OrderedDict(
            [(f"layer{li}.{name}", getattr(layer, name))
             for li, layer in enumerate(self.layers) for name in LAYER_TENSORS]
            + [(f"head.{name}", getattr(self, name)) for name in HEAD_TENSORS])

    def assert_finite(self) -> None:
        for name, value in self.parameters().items():
            if not np.all(np.isfinite(value)):
                raise ShapeMismatchError(f"parameter {name} contains non-finite values")


def build_model(library: Optional[SchemaLibrary], cfg: RunConfig,
                labels: Optional[list[str]] = None,
                library_fingerprint: str = "") -> Model:
    """Construct the model; layer-0 filters come from schema subgraphs unless
    the random-filters ablation is set, deeper layers carry seeded random
    features over the schema adjacency; ConfigError names the key of a bad size."""
    labels = labels or list(cfg.label_set)
    try:
        weights = {Relation(k): float(v) for k, v in cfg.relation_weights.items()}
    except ValueError as exc:
        raise ConfigError(f"config key relation_weights: {exc}") from exc
    rng = np.random.default_rng(cfg.seed)
    d = cfg.dimension if library is None else library.dimension
    n_filters = cfg.n_filters
    if library is not None:
        n_filters = min(n_filters, len(library.graph.nodes))
    sizes = {"p": cfg.walk_length, "g": min(cfg.top_g, n_filters),
             "hop": cfg.subgraph_hop, "n_sub": cfg.n_sub, "n_filt": cfg.n_filt}
    _check_counts(dict(dimension=d, layers=cfg.layers, hidden=cfg.hidden,
                       n_filters=n_filters, **sizes), ConfigError)
    if library is not None and not cfg.random_filters:
        filters = schema_filters(library.graph, n_filters, cfg.subgraph_hop, cfg.n_filt)
        embeddings = np.stack([node.summary_embedding for node in library.graph.nodes])
        feats = _zero_row(embeddings)[filters.node_indices]
        adjs = filters.adjacency
    else:
        draws = []
        for _ in range(n_filters):
            feat = rng.normal(0.0, 0.1, size=(cfg.n_filt, d))
            adj = rng.uniform(0.0, 1.0, size=(cfg.n_filt, cfg.n_filt))
            np.fill_diagonal(adj, 0.0)
            draws.append((feat, adj))
        feats = np.stack([f for f, _ in draws])
        adjs = np.stack([a for _, a in draws])

    layers = []
    for level in range(cfg.layers):
        if level > 0:
            feats = rng.normal(0.0, 0.1, size=(n_filters, cfg.n_filt, sizes["g"]))
        # each layer owns its adjacencies: AdamW updates them in place
        layers.append(KernelLayerParams(filter_feats=feats, filter_adjs=adjs.copy(),
                                        W=np.eye(cfg.n_sub * cfg.n_filt)))

    D = d + sizes["g"] * len(layers)
    W_h = rng.normal(0.0, 1.0 / np.sqrt(D), size=(cfg.hidden, D))
    b_h = np.zeros(cfg.hidden, dtype=np.float64)
    W_o = rng.normal(0.0, 1.0 / np.sqrt(cfg.hidden), size=(len(labels), cfg.hidden))
    b_o = np.zeros(len(labels), dtype=np.float64)
    model = Model(layers=layers, W_h=W_h, b_h=b_h, W_o=W_o, b_o=b_o,
                  dimension=d, labels=labels, relation_weights=weights, **sizes,
                  library_fingerprint=library_fingerprint,
                  config_fingerprint=cfg.fingerprint(), seed=cfg.seed)
    _check_consistent(model, ConfigError)
    return model


# ---------------------------------------------------------------------------
# Forward / backward

@dataclass
class PreparedGraph:
    """What the kernel reads from one graph that no parameter changes: the
    node features and every node's subgraph. Built once per graph by
    `prepare`; every forward and backward pass over the graph reuses it."""
    features: np.ndarray                 # (N, d)
    subgraphs: SubgraphBatch


def prepare(graph: FolGraph, model: Model) -> PreparedGraph:
    """`graph` as `forward` and `backward` read it under `model`'s relation
    weights and subgraph sizes."""
    if not graph.nodes:
        raise ShapeMismatchError("cannot run forward on an empty graph")
    X = np.stack([np.asarray(n.embedding, dtype=np.float64) for n in graph.nodes])
    if X.shape[1] != model.dimension:
        raise DimensionMismatchError(
            f"graph embedding d={X.shape[1]}, model d={model.dimension}")
    adjacency = graph_adjacency(graph, model.relation_weights)
    return PreparedGraph(X, khop_subgraphs(adjacency, model.hop, model.n_sub))


def _batch_subgraphs(batch: list[PreparedGraph], offsets: list[int]) -> SubgraphBatch:
    """The batch's subgraphs over its concatenated node rows."""
    parts = [graph.subgraphs for graph in batch]
    if len(parts) == 1:
        return parts[0]
    return SubgraphBatch(
        adjacency=np.concatenate([part.adjacency for part in parts]),
        node_indices=np.concatenate([
            np.where(part.node_indices >= 0, part.node_indices + start, -1)
            for part, start in zip(parts, offsets)]))


@dataclass
class LayerCache:
    """One layer's forward state over a batch's N node rows."""
    steps: list[np.ndarray]              # S_0 .. S_p, each (N, F, n_sub, n_filt)
    scores: np.ndarray                   # (N, F)
    selected: np.ndarray                 # (N, g) filter indices, ascending


@dataclass
class ForwardCache:
    """A minibatch's forward state. The node rows of graph b are
    offsets[b]:offsets[b + 1] of every per-node array; phi .. probabilities
    have one row per graph."""
    offsets: list[int]                   # B + 1 node row boundaries
    subgraphs: SubgraphBatch             # node_indices are batch node rows
    layer_inputs: list[np.ndarray]       # X_0 .. X_L (layer_inputs[l] feeds layer l)
    layers: list[LayerCache]
    phi: np.ndarray
    pre_hidden: np.ndarray
    hidden: np.ndarray
    logits: np.ndarray
    probabilities: np.ndarray


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def layer_forward(features: np.ndarray, subgraphs: SubgraphBatch,
                  layer: KernelLayerParams, p: int, g: int
                  ) -> tuple[np.ndarray, LayerCache]:
    """Per-node kernel features of node rows `features` (N, f) whose
    subgraphs are `subgraphs`: all-filter p-step scores, top-g selection,
    the selected kernel values in filter-index order. The cache feeds
    backward."""
    sub_feat = _zero_row(features)[subgraphs.node_indices]
    steps = _walk(sub_feat[:, None], subgraphs.adjacency[:, None],
                  layer.filter_feats, layer.filter_adjs, p)
    scores, _ = _kernel_values(steps[0], steps[-1], layer.W)
    selected = _topg(scores, g)
    out = np.take_along_axis(scores, selected, axis=1)
    return out, LayerCache(steps=steps, scores=scores, selected=selected)


def readout(layer_inputs: list[np.ndarray], offsets: Sequence[int]) -> np.ndarray:
    """Per graph, its node rows offsets[b]:offsets[b + 1] summed, over the
    concatenated layer features (layer 0 = the raw embeddings)."""
    if len(layer_inputs) < 2:
        raise ShapeMismatchError("readout needs layer-0 features plus >=1 layer")
    return np.add.reduceat(np.concatenate(layer_inputs, axis=1), offsets[:-1],
                           axis=0)


def forward(graphs: Sequence[Union[FolGraph, PreparedGraph]],
            model: Model) -> ForwardCache:
    """The model over a minibatch of graphs, each a FolGraph or a
    PreparedGraph. Node rows of all graphs are concatenated, so every layer
    runs once for the batch. Scores and selections are bit-identical to
    running each graph alone; the readout and head are a segment sum and
    GEMMs over the batch, equal to one graph at a time up to rounding."""
    batch = [graph if isinstance(graph, PreparedGraph) else prepare(graph, model)
             for graph in graphs]
    if not batch:
        raise ShapeMismatchError("cannot run forward on an empty batch")
    offsets = [0]
    for graph in batch:
        offsets.append(offsets[-1] + len(graph.features))
    subgraphs = _batch_subgraphs(batch, offsets)
    layer_inputs = [np.concatenate([graph.features for graph in batch])]
    layer_caches: list[LayerCache] = []
    for layer in model.layers:
        out, layer_cache = layer_forward(layer_inputs[-1], subgraphs, layer, model.p, model.g)
        layer_caches.append(layer_cache)
        layer_inputs.append(out)

    phi = readout(layer_inputs, offsets)
    pre_hidden = phi @ model.W_h.T + model.b_h
    hidden = np.maximum(pre_hidden, 0.0)
    logits = hidden @ model.W_o.T + model.b_o
    return ForwardCache(offsets, subgraphs, layer_inputs, layer_caches, phi,
                        pre_hidden, hidden, logits, softmax(logits))


def cross_entropy(probabilities: np.ndarray, gold_index: int) -> float:
    return float(-np.log(max(probabilities[gold_index], 1e-300)))


def _pair_backward(upstream: np.ndarray, steps: list[np.ndarray],
                   sub_adj: np.ndarray, filt_adj: np.ndarray, W: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For (node, filter) pairs stacked on axis 0: per pair, the gradients
    of upstream * k w.r.t. S_0 and w.r.t. the filter adjacency; summed over
    pairs, the gradient w.r.t. W."""
    n_pairs, n, m = steps[0].shape
    u = upstream[:, None]
    s0, sp = (step.reshape(n_pairs, n * m) for step in (steps[0], steps[-1]))
    g_s0, g_w = u * (sp @ W.T), (u * s0).T @ sp
    G = (u * (s0 @ W)).reshape(n_pairs, n, m)
    g_adj = np.zeros_like(filt_adj)
    for r in range(len(steps) - 1, 0, -1):
        g_adj += np.swapaxes(G, -1, -2) @ sub_adj @ steps[r - 1]
        G = np.swapaxes(sub_adj, -1, -2) @ G @ filt_adj    # back to S_{r-1}
    return G + g_s0.reshape(n_pairs, n, m), g_adj, g_w


def _scatter(values: np.ndarray, index: np.ndarray, length: int) -> np.ndarray:
    """out[index[i]] += values[i] for each i, onto zeros of (length, *row
    shape), by np.bincount (which gives int64 zeros when there are none)."""
    width = int(np.prod(values.shape[1:]))
    flat = (index[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, weights=values.ravel(), minlength=length * width)
    return out.astype(np.float64, copy=False).reshape(length, *values.shape[1:])


def backward(model: Model, golds: Sequence[int],
             cache: ForwardCache) -> "OrderedDict[str, np.ndarray]":
    """Exact reverse-mode gradients of the summed cross-entropy loss of the
    minibatch that `forward` ran on (`golds`: one class index per graph),
    under the names of `Model.parameters()`. Top-g selection is treated as
    constant (gradients flow only through the selected filters). The walk
    is reversed per (node, filter) pair; the head, the W and filter-feature
    gradients and the input gradient are GEMMs over the whole batch."""
    n_rows = cache.offsets[-1]
    d_logits = cache.probabilities - np.eye(cache.probabilities.shape[1])[golds]
    d_pre = (d_logits @ model.W_o) * (cache.pre_hidden > 0)

    # split readout gradient back into per-layer summed-feature segments
    widths = [lf.shape[1] for lf in cache.layer_inputs]
    segments = np.split(d_pre @ model.W_h, np.cumsum(widths)[:-1], axis=1)

    # d_X starts from the readout contribution of the deepest layer and is
    # augmented with kernel contributions while walking layers top-down;
    # the gradient w.r.t. the frozen node embeddings is never formed
    node_graph = np.repeat(np.arange(len(cache.offsets) - 1), np.diff(cache.offsets))
    d_X = segments[-1][node_graph]
    grad_layers: list[KernelLayerParams] = []
    for li in range(len(model.layers) - 1, -1, -1):
        layer, lc = model.layers[li], cache.layers[li]
        nodes, slots = np.nonzero(d_X)
        filters = lc.selected[nodes, slots]
        G0, g_adj, g_w = _pair_backward(
            d_X[nodes, slots], [s[nodes, filters] for s in lc.steps],
            cache.subgraphs.adjacency[nodes], layer.filter_adjs[filters], layer.W)
        # sum G0 onto (node row, filter): row j of pair i is node row
        # node_indices[nodes[i], j]; S_0 = X_sub Xf^T then gives both the
        # filter-feature and the input gradient as one GEMM each
        n_filters, n_filt = len(layer.filter_feats), model.n_filt
        rows = cache.subgraphs.node_indices[nodes]
        valid = rows >= 0
        g_rows = _scatter(G0[valid], (rows * n_filters + filters[:, None])[valid],
                          n_rows * n_filters).reshape(n_rows, n_filters * n_filt)
        g_feat = g_rows.T @ cache.layer_inputs[li]
        grad_layers.insert(0, KernelLayerParams(
            filter_feats=g_feat.reshape(n_filters, n_filt, -1),
            filter_adjs=_scatter(g_adj, filters, n_filters), W=g_w))
        if li:
            d_X = segments[li][node_graph] + g_rows @ layer.filter_feats.reshape(
                n_filters * n_filt, -1)
    return replace(model, layers=grad_layers,
                   W_h=d_pre.T @ cache.phi, b_h=d_pre.sum(axis=0),
                   W_o=d_logits.T @ cache.hidden, b_o=d_logits.sum(axis=0)).parameters()


# ---------------------------------------------------------------------------
# Schema augmentation

def augment_graph(graph: FolGraph, library: SchemaLibrary) -> FolGraph:
    """Attach each predicate node to its nearest schema cluster node via an
    InstanceOf edge; schema nodes are shared per cluster. Idempotent."""
    if any(rel is Relation.INSTANCE_OF for _, _, rel in graph.edges):
        return graph
    nodes = [FolNode(predicate=n.predicate, embedding=n.embedding,
                     is_schema=n.is_schema) for n in graph.nodes]
    edges = list(graph.edges)
    by_id = {n.id: n for n in library.graph.nodes}
    schema_index: dict[int, int] = {}
    for idx, node in enumerate(list(nodes)):
        if node.is_schema or node.embedding is None:
            continue
        if np.asarray(node.embedding).shape[0] != library.dimension:
            raise DimensionMismatchError("node embedding does not match library d")
        cid = assign_to_cluster(node.embedding, library.clustering)
        if cid not in schema_index:
            schema = by_id[cid]
            schema_index[cid] = len(nodes)
            nodes.append(FolNode(
                predicate=Predicate(name=f"Schema{cid}", args=()),
                embedding=np.asarray(schema.summary_embedding, dtype=np.float64),
                is_schema=True))
        edges.append((idx, schema_index[cid], Relation.INSTANCE_OF))
    return FolGraph(nodes=nodes, edges=edges)


# ---------------------------------------------------------------------------
# Checkpoints
#
# A checkpoint is an artifact of the layout the schema library also uses
# (induce.write_artifact). Its header holds the sizes (SIZES once for the
# model), labels, relation weights, fingerprints, seed and layer count; its
# tensors are the stacked arrays of Model.parameters(), by the same names.

def save_checkpoint(model: Model, path: str) -> None:
    write_artifact(path, "checkpoint", CHECKPOINT_VERSION, {
        "dimension": model.dimension,
        **{name: getattr(model, name) for name in SIZES},
        "labels": model.labels,
        "relation_weights": {r.value: w for r, w in model.relation_weights.items()},
        "library_fingerprint": model.library_fingerprint,
        "config_fingerprint": model.config_fingerprint,
        "seed": model.seed,
        "layers": len(model.layers),
    }, model.parameters())


def load_checkpoint(path: str, library_fingerprint: Optional[str] = None,
                    force: bool = False) -> Model:
    with open(path, "rb") as fh:
        data = fh.read()
    doc, tensor = read_artifact(data, "checkpoint", CHECKPOINT_VERSION)
    if (library_fingerprint is not None and not force
            and doc.get("library_fingerprint")
            and doc["library_fingerprint"] != library_fingerprint):
        raise FingerprintMismatchError(
            f"checkpoint was trained against library {doc['library_fingerprint']}, "
            f"got {library_fingerprint} (use --force to override)")
    try:
        _check_counts({"layers": doc["layers"]}, SchemaFormatError)
        layers = [KernelLayerParams(**{name: tensor(f"layer{li}.{name}")
                                       for name in LAYER_TENSORS})
                  for li in range(doc["layers"])]
        head = {name: tensor(f"head.{name}") for name in HEAD_TENSORS}
        model = Model(
            layers=layers, **head, **{name: doc[name] for name in SIZES},
            dimension=doc["dimension"], labels=list(doc["labels"]),
            relation_weights={Relation(k): float(v)
                              for k, v in doc["relation_weights"].items()},
            library_fingerprint=doc.get("library_fingerprint", ""),
            config_fingerprint=doc.get("config_fingerprint", ""),
            seed=doc.get("seed", 0))
    except KeyError as exc:
        raise SchemaFormatError("missing checkpoint field", field=str(exc)) from exc
    except (TypeError, ValueError, AttributeError) as exc:  # wrong shape or value
        raise SchemaFormatError(f"malformed checkpoint: {exc}") from exc
    _check_consistent(model)
    return model


def _require(ok: bool, what: str, error: type) -> None:
    if not ok:
        raise error(f"inconsistent model: {what}")


def _check_counts(counts: dict, error: type) -> None:
    """Raise `error` naming the config key of the first of `counts` that COUNTS rules out."""
    for name, value in counts.items():
        key, low = COUNTS[name]
        _require(type(value) is int and value >= low,
                 f"{name}={value!r} (config key {key})", error)


def _check_consistent(model: Model, error: type = SchemaFormatError) -> None:
    """Raise `error` unless the model's sizes are counts, g is at most each layer's
    filter count, every relation has a weight, and the filter, W and head arrays
    have the shapes those sizes and the labels give. `build_model` and
    `load_checkpoint` both run it, so a model one makes the other accepts."""
    _check_counts(dict(dimension=model.dimension, layers=len(model.layers),
                       hidden=model.b_h.size,
                       **{name: getattr(model, name) for name in SIZES}), error)
    _require(bool(model.labels), "no labels", error)
    _require(set(model.relation_weights) == set(Relation), "relation_weights must weigh each "
             f"of {[r.value for r in Relation]} (config key relation_weights)", error)
    widths = [model.dimension] + [model.g] * len(model.layers)
    hidden, classes, m = model.b_h.size, len(model.labels), model.n_filt
    shapes = [("head.W_h", model.W_h, (hidden, sum(widths))),
              ("head.b_h", model.b_h, (hidden,)),
              ("head.W_o", model.W_o, (classes, hidden)),
              ("head.b_o", model.b_o, (classes,))]
    for li, layer in enumerate(model.layers):
        F = len(layer.filter_feats)
        _require(model.g <= F, f"layer {li} g={model.g} exceeds its {F} filters", error)
        shapes += [(f"layer {li} filter features", layer.filter_feats, (F, m, widths[li])),
                   (f"layer {li} filter adjacencies", layer.filter_adjs, (F, m, m)),
                   (f"layer {li} W", layer.W, (model.n_sub * m,) * 2)]
    for name, array, expected in shapes:
        _require(array.shape == expected, f"{name} {array.shape}, expected {expected} "
                 f"for {hidden} hidden units and {classes} labels", error)


def clone_model(model: Model) -> Model:
    return copy.deepcopy(model)
