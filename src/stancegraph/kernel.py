"""The graph-kernel stance model.

Per node v of the instance graph, its padded k-hop subgraph is compared to a
bank of schema-derived filters with a p-step random-walk kernel

    k(G_v, H) = s^T W (A_sub ⊗ A_filt)^p s,   s = vec(X_sub X_filt^T)

computed via the vec identity ((A ⊗ B) vec(S) = vec(A S B^T) with row-major
vec), never materializing the Kronecker matrix. One layer of one graph is a
few batched tensor ops: a 0/1 gather (N, n_sub, N) picks every node's
subgraph at once, and the walk runs over (N, F, n_sub, n_filt) against the
layer's stacked filters. Each node keeps its top-g kernel scores as
features, layers stack, and a summed readout feeds a small ReLU head with
softmax. All gradients are hand-derived reverse mode.
"""

from __future__ import annotations

import copy
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import RunConfig
from .errors import (DimensionMismatchError, FingerprintMismatchError,
                     IndexOutOfRangeError, InvalidGError, SchemaFormatError,
                     ShapeMismatchError, StaleCacheError)
from .fol import FolGraph, FolNode, Predicate, Relation
from .induce import SchemaLibrary, assign_to_cluster, extract_filters

CHECKPOINT_VERSION = 1


def relation_weights_from_config(cfg: RunConfig) -> dict[Relation, float]:
    return {Relation(k): float(v) for k, v in cfg.relation_weights.items()}


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
    """Every node's padded k-hop subgraph as one gather: row j of node v's
    subgraph is graph node node_indices[v, j], so its features are
    gather[v] @ X and its adjacency is gather[v] A gather[v]^T."""
    gather: np.ndarray         # (N, n_sub, N) 0/1; padded rows are zero
    adjacency: np.ndarray      # (N, n_sub, n_sub)
    node_indices: np.ndarray   # (N, n_sub) graph node ids, -1 when padded


def khop_subgraphs(adjacency: np.ndarray, hop: int, n_sub: int) -> SubgraphBatch:
    """Boolean BFS from every node at once over the undirected skeleton out
    to `hop` hops; node order is center first, then by hop distance then
    node index; truncated to n_sub and zero-padded."""
    n = adjacency.shape[0]
    undirected = (adjacency != 0) | (adjacency.T != 0)
    reached = frontier = np.eye(n, dtype=bool)
    dist = np.where(reached, 0, hop + 1)        # hop + 1: not reached
    for h in range(1, hop + 1):
        frontier = (frontier @ undirected) & ~reached
        dist[frontier] = h
        reached = reached | frontier
    order = np.argsort(dist * n + np.arange(n), axis=1)[:, :n_sub]
    node_indices = np.full((n, n_sub), -1)
    node_indices[:, :order.shape[1]] = np.where(
        np.take_along_axis(dist, order, axis=1) <= hop, order, -1)
    gather = (node_indices[:, :, None] == np.arange(n)).astype(np.float64)
    return SubgraphBatch(gather=gather,
                         adjacency=gather @ adjacency @ gather.transpose(0, 2, 1),
                         node_indices=node_indices)


def khop_subgraph(adjacency: np.ndarray, features: np.ndarray, v: int,
                  hop: int, n_sub: int) -> PaddedSubgraph:
    """Node v's view of khop_subgraphs."""
    n = adjacency.shape[0]
    if not 0 <= v < n:
        raise IndexOutOfRangeError(f"node {v} outside graph of size {n}")
    batch = khop_subgraphs(adjacency, hop, n_sub)
    indices = batch.node_indices[v]
    return PaddedSubgraph(adjacency=batch.adjacency[v],
                          features=batch.gather[v] @ features,
                          valid_count=int((indices >= 0).sum()),
                          node_indices=indices[indices >= 0].tolist())


# ---------------------------------------------------------------------------
# Random-walk kernel (vec-identity form), batched over nodes and filters.
# Every product is a stacked matmul whose per-item shapes match the one-pair
# form (Xs Xf^T, A S B^T, W s, s.t), so numpy makes the same BLAS call per
# pair and the results are bit-identical to scoring one pair at a time:
# top-g breaks ties between equal-valued filters on the last bit.

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
    if (W.ndim == 1 and W.shape[0] != q) or (W.ndim != 1 and W.shape != (q, q)):
        raise ShapeMismatchError(f"W shape {W.shape} inconsistent with q={q}")
    sp = sp.reshape(*sp.shape[:-2], q, 1)
    w_sp = W[:, None] * sp if W.ndim == 1 else W @ sp
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
    W: np.ndarray                     # (q, q) dense or (q,) diagonal
    p: int
    g: int
    hop: int
    n_sub: int
    n_filt: int

    @property
    def n_filters(self) -> int:
        return len(self.filter_feats)


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
    library_fingerprint: str = ""
    config_fingerprint: str = ""
    seed: int = 0

    def parameters(self) -> "OrderedDict[str, np.ndarray]":
        """Per-filter entries are views into the layer's stacked filters, so
        an in-place update of a parameter writes the stack."""
        params: OrderedDict[str, np.ndarray] = OrderedDict()
        for li, layer in enumerate(self.layers):
            for fi in range(layer.n_filters):
                params[f"layer{li}.filter{fi}.feat"] = layer.filter_feats[fi]
                params[f"layer{li}.filter{fi}.adj"] = layer.filter_adjs[fi]
            params[f"layer{li}.W"] = layer.W
        params["head.W_h"] = self.W_h
        params["head.b_h"] = self.b_h
        params["head.W_o"] = self.W_o
        params["head.b_o"] = self.b_o
        return params

    def zero_grads(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((k, np.zeros_like(v)) for k, v in self.parameters().items())

    def assert_finite(self) -> None:
        for name, value in self.parameters().items():
            if not np.all(np.isfinite(value)):
                raise ShapeMismatchError(f"parameter {name} contains non-finite values")


def _pad_filter(feat: np.ndarray, adj: np.ndarray, n_filt: int) -> tuple[np.ndarray, np.ndarray]:
    m = min(feat.shape[0], n_filt)
    out_feat = np.zeros((n_filt, feat.shape[1]), dtype=np.float64)
    out_feat[:m] = feat[:m]
    out_adj = np.zeros((n_filt, n_filt), dtype=np.float64)
    out_adj[:m, :m] = adj[:m, :m]
    return out_feat, out_adj


def build_model(library: Optional[SchemaLibrary], cfg: RunConfig,
                labels: Optional[list[str]] = None,
                library_fingerprint: str = "") -> Model:
    """Construct the model; layer-0 filters come from schema subgraphs unless
    the random-filters ablation is set, deeper layers carry seeded random
    features over the schema adjacency."""
    labels = labels or list(cfg.label_set)
    rng = np.random.default_rng(cfg.seed)
    d = cfg.dimension if library is None else library.dimension
    n_filters = cfg.n_filters
    if library is not None:
        n_filters = min(n_filters, len(library.graph.nodes))
    if library is not None and not cfg.random_filters:
        schema_filters = extract_filters(library.graph, n_filters,
                                         hop=cfg.filter_hop, size_cap=cfg.size_cap)
        base = [_pad_filter(f.features, f.adjacency, cfg.n_filt)
                for f in schema_filters]
    else:
        base = []
        for _ in range(n_filters):
            feat = rng.normal(0.0, 0.1, size=(cfg.n_filt, d))
            adj = rng.uniform(0.0, 1.0, size=(cfg.n_filt, cfg.n_filt))
            np.fill_diagonal(adj, 0.0)
            base.append((feat, adj))

    q = cfg.n_sub * cfg.n_filt
    layers = []
    feat_dim = d
    for level in range(cfg.layers):
        if level == 0:
            feats = np.stack([f for f, _ in base])
        else:
            feats = rng.normal(0.0, 0.1, size=(n_filters, cfg.n_filt, feat_dim))
        W = np.ones(q, dtype=np.float64) if cfg.diagonal_w else np.eye(q)
        layers.append(KernelLayerParams(
            filter_feats=feats, filter_adjs=np.stack([a for _, a in base]), W=W,
            p=cfg.walk_length, g=min(cfg.top_g, n_filters),
            hop=cfg.subgraph_hop, n_sub=cfg.n_sub, n_filt=cfg.n_filt))
        feat_dim = layers[-1].g

    D = d + sum(layer.g for layer in layers)
    W_h = rng.normal(0.0, 1.0 / np.sqrt(D), size=(cfg.hidden, D))
    b_h = np.zeros(cfg.hidden, dtype=np.float64)
    W_o = rng.normal(0.0, 1.0 / np.sqrt(cfg.hidden), size=(len(labels), cfg.hidden))
    b_o = np.zeros(len(labels), dtype=np.float64)
    return Model(layers=layers, W_h=W_h, b_h=b_h, W_o=W_o, b_o=b_o,
                 dimension=d, labels=labels,
                 relation_weights=relation_weights_from_config(cfg),
                 library_fingerprint=library_fingerprint,
                 config_fingerprint=cfg.fingerprint(), seed=cfg.seed)


# ---------------------------------------------------------------------------
# Forward / backward

@dataclass
class LayerCache:
    """One layer's forward state for one graph of N nodes."""
    subgraphs: SubgraphBatch
    sub_feat: np.ndarray                 # (N, n_sub, f) = gather @ X
    steps: list[np.ndarray]              # S_0 .. S_p, each (N, F, n_sub, n_filt)
    scores: np.ndarray                   # (N, F)
    selected: np.ndarray                 # (N, g) filter indices, ascending


@dataclass
class ForwardCache:
    layer_inputs: list[np.ndarray]       # X_0 .. X_L (layer_inputs[l] feeds layer l)
    layers: list[LayerCache]
    phi: np.ndarray
    pre_hidden: np.ndarray
    hidden: np.ndarray
    logits: np.ndarray
    probabilities: np.ndarray


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / exp.sum()


def layer_forward(adjacency: np.ndarray, features: np.ndarray,
                  layer: KernelLayerParams,
                  subgraphs: Optional[SubgraphBatch] = None
                  ) -> tuple[np.ndarray, LayerCache]:
    """Per-node kernel features: all-filter scores, top-g selection, the
    selected kernel values in filter-index order. The cache feeds backward;
    `subgraphs` lets layers with the same hop and n_sub share one gather."""
    if subgraphs is None:
        subgraphs = khop_subgraphs(adjacency, layer.hop, layer.n_sub)
    sub_feat = subgraphs.gather @ features
    steps = _walk(sub_feat[:, None], subgraphs.adjacency[:, None],
                  layer.filter_feats, layer.filter_adjs, layer.p)
    scores, _ = _kernel_values(steps[0], steps[-1], layer.W)
    selected = _topg(scores, layer.g)
    out = np.take_along_axis(scores, selected, axis=1)
    return out, LayerCache(subgraphs=subgraphs, sub_feat=sub_feat, steps=steps,
                           scores=scores, selected=selected)


def readout(layer_inputs: list[np.ndarray]) -> np.ndarray:
    """Concatenation over layers of summed node features (layer 0 = the raw
    embeddings)."""
    if len(layer_inputs) < 2:
        raise ShapeMismatchError("readout needs layer-0 features plus >=1 layer")
    return np.concatenate([lf.sum(axis=0) for lf in layer_inputs])


def forward(graph: FolGraph, model: Model) -> ForwardCache:
    if not graph.nodes:
        raise ShapeMismatchError("cannot run forward on an empty graph")
    X = np.stack([np.asarray(n.embedding, dtype=np.float64) for n in graph.nodes])
    if X.shape[1] != model.dimension:
        raise DimensionMismatchError(
            f"graph embedding d={X.shape[1]}, model d={model.dimension}")
    adjacency = graph_adjacency(graph, model.relation_weights)
    layer_inputs = [X]
    layer_caches: list[LayerCache] = []
    gathers = {key: khop_subgraphs(adjacency, *key)
               for key in {(layer.hop, layer.n_sub) for layer in model.layers}}
    for layer in model.layers:
        out, layer_cache = layer_forward(adjacency, layer_inputs[-1], layer,
                                         gathers[layer.hop, layer.n_sub])
        layer_caches.append(layer_cache)
        layer_inputs.append(out)

    phi = readout(layer_inputs)
    pre_hidden = model.W_h @ phi + model.b_h
    hidden = np.maximum(pre_hidden, 0.0)
    logits = model.W_o @ hidden + model.b_o
    return ForwardCache(layer_inputs=layer_inputs, layers=layer_caches,
                        phi=phi, pre_hidden=pre_hidden, hidden=hidden,
                        logits=logits, probabilities=softmax(logits))


def cross_entropy(probabilities: np.ndarray, gold_index: int) -> float:
    return float(-np.log(max(probabilities[gold_index], 1e-300)))


def _pair_backward(upstream: np.ndarray, steps: list[np.ndarray],
                   sub_feat: np.ndarray, sub_adj: np.ndarray,
                   filt_feat: np.ndarray, filt_adj: np.ndarray,
                   W: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per (node, filter) pair, stacked on axis 0, the gradients of
    upstream * k w.r.t. W, the filter features and adjacency, and the
    subgraph features."""
    n_pairs, n, m = steps[0].shape
    u = upstream[:, None]
    s0 = steps[0].reshape(n_pairs, n * m)
    _, w_sp = _kernel_values(steps[0], steps[-1], W)
    g_s0 = u * w_sp
    if W.ndim == 1:
        g_w = u * s0 * steps[-1].reshape(n_pairs, n * m)
        g_sp = u * (W * s0)
    else:
        g_w = s0[:, :, None] * steps[-1].reshape(n_pairs, 1, n * m)
        g_w *= u[:, :, None]                       # in place: (P, q, q) is large
        g_sp = u * (W.T @ s0[..., None])[..., 0]
    G = g_sp.reshape(n_pairs, n, m)
    g_adj = np.zeros_like(filt_adj)
    for r in range(len(steps) - 1, 0, -1):
        g_adj += np.swapaxes(G, -1, -2) @ sub_adj @ steps[r - 1]
        G = np.swapaxes(sub_adj, -1, -2) @ G @ filt_adj    # back to S_{r-1}
    G0 = G + g_s0.reshape(n_pairs, n, m)
    return g_w, np.swapaxes(G0, -1, -2) @ sub_feat, g_adj, G0 @ filt_feat


def backward(graph: FolGraph, model: Model, gold_index: int,
             cache: Optional[ForwardCache]) -> "OrderedDict[str, np.ndarray]":
    """Exact reverse-mode gradients of the cross-entropy loss. Top-g
    selection is treated as constant (gradients flow only through the
    selected filters). Pair gradients are summed in (node, selected slot)
    order, the order of a loop over pairs."""
    if cache is None:
        raise StaleCacheError("backward requires the forward cache")
    d_logits = cache.probabilities - np.eye(len(cache.probabilities))[gold_index]
    d_pre = (model.W_o.T @ d_logits) * (cache.pre_hidden > 0)

    # split readout gradient back into per-layer summed-feature segments
    widths = [lf.shape[1] for lf in cache.layer_inputs]
    segments = np.split(model.W_h.T @ d_pre, np.cumsum(widths)[:-1])

    # d_X starts from the readout contribution of the deepest layer and is
    # augmented with kernel contributions while walking layers top-down;
    # the gradient w.r.t. the frozen node embeddings is never formed
    n_nodes = cache.layer_inputs[0].shape[0]
    d_X = np.tile(segments[-1], (n_nodes, 1))
    grad_layers: list[KernelLayerParams] = []
    for li in range(len(model.layers) - 1, -1, -1):
        layer, lc = model.layers[li], cache.layers[li]
        nodes, slots = np.nonzero(d_X)
        filters = lc.selected[nodes, slots]
        g_w, g_feat, g_adj, g_sub = _pair_backward(
            d_X[nodes, slots], [s[nodes, filters] for s in lc.steps],
            lc.sub_feat[nodes], lc.subgraphs.adjacency[nodes],
            layer.filter_feats[filters], layer.filter_adjs[filters], layer.W)
        feats = np.zeros_like(layer.filter_feats)
        adjs = np.zeros_like(layer.filter_adjs)
        np.add.at(feats, filters, g_feat)
        np.add.at(adjs, filters, g_adj)
        grad_layers.insert(0, replace(layer, filter_feats=feats,
                                      filter_adjs=adjs, W=g_w.sum(axis=0)))
        if li:
            # scatter through the gather's transpose: row j of pair i lands
            # on graph node node_indices[nodes[i], j]
            rows = lc.subgraphs.node_indices[nodes]
            d_X = np.tile(segments[li], (n_nodes, 1))
            np.add.at(d_X, rows[rows >= 0], g_sub[rows >= 0])
    return replace(model, layers=grad_layers,
                   W_h=np.outer(d_pre, cache.phi), b_h=d_pre,
                   W_o=np.outer(d_logits, cache.hidden), b_o=d_logits).parameters()


# ---------------------------------------------------------------------------
# Schema augmentation

def augment_graph(graph: FolGraph, library: SchemaLibrary) -> FolGraph:
    """Attach each predicate node to its nearest schema cluster node via an
    InstanceOf edge; schema nodes are shared per cluster. Idempotent."""
    if any(rel is Relation.INSTANCE_OF for _, _, rel in graph.edges):
        return graph
    nodes = [FolNode(predicate=n.predicate, embedding=n.embedding,
                     cluster_id=n.cluster_id, is_schema=n.is_schema)
             for n in graph.nodes]
    edges = list(graph.edges)
    by_id = {n.id: n for n in library.graph.nodes}
    schema_index: dict[int, int] = {}
    for idx, node in enumerate(list(nodes)):
        if node.is_schema or node.embedding is None:
            continue
        if np.asarray(node.embedding).shape[0] != library.dimension:
            raise DimensionMismatchError("node embedding does not match library d")
        cid = assign_to_cluster(node.embedding, library.clustering)
        node.cluster_id = cid
        if cid not in schema_index:
            schema = by_id[cid]
            schema_index[cid] = len(nodes)
            nodes.append(FolNode(
                predicate=Predicate(name=f"Schema{cid}", args=()),
                embedding=np.asarray(schema.summary_embedding, dtype=np.float64),
                cluster_id=cid, is_schema=True))
        edges.append((idx, schema_index[cid], Relation.INSTANCE_OF))
    return FolGraph(nodes=nodes, edges=edges)


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(model: Model, path: str) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "dimension": model.dimension,
        "labels": model.labels,
        "relation_weights": {r.value: w for r, w in model.relation_weights.items()},
        "library_fingerprint": model.library_fingerprint,
        "config_fingerprint": model.config_fingerprint,
        "seed": model.seed,
        "head": {
            "W_h": model.W_h.tolist(), "b_h": model.b_h.tolist(),
            "W_o": model.W_o.tolist(), "b_o": model.b_o.tolist(),
        },
        "layers": [
            {
                "p": layer.p, "g": layer.g, "hop": layer.hop,
                "n_sub": layer.n_sub, "n_filt": layer.n_filt,
                "diagonal_w": layer.W.ndim == 1,
                "W": layer.W.tolist(),
                "filters": [
                    {"feat": feat.tolist(), "adj": adj.tolist()}
                    for feat, adj in zip(layer.filter_feats, layer.filter_adjs)
                ],
            }
            for layer in model.layers
        ],
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str, library_fingerprint: Optional[str] = None,
                    force: bool = False) -> Model:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SchemaFormatError(f"invalid checkpoint JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaFormatError("checkpoint is not a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise SchemaFormatError(
            f"checkpoint version {doc.get('version')} != {CHECKPOINT_VERSION}",
            field="version")
    if (library_fingerprint is not None and not force
            and doc.get("library_fingerprint")
            and doc["library_fingerprint"] != library_fingerprint):
        raise FingerprintMismatchError(
            f"checkpoint was trained against library {doc['library_fingerprint']}, "
            f"got {library_fingerprint} (use --force to override)")
    try:
        layers = []
        for ld in doc["layers"]:
            layers.append(KernelLayerParams(
                filter_feats=np.asarray([f["feat"] for f in ld["filters"]], dtype=np.float64),
                filter_adjs=np.asarray([f["adj"] for f in ld["filters"]], dtype=np.float64),
                W=np.asarray(ld["W"], dtype=np.float64),
                p=ld["p"], g=ld["g"], hop=ld["hop"],
                n_sub=ld["n_sub"], n_filt=ld["n_filt"]))
        head = doc["head"]
        return Model(
            layers=layers,
            W_h=np.asarray(head["W_h"], dtype=np.float64),
            b_h=np.asarray(head["b_h"], dtype=np.float64),
            W_o=np.asarray(head["W_o"], dtype=np.float64),
            b_o=np.asarray(head["b_o"], dtype=np.float64),
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


def clone_model(model: Model) -> Model:
    return copy.deepcopy(model)
