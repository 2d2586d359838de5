"""Property tests of the batched kernel engine against independent
references: one BFS per node for the subgraphs, the materialized Kronecker
product for every (node, filter) score, finite differences for the
diagonal-W gradients. Examples are derandomized so every run checks the
same cases."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stancegraph.fol import FolGraph, FolNode, Predicate, Relation
from stancegraph.kernel import (KernelLayerParams, backward, build_model,
                                cross_entropy, forward, khop_subgraph,
                                khop_subgraphs, layer_forward, topg_select)
from tests.conftest import base_config
from tests.oracle import bfs_subgraph_order, explicit_kernel_oracle

SEEDS = st.integers(0, 2**32 - 1)


def _random_graph(rng, n_nodes, density):
    mask = rng.uniform(size=(n_nodes, n_nodes)) < density
    adjacency = rng.uniform(0.1, 1.0, size=(n_nodes, n_nodes)) * mask
    return adjacency, rng.normal(size=(n_nodes, 3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=SEEDS, n_nodes=st.integers(1, 12), density=st.floats(0.0, 1.0),
       hop=st.integers(0, 3), n_sub=st.integers(1, 10))
def test_subgraphs_match_bfs_reference(seed, n_nodes, density, hop, n_sub):
    rng = np.random.default_rng(seed)
    adjacency, features = _random_graph(rng, n_nodes, density)
    batch = khop_subgraphs(adjacency, hop, n_sub)
    for v in range(n_nodes):
        order = bfs_subgraph_order(adjacency, v, hop, n_sub)
        m = len(order)
        assert batch.node_indices[v].tolist() == order + [-1] * (n_sub - m)
        expected_adj = np.zeros((n_sub, n_sub))
        expected_adj[:m, :m] = adjacency[np.ix_(order, order)]
        expected_feat = np.zeros((n_sub, features.shape[1]))
        expected_feat[:m] = features[order]
        sub = khop_subgraph(adjacency, features, v, hop, n_sub)
        np.testing.assert_array_equal(sub.adjacency, expected_adj)
        np.testing.assert_array_equal(sub.features, expected_feat)
        assert sub.valid_count == m and sub.node_indices == order


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, n_nodes=st.integers(1, 9), density=st.floats(0.0, 1.0),
       hop=st.sampled_from([1, 2]), p=st.sampled_from([1, 2, 3]),
       n_sub=st.integers(1, 5), n_filt=st.integers(1, 4),
       n_filters=st.integers(1, 4), diagonal=st.booleans())
def test_layer_scores_match_kronecker_oracle(seed, n_nodes, density, hop, p,
                                             n_sub, n_filt, n_filters,
                                             diagonal):
    rng = np.random.default_rng(seed)
    adjacency, features = _random_graph(rng, n_nodes, density)
    q = n_sub * n_filt
    layer = KernelLayerParams(
        filter_feats=rng.normal(size=(n_filters, n_filt, features.shape[1])),
        filter_adjs=rng.normal(size=(n_filters, n_filt, n_filt)),
        W=rng.normal(size=q) if diagonal else rng.normal(size=(q, q)),
        p=p, g=int(rng.integers(1, n_filters + 1)), hop=hop, n_sub=n_sub,
        n_filt=n_filt)
    out, cache = layer_forward(adjacency, features, layer)
    assert cache.scores.shape == (n_nodes, n_filters)
    for v in range(n_nodes):
        sub = khop_subgraph(adjacency, features, v, hop, n_sub)
        for k in range(n_filters):
            args = (sub.adjacency, sub.features, layer.filter_adjs[k],
                    layer.filter_feats[k], layer.W)
            oracle = explicit_kernel_oracle(*args, p)
            # error bound scaled by the sum of absolute terms, so that
            # cancellation in the oracle does not demand more than float64 has
            scale = explicit_kernel_oracle(*map(np.abs, args), p)
            assert abs(cache.scores[v, k] - oracle) <= 1e-9 * scale + 1e-300
        selected = topg_select(list(cache.scores[v]), layer.g)
        assert cache.selected[v].tolist() == selected
        np.testing.assert_array_equal(out[v], cache.scores[v, selected])


def _ring_graph(rng, n_nodes, d):
    nodes = [FolNode(predicate=Predicate(f"P{i}", ()),
                     embedding=rng.normal(size=d)) for i in range(n_nodes)]
    edges = [(i, (i + 1) % n_nodes, Relation.IMPLIES) for i in range(n_nodes)]
    edges += [((i + 1) % n_nodes, i, Relation.CONJUNCTION)
              for i in range(0, n_nodes, 2)]
    return FolGraph(nodes=nodes, edges=edges)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), p=st.sampled_from([1, 2, 3]),
       n_nodes=st.integers(3, 6))
def test_diagonal_w_gradients_match_finite_differences(seed, p, n_nodes):
    cfg = base_config(dimension=8, n_filters=3, n_sub=6, n_filt=4, top_g=2,
                      walk_length=p, layers=2, hidden=8, random_filters=True,
                      diagonal_w=True, seed=seed)
    model = build_model(None, cfg)
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        layer.W[:] = rng.uniform(0.5, 1.5, size=layer.W.shape)
    graph = _ring_graph(rng, n_nodes, 8)
    gold = int(rng.integers(3))
    cache = forward(graph, model)
    # keep the finite difference off the top-g and ReLU kinks
    for layer_cache, layer in zip(cache.layers, model.layers):
        ranked = -np.sort(-layer_cache.scores, axis=1)
        assume(np.min(ranked[:, layer.g - 1] - ranked[:, layer.g]) > 1e-2)
    assume(np.min(np.abs(cache.pre_hidden)) > 1e-2)
    grads = backward(graph, model, gold, cache)
    step = 1e-4
    worst, worst_name = 0.0, ""
    for name, tensor in model.parameters().items():
        flat = tensor.ravel()
        idx = np.arange(flat.size)
        if flat.size > 40:
            idx = np.random.default_rng(13).choice(flat.size, 40, replace=False)
        for i in idx:
            original = flat[i]
            flat[i] = original + step
            up = cross_entropy(forward(graph, model).probabilities, gold)
            flat[i] = original - step
            down = cross_entropy(forward(graph, model).probabilities, gold)
            flat[i] = original
            fd = (up - down) / (2 * step)
            an = grads[name].ravel()[i]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-3)
            if rel > worst:
                worst, worst_name = rel, name
    assert worst <= 1e-3, f"worst rel err {worst:.2e} in {worst_name}"
