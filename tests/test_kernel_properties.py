"""Property tests of the batched kernel engine against independent
references: one BFS per node for the subgraphs, one dict and set BFS per
center for the schema filters, the materialized Kronecker product for
every (node, filter) score, finite differences for the gradients, and one
graph at a time for a minibatch. Examples are derandomized so every run
checks the same cases."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stancegraph.fol import FolGraph, FolNode, Predicate, Relation
from stancegraph.induce import SchemaEdge, SchemaGraph, SchemaLibrary, SchemaNode
from stancegraph.kernel import (KernelLayerParams, backward, build_model,
                                cross_entropy, forward, khop_subgraph,
                                khop_subgraphs, layer_forward, schema_filters)
from stancegraph.train import LabeledExample, _batch_loss_and_grads
from tests.conftest import base_config
from tests.oracle import (bfs_subgraph_order, explicit_kernel_oracle,
                          finite_difference_errors, gather_forward,
                          loop_batch_loss_and_grads, loop_schema_filters,
                          topg_select)

SEEDS = st.integers(0, 2**32 - 1)
# bound on a rounding difference, relative to the sum of absolute terms
ROUNDING = 1e-10


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


def _random_schema_graph(rng, k, density, d):
    """Member counts of 0-2 (so centers tie), parallel edges of several
    relations in shuffled order, weights from a few round values or
    uniform (so the ranking ties), and isolated nodes when sparse."""
    nodes = [SchemaNode(id=i, summary=f"s{i}", centroid=np.zeros(d),
                        summary_embedding=rng.normal(size=d),
                        members=[f"m{i}.{j}" for j in range(int(rng.integers(3)))])
             for i in range(k)]
    edges = [SchemaEdge(i, j, relation,
                        float(rng.choice([0.25, 0.5, 1.0]) if rng.uniform() < 0.5
                              else rng.uniform(0.01, 1.0)))
             for i in range(k) for j in range(k) for relation in Relation
             if rng.uniform() < density / 2]
    rng.shuffle(edges)
    return SchemaGraph(nodes=nodes, edges=edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=SEEDS, k=st.integers(1, 9), density=st.floats(0.0, 1.0),
       hop=st.integers(0, 2), n_filt=st.integers(1, 7), data=st.data())
def test_schema_filters_match_loop_reference(seed, k, density, hop, n_filt, data):
    """The kernel's cut of the schema filters, and the layer-0 filters
    build_model makes of them, equal one dict and set BFS per center."""
    n_filters = data.draw(st.integers(1, k))
    rng = np.random.default_rng(seed)
    graph = _random_schema_graph(rng, k, density, 4)
    indices, feats, adjs = loop_schema_filters(graph, n_filters, hop, n_filt)
    filters = schema_filters(graph, n_filters, hop, n_filt)
    np.testing.assert_array_equal(filters.node_indices, indices)
    np.testing.assert_array_equal(filters.adjacency, adjs)
    # build_model reads only the library's graph and dimension
    library = SchemaLibrary(dimension=4, seed=0, graph=graph, clustering=None)
    cfg = base_config(dimension=4, n_filters=n_filters, subgraph_hop=hop,
                      n_filt=n_filt, n_sub=2, layers=1)
    layer = build_model(library, cfg).layers[0]
    np.testing.assert_array_equal(layer.filter_feats, feats)
    np.testing.assert_array_equal(layer.filter_adjs, adjs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, n_nodes=st.integers(1, 9), density=st.floats(0.0, 1.0),
       hop=st.sampled_from([1, 2]), p=st.sampled_from([1, 2, 3]),
       n_sub=st.integers(1, 5), n_filt=st.integers(1, 4),
       n_filters=st.integers(1, 4))
def test_layer_scores_match_kronecker_oracle(seed, n_nodes, density, hop, p,
                                             n_sub, n_filt, n_filters):
    rng = np.random.default_rng(seed)
    adjacency, features = _random_graph(rng, n_nodes, density)
    q = n_sub * n_filt
    layer = KernelLayerParams(
        filter_feats=rng.normal(size=(n_filters, n_filt, features.shape[1])),
        filter_adjs=rng.normal(size=(n_filters, n_filt, n_filt)),
        W=rng.normal(size=(q, q)))
    g = int(rng.integers(1, n_filters + 1))
    out, cache = layer_forward(features, khop_subgraphs(adjacency, hop, n_sub),
                               layer, p, g)
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
        selected = topg_select(list(cache.scores[v]), g)
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
def test_dense_w_gradients_match_finite_differences(seed, p, n_nodes):
    cfg = base_config(dimension=8, n_filters=3, n_sub=6, n_filt=4, top_g=2,
                      walk_length=p, layers=2, hidden=8, random_filters=True,
                      seed=seed)
    model = build_model(None, cfg)
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        layer.W += rng.uniform(-0.1, 0.1, size=layer.W.shape)
    graph = _ring_graph(rng, n_nodes, 8)
    gold = int(rng.integers(3))
    cache = forward([graph], model)
    # keep the finite difference off the top-g and ReLU kinks; a layer's
    # top-g gap is measured against its largest score, because deeper
    # layers score on a scale of 1e-3
    for layer_cache in cache.layers:
        ranked = -np.sort(-layer_cache.scores, axis=1)
        gap = np.min(ranked[:, model.g - 1] - ranked[:, model.g])
        assume(gap > 1e-2 * np.max(np.abs(layer_cache.scores)))
    assume(np.min(np.abs(cache.pre_hidden)) > 1e-2)
    grads = backward(model, [gold], cache)
    worst, worst_name, _ = finite_difference_errors(
        model, lambda: cross_entropy(forward([graph], model).probabilities[0],
                                     gold), grads)
    assert worst <= 1e-3, f"worst rel err {worst:.2e} in {worst_name}"


def _random_fol_graph(rng, n_nodes, density, d):
    nodes = [FolNode(predicate=Predicate(f"P{i}", ()),
                     embedding=rng.normal(size=d)) for i in range(n_nodes)]
    relations = list(Relation)
    edges = [(i, j, relations[int(rng.integers(len(relations)))])
             for i in range(n_nodes) for j in range(n_nodes)
             if rng.uniform() < density]
    return FolGraph(nodes=nodes, edges=edges)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, sizes=st.lists(st.integers(1, 7), min_size=1, max_size=9),
       density=st.floats(0.0, 1.0), hop=st.sampled_from([1, 2]),
       p=st.sampled_from([1, 2, 3]), n_sub=st.integers(1, 5),
       layers=st.integers(1, 2), saturated=st.booleans())
def test_minibatch_matches_one_graph_at_a_time(seed, sizes, density, hop, p,
                                                n_sub, layers, saturated):
    """One forward and one backward call over a minibatch match one graph
    at a time through the gather reference: every layer's selections bit
    for bit, and the probabilities, the loss and every gradient tensor to
    within rounding. n_sub up to 5 against graphs of up to 7 nodes gives
    both padded and truncated subgraphs; a saturated head gives one-hot
    probabilities, so a graph predicted right has no gradient pairs while
    others in its batch have some."""
    cfg = base_config(dimension=5, n_filters=4, n_sub=n_sub, n_filt=3, top_g=2,
                      walk_length=p, subgraph_hop=hop, layers=layers,
                      hidden=8, random_filters=True, seed=seed % 2**16)
    model = build_model(None, cfg)
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        layer.W[:] = rng.uniform(-1.5, 1.5, size=layer.W.shape)
    if saturated:
        model.W_o *= 1e4
    graphs = [_random_fol_graph(rng, n, density, 5) for n in sizes]
    batch = [LabeledExample(text="", target="", graph=graph,
                            label=model.labels[int(rng.integers(3))])
             for graph in graphs]

    cache = forward(graphs, model)
    for b, graph in enumerate(graphs):
        alone = gather_forward(graph, model)
        # probabilities lie in [0, 1] and sum to 1
        np.testing.assert_allclose(cache.probabilities[b], alone.probabilities,
                                   rtol=0, atol=ROUNDING)
        rows = slice(cache.offsets[b], cache.offsets[b + 1])
        for layer_cache, alone_cache in zip(cache.layers, alone.layers):
            np.testing.assert_array_equal(layer_cache.selected[rows],
                                          alone_cache.selected)
    loss, grads = _batch_loss_and_grads(model, batch)
    ref_loss, ref_grads = loop_batch_loss_and_grads(model, batch)
    _, scales = loop_batch_loss_and_grads(model, batch, magnitude=True)
    # every loss term is nonnegative, so the loss is its own absolute sum;
    # the 1 covers a probability that rounds to 1 on one side only
    assert abs(loss - ref_loss) <= ROUNDING * (ref_loss + 1.0)
    assert list(grads) == list(ref_grads)
    for name, grad in grads.items():
        assert np.all(np.abs(grad - ref_grads[name])
                      <= ROUNDING * scales[name] + 1e-300), name
