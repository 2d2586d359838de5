"""Random-walk kernel engine, model forward/backward, augmentation."""

import numpy as np
import pytest

from stancegraph.embed import test_embed as embed_text
from stancegraph.errors import (DimensionMismatchError, EmptySetError,
                                FingerprintMismatchError, InvalidGError,
                                ShapeMismatchError)
from stancegraph.fol import FolGraph, FolNode, Predicate, Relation
from stancegraph.kernel import (PaddedSubgraph, augment_graph, backward,
                                build_model, cross_entropy, forward,
                                graph_adjacency, khop_subgraph, layer_forward,
                                load_checkpoint, readout, rw_kernel,
                                save_checkpoint, softmax, topg_select)
from tests.conftest import base_config
from tests.oracle import explicit_kernel_oracle


def _chain_graph(n, d=8):
    nodes = [FolNode(predicate=Predicate(f"P{i}", ()),
                     embedding=embed_text(f"P{i}", d)) for i in range(n)]
    edges = [(i, i + 1, Relation.IMPLIES) for i in range(n - 1)]
    return FolGraph(nodes=nodes, edges=edges)


def _sub(features, adjacency):
    features = np.asarray(features, dtype=np.float64)
    adjacency = np.asarray(adjacency, dtype=np.float64)
    return PaddedSubgraph(adjacency=adjacency, features=features,
                          valid_count=features.shape[0],
                          node_indices=list(range(features.shape[0])))


class TestKhopSubgraph:
    def test_isolated_node(self):
        adj = np.zeros((1, 1))
        feats = np.ones((1, 3))
        sub = khop_subgraph(adj, feats, 0, hop=1, n_sub=4)
        assert sub.valid_count == 1
        assert sub.features.shape == (4, 3)
        np.testing.assert_array_equal(sub.adjacency, np.zeros((4, 4)))

    def test_path_centered(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 2] = 1.0
        feats = np.eye(3)
        sub = khop_subgraph(adj, feats, 1, hop=1, n_sub=4)
        assert sub.valid_count == 3
        assert sub.node_indices[0] == 1
        assert np.count_nonzero(sub.adjacency) == 2

    def test_star_truncation_smallest_index(self):
        n = 10
        adj = np.zeros((n, n))
        for leaf in range(1, n):
            adj[0, leaf] = 1.0
        feats = np.eye(n)
        sub = khop_subgraph(adj, feats, 0, hop=1, n_sub=6)
        assert sub.node_indices == [0, 1, 2, 3, 4, 5]

    def test_hop_zero(self):
        adj = np.ones((3, 3)) - np.eye(3)
        sub = khop_subgraph(adj, np.eye(3), 1, hop=0, n_sub=2)
        assert sub.valid_count == 1 and sub.node_indices == [1]


class TestRwKernel:
    def test_single_edge_unit_value(self):
        edge = np.array([[0.0, 1.0], [1.0, 0.0]])
        ones = np.ones((2, 1))
        k = rw_kernel(_sub(ones, edge), ones, edge, np.eye(4), p=1)
        assert k == pytest.approx(4.0)

    def test_zero_adjacency(self):
        zeros = np.zeros((3, 3))
        feats = np.random.default_rng(0).normal(size=(3, 2))
        for p in (1, 2, 3):
            k = rw_kernel(_sub(feats, zeros), feats, zeros, np.eye(9), p)
            assert k == 0.0

    def test_two_triangles_matches_oracle(self):
        tri = np.ones((3, 3)) - np.eye(3)
        ones = np.ones((3, 1))
        val = rw_kernel(_sub(ones, tri), ones, tri, np.eye(9), p=2)
        oracle = explicit_kernel_oracle(tri, ones, tri, ones, np.eye(9), p=2)
        assert val == pytest.approx(oracle, rel=1e-9)

    def test_random_oracle_equivalence(self):
        rng = np.random.default_rng(11)
        for p in (1, 2, 3):
            n, m, f = 4, 3, 2
            As = rng.normal(size=(n, n))
            Af = rng.normal(size=(m, m))
            Xs = rng.normal(size=(n, f))
            Xf = rng.normal(size=(m, f))
            W = rng.normal(size=(n * m, n * m))
            val = rw_kernel(_sub(Xs, As), Xf, Af, W, p)
            oracle = explicit_kernel_oracle(As, Xs, Af, Xf, W, p)
            assert val == pytest.approx(oracle, rel=1e-9)

    def test_symmetry_with_identity_w(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(size=(3, 3))
        A = (A + A.T) / 2
        X = rng.normal(size=(3, 2))
        B = rng.uniform(size=(3, 3))
        B = (B + B.T) / 2
        Y = rng.normal(size=(3, 2))
        assert rw_kernel(_sub(X, A), Y, B, np.eye(9), 2) == \
            pytest.approx(rw_kernel(_sub(Y, B), X, A, np.eye(9), 2))

    def test_padding_invariance(self):
        edge = np.array([[0.0, 1.0], [1.0, 0.0]])
        ones = np.ones((2, 1))
        base = rw_kernel(_sub(ones, edge), ones, edge, np.eye(4), 2)
        padded_feat = np.vstack([ones, np.zeros((2, 1))])
        padded_adj = np.zeros((4, 4))
        padded_adj[:2, :2] = edge
        padded = PaddedSubgraph(adjacency=padded_adj, features=padded_feat,
                                valid_count=2, node_indices=[0, 1])
        assert rw_kernel(padded, ones, edge, np.eye(8), 2) == pytest.approx(base)

    def test_diagonal_w(self):
        edge = np.array([[0.0, 1.0], [1.0, 0.0]])
        ones = np.ones((2, 1))
        dense = rw_kernel(_sub(ones, edge), ones, edge, np.eye(4), 1)
        diag = rw_kernel(_sub(ones, edge), ones, edge, np.ones(4), 1)
        assert dense == pytest.approx(diag)

    def test_shape_mismatch(self):
        edge = np.array([[0.0, 1.0], [1.0, 0.0]])
        ones = np.ones((2, 1))
        with pytest.raises(ShapeMismatchError):
            rw_kernel(_sub(ones, edge), ones, edge, np.eye(5), 1)


class TestTopgSelect:
    def test_basic(self):
        assert topg_select([0.2, 0.9, 0.5], 2) == [1, 2]

    def test_tie_to_smaller_index(self):
        assert topg_select([1.0, 1.0, 1.0], 2) == [0, 1]

    def test_g_equals_all(self):
        assert topg_select([3.0, 1.0, 2.0], 3) == [0, 1, 2]

    def test_invalid_g(self):
        with pytest.raises(InvalidGError):
            topg_select([1.0], 2)
        with pytest.raises(InvalidGError):
            topg_select([1.0], 0)


class TestLayerForward:
    def _model(self, **overrides):
        options = dict(dimension=8, n_filters=3, n_sub=4, n_filt=3,
                       top_g=2, layers=1, hidden=8, random_filters=True)
        options.update(overrides)
        cfg = base_config(**options)
        return build_model(None, cfg), cfg

    def test_single_filter_column_equals_kernel(self):
        model, _ = self._model(n_filters=1, top_g=1)
        graph = _chain_graph(3)
        adjacency = graph_adjacency(graph, model.relation_weights)
        X = np.stack([n.embedding for n in graph.nodes])
        layer = model.layers[0]
        out, _ = layer_forward(adjacency, X, layer)
        for v in range(3):
            sub = khop_subgraph(adjacency, X, v, layer.hop, layer.n_sub)
            expected = rw_kernel(sub, layer.filter_feats[0],
                                 layer.filter_adjs[0], layer.W, layer.p)
            assert out[v, 0] == pytest.approx(expected)

    def test_duplicate_filters_equal_columns(self):
        model, _ = self._model(n_filters=2, top_g=2)
        layer = model.layers[0]
        layer.filter_feats[1] = layer.filter_feats[0].copy()
        layer.filter_adjs[1] = layer.filter_adjs[0].copy()
        graph = _chain_graph(3)
        adjacency = graph_adjacency(graph, model.relation_weights)
        X = np.stack([n.embedding for n in graph.nodes])
        out, _ = layer_forward(adjacency, X, layer)
        np.testing.assert_allclose(out[:, 0], out[:, 1])

    def test_node_permutation_permutes_rows(self):
        model, _ = self._model()
        layer = model.layers[0]
        graph = _chain_graph(4)
        adjacency = graph_adjacency(graph, model.relation_weights)
        X = np.stack([n.embedding for n in graph.nodes])
        out, _ = layer_forward(adjacency, X, layer)
        perm = np.array([2, 0, 3, 1])
        adj_p = adjacency[np.ix_(perm, perm)]
        out_p, _ = layer_forward(adj_p, X[perm], layer)
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


class TestReadout:
    def test_single_node(self):
        emb = np.array([[1.0, 2.0]])
        kernels = np.array([[3.0, 4.0]])
        np.testing.assert_array_equal(readout([emb, kernels]),
                                      np.array([1.0, 2.0, 3.0, 4.0]))

    def test_sum_duplicates(self):
        emb = np.array([[1.0, 2.0], [1.0, 2.0]])
        kernels = np.zeros((2, 1))
        np.testing.assert_array_equal(readout([emb, kernels])[:2],
                                      np.array([2.0, 4.0]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(5, 3))
        kernels = rng.normal(size=(5, 2))
        perm = rng.permutation(5)
        np.testing.assert_allclose(readout([emb, kernels]),
                                   readout([emb[perm], kernels[perm]]))

    def test_requires_at_least_one_layer(self):
        with pytest.raises(ShapeMismatchError):
            readout([np.zeros((2, 2))])


class TestSoftmaxHead:
    def test_uniform_when_zero(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.5])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 17.0),
                                   atol=1e-9)

    def test_argmax_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            logits = rng.normal(size=4)
            assert int(np.argmax(softmax(logits))) == int(np.argmax(logits))

    def test_cross_entropy_uniform(self):
        probs = np.full(3, 1 / 3)
        assert cross_entropy(probs, 0) == pytest.approx(np.log(3))


class TestForwardBackward:
    def _setup(self):
        cfg = base_config(dimension=8, n_filters=3, n_sub=4, n_filt=3,
                          top_g=2, layers=2, hidden=8, random_filters=True)
        model = build_model(None, cfg)
        graph = _chain_graph(4)
        return model, graph

    def test_forward_shapes(self):
        model, graph = self._setup()
        cache = forward(graph, model)
        assert cache.probabilities.shape == (3,)
        assert cache.probabilities.sum() == pytest.approx(1.0)
        assert np.all(cache.probabilities >= 0)

    def test_b_o_gradient_closed_form(self):
        model, graph = self._setup()
        cache = forward(graph, model)
        grads = backward(graph, model, gold_index=1, cache=cache)
        expected = cache.probabilities.copy()
        expected[1] -= 1.0
        np.testing.assert_allclose(grads["head.b_o"], expected, atol=1e-12)

    def test_one_hot_probabilities_give_zero_gradients(self):
        model, graph = self._setup()
        cache = forward(graph, model)
        cache.probabilities = np.array([0.0, 1.0, 0.0])
        grads = backward(graph, model, gold_index=1, cache=cache)
        for name, g in grads.items():
            np.testing.assert_allclose(g, 0.0, atol=1e-12, err_msg=name)

    def test_empty_graph_rejected(self):
        model, _ = self._setup()
        with pytest.raises(ShapeMismatchError):
            forward(FolGraph(nodes=[], edges=[]), model)

    def test_dimension_mismatch(self):
        model, _ = self._setup()
        graph = _chain_graph(2, d=5)
        with pytest.raises(DimensionMismatchError):
            forward(graph, model)


class TestAugmentGraph:
    def test_shared_schema_node(self, library):
        graph = FolGraph(nodes=[
            FolNode(predicate=Predicate("A", ()),
                    embedding=library.graph.nodes[0].centroid.copy()),
            FolNode(predicate=Predicate("B", ()),
                    embedding=library.graph.nodes[0].centroid.copy()),
        ], edges=[])
        out = augment_graph(graph, library)
        assert len(out.nodes) == 3
        instance_edges = [e for e in out.edges if e[2] is Relation.INSTANCE_OF]
        assert len(instance_edges) == 2

    def test_distinct_clusters(self, library):
        graph = FolGraph(nodes=[
            FolNode(predicate=Predicate("A", ()),
                    embedding=library.clustering.centroids[0].copy()),
            FolNode(predicate=Predicate("B", ()),
                    embedding=library.clustering.centroids[1].copy()),
        ], edges=[])
        out = augment_graph(graph, library)
        assert len(out.nodes) == 4
        assert len(out.edges) == 2

    def test_idempotent(self, library):
        graph = FolGraph(nodes=[
            FolNode(predicate=Predicate("A", ()),
                    embedding=library.clustering.centroids[0].copy())], edges=[])
        once = augment_graph(graph, library)
        twice = augment_graph(once, library)
        assert twice is once

    def test_original_graph_untouched(self, library):
        graph = FolGraph(nodes=[
            FolNode(predicate=Predicate("A", ()),
                    embedding=library.clustering.centroids[0].copy())], edges=[])
        augment_graph(graph, library)
        assert len(graph.nodes) == 1 and graph.edges == []


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        cfg = base_config(dimension=8, n_filters=2, n_sub=4, n_filt=3,
                          top_g=2, layers=2, hidden=8, random_filters=True)
        model = build_model(None, cfg, library_fingerprint="abc123")
        path = str(tmp_path / "model.json")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, library_fingerprint="abc123")
        for name, value in model.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[name], value,
                                          err_msg=name)
        assert loaded.labels == model.labels

    def test_fingerprint_mismatch(self, tmp_path):
        cfg = base_config(dimension=8, n_filters=2, n_sub=4, n_filt=3,
                          top_g=2, layers=1, hidden=8, random_filters=True)
        model = build_model(None, cfg, library_fingerprint="abc123")
        path = str(tmp_path / "model.json")
        save_checkpoint(model, path)
        with pytest.raises(FingerprintMismatchError):
            load_checkpoint(path, library_fingerprint="zzz")
        forced = load_checkpoint(path, library_fingerprint="zzz", force=True)
        assert forced.labels == model.labels
