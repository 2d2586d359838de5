"""Random-walk kernel engine, model forward/backward, augmentation."""

import itertools
import json
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from stancegraph.embed import test_embed as embed_text
from stancegraph.errors import (ConfigError, DimensionMismatchError, EmptySetError,
                                FingerprintMismatchError, InvalidFilterCountError,
                                InvalidGError, SchemaFormatError, ShapeMismatchError)
from stancegraph.fol import FolGraph, FolNode, Predicate, Relation
from stancegraph.induce import MAGIC, SchemaEdge, SchemaGraph, SchemaNode
from stancegraph.kernel import (CHECKPOINT_VERSION, COUNTS, LAYER_TENSORS, SIZES,
                                KernelLayerParams,
                                PaddedSubgraph, augment_graph, backward,
                                build_model, cross_entropy, forward,
                                graph_adjacency, khop_subgraph, khop_subgraphs,
                                layer_forward, load_checkpoint, readout,
                                save_checkpoint, schema_filters, softmax)
from tests.conftest import (DATA_DIR, artifact_parts, base_config, retensor,
                            rewrite_header)
from tests.oracle import explicit_kernel_oracle, rw_kernel, topg_select


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


class TestSchemaFilters:
    def _graph(self, member_counts, edges=()):
        nodes = [SchemaNode(id=i, summary=f"s{i}", centroid=np.zeros(8),
                            summary_embedding=embed_text(f"s{i}", 8),
                            members=[f"m{j}" for j in range(count)])
                 for i, count in enumerate(member_counts)]
        return SchemaGraph(nodes=nodes, edges=list(edges))

    def test_centers_top_counts_tie_by_id(self):
        filters = schema_filters(self._graph([5, 9, 9, 1]), 2, hop=1, n_filt=6)
        assert filters.node_indices[:, 0].tolist() == [1, 2]

    def test_isolated_center(self):
        filters = schema_filters(self._graph([3]), 1, hop=1, n_filt=6)
        assert filters.node_indices.tolist() == [[0, -1, -1, -1, -1, -1]]
        np.testing.assert_array_equal(filters.adjacency, np.zeros((1, 6, 6)))

    def test_star_truncated_by_weight(self):
        edges = [SchemaEdge(0, i, Relation.IMPLIES, i / 10.0)
                 for i in range(1, 11)]
        filters = schema_filters(self._graph([10] + [1] * 10, edges), 1,
                                 hop=1, n_filt=6)
        assert filters.node_indices.tolist() == [[0, 10, 9, 8, 7, 6]]
        np.testing.assert_array_equal(filters.adjacency[0, 0],
                                      [0.0, 1.0, 0.9, 0.8, 0.7, 0.6])

    def test_bad_filter_count(self):
        graph = self._graph([1, 1])
        with pytest.raises(InvalidFilterCountError):
            schema_filters(graph, 3, hop=1, n_filt=6)
        with pytest.raises(InvalidFilterCountError):
            schema_filters(graph, 0, hop=1, n_filt=6)


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


def _layer_forward(X, adjacency, layer, model):
    """`layer` of `model` over node features X of one graph."""
    subgraphs = khop_subgraphs(adjacency, model.hop, model.n_sub)
    return layer_forward(X, subgraphs, layer, model.p, model.g)


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
        out, _ = _layer_forward(X, adjacency, layer, model)
        for v in range(3):
            sub = khop_subgraph(adjacency, X, v, model.hop, model.n_sub)
            expected = rw_kernel(sub, layer.filter_feats[0],
                                 layer.filter_adjs[0], layer.W, model.p)
            assert out[v, 0] == pytest.approx(expected)

    def test_duplicate_filters_equal_columns(self):
        model, _ = self._model(n_filters=2, top_g=2)
        layer = model.layers[0]
        layer.filter_feats[1] = layer.filter_feats[0].copy()
        layer.filter_adjs[1] = layer.filter_adjs[0].copy()
        graph = _chain_graph(3)
        adjacency = graph_adjacency(graph, model.relation_weights)
        X = np.stack([n.embedding for n in graph.nodes])
        out, _ = _layer_forward(X, adjacency, layer, model)
        np.testing.assert_allclose(out[:, 0], out[:, 1])

    def test_node_permutation_permutes_rows(self):
        model, _ = self._model()
        layer = model.layers[0]
        graph = _chain_graph(4)
        adjacency = graph_adjacency(graph, model.relation_weights)
        X = np.stack([n.embedding for n in graph.nodes])
        out, _ = _layer_forward(X, adjacency, layer, model)
        perm = np.array([2, 0, 3, 1])
        adj_p = adjacency[np.ix_(perm, perm)]
        out_p, _ = _layer_forward(X[perm], adj_p, layer, model)
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


class TestReadout:
    def test_single_node(self):
        emb = np.array([[1.0, 2.0]])
        kernels = np.array([[3.0, 4.0]])
        np.testing.assert_array_equal(readout([emb, kernels], [0, 1]),
                                      np.array([[1.0, 2.0, 3.0, 4.0]]))

    def test_sum_duplicates(self):
        emb = np.array([[1.0, 2.0], [1.0, 2.0]])
        kernels = np.zeros((2, 1))
        np.testing.assert_array_equal(readout([emb, kernels], [0, 2])[:, :2],
                                      np.array([[2.0, 4.0]]))

    def test_one_row_per_graph(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(6, 3))
        kernels = rng.normal(size=(6, 2))
        offsets = [0, 1, 4, 6]
        expected = [np.concatenate([emb[a:b].sum(axis=0), kernels[a:b].sum(axis=0)])
                    for a, b in zip(offsets[:-1], offsets[1:])]
        np.testing.assert_allclose(readout([emb, kernels], offsets), expected,
                                   rtol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(5, 3))
        kernels = rng.normal(size=(5, 2))
        perm = rng.permutation(5)
        np.testing.assert_allclose(readout([emb, kernels], [0, 5]),
                                   readout([emb[perm], kernels[perm]], [0, 5]))

    def test_requires_at_least_one_layer(self):
        with pytest.raises(ShapeMismatchError):
            readout([np.zeros((2, 2))], [0, 2])


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
        cache = forward([graph], model)
        assert cache.probabilities.shape == (1, 3)
        assert cache.probabilities.sum() == pytest.approx(1.0)
        assert np.all(cache.probabilities >= 0)

    def test_b_o_gradient_closed_form(self):
        model, graph = self._setup()
        cache = forward([graph], model)
        grads = backward(model, [1], cache)
        expected = cache.probabilities[0].copy()
        expected[1] -= 1.0
        np.testing.assert_allclose(grads["head.b_o"], expected, atol=1e-12)

    def test_one_hot_probabilities_give_zero_gradients(self):
        model, graph = self._setup()
        cache = forward([graph], model)
        cache.probabilities = np.array([[0.0, 1.0, 0.0]])
        grads = backward(model, [1], cache)
        for name, g in grads.items():
            np.testing.assert_allclose(g, 0.0, atol=1e-12, err_msg=name)

    def test_empty_graph_rejected(self):
        model, _ = self._setup()
        with pytest.raises(ShapeMismatchError):
            forward([FolGraph(nodes=[], edges=[])], model)

    def test_dimension_mismatch(self):
        model, _ = self._setup()
        graph = _chain_graph(2, d=5)
        with pytest.raises(DimensionMismatchError):
            forward([graph], model)


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


class TestModelStacks:
    def test_stacks_back_every_parameter(self):
        cfg = base_config(dimension=8, n_filters=2, n_sub=4, n_filt=3,
                          top_g=2, layers=2, hidden=8, random_filters=True)
        model = build_model(None, cfg)
        params = model.parameters()
        assert list(params) == [
            "layer0.filter_feats", "layer0.filter_adjs", "layer0.W",
            "layer1.filter_feats", "layer1.filter_adjs", "layer1.W",
            "head.W_h", "head.b_h", "head.W_o", "head.b_o"]
        for li, layer in enumerate(model.layers):
            assert params[f"layer{li}.filter_feats"] is layer.filter_feats
            assert params[f"layer{li}.filter_adjs"] is layer.filter_adjs
            assert params[f"layer{li}.W"] is layer.W
        assert params["head.W_h"] is model.W_h and params["head.b_o"] is model.b_o

    @pytest.mark.parametrize("random_filters", [False, True])
    def test_layers_share_no_filter_buffer(self, library, random_filters):
        """AdamW updates each layer's filters in place, so no two layers
        may hold views of one buffer."""
        model = build_model(library, base_config(n_filters=3, layers=3,
                                                 random_filters=random_filters))
        for a, b in itertools.combinations(model.layers, 2):
            for name in ("filter_feats", "filter_adjs"):
                assert not np.shares_memory(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("where, name", [
        (lambda m: m.layers[1].filter_adjs[1], "layer1.filter_adjs"),
        (lambda m: m.layers[0].W, "layer0.W"),
        (lambda m: m.b_o, "head.b_o"),
    ])
    def test_assert_finite_names_the_stack(self, where, name):
        cfg = base_config(dimension=8, n_filters=2, n_sub=4, n_filt=3,
                          top_g=2, layers=2, hidden=8, random_filters=True)
        model = build_model(None, cfg)
        model.assert_finite()
        where(model).flat[0] = np.nan
        with pytest.raises(ShapeMismatchError,
                           match=f"parameter {name} contains non-finite values"):
            model.assert_finite()


def _edited(edit):
    """The damage that applies `edit` to the checkpoint's header in place."""
    def apply(doc):
        edit(doc)
        return doc
    return lambda path: rewrite_header(path, apply)


def _entry(name, **changes):
    """The damage that changes fields of tensor `name`'s header entry."""
    return _edited(lambda doc: doc["tensors"][name].update(changes))


def _retensored(name, edit):
    """The damage that replaces tensor `name` by `edit` applied to its array."""
    return lambda path: retensor(path, name, edit)


def _raw(edit):
    """The damage that rewrites the file's bytes by `edit`."""
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def _header_size(data):
    return struct.unpack_from("<Q", data, 8)[0]


def _without_tensors(prefix):
    return _edited(lambda doc: doc.update(tensors={
        name: entry for name, entry in doc["tensors"].items()
        if not name.startswith(prefix)}))


def _g_above_filters(path):
    """Layer 0 keeping g=3 of its 2 filters, with the head widened to match,
    so that only g disagrees with the rest of the file."""
    _edited(lambda doc: doc.update(g=3))(path)
    _retensored("head.W_h", lambda a: np.hstack([a, a[:, -1:]]))(path)


def _small_checkpoint(tmp_path, layers=1):
    cfg = base_config(dimension=8, n_filters=2, n_sub=4, n_filt=3,
                      top_g=2, layers=layers, hidden=8, random_filters=True)
    path = tmp_path / "model.json"
    save_checkpoint(build_model(None, cfg), str(path))
    return path


def _float_lists(value):
    """The lists anywhere in a JSON value that hold a float."""
    if isinstance(value, dict):
        return [found for item in value.values() for found in _float_lists(item)]
    if isinstance(value, list):
        own = [value] if any(isinstance(item, float) for item in value) else []
        return own + [found for item in value for found in _float_lists(item)]
    return []


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        cfg = base_config(dimension=8, n_filters=2, n_sub=4, n_filt=3,
                          top_g=2, layers=2, hidden=8, random_filters=True)
        model = build_model(None, cfg, library_fingerprint="abc123")
        path = str(tmp_path / "model.json")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, library_fingerprint="abc123")
        assert list(loaded.parameters()) == list(model.parameters())
        for name, value in model.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[name], value,
                                          err_msg=name)
            assert loaded.parameters()[name].dtype == np.float64
        for name, value in loaded.parameters().items():
            assert value.flags.writeable, name
        assert loaded.labels == model.labels
        assert loaded.relation_weights == model.relation_weights
        assert [getattr(loaded, name) for name in (*SIZES, "dimension", "seed")] == \
            [getattr(model, name) for name in (*SIZES, "dimension", "seed")]

    def test_tensors_are_encoded_not_float_lists(self, tmp_path):
        """Magic, header length, a sort_keys JSON header padded to 8 bytes,
        then the parameters' little-endian bytes, back to back in order."""
        path = _small_checkpoint(tmp_path, layers=2)
        data = path.read_bytes()
        magic, doc, payload = artifact_parts(path)
        assert magic == MAGIC["checkpoint"] != MAGIC["library"]
        size = _header_size(data)
        assert size % 8 == 0 and len(data) == 16 + size + len(payload)
        assert data[16:16 + size].rstrip(b" ") == json.dumps(
            doc, ensure_ascii=False, sort_keys=True).encode("utf-8")
        assert doc["version"] == CHECKPOINT_VERSION == 4
        assert _float_lists(doc) == []
        model = load_checkpoint(str(path))
        offset = 0
        for name, array in model.parameters().items():
            assert doc["tensors"][name] == {"dtype": "<f8", "shape": list(array.shape),
                                            "offset": offset}
            assert payload[offset:offset + array.nbytes] == array.astype("<f8").tobytes()
            offset += array.nbytes
        assert offset == len(payload) and len(doc["tensors"]) == 10

    def test_layers_hold_only_their_tensors(self, tmp_path):
        assert tuple(f.name for f in fields(KernelLayerParams)) == LAYER_TENSORS
        doc = artifact_parts(_small_checkpoint(tmp_path, layers=2))[1]
        assert doc["layers"] == 2
        assert set(doc["tensors"]) == {f"layer{li}.{name}" for li in range(2)
                                       for name in LAYER_TENSORS} | {
            f"head.{name}" for name in ("W_h", "b_h", "W_o", "b_o")}
        assert {name: doc[name] for name in SIZES} == dict(
            p=2, g=2, hop=1, n_sub=4, n_filt=3)

    @pytest.mark.parametrize("key, value, damage, match", [
        ("hidden", 0,
         lambda m: replace(m, W_h=m.W_h[:0], b_h=m.b_h[:0], W_o=m.W_o[:, :0]),
         r"inconsistent model: hidden=0 \(config key hidden\)"),
        ("walk_length", -1, lambda m: replace(m, p=-1),
         r"inconsistent model: p=-1 \(config key walk_length\)"),
    ], ids=["hidden-0", "walk_length-minus-1"])
    def test_build_model_rejects_what_loading_rejects(self, tmp_path, key,
                                                       value, damage, match):
        """build_model runs load_checkpoint's check, so it refuses to make
        a model that a checkpoint of it could not be loaded from."""
        cfg = base_config(dimension=8, n_filters=2, n_sub=4, n_filt=3,
                          top_g=2, layers=1, hidden=8, random_filters=True)
        path = str(tmp_path / "model.json")
        save_checkpoint(damage(build_model(None, cfg)), path)
        with pytest.raises(SchemaFormatError, match=match):
            load_checkpoint(path)
        setattr(cfg, key, value)
        with pytest.raises(ConfigError, match=match):
            build_model(None, cfg)

    @pytest.mark.parametrize("key, low", sorted(COUNTS.values()))
    def test_build_model_names_the_key_of_a_size_below_its_least(self, key, low):
        cfg = base_config(dimension=8, n_filters=2, n_sub=4, n_filt=3,
                          top_g=2, layers=2, hidden=8, random_filters=True)
        setattr(cfg, key, low - 1)
        with pytest.raises(ConfigError, match=f"config key {key}"):
            build_model(None, cfg)

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

    def test_fingerprint_is_checked_before_any_tensor(self, tmp_path):
        cfg = base_config(dimension=8, n_filters=2, n_sub=4, n_filt=3,
                          top_g=2, layers=1, hidden=8, random_filters=True)
        path = tmp_path / "model.json"
        save_checkpoint(build_model(None, cfg, library_fingerprint="abc123"), str(path))
        _retensored("head.b_o", lambda a: np.full_like(a, np.nan))(path)
        with pytest.raises(FingerprintMismatchError):
            load_checkpoint(str(path), library_fingerprint="zzz")

    @pytest.mark.parametrize("damage, match", [
        (_raw(lambda data: data[: len(data) // 2]), "past the end of the"),
        (lambda path: rewrite_header(path, lambda doc: []),
         "checkpoint header is not a JSON object"),
        (_edited(lambda doc: doc.pop("layers")), "field: 'layers'"),
        (_without_tensors("head."), "checkpoint has no tensor head.W_h"),
        (_edited(lambda doc: doc["relation_weights"].update(
            Causes=doc["relation_weights"].pop("Implies"))), "Causes"),
        (_retensored("head.W_h", lambda a: a[:, :-1]),
         r"head\.W_h \(8, 9\), expected \(8, 10\)"),
        (_retensored("head.b_h", lambda a: a[:-1]), "7 hidden units"),
        (_retensored("head.b_o", lambda a: np.append(a, 0.0)), "head.b_o"),
        (_edited(lambda doc: doc["labels"].pop()), "head.W_o"),
        (_edited(lambda doc: doc.update(p=-1)), "p=-1"),
        (_edited(lambda doc: doc.update(p=1.5)), "p=1.5"),
        (_edited(lambda doc: doc.update(hop="1")), "hop='1'"),
        (_edited(lambda doc: doc.update(n_sub=4.0)), "n_sub=4.0"),
        *[(_edited(lambda doc, name=name: doc.pop(name)), f"field: '{name}'")
          for name in SIZES],
        (_edited(lambda doc: doc.update(dimension="8")), "dimension='8'"),
        (_edited(lambda doc: doc["relation_weights"].pop("Implies")),
         "relation_weights must weigh each of"),
        (_retensored("layer0.filter_adjs", lambda a: a.reshape(2, 9)),
         r"layer 0 filter adjacencies \(2, 9\), expected \(2, 3, 3\)"),
        (_edited(lambda doc: doc["tensors"].update(
            {"head.W_o": {"shape": [3, 8], "data": "not base64!"}})),
         r"tensor head.W_o: .* is not a \{dtype, shape, offset\} entry"),
        (_entry("head.W_o", offset=[0.5, 0.25]),
         r"tensor head.W_o: offset \[0.5, 0.25\] is not a multiple of 8"),
        (_raw(lambda data: data[:-8]),
         r"tensor head.b_o: bytes \d+..\d+ run past the end of the \d+-byte "
         r"payload \(truncated\)"),
        (_edited(lambda doc: doc["tensors"]["head.W_o"]["shape"].append(2)),
         r"tensor head.W_o: bytes \d+..\d+ run past the end"),
        (_entry("head.W_o", shape=[-3, -8]),
         r"tensor head.W_o: shape \[-3, -8\] is not a list of counts"),
        (_entry("head.W_o", shape="3x8"),
         "tensor head.W_o: shape '3x8' is not a list of counts"),
        (_entry("head.W_o", shape=[3.0, 8]),
         "tensor head.W_o: shape .* is not a list of counts"),
        (_edited(lambda doc: doc["tensors"].update({"head.W_o": [[0.5] * 8] * 3})),
         r"tensor head.W_o: .* is not a \{dtype, shape, offset\} entry"),
        (_without_tensors("layer0.W"), "checkpoint has no tensor layer0.W"),
        (_retensored("layer0.W", np.diagonal),
         r"layer 0 W \(12,\), expected \(12, 12\)"),
        (_g_above_filters, "layer 0 g=3 exceeds its 2 filters"),
        (_edited(lambda doc: doc.update(version=1)), "checkpoint version 1 != 4"),
        (_edited(lambda doc: doc.update(version=2)), "checkpoint version 2 != 4"),
        *[(_retensored("head.b_o", lambda a, v=value: np.where(
              np.arange(a.size) == 1, v, a)),
           "tensor head.b_o contains non-finite values")
          for value in (np.nan, np.inf, -np.inf)],
        (_raw(lambda data: data[:12]),
         "checkpoint file of 12 bytes is shorter than its 16-byte preamble"),
        (_raw(lambda data: b"PK\x03\x04\x14\x00\x00\x00" + data[8:]),
         "not a checkpoint file: bad magic"),
        (_raw(lambda data: data[:8] + struct.pack("<Q", len(data)) + data[16:]),
         r"checkpoint header of \d+ bytes runs past the end of the \d+-byte file"),
        (_raw(lambda data: data[:8] + struct.pack("<Q", _header_size(data) - 1)
              + data[16:]), r"checkpoint header length \d+ is not a multiple of 8"),
        (_raw(lambda data: data[:16] + b"\xff" * 8 + data[24:]),
         "checkpoint header is not JSON"),
        (_edited(lambda doc: doc.pop("tensors")), "header has no tensors object"),
        (_entry("head.W_o", offset=1 << 20),
         "tensor head.W_o: offset 1048576 is past the end of the"),
        (lambda path: _entry("head.W_o", offset=artifact_parts(path)[1][
            "tensors"]["head.W_o"]["offset"] + 4)(path),
         r"tensor head.W_o: offset \d+ is not a multiple of 8 \(misaligned\)"),
        (lambda path: _entry("head.b_h", offset=artifact_parts(path)[1][
            "tensors"]["head.W_h"]["offset"] + 8)(path),
         "tensors head.W_h and head.b_h overlap"),
        (_entry("head.W_o", dtype="<f4"), "tensor head.W_o: dtype '<f4' is not one of"),
        (_entry("head.W_o", dtype="<i8"), "tensor head.W_o: dtype <i8, expected <f8"),
        (_edited(lambda doc: doc.update(layers="1")), r"layers='1' \(config key layers\)"),
        (_raw(lambda data: (DATA_DIR / "checkpoint_v3.json").read_bytes()),
         r"checkpoint version 3 != 4 \(a JSON file of an earlier layout\)"),
    ], ids=["torn", "list", "no-layers", "no-head", "unknown-relation",
            "head-width", "short-b_h", "long-b_o", "short-labels", "negative-p",
            "float-p", "string-hop", "float-n_sub",
            *[f"no-{name}" for name in SIZES], "string-dimension",
            "no-implies-weight",
            "flat-filter-adjs", "bad-base64", "list-data", "short-data",
            "long-shape", "negative-shape", "string-shape", "float-shape",
            "float-list-tensor", "no-W", "diagonal-W", "g-above-filters",
            "version-1", "version-2", "nan-b_o", "inf-b_o",
            "minus-inf-b_o", "short-file", "bad-magic", "header-past-end",
            "unaligned-header", "header-not-json", "no-tensors",
            "offset-past-end", "misaligned", "overlapping", "f4-dtype",
            "int-dtype", "string-layers", "version-3-json"])
    def test_damaged_file_is_schema_format_error(self, tmp_path, damage, match):
        path = _small_checkpoint(tmp_path)
        damage(path)
        with pytest.raises(SchemaFormatError, match=match):
            load_checkpoint(str(path))
