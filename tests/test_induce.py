"""Schema induction: pooling, clustering, summarization, the schema graph."""

import itertools
import json
import struct

import numpy as np
import pytest

from stancegraph.embed import test_embed as embed_text
from stancegraph.errors import (DimensionMismatchError, EmptyCorpusError,
                                HttpError, SchemaFormatError, SingleClusterError)
from stancegraph.fol import FolGraph, FolNode, Predicate, Relation
from stancegraph import induce
from stancegraph.gateway import Gateway
from stancegraph.induce import (LIBRARY_VERSION, MAGIC, ClusteringResult, SchemaEdge,
                                SchemaGraph,
                                SchemaNode, abstract_clusters,
                                assign_to_cluster, build_schema_graph,
                                collect_predicates,
                                induce_library, kmeans, load_library,
                                save_library, select_k, silhouette)
from stancegraph.synth import FIXTURE_INDUCE_SEED
from stancegraph.kernel import build_model, load_checkpoint, save_checkpoint
from tests.conftest import (DATA_DIR, artifact_parts, base_config, replay_gateway,
                            retensor, rewrite_header)


def _node(name, *args, emb=None):
    pred = Predicate(name, tuple(args))
    return FolNode(predicate=pred,
                   embedding=embed_text(pred.canonical(), 8) if emb is None else emb)


# ---------------------------------------------------------------------------
# Pooling

class TestCollectPredicates:
    def test_dedup_across_graphs(self):
        g1 = FolGraph(nodes=[_node("A", "x")], edges=[])
        g2 = FolGraph(nodes=[_node("A", "x"), _node("B", "y")], edges=[])
        pool = collect_predicates([g1, g2])
        assert [key for key, _ in pool] == ["A(x)", "B(y)"]

    def test_single_graph(self):
        g = FolGraph(nodes=[_node("A"), _node("B"), _node("C")], edges=[])
        assert len(collect_predicates([g])) == 3

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            collect_predicates([])

    def test_lexicographic_order_is_corpus_order_independent(self):
        g1 = FolGraph(nodes=[_node("B"), _node("A")], edges=[])
        g2 = FolGraph(nodes=[_node("A"), _node("B")], edges=[])
        assert [k for k, _ in collect_predicates([g1, g2])] == \
            [k for k, _ in collect_predicates([g2, g1])]

    def test_mixed_embedding_sizes_are_named_before_p2(self, provider,
                                                      monkeypatch):
        calls = []
        monkeypatch.setattr(Gateway, "complete", lambda self, req: calls.append(req))
        g1 = FolGraph(nodes=[_node("A", "x")], edges=[])
        g2 = FolGraph(nodes=[_node("B", "y", emb=embed_text("B(y)", 16))], edges=[])
        with pytest.raises(DimensionMismatchError,
                           match=r"'A\(x\)' has d=8, 'B\(y\)' has d=16"):
            induce_library([g1, g2], provider, replay_gateway(), seed=0, k_fixed=2)
        assert calls == []


# ---------------------------------------------------------------------------
# K-means

def _stable_two_partitions(points: np.ndarray) -> list[float]:
    """Inertias of every Lloyd-stable 2-partition, found by brute force
    (oracle: each point must sit nearer its own centroid)."""
    n = len(points)
    inertias = []
    for mask in itertools.product([0, 1], repeat=n):
        if len(set(mask)) < 2:
            continue
        centroids = [points[[i for i in range(n) if mask[i] == c]].mean(axis=0)
                     for c in (0, 1)]
        stable = all(
            np.sum((points[i] - centroids[mask[i]]) ** 2)
            <= np.sum((points[i] - centroids[1 - mask[i]]) ** 2)
            for i in range(n))
        if stable:
            inertias.append(sum(
                float(np.sum((points[i] - centroids[mask[i]]) ** 2))
                for i in range(n)))
    return sorted(set(round(v, 9) for v in inertias))


class TestKmeans:
    def test_symmetric_optimum(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        result = kmeans(points, 2, seed=0)
        assert sorted(float(c) for c in result.centroids.ravel()) == [0.5, 10.5]

    def test_k_equals_n(self):
        points = np.array([[0.0], [1.0], [2.0]])
        result = kmeans(points, 3, seed=0)
        assert result.inertia == 0.0
        assert len(set(result.assignments.tolist())) == 3

    def test_matches_partition_oracle(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1], [20.0], [20.1]])
        result = kmeans(points, 2, seed=0)
        stable = _stable_two_partitions(points)
        assert any(result.inertia == pytest.approx(v) for v in stable), \
            f"inertia {result.inertia} not among stable partitions {stable}"

    def test_partition_invariants(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(40, 3))
        result = kmeans(points, 5, seed=2)
        assert result.assignments.shape == (40,)
        sizes = np.bincount(result.assignments, minlength=5)
        assert sizes.sum() == 40
        assert np.all(sizes > 0)

    def test_deterministic(self):
        points = np.random.default_rng(3).normal(size=(30, 4))
        a = kmeans(points, 4, seed=9)
        b = kmeans(points, 4, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centroids, b.centroids)


class TestSilhouette:
    def test_two_blob_fixture(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        assignments = np.array([0, 0, 1, 1])
        assert silhouette(points, assignments) == pytest.approx(0.9802, abs=1e-3)

    def test_degenerate_identical_clusters(self):
        points = np.zeros((4, 1))
        assignments = np.array([0, 0, 1, 1])
        assert silhouette(points, assignments) == 0.0

    def test_random_assignment_scores_lower(self):
        rng = np.random.default_rng(5)
        blob_a = rng.normal(0.0, 0.1, size=(10, 2))
        blob_b = rng.normal(8.0, 0.1, size=(10, 2))
        points = np.vstack([blob_a, blob_b])
        true = np.array([0] * 10 + [1] * 10)
        shuffled = rng.permutation(true)
        assert silhouette(points, true) > silhouette(points, shuffled)

    def test_single_cluster_rejected(self):
        with pytest.raises(SingleClusterError):
            silhouette(np.zeros((3, 1)), np.zeros(3, dtype=int))


class TestSelectK:
    def test_two_blobs(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        best, scores = select_k(points, [2, 3, 4], seed=0)
        assert best == 2
        assert set(scores) == {2, 3, 4}

    def test_singleton_grid(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        best, _ = select_k(points, [2], seed=0)
        assert best == 2


# ---------------------------------------------------------------------------
# Abstraction (P2 summaries)

class TestAbstractClusters:
    def _fixture(self):
        pool = [("Lower(Y,Harm)", embed_text("Lower(Y,Harm)", 8)),
                ("Reduce(X,Risk)", embed_text("Reduce(X,Risk)", 8))]
        points = np.stack([emb for _, emb in pool])
        result = ClusteringResult(k=1, assignments=np.array([0, 0]),
                                  centroids=points.mean(axis=0, keepdims=True),
                                  inertia=0.0, seed=0)
        return pool, result

    def test_summary_is_p2_response(self, tmp_path, provider):
        pool, result = self._fixture()
        gateway = Gateway(mode="record", cache_path=str(tmp_path / "c.jsonl"),
                          transport=lambda req: "Risk mitigation")
        nodes = abstract_clusters(result, pool, gateway, provider)
        assert len(nodes) == 1
        assert nodes[0].summary == "Risk mitigation"
        assert not nodes[0].fallback
        assert sorted(nodes[0].members) == ["Lower(Y,Harm)", "Reduce(X,Risk)"]

    def test_p2_failure_falls_back_to_nearest_member(self, tmp_path, provider):
        def broken(req):
            raise HttpError("chat endpoint returned 503", status=503)

        pool, result = self._fixture()
        gateway = Gateway(mode="live", cache_path=str(tmp_path / "c.jsonl"),
                          transport=broken, max_retries=1, backoff=0.0)
        nodes = abstract_clusters(result, pool, gateway, provider)
        assert nodes[0].fallback
        assert nodes[0].summary in {"Lower(Y,Harm)", "Reduce(X,Risk)"}

    def test_programming_error_in_p2_propagates(self, tmp_path, provider):
        def buggy(req):
            raise RuntimeError("bug in the transport")

        pool, result = self._fixture()
        gateway = Gateway(mode="live", cache_path=str(tmp_path / "c.jsonl"),
                          transport=buggy, max_retries=1, backoff=0.0)
        with pytest.raises(RuntimeError, match="bug in the transport"):
            abstract_clusters(result, pool, gateway, provider)

    def test_replay_reproducible(self, tmp_path, provider):
        pool, result = self._fixture()
        path = str(tmp_path / "c.jsonl")
        record = Gateway(mode="record", cache_path=path,
                         transport=lambda req: "Concept")
        first = abstract_clusters(result, pool, record, provider)
        replay = Gateway(mode="replay", cache_path=path)
        second = abstract_clusters(result, pool, replay, provider)
        assert first[0].summary == second[0].summary
        np.testing.assert_array_equal(first[0].summary_embedding,
                                      second[0].summary_embedding)


# ---------------------------------------------------------------------------
# Schema graph

def _clustered_corpus(edge_rel_pairs, assignments):
    """Corpus of one graph over predicates P0..Pn with given edges; cluster
    assignment per predicate comes from `assignments`."""
    names = [f"P{i}" for i in range(len(assignments))]
    nodes = [_node(name) for name in names]
    graph = FolGraph(nodes=nodes, edges=list(edge_rel_pairs))
    pool = collect_predicates([graph])
    index = {key: i for i, (key, _) in enumerate(pool)}
    ordered = np.empty(len(assignments), dtype=int)
    for i, name in enumerate(names):
        ordered[index[f"{name}()"]] = assignments[i]
    k = max(assignments) + 1
    centroids = np.zeros((k, 8))
    result = ClusteringResult(k=k, assignments=ordered, centroids=centroids,
                              inertia=0.0, seed=0)
    return [graph], result, pool


def _schema_nodes(k):
    return [SchemaNode(id=i, summary=f"s{i}", centroid=np.zeros(8),
                       summary_embedding=embed_text(f"s{i}", 8),
                       members=[f"m{i}"]) for i in range(k)]


class TestBuildSchemaGraph:
    def test_single_edge_weight_one(self):
        corpus, result, pool = _clustered_corpus(
            [(0, 1, Relation.IMPLIES)], [3, 7])
        # relabel clusters to 3 and 7 by widening the centroid table
        result.k = 8
        result.centroids = np.zeros((8, 8))
        graph = build_schema_graph(_schema_nodes(8), corpus, result, pool)
        assert len(graph.edges) == 1
        edge = graph.edges[0]
        assert (edge.src, edge.dst, edge.relation, edge.weight) == \
            (3, 7, Relation.IMPLIES, 1.0)

    def test_max_normalization(self):
        corpus, result, pool = _clustered_corpus(
            [(0, 1, Relation.IMPLIES), (2, 3, Relation.IMPLIES),
             (0, 3, Relation.CONJUNCTION)],
            [0, 1, 0, 1])
        graph = build_schema_graph(_schema_nodes(2), corpus, result, pool)
        weights = {e.relation: e.weight for e in graph.edges}
        assert weights[Relation.IMPLIES] == 1.0
        assert weights[Relation.CONJUNCTION] == 0.5

    def test_intra_cluster_edges_dropped(self):
        corpus, result, pool = _clustered_corpus(
            [(0, 1, Relation.IMPLIES)], [0, 0])
        graph = build_schema_graph(_schema_nodes(1), corpus, result, pool)
        assert graph.edges == []


class TestAssignToCluster:
    def _result(self, centroids):
        arr = np.asarray(centroids, dtype=np.float64)
        return ClusteringResult(k=len(arr), assignments=np.zeros(1, dtype=int),
                                centroids=arr, inertia=0.0, seed=0)

    def test_exact_centroid(self):
        centroids = np.arange(8, dtype=np.float64).reshape(8, 1)
        assert assign_to_cluster(np.array([7.0]), self._result(centroids)) == 7

    def test_tie_goes_to_smaller_id(self):
        result = self._result([[0.0], [0.0], [5.0]])
        assert assign_to_cluster(np.array([0.0]), result) == 0

    def test_nearest(self):
        result = self._result([[0.0], [10.0]])
        assert assign_to_cluster(np.array([4.0]), result) == 0


# ---------------------------------------------------------------------------
# Persistence and the session library

def _edited(edit):
    """The damage that replaces the library's header by `edit` of it."""
    return lambda path: rewrite_header(path, edit)


def _entry(name, **changes):
    """The damage that changes fields of tensor `name`'s header entry."""
    return _edited(lambda doc: {**doc, "tensors": {
        **doc["tensors"], name: dict(doc["tensors"][name], **changes)}})


def _retensored(name, edit):
    """The damage that replaces tensor `name` by `edit` applied to its array."""
    return lambda path: retensor(path, name, edit)


def _edge_edited(column, value):
    def edit(edges):
        edges = edges.copy()
        edges[0, column] = value
        return edges
    return _retensored("edges", edit)


def _nodes_edited(edit):
    return _edited(lambda doc: {**doc, "nodes": edit(doc["nodes"])})


def _with_nan(a):
    a = a.copy()
    a[2, 5] = np.nan
    return a


def _saved(library, path):
    save_library(library, str(path))
    return path


class TestLibraryPersistence:
    def test_round_trip(self, library, tmp_path):
        path = str(tmp_path / "library.json")
        save_library(library, path)
        loaded = load_library(path)
        assert loaded.k == library.k
        assert loaded.dimension == library.dimension
        assert loaded.seed == library.seed
        assert [n.summary for n in loaded.graph.nodes] == \
            [n.summary for n in library.graph.nodes]
        assert [n.members for n in loaded.graph.nodes] == \
            [n.members for n in library.graph.nodes]
        assert [n.fallback for n in loaded.graph.nodes] == \
            [n.fallback for n in library.graph.nodes]
        assert [n.id for n in loaded.graph.nodes] == list(range(library.k))
        np.testing.assert_array_equal(loaded.clustering.centroids,
                                      library.clustering.centroids)
        assert np.array_equal(loaded.clustering.assignments,
                              library.clustering.assignments)
        assert loaded.clustering.assignments.dtype == np.int64
        assert loaded.clustering.inertia == library.clustering.inertia
        summary_embeddings = np.stack([n.summary_embedding for n in loaded.graph.nodes])
        assert np.array_equal(summary_embeddings, np.stack(
            [n.summary_embedding for n in library.graph.nodes]))
        for array in (loaded.clustering.centroids, summary_embeddings,
                      *(n.centroid for n in loaded.graph.nodes)):
            assert array.dtype == np.float64
            assert array.flags.writeable
        assert loaded.graph.edges == library.graph.edges
        assert loaded.providers == library.providers
        assert loaded.config_fingerprint == library.config_fingerprint

    def test_float_arrays_are_tensors_not_float_lists(self, library, tmp_path):
        """Magic, header length, a sort_keys JSON header padded to 8 bytes,
        then the centroids, summary embeddings and edge columns."""
        path = _saved(library, tmp_path / "library.json")
        data = path.read_bytes()
        magic, doc, payload = artifact_parts(path)
        assert magic == MAGIC["library"] != MAGIC["checkpoint"]
        size = struct.unpack_from("<Q", data, 8)[0]
        assert size % 8 == 0 and len(data) == 16 + size + len(payload)
        assert data[16:16 + size].rstrip(b" ") == json.dumps(
            doc, ensure_ascii=False, sort_keys=True).encode("utf-8")
        assert doc["version"] == LIBRARY_VERSION == 3
        k, d, e = library.k, library.dimension, len(library.graph.edges)
        assert doc["tensors"] == {
            "centroids": {"dtype": "<f8", "shape": [k, d], "offset": 0},
            "summary_embeddings": {"dtype": "<f8", "shape": [k, d], "offset": 8 * k * d},
            "edges": {"dtype": "<i8", "shape": [e, 3], "offset": 16 * k * d},
            "edge_weights": {"dtype": "<f8", "shape": [e],
                             "offset": 16 * k * d + 24 * e}}
        assert len(payload) == 16 * k * d + 32 * e
        assert doc["relations"] == [r.value for r in Relation]
        assert [set(nd) for nd in doc["nodes"]] == [{"summary", "members", "fallback"}] * k
        assert "assignments" not in doc

    def test_truncated_file(self, library, tmp_path):
        path = _saved(library, tmp_path / "library.json")
        for cut in (len(path.read_bytes()) // 2, len(path.read_bytes()) - 8):
            path.write_bytes(_saved(library, tmp_path / "whole.json").read_bytes()[:cut])
            with pytest.raises(SchemaFormatError, match="past the end"):
                load_library(str(path))

    def test_version_mismatch_names_versions(self, library, tmp_path):
        path = _saved(library, tmp_path / "library.json")
        _edited(lambda doc: {**doc, "version": 99})(path)
        with pytest.raises(SchemaFormatError, match="library version 99 != 3"):
            load_library(str(path))

    def test_json_files_of_earlier_versions_are_named(self):
        with pytest.raises(SchemaFormatError, match=r"library version 2 != 3 \(a JSON "
                                                    "file of an earlier layout"):
            load_library(str(DATA_DIR / "library_v2.json"))
        with pytest.raises(SchemaFormatError, match=r"this file is a checkpoint \(JSON, "
                                                    r"version 3\), not a library"):
            load_library(str(DATA_DIR / "checkpoint_v3.json"))
        with pytest.raises(SchemaFormatError, match=r"this file is a library \(JSON, "
                                                    r"version 2\), not a checkpoint"):
            load_checkpoint(str(DATA_DIR / "library_v2.json"))

    def test_checkpoint_and_library_are_told_apart(self, library, tmp_path):
        library_path = str(_saved(library, tmp_path / "library.json"))
        checkpoint_path = str(tmp_path / "model.json")
        save_checkpoint(build_model(library, base_config(n_filters=2)), checkpoint_path)
        with pytest.raises(SchemaFormatError,
                           match="this file is a checkpoint, not a library"):
            load_library(checkpoint_path)
        with pytest.raises(SchemaFormatError,
                           match="this file is a library, not a checkpoint"):
            load_checkpoint(library_path)

    @pytest.mark.parametrize("damage, match", [
        (_edited(lambda doc: [doc]), "library header is not a JSON object"),
        (_retensored("edges", lambda a: a[:, 1:]),
         r"edges \[\d+, 2\] and edge_weights \[\d+\] are not \[E, 3\] and \[E\]"),
        (_edited(lambda doc: {**doc, "relations": ["Causes", *doc["relations"][1:]]}),
         "Causes"),
        (_edited(lambda doc: {**doc, "nodes": 5}), "malformed"),
        (_retensored("centroids", lambda a: a[:-1]),
         r"tensor centroids: shape \[7, 48\], expected \[8, 48\]"),
        (_retensored("centroids", lambda a: np.hstack([a, a[:, :1]])),
         r"tensor centroids: shape \[8, 49\], expected \[8, 48\]"),
        (_edge_edited(0, 99), r"edge 0 src=99 is not a node id in \[0, 8\)"),
        (_edge_edited(1, -1), r"edge 0 dst=-1 is not a node id in \[0, 8\)"),
        (_entry("edge_weights", dtype="<U3"),
         "tensor edge_weights: dtype '<U3' is not one of"),
        (_edited(lambda doc: {**doc, "d": "48"}),
         r"d='48' is not a positive int \(field: d\)"),
        (_edited(lambda doc: {**doc, "d": 49}),
         r"tensor centroids: shape \[8, 48\], expected \[8, 49\]"),
        (_retensored("centroids", _with_nan),
         "tensor centroids contains non-finite values"),
        (_edited(lambda doc: {**doc, "version": 1}), "library version 1 != 3"),
        (_edited(lambda doc: {**doc, "tensors": {
            **doc["tensors"], "centroids": {"shape": [8, 48], "data": "not base64!"}}}),
         r"tensor centroids: .* is not a \{dtype, shape, offset\} entry"),
        (lambda path: path.write_bytes(path.read_bytes()[:-8]),
         r"tensor edge_weights: bytes \d+..\d+ run past the end of the \d+-byte "
         r"payload \(truncated\)"),
        (_edge_edited(2, 4), r"edge 0 relation=4 is not a relation index in \[0, 4\)"),
        (_retensored("edge_weights", lambda a: np.full_like(a, -0.5)),
         r"edge 0 weight=-0.5 is not in \(0, 1\] \(field: edge_weights\)"),
        (_retensored("edge_weights", lambda a: np.full_like(a, 0.0)),
         r"edge 0 weight=0.0 is not in \(0, 1\] \(field: edge_weights\)"),
        (_retensored("edge_weights", lambda a: np.full_like(a, 7.0)),
         r"edge 0 weight=7.0 is not in \(0, 1\] \(field: edge_weights\)"),
        (_entry("edges", dtype="<f8"),
         "tensor edges: dtype <f8, expected <i8"),
        (_nodes_edited(lambda nodes: [dict(nodes[0], members=nodes[0]["members"]
                                           + nodes[1]["members"][:1]), *nodes[1:]]),
         r"predicate .* is listed in more than one node \(field: members\)"),
        (_nodes_edited(lambda nodes: [dict(nodes[0], members=[1, 2]), *nodes[1:]]),
         r"members are not all strings \(field: members\)"),
        (_nodes_edited(lambda nodes: [dict(nodes[0], members="A(x)"), *nodes[1:]]),
         r"node 0 members are not a list \(field: members\)"),
        (_nodes_edited(lambda nodes: [{"summary": "s"}, *nodes[1:]]),
         "field: 'members'"),
        (_entry("summary_embeddings", shape=[0]),
         r"tensor summary_embeddings: shape \[0\], expected \[8, 48\]"),
        (_edited(lambda doc: {k: v for k, v in doc.items() if k != "tensors"}),
         "header has no tensors object"),
        (_edited(lambda doc: {**doc, "tensors": {
            k: v for k, v in doc["tensors"].items() if k != "edges"}}),
         "library has no tensor edges"),
        (lambda path: path.write_bytes(b"\x89PNG\r\n\x1a\n" + path.read_bytes()[8:]),
         "not a library file: bad magic"),
        (lambda path: path.write_bytes(path.read_bytes()[:15]),
         "library file of 15 bytes is shorter than its 16-byte preamble"),
    ], ids=["list", "edge-without-src", "unknown-relation", "nodes-not-a-list",
            "short-centroids", "wide-centroids", "edge-src-99", "edge-dst-minus-1",
            "string-weight", "string-d", "d-disagrees",
            "nan-centroid", "version-1", "bad-base64", "short-data",
            "relation-index-out-of-range", "negative-weight", "zero-weight",
            "weight-above-one", "float-edges", "member-in-two-nodes",
            "members-not-strings", "members-not-a-list", "node-without-members",
            "flat-summary-embeddings", "no-tensors", "no-edges", "bad-magic",
            "short-file"])
    def test_damaged_file_is_schema_format_error(self, library, tmp_path,
                                                 damage, match):
        path = _saved(library, tmp_path / "library.json")
        damage(path)
        with pytest.raises(SchemaFormatError, match=match):
            load_library(str(path))


class TestSessionLibrary:
    def test_grid_search_reuses_winning_fit(self, all_graphs, provider,
                                            fixture_cfg, monkeypatch, tmp_path):
        grid = fixture_cfg.k_grid
        fitted = []

        def counting_kmeans(points, k, seed):
            fitted.append(k)
            return kmeans(points, k, seed)

        monkeypatch.setattr(induce, "kmeans", counting_kmeans)
        searched = induce_library(all_graphs, provider, replay_gateway(),
                                  seed=FIXTURE_INDUCE_SEED, k_grid=grid)
        pool_size = len(collect_predicates(all_graphs))
        assert sorted(fitted) == sorted(k for k in grid if k <= pool_size)
        fresh = induce_library(all_graphs, provider, replay_gateway(),
                               seed=FIXTURE_INDUCE_SEED, k_fixed=searched.k)
        save_library(searched, str(tmp_path / "searched.json"))
        save_library(fresh, str(tmp_path / "fresh.json"))
        assert (tmp_path / "searched.json").read_bytes() == \
            (tmp_path / "fresh.json").read_bytes()

    def test_p2_prompts_respect_max_lines(self, all_graphs, provider,
                                          tmp_path):
        prompts = []

        def spy(req):
            prompts.append(req.filled_prompt)
            return "summary"

        gateway = Gateway(mode="record", cache_path=str(tmp_path / "c.jsonl"),
                          transport=spy)
        library = induce_library(all_graphs, provider, gateway,
                                 seed=FIXTURE_INDUCE_SEED, k_fixed=2,
                                 p2_max_lines=2)
        # the predicate lines follow the template's one blank line
        lines = [len(p.split("\n\n", 1)[1].splitlines()) for p in prompts]
        assert len(prompts) > library.k  # clusters larger than the cap
        assert max(lines) == 2

    def test_selected_k(self, library):
        assert library.k == 8
        assert len(library.graph.nodes) == 8

    def test_assignments_partition_pool(self, library, all_graphs):
        pool = collect_predicates(all_graphs)
        assert library.clustering.assignments.shape == (len(pool),)
        sizes = np.bincount(library.clustering.assignments, minlength=library.k)
        assert int(sizes.sum()) == len(pool)
        assert sum(n.member_count for n in library.graph.nodes) == len(pool)

    def test_edge_weights_in_unit_interval(self, library):
        weights = [e.weight for e in library.graph.edges]
        assert weights, "schema graph should have edges on this corpus"
        assert all(0.0 < w <= 1.0 for w in weights)
        assert max(weights) == 1.0

    def test_probe_library_k(self, probe_library):
        assert probe_library.k == 64
