"""Schema induction: pooling, clustering, summarization, filter extraction."""

import itertools
import json

import numpy as np
import pytest

from stancegraph.embed import test_embed as embed_text
from stancegraph.errors import (EmptyCorpusError, InvalidFilterCountError,
                                SchemaFormatError, SingleClusterError)
from stancegraph.fol import FolGraph, FolNode, Predicate, Relation
from stancegraph import induce
from stancegraph.gateway import Gateway
from stancegraph.induce import (ClusteringResult, SchemaEdge, SchemaGraph,
                                SchemaNode, abstract_clusters,
                                assign_to_cluster, build_schema_graph,
                                collect_predicates, extract_filters,
                                induce_library, kmeans, load_library,
                                save_library, select_k, silhouette)
from stancegraph.synth import FIXTURE_INDUCE_SEED
from tests.conftest import replay_gateway


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
            raise RuntimeError("no summarizer")

        pool, result = self._fixture()
        gateway = Gateway(mode="live", cache_path=str(tmp_path / "c.jsonl"),
                          transport=broken, max_retries=1, backoff=0.0)
        nodes = abstract_clusters(result, pool, gateway, provider)
        assert nodes[0].fallback
        assert nodes[0].summary in {"Lower(Y,Harm)", "Reduce(X,Risk)"}

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


class TestExtractFilters:
    def _graph(self, member_counts, edges=()):
        nodes = [SchemaNode(id=i, summary=f"s{i}", centroid=np.zeros(8),
                            summary_embedding=embed_text(f"s{i}", 8),
                            members=[f"m{j}" for j in range(count)])
                 for i, count in enumerate(member_counts)]
        return SchemaGraph(nodes=nodes, edges=list(edges))

    def test_centers_top_counts_tie_by_id(self):
        graph = self._graph([5, 9, 9, 1])
        filters = extract_filters(graph, n_filters=2)
        assert sorted(f.center for f in filters) == [1, 2]

    def test_isolated_center(self):
        graph = self._graph([3])
        filters = extract_filters(graph, n_filters=1)
        assert filters[0].node_ids == [0]
        np.testing.assert_array_equal(filters[0].adjacency, np.zeros((1, 1)))

    def test_star_truncated_by_weight(self):
        edges = [SchemaEdge(0, i, Relation.IMPLIES, i / 10.0)
                 for i in range(1, 11)]
        graph = self._graph([10] + [1] * 10, edges)
        filters = extract_filters(graph, n_filters=1, size_cap=6)
        assert filters[0].node_ids == [0, 10, 9, 8, 7, 6]

    def test_bad_filter_count(self):
        graph = self._graph([1, 1])
        with pytest.raises(InvalidFilterCountError):
            extract_filters(graph, n_filters=3)
        with pytest.raises(InvalidFilterCountError):
            extract_filters(graph, n_filters=0)


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

class TestLibraryPersistence:
    def test_round_trip(self, library, tmp_path):
        path = str(tmp_path / "library.json")
        save_library(library, path)
        loaded = load_library(path)
        assert loaded.k == library.k
        assert loaded.dimension == library.dimension
        assert [n.summary for n in loaded.graph.nodes] == \
            [n.summary for n in library.graph.nodes]
        np.testing.assert_array_equal(loaded.clustering.centroids,
                                      library.clustering.centroids)
        assert [(e.src, e.dst, e.relation, e.weight) for e in loaded.graph.edges] == \
            [(e.src, e.dst, e.relation, e.weight) for e in library.graph.edges]

    def test_truncated_file(self, library, tmp_path):
        path = tmp_path / "library.json"
        save_library(library, str(path))
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(SchemaFormatError):
            load_library(str(path))

    def test_version_mismatch_names_versions(self, library, tmp_path):
        path = tmp_path / "library.json"
        save_library(library, str(path))
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaFormatError, match="99"):
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
