"""Each output check passes on a correct output and fails on a corrupted one
(a dropped node, a moved member, a perturbed weight, silhouette or F1, a bad
step count, a flipped prediction), so the checks are known to be live."""

from __future__ import annotations

import copy

import numpy as np
import pytest

import checks
import harness
import tracing
from stancegraph import induce, pipeline, synth
from stancegraph.embed import make_provider
from stancegraph.gateway import Gateway
from stancegraph.train import macro_f1

TINY = harness.Workload("tiny", dimension=16, pool=(0, 0), train=(24, 2),
                        dev=(12, 1), test=(12, 1), k_fixed=4, target_words=1,
                        epochs=1, queries=3)
STANCE_WORDS = {label: synth.FAMILIES[label]["stance_word"]
                for label in synth.LABELS}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    cfg = harness.make_config(TINY, seed=5)
    cache = str(tmp_path_factory.mktemp("tiny") / "llm_cache.jsonl")
    corpus, responder = harness.setup(TINY, 5, cfg, cache)
    provider = make_provider(cfg.embedding_provider, cfg.dimension)
    gateway = Gateway(mode="record", cache_path=cache, transport=responder)
    items = corpus["train"] + corpus["dev"]
    examples, stats = pipeline.generate_fol(
        synth.to_labeled([it.example for it in items]), gateway, provider, cfg)
    graphs = [ex.graph for ex in examples]
    library = induce.induce_library(graphs, provider, gateway, seed=cfg.seed,
                                    k_fixed=TINY.k_fixed)
    return dict(items=items, examples=examples, stats=[stats], graphs=graphs,
                library=library)


def _fails(fn, *args):
    with pytest.raises(checks.CheckError):
        fn(*args)


def test_conflicted_rationales_keep_gold_label(tiny):
    conflicted = [it for it in tiny["items"] if it.stance != it.example.label]
    assert conflicted
    for it in conflicted:
        word = STANCE_WORDS[it.stance]
        assert it.example.rationale.endswith(f"Attitude: {word}")


def test_graph_check_catches_dropped_node(tiny):
    checks.check_graphs(tiny["items"], tiny["examples"], tiny["stats"],
                        STANCE_WORDS)
    broken = copy.deepcopy(tiny["examples"])
    graph = broken[0].graph
    last = len(graph.nodes) - 1
    graph.nodes.pop()
    graph.edges = [e for e in graph.edges if last not in e[:2]]
    _fails(checks.check_graphs, tiny["items"], broken, tiny["stats"],
           STANCE_WORDS)


def test_graph_check_catches_wrong_stance(tiny):
    broken = copy.deepcopy(tiny["examples"])
    broken[0].llm_stance = "Neutral" if broken[0].llm_stance != "Neutral" else "Support"
    _fails(checks.check_graphs, tiny["items"], broken, tiny["stats"],
           STANCE_WORDS)


def test_cluster_check_catches_moved_member(tiny):
    pool = checks.pooled_predicates(tiny["items"])
    checks.check_clusters(tiny["library"], pool, TINY.k_fixed)
    broken = copy.deepcopy(tiny["library"])
    nodes = broken.graph.nodes
    nodes[1].members.append(nodes[0].members[0])
    _fails(checks.check_clusters, broken, pool, TINY.k_fixed)
    fallback = copy.deepcopy(tiny["library"])
    fallback.graph.nodes[0].fallback = True
    _fails(checks.check_clusters, fallback, pool, TINY.k_fixed)


def test_schema_edge_check_catches_perturbed_weight(tiny):
    checks.check_schema_edges(tiny["library"], tiny["graphs"])
    broken = copy.deepcopy(tiny["library"])
    broken.graph.edges[0].weight += 1e-6
    _fails(checks.check_schema_edges, broken, tiny["graphs"])


def test_silhouette_reference_matches_and_check_catches_perturbation():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(40, 6))
    labels = np.arange(40) % 5
    labels[0] = 5                                   # one singleton cluster
    value = induce.silhouette(points, labels)
    checks.check_silhouette(value, checks.reference_silhouette(points, labels))
    _fails(checks.check_silhouette, value + 1e-6,
           checks.reference_silhouette(points, labels))


def test_training_check_catches_bad_steps_params_and_loss():
    params = {"w": np.ones(3)}
    checks.check_training(6, 41, 8, 1, params, 1.0, 0.5)
    _fails(checks.check_training, 5, 41, 8, 1, params, 1.0, 0.5)
    _fails(checks.check_training, 6, 41, 8, 1, {"w": np.array([np.nan])}, 1.0, 0.5)
    _fails(checks.check_training, 6, 41, 8, 1, params, 1.0, 1.0)


def _report(preds, golds, labels):
    return {"predictions": [{"text": f"t{i}", "target": "T", "gold": g,
                             "pred": p, "probabilities": [0.2, 0.3, 0.5]}
                            for i, (p, g) in enumerate(zip(preds, golds))],
            "metrics": {"all_classes": macro_f1(preds, golds, "all_classes",
                                                labels)}}


def test_evaluation_check_catches_perturbed_f1():
    labels = list(synth.LABELS)
    golds = labels * 4
    preds = list(golds)
    preds[0] = labels[1]
    report = _report(preds, golds, labels)
    f1 = checks.check_evaluation(report, golds, labels, 0.5)
    assert f1 == pytest.approx(report["metrics"]["all_classes"]["f_avg"], abs=0)
    report["metrics"]["all_classes"]["f_avg"] += 1e-9
    _fails(checks.check_evaluation, report, golds, labels, 0.5)
    _fails(checks.check_evaluation, _report(preds, golds, labels), golds,
           labels, 0.99)


def test_predict_check_catches_flipped_prediction():
    labels = list(synth.LABELS)
    expected = _report(labels, labels, labels)["predictions"]
    outputs = [dict(p) for p in expected]
    checks.check_predict(outputs, expected)
    outputs[1] = dict(outputs[1], pred=labels[0])
    _fails(checks.check_predict, outputs, expected)
    drifted = [dict(p) for p in expected]
    drifted[2] = dict(drifted[2], probabilities=[0.2, 0.3, 0.5 + 1e-8])
    _fails(checks.check_predict, drifted, expected)


def test_tracer_self_time_and_restore():
    tracer = tracing.Tracer()
    original = induce.kmeans
    with tracing.instrument(tracer):
        assert induce.kmeans is not original
        with tracer.span("outer"):
            induce.kmeans(np.eye(4), 2, seed=0)
    assert induce.kmeans is original
    (outer,) = [s for s in tracer.spans if s[0] == "outer"]
    (inner,) = [s for s in tracer.spans if s[0] == "induce.kmeans"]
    self_s = tracer.self_times()
    assert self_s["outer"] == pytest.approx(
        (outer[2] - outer[1]) - (inner[2] - inner[1]))
    assert tracer.calls()["induce.kmeans"] == 1
