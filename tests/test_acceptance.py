"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line (visible with `pytest -s` or on failure)."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from stancegraph.config import RunConfig
from stancegraph.errors import ParseError
from stancegraph.fol import Connective, Predicate, parse_fol_line
from stancegraph.kernel import (PaddedSubgraph, augment_graph, backward,
                                build_model, cross_entropy, forward, rw_kernel,
                                softmax)
from stancegraph.induce import kmeans, select_k, silhouette
from stancegraph.train import dataset_loss, evaluate, macro_f1, train
from tests.conftest import DATA_DIR, base_config
from tests.oracle import explicit_kernel_oracle


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _prepared(corpus, part, library, skip_augmentation=False):
    out = []
    for ex in corpus[part]:
        graph = ex.graph if skip_augmentation else augment_graph(ex.graph, library)
        out.append(replace(ex, graph=graph))
    return out


def _dev_f1(corpus, library, cfg) -> float:
    train_set = _prepared(corpus, "train", library, cfg.skip_augmentation)
    dev_set = _prepared(corpus, "dev", library, cfg.skip_augmentation)
    model = build_model(library, cfg)
    result = train(train_set, dev_set, model, cfg)
    _, preds = dataset_loss(result.model, dev_set)
    return macro_f1(preds, [ex.label for ex in dev_set], "all_classes",
                    model.labels)["f_avg"]


# ---------------------------------------------------------------------------

def test_criterion_01_kernel_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, min(7, 36 // n) + 1))
        f = int(rng.integers(1, 4))
        p = int(rng.choice([1, 2, 3]))
        As = rng.normal(size=(n, n))
        Af = rng.normal(size=(m, m))
        Xs = rng.normal(size=(n, f))
        Xf = rng.normal(size=(m, f))
        W = rng.normal(size=(n * m, n * m))
        sub = PaddedSubgraph(adjacency=As, features=Xs, valid_count=n,
                             node_indices=list(range(n)))
        value = rw_kernel(sub, Xf, Af, W, p)
        oracle = explicit_kernel_oracle(As, Xs, Af, Xf, W, p)
        rel = abs(value - oracle) / max(abs(oracle), 1e-30)
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, ok, f"200 kernel/oracle pairs, worst rel err {worst:.2e}, "
                   f"{elapsed:.2f}s (< 10s)")


def test_criterion_02_gradient_correctness():
    start = time.monotonic()
    cfg = base_config(dimension=8, n_filters=3, n_sub=6, n_filt=4, top_g=2,
                      walk_length=2, layers=2, hidden=8, random_filters=True,
                      seed=5)
    model = build_model(None, cfg)
    rng = np.random.default_rng(7)
    from stancegraph.fol import FolGraph, FolNode, Relation
    nodes = [FolNode(predicate=Predicate(f"P{i}", ()),
                     embedding=rng.normal(size=8)) for i in range(5)]
    # every node sits on a length-2 walk so no kernel score is exactly
    # zero (exact ties put the finite difference on a top-g selection kink)
    edges = [(0, 1, Relation.CONJUNCTION), (1, 0, Relation.CONJUNCTION),
             (1, 2, Relation.IMPLIES), (2, 3, Relation.CONJUNCTION),
             (3, 2, Relation.CONJUNCTION), (3, 4, Relation.IMPLIES),
             (4, 0, Relation.IMPLIES)]
    graph = FolGraph(nodes=nodes, edges=edges)
    gold = 1

    def loss() -> float:
        cache = forward(graph, model)
        return cross_entropy(cache.probabilities, gold)

    cache = forward(graph, model)
    grads = backward(graph, model, gold, cache)
    params = model.parameters()
    step = 1e-4
    worst = 0.0
    worst_name = ""
    for name, tensor in params.items():
        flat = tensor.ravel()
        idx = np.arange(flat.size)
        if flat.size > 40:
            idx = np.random.default_rng(13).choice(flat.size, 40, replace=False)
        for i in idx:
            original = flat[i]
            flat[i] = original + step
            up = loss()
            flat[i] = original - step
            down = loss()
            flat[i] = original
            fd = (up - down) / (2 * step)
            an = grads[name].ravel()[i]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-3)
            if rel > worst:
                worst, worst_name = rel, name
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 and elapsed < 60.0
    _report(2, ok, f"finite-difference check on every tensor, worst rel err "
                   f"{worst:.2e} ({worst_name}), {elapsed:.1f}s (< 60s)")


def test_criterion_03_equation_unit_values():
    edge = np.array([[0.0, 1.0], [1.0, 0.0]])
    ones = np.ones((2, 1))
    sub = PaddedSubgraph(adjacency=edge, features=ones, valid_count=2,
                         node_indices=[0, 1])
    unit = rw_kernel(sub, ones, edge, np.eye(4), p=1)
    zeros = np.zeros((3, 3))
    feats = np.random.default_rng(0).normal(size=(3, 2))
    zero_sub = PaddedSubgraph(adjacency=zeros, features=feats, valid_count=3,
                              node_indices=[0, 1, 2])
    zero_vals = [rw_kernel(zero_sub, feats, zeros, np.eye(9), p) for p in (1, 2, 3)]
    logits = np.array([0.4, -1.3, 2.2])
    shift_err = float(np.max(np.abs(softmax(logits) - softmax(logits + 123.0))))
    ok = (abs(unit - 4.0) < 1e-12 and all(v == 0.0 for v in zero_vals)
          and shift_err <= 1e-9)
    _report(3, ok, f"unit kernel {unit} (=4.0), zero-adjacency kernels "
                   f"{zero_vals}, softmax shift error {shift_err:.2e}")


def test_criterion_04_clustering_suite():
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    centroids = sorted(float(c) for c in kmeans(points, 2, seed=0).centroids.ravel())
    blobs = np.array([[0.0], [0.1], [10.0], [10.1]])
    score = silhouette(blobs, np.array([0, 0, 1, 1]))
    best, _ = select_k(blobs, [2, 3, 4], seed=0)
    ok = centroids == [0.5, 10.5] and abs(score - 0.9802) <= 1e-3 and best == 2
    _report(4, ok, f"kmeans centroids {centroids} (= [0.5, 10.5]), silhouette "
                   f"{score:.4f} (0.9802 ± 1e-3), select_k -> {best} (= 2)")


def test_criterion_05_metric_oracle():
    labels = ["Favor", "Against", "None"]
    golds = ["Favor", "Against", "Favor", "Against"]
    preds = ["Favor", "Against", "Against", "Against"]
    f_avg = macro_f1(preds, golds, "favor_against_only", labels)["f_avg"]
    full_golds = ["Favor", "Against", "None", "Favor"]
    perfect = [macro_f1(full_golds, full_golds, mode, labels)["f_avg"]
               for mode in ("all_classes", "favor_against_only")]
    ok = abs(f_avg - 0.7333) <= 1e-4 and perfect == [1.0, 1.0]
    _report(5, ok, f"fixture F_avg {f_avg:.4f} (0.7333 ± 1e-4), perfect "
                   f"predictions {perfect} (= [1.0, 1.0])")


def test_criterion_06_end_to_end_overfit(corpus, library):
    start = time.monotonic()
    cfg = base_config(max_epochs=60)
    train_set = _prepared(corpus, "train", library)
    model = build_model(library, cfg)
    result = train(train_set, train_set, model, cfg)
    report = evaluate(train_set, model=result.model)
    elapsed = time.monotonic() - start
    ok = (len(train_set) == 32 and report["accuracy"] == 1.0
          and cfg.max_epochs <= 200 and elapsed < 300.0)
    _report(6, ok, f"32-example replay overfit: train accuracy "
                   f"{report['accuracy']} within {cfg.max_epochs} epochs, "
                   f"{elapsed:.1f}s (< 5min)")


def test_criterion_07_ablation_ordering(corpus, library):
    seeds = [100, 101, 102, 103, 104]
    means = {}
    for variant, overrides in (("full", {}),
                               ("random_filters", {"random_filters": True}),
                               ("skip_augmentation", {"skip_augmentation": True})):
        scores = [_dev_f1(corpus, library, base_config(seed=s, **overrides))
                  for s in seeds]
        means[variant] = float(np.mean(scores))
    ok = (means["full"] >= means["random_filters"]
          and means["full"] >= means["skip_augmentation"])
    _report(7, ok, "mean dev macro-F1 over 5 seeds: full "
                   f"{means['full']:.4f} >= random-filters "
                   f"{means['random_filters']:.4f} and >= skip-augmentation "
                   f"{means['skip_augmentation']:.4f}")


def test_criterion_08_replay_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dimension": 48, "embedding_provider": "token-average",
        "learning_rate": 1e-2, "max_epochs": 60, "batch_size": 8,
        "validation_interval": 1.0, "patience": 0, "seed": 3,
    }))
    artifacts = ("train.graphs.jsonl", "dev.graphs.jsonl", "library.json",
                 "model.json", "metrics.json")

    def run_pipeline(out_dir):
        out_dir.mkdir()
        common = ["--config", str(config_path), "--mode", "replay",
                  "--cache-dir", str(DATA_DIR)]

        def cli(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "stancegraph.cli", *args],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr + proc.stdout

        for name in ("train", "dev", "test"):
            cli("generate-fol", *common, str(DATA_DIR / f"{name}.csv"),
                str(out_dir / f"{name}.graphs.jsonl"))
        merged = out_dir / "all.graphs.jsonl"
        merged.write_text("".join(
            (out_dir / f"{n}.graphs.jsonl").read_text()
            for n in ("train", "dev", "test")))
        cli("induce", *common, str(merged), str(out_dir / "library.json"))
        cli("train", *common, str(out_dir / "train.graphs.jsonl"),
            str(out_dir / "dev.graphs.jsonl"), str(out_dir / "library.json"),
            str(out_dir / "model.json"))
        cli("eval", *common, str(out_dir / "test.graphs.jsonl"),
            str(out_dir / "model.json"), "--library",
            str(out_dir / "library.json"),
            "--metrics-out", str(out_dir / "metrics.json"))

    run_pipeline(tmp_path / "run1")
    run_pipeline(tmp_path / "run2")
    mismatched = [name for name in artifacts
                  if (tmp_path / "run1" / name).read_bytes()
                  != (tmp_path / "run2" / name).read_bytes()]
    ok = not mismatched
    _report(8, ok, "two replay pipeline runs byte-identical across "
                   f"{len(artifacts)} artifacts"
                   + (f"; mismatched: {mismatched}" if mismatched else ""))


def test_criterion_09_parser_fuzzing():
    rng = np.random.default_rng(2024)
    crashes = 0
    trees = 0
    for _ in range(100_000):
        length = int(rng.integers(0, 40))
        raw = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
        line = raw.decode("utf-8", errors="replace")
        try:
            result = parse_fol_line(line)
            assert isinstance(result, (Predicate, Connective))
            trees += 1
        except ParseError:
            pass
        except Exception:  # any other exception is a crash
            crashes += 1
    ok = crashes == 0
    _report(9, ok, f"100000 random byte strings: {crashes} crashes, "
                   f"{trees} parsed, rest typed ParseError")


def test_criterion_10_filter_count_stability(corpus, probe_library):
    scores = {}
    for n_filters in (8, 16, 32, 64):
        cfg = base_config(max_epochs=40, n_filters=n_filters)
        scores[n_filters] = _dev_f1(corpus, probe_library, cfg)
    spread = max(scores.values()) - min(scores.values())
    ok = spread <= 0.05
    _report(10, ok, "dev macro-F1 across n_filters {8,16,32,64}: "
                    + ", ".join(f"{k}->{v:.4f}" for k, v in scores.items())
                    + f"; spread {spread:.4f} (<= 0.05)")
