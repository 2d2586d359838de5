"""Output checks for the benchmark, each computed apart from the program.

Every check recomputes what it verifies from the benchmark's own inputs (the
rationales it synthesised), from an independent implementation (scipy's
``cdist`` for silhouette, a fresh macro-F1), or from a property the method
must have (exactly K non-empty clusters, finite parameters, a falling loss).
None compares against a stored copy of earlier output. Each raises
``CheckError`` with a message that names the first violation it finds.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

_PREDICATE_RE = re.compile(r"\w+\([^()]*\)")


class CheckError(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def rationale_structure(rationale: str) -> tuple[list[str], str]:
    """(cue predicates, conclusion predicate) of a synthesised rationale,
    read from its first line ``cue ∧ cue ... → Conclusion(target)``."""
    first = rationale.splitlines()[0]
    antecedent, consequent = first.split("→")
    cues = _PREDICATE_RE.findall(antecedent)
    (conclusion,) = _PREDICATE_RE.findall(consequent)
    return cues, conclusion


def check_graphs(items, examples, stats, stance_words: dict[str, str]) -> None:
    """Each graph has exactly the predicates of its rationale, c Implies edges
    (cue → conclusion) and c(c-1) Conjunction edges for c cues; no line went
    unparsed, no graph fell back, and llm_stance names the stance the
    rationale concludes."""
    _require(len(items) == len(examples),
             f"{len(examples)} graphs for {len(items)} examples")
    for stat in stats:
        _require(stat.unparsed_lines == 0, f"{stat.unparsed_lines} unparsed lines")
        _require(stat.fallback_graphs == 0, f"{stat.fallback_graphs} fallback graphs")
    for item, ex in zip(items, examples):
        source = item.example
        _require((ex.text, ex.target, ex.label) ==
                 (source.text, source.target, source.label),
                 f"example {source.text!r} came back altered")
        cues, conclusion = rationale_structure(source.rationale)
        names = ex.graph.canonical_strings()
        _require(sorted(names) == sorted(cues + [conclusion]),
                 f"graph nodes {sorted(names)} != rationale predicates "
                 f"{sorted(cues + [conclusion])}")
        expected = {(c, conclusion, "Implies") for c in cues}
        expected |= {(a, b, "Conjunction") for a in cues for b in cues if a != b}
        edges = [(names[s], names[d], rel.value) for s, d, rel in ex.graph.edges]
        _require(len(edges) == len(expected) and set(edges) == expected,
                 f"graph edges of {source.text!r} differ from its rationale")
        _require(ex.llm_stance == stance_words[item.stance],
                 f"llm_stance {ex.llm_stance!r}, rationale says "
                 f"{stance_words[item.stance]!r}")


def pooled_predicates(items) -> list[str]:
    """Distinct predicates of the rationales, found by the benchmark's regex."""
    pool = set()
    for item in items:
        cues, conclusion = rationale_structure(item.example.rationale)
        pool.update(cues)
        pool.add(conclusion)
    return sorted(pool)


def check_clusters(library, pool: list[str], k_expected: int | None) -> None:
    """Every pooled predicate sits in exactly one of K non-empty clusters and
    no schema node is a fallback."""
    nodes = library.graph.nodes
    _require(len(nodes) == library.k, f"{len(nodes)} schema nodes, K={library.k}")
    if k_expected is not None:
        _require(library.k == k_expected, f"K={library.k}, expected {k_expected}")
    _require(all(node.members for node in nodes), "an empty cluster")
    membership = Counter(m for node in nodes for m in node.members)
    _require(set(membership) == set(pool),
             f"{len(set(pool) - set(membership))} pooled predicates unclustered, "
             f"{len(set(membership) - set(pool))} members not in the pool")
    repeated = [m for m, count in membership.items() if count != 1]
    _require(not repeated, f"{len(repeated)} predicates in several clusters")
    fallbacks = [node.id for node in nodes if node.fallback]
    _require(not fallbacks, f"schema nodes {fallbacks} fell back")


def check_schema_edges(library, graphs) -> None:
    """Each schema edge weight equals its inter-cluster edge count, recomputed
    from the instance graphs and the cluster members, over the largest count."""
    cluster_of = {m: node.id for node in library.graph.nodes for m in node.members}
    counts: Counter = Counter()
    for graph in graphs:
        names = graph.canonical_strings()
        for s, d, rel in graph.edges:
            i, j = cluster_of[names[s]], cluster_of[names[d]]
            if i != j:
                counts[(i, j, rel.value)] += 1
    top = max(counts.values(), default=1)
    expected = {key: count / top for key, count in counts.items()}
    actual = {(e.src, e.dst, e.relation.value): e.weight
              for e in library.graph.edges}
    _require(len(actual) == len(library.graph.edges), "duplicate schema edges")
    _require(set(actual) == set(expected),
             f"schema edges differ: {len(set(actual) ^ set(expected))} mismatched")
    worst = max((abs(actual[k] - expected[k]) for k in expected), default=0.0)
    _require(worst <= 1e-12, f"schema edge weight off by {worst:.3g}")


def reference_silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette from scipy's pairwise distances; singletons score 0."""
    from scipy.spatial.distance import cdist

    dist = cdist(points, points)
    clusters, index = np.unique(labels, return_inverse=True)
    onehot = np.zeros((len(labels), len(clusters)))
    onehot[np.arange(len(labels)), index] = 1.0
    sums = dist @ onehot                              # (n, K) distance sums
    sizes = onehot.sum(axis=0)
    own = sums[np.arange(len(labels)), index]
    own_size = sizes[index]
    a = np.where(own_size > 1, own / np.maximum(own_size - 1, 1), 0.0)
    means = sums / sizes
    means[np.arange(len(labels)), index] = np.inf
    b = means.min(axis=1)
    denom = a + b
    scores = np.where((own_size > 1) & (denom > 0),
                      (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    return float(scores.mean())


def check_silhouette(program_value: float, reference_value: float) -> None:
    _require(abs(program_value - reference_value) <= 1e-9,
             f"silhouette {program_value!r} != cdist reference {reference_value!r}")


def check_training(steps: int, n_train: int, batch_size: int, epochs: int,
                   parameters: dict, initial_loss: float, final_loss: float) -> None:
    """Exactly ceil(n/batch) x epochs optimizer steps, finite parameters, and
    a training-set loss below its value at initialisation."""
    expected = math.ceil(n_train / batch_size) * epochs
    _require(steps == expected, f"{steps} optimizer steps, expected {expected}")
    bad = [name for name, value in parameters.items()
           if not np.all(np.isfinite(value))]
    _require(not bad, f"non-finite parameters {bad}")
    _require(final_loss < initial_loss,
             f"training loss {final_loss:.6g} not below initial {initial_loss:.6g}")


def macro_f1(preds: list[str], golds: list[str], labels: list[str]) -> float:
    scores = []
    for label in labels:
        tp = sum(p == label and g == label for p, g in zip(preds, golds))
        fp = sum(p == label and g != label for p, g in zip(preds, golds))
        fn = sum(p != label and g == label for p, g in zip(preds, golds))
        scores.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return sum(scores) / len(scores)


def check_evaluation(report: dict, golds: list[str], labels: list[str],
                     floor: float) -> float:
    """Macro-F1 over all classes, recomputed from the predictions, matches the
    report, and is well above chance. Returns the recomputed F1."""
    predictions = report["predictions"]
    _require([p["gold"] for p in predictions] == golds,
             "report golds differ from the test labels")
    f1 = macro_f1([p["pred"] for p in predictions], golds, labels)
    reported = report["metrics"]["all_classes"]["f_avg"]
    _require(abs(f1 - reported) <= 1e-12,
             f"reported macro-F1 {reported!r}, recomputed {f1!r}")
    _require(f1 >= floor, f"macro-F1 {f1:.4f} below the floor {floor}")
    return f1


def check_predict(outputs: list[dict], expected: list[dict]) -> None:
    """Each predict output has evaluate's label for that example and the same
    probabilities within 1e-9."""
    _require(len(outputs) == len(expected), "predict output count mismatch")
    for out, ref in zip(outputs, expected):
        _require((out["text"], out["target"]) == (ref["text"], ref["target"]),
                 "predict answered a different example")
        _require(out["pred"] == ref["pred"],
                 f"predict said {out['pred']!r}, evaluate said {ref['pred']!r}")
        gap = max(abs(a - b) for a, b in zip(out["probabilities"],
                                             ref["probabilities"]))
        _require(len(out["probabilities"]) == len(ref["probabilities"])
                 and gap <= 1e-9, f"predict probabilities differ by {gap:.3g}")
