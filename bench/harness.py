"""Workloads and the measured run of the stancegraph benchmark.

A run synthesises its workload's corpus from the seed and records the P1
responses into a fresh cache (set-up, repeated and timed), then repeats whole
rounds of the user's path until the run length is used up:

1. generate-fol over every split (gateway in replay mode),
2. induce_library over the pool, train and dev graphs (gateway in record
   mode with the synthetic responder as transport, so P1 lookups are cache
   reads and each P2 summary is a miss that is answered and appended),
3. augment_graph + build_model + train with a fixed number of epochs,
4. evaluate on the test split, whose targets no other split has,
5. a closed loop with one client: ``stancegraph predict`` through the
   package's click entry point, in-process, in replay mode.

Every round starts from a copy of the set-up cache, so every round does the
same work and writes the same library, checkpoint and predictions; round 0
also runs the output checks in ``checks.py``, outside the timed regions. With
tracing on, round 0 stays untraced (it gives the reference pipeline time and
artifacts) and the later rounds run under ``tracing.instrument``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from typing import Optional

import numpy as np

import stancegraph
from stancegraph import cli, gateway, induce, kernel, pipeline, synth
from stancegraph.config import RunConfig
from stancegraph.embed import make_provider

import checks
import tracing

# The package re-exports the function `train` under the module's name.
train_mod = importlib.import_module("stancegraph.train")

SPLITS = ("pool", "train", "dev", "test")
INDUCE_SPLITS = ("pool", "train", "dev")
SETUP_REPEATS = 9
# Share of examples whose rationale concludes a stance other than the one its
# cues (and gold label) support, and the synth noise that adds a cue from
# another family. Without them the test F1 sits at 1.0.
CONFLICT_SHARE = 0.3
CUE_NOISE = 0.3
F1_FLOOR = 0.5
BATCH_SIZE = 8
LEARNING_RATE = 0.01


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    dimension: int
    pool: tuple[int, int]        # (examples, targets); unlabeled
    train: tuple[int, int]
    dev: tuple[int, int]
    test: tuple[int, int]
    k_fixed: Optional[int]       # None: silhouette over the default K grid
    target_words: int            # tokens in each target name
    epochs: int
    queries: int                 # predict commands per round


WORKLOADS = {w.name: w for w in [
    # Kernel training dominates; induce, embeddings and the gateway stay light.
    Workload("kernel-train", dimension=48, pool=(0, 0), train=(240, 14),
             dev=(60, 3), test=(300, 3), k_fixed=16, target_words=1, epochs=3,
             queries=100),
    # Silhouette K selection and 384-d token embedding dominate; the peak RSS
    # comes from silhouette's (n, n, d) temporaries.
    Workload("schema-induce", dimension=384, pool=(0, 0), train=(160, 12),
             dev=(40, 4), test=(150, 3), k_fixed=None, target_words=3,
             epochs=3, queries=100),
    # A large unlabeled pool and a small labeled set: FOL parsing, embedding
    # and the gateway's cache load are heavy; predict re-reads a big cache.
    Workload("pool-query", dimension=48, pool=(1500, 140), train=(120, 4),
             dev=(60, 2), test=(150, 3), k_fixed=16, target_words=1, epochs=3,
             queries=200),
]}


@dataclasses.dataclass
class Item:
    example: synth.SyntheticExample   # text, target, gold label, rationale
    stance: str                       # the family the rationale concludes


def make_config(wl: Workload, seed: int) -> RunConfig:
    return RunConfig(dimension=wl.dimension, embedding_provider="token-average",
                     k_fixed=wl.k_fixed, batch_size=BATCH_SIZE,
                     learning_rate=LEARNING_RATE, max_epochs=wl.epochs,
                     patience=0, validation_interval=1.0, seed=seed)


# ---------------------------------------------------------------------------
# Inputs and set-up

def synthesize(wl: Workload, seed: int) -> dict[str, list[Item]]:
    """The workload's corpus; every split has targets no other split has."""
    total = sum(getattr(wl, split)[1] for split in SPLITS)
    targets = iter(target_names(total, wl.target_words))
    corpus = {}
    for offset, split in enumerate(SPLITS):
        n, n_targets = getattr(wl, split)
        split_targets = [next(targets) for _ in range(n_targets)]
        corpus[split] = _split(n, split_targets, seed * len(SPLITS) + offset)
    return corpus


def target_names(n: int, words: int) -> list[str]:
    """Target names of `words` tokens each, shared by no other target.

    With three tokens a predicate embeds mostly as its target, so silhouette
    picks K = the number of induce targets on every seed; with one token it
    wanders between 8 and 64 across seeds, and the cost of everything
    downstream wanders with it. The fixed-K workloads keep one token: there
    the cue tokens dominate and test F1 varies less across seeds."""
    stems = ("Topic", "Issue", "Case")[:words]
    return [" ".join(f"{stem}{i}" for stem in stems) for i in range(n)]


def _split(n: int, targets: list[str], seed: int) -> list[Item]:
    if n == 0:
        return []
    chosen, seen = [], set()
    for ex in synth.generate_examples(2 * n, targets, seed, noise=CUE_NOISE):
        if (ex.text, ex.target) not in seen:   # one P1 prompt per example
            seen.add((ex.text, ex.target))
            chosen.append(ex)
    if len(chosen) < n:
        raise ValueError(f"only {len(chosen)} distinct examples for {n}")
    rng = np.random.default_rng(seed)
    conflicted = set(rng.choice(n, size=round(CONFLICT_SHARE * n),
                                replace=False).tolist())
    items = []
    for i, ex in enumerate(chosen[:n]):
        stance = ex.label
        if i in conflicted:
            others = [label for label in synth.LABELS if label != ex.label]
            stance = others[int(rng.integers(len(others)))]
            ex = dataclasses.replace(ex, rationale=_restate(ex, stance))
        items.append(Item(ex, stance))
    return items


def _restate(ex: synth.SyntheticExample, stance: str) -> str:
    """The rationale with its conclusion and attitude line swapped to `stance`."""
    cues = ex.rationale.splitlines()[0].split("→")[0].strip()
    family = synth.FAMILIES[stance]
    return (f"{cues} → {family['conclusion']}({ex.target})\n"
            f"Attitude: {family['stance_word']}")


def setup(wl: Workload, seed: int, cfg: RunConfig, cache_path: str):
    """Synthesise the corpus and record every P1 response into a fresh cache."""
    corpus = synthesize(wl, seed)
    examples = [item.example for split in SPLITS for item in corpus[split]]
    responder = synth.SyntheticResponder(examples)
    if os.path.exists(cache_path):
        os.remove(cache_path)
    recorder = gateway.Gateway(mode="record", cache_path=cache_path,
                               transport=responder)
    for ex in examples:
        recorder.complete(gateway.render_p1(
            ex.text, ex.target, model_id=cfg.model_id,
            temperature=cfg.temperature, max_tokens=cfg.max_tokens))
    return corpus, responder


# ---------------------------------------------------------------------------
# One round

@dataclasses.dataclass
class Round:
    wall_s: float    # the whole round, predict loop included
    pipeline_s: float
    train_s: float
    stage_s: dict
    latencies: list
    failed: int
    digest: str
    state: dict      # objects the round-0 checks and the trace read


def _file_digest(hasher, path: str) -> None:
    with open(path, "rb") as fh:
        hasher.update(fh.read())


def _augmented(examples, library):
    return [dataclasses.replace(ex, graph=kernel.augment_graph(ex.graph, library))
            for ex in examples]


def invoke_predict(args: list[str]) -> dict:
    """One ``stancegraph predict`` through the click entry point, in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main.main(args=args, prog_name="stancegraph", standalone_mode=False)
    return json.loads(out.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def gc_isolated():
    """Collect garbage, then keep every object alive so far out of the cyclic
    GC until the block ends. A ``stancegraph`` command started from a shell
    has none of the benchmark's corpus or earlier stages in memory; without
    this, every full collection inside a timed region also walks them."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_round(wl: Workload, cfg: RunConfig, corpus, responder, setup_cache: str,
              round_dir: str, tracer: Optional[tracing.Tracer] = None) -> Round:
    started = time.perf_counter()
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    cache_dir = os.path.join(round_dir, "cache")
    os.makedirs(cache_dir)
    cache_path = os.path.join(cache_dir, "llm_cache.jsonl")
    shutil.copyfile(setup_cache, cache_path)
    library_path = os.path.join(round_dir, "library.json")
    checkpoint_path = os.path.join(round_dir, "model.json")
    config_path = os.path.join(round_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(cfg), fh)
    provider = make_provider(cfg.embedding_provider, cfg.dimension)
    labels = list(cfg.label_set)

    with gc_isolated():
        t0 = time.perf_counter()
        with span("stage.generate_fol"):
            replay = gateway.Gateway(mode="replay", cache_path=cache_path)
            splits, stats = {}, []
            for name in SPLITS:
                if corpus[name]:
                    examples = synth.to_labeled([it.example for it in corpus[name]])
                    splits[name], split_stats = pipeline.generate_fol(
                        examples, replay, provider, cfg)
                    stats.append(split_stats)
        t1 = time.perf_counter()
        with span("stage.induce"):
            recorder = gateway.Gateway(mode="record", cache_path=cache_path,
                                       transport=responder)
            graphs = [ex.graph for name in INDUCE_SPLITS
                      for ex in splits.get(name, [])]
            library = induce.induce_library(
                graphs, provider, recorder, seed=cfg.seed, k_grid=cfg.k_grid,
                k_fixed=cfg.k_fixed, model_id=cfg.model_id,
                config_fingerprint=cfg.fingerprint())
            induce.save_library(library, library_path)
        t2 = time.perf_counter()
        with span("stage.train"):
            train_set = _augmented(splits["train"], library)
            dev_set = _augmented(splits["dev"], library)
            model = kernel.build_model(
                library, cfg, labels=labels,
                library_fingerprint=pipeline.file_fingerprint(library_path))
            result = train_mod.train(train_set, dev_set, model, cfg)
        t3 = time.perf_counter()
        kernel.save_checkpoint(result.model, checkpoint_path)
        t4 = time.perf_counter()
        with span("stage.eval"):
            test_set = _augmented(splits["test"], library)
            report = train_mod.evaluate(test_set, result.model)
        t5 = time.perf_counter()
    stage = {"generate_fol": t1 - t0, "induce": t2 - t1, "train": t3 - t2,
             "eval": t5 - t4}

    latencies, outputs, failed = [], [], 0
    test_items = corpus["test"]
    with gc_isolated():
        for q in range(wl.queries):
            ex = test_items[q % len(test_items)].example
            args = ["predict", "--config", config_path, "--mode", "replay",
                    "--cache-dir", cache_dir, ex.text, ex.target,
                    checkpoint_path, "--library", library_path]
            start = time.perf_counter()
            try:
                with span("cli.predict"):
                    outputs.append(invoke_predict(args))
            except Exception as exc:  # a failed command is counted, not fatal
                failed += 1
                outputs.append(None)
                print(f"predict failed: {exc!r}", file=sys.stderr)
            latencies.append(time.perf_counter() - start)

    hasher = hashlib.sha256()
    _file_digest(hasher, library_path)
    _file_digest(hasher, checkpoint_path)
    hasher.update(json.dumps([report["predictions"], outputs],
                             sort_keys=True).encode("utf-8"))
    with open(cache_path, encoding="utf-8") as fh:
        cache_lines = sum(1 for line in fh if line.strip())
    state = dict(splits=splits, stats=stats, graphs=graphs, library=library,
                 result=result, report=report, outputs=outputs,
                 train_set=train_set, cache_lines=cache_lines)
    return Round(wall_s=time.perf_counter() - started, pipeline_s=t5 - t0,
                 train_s=t3 - t2, stage_s=stage, latencies=latencies, failed=failed,
                 digest=hasher.hexdigest(), state=state)


def ops_per_round(wl: Workload) -> int:
    """generate_fol per non-empty split, induce, train, evaluate, predicts."""
    return sum(1 for split in SPLITS if getattr(wl, split)[0]) + 3 + wl.queries


# ---------------------------------------------------------------------------
# Output checks (round 0, outside the timed regions)

def run_checks(wl: Workload, cfg: RunConfig, corpus, rnd: Round,
               steps: int) -> list[str]:
    """Run every output check; return the failures as messages."""
    st = rnd.state
    library, report, result = st["library"], st["report"], st["result"]
    stance_words = {label: synth.FAMILIES[label]["stance_word"]
                    for label in synth.LABELS}
    induce_items = [it for name in INDUCE_SPLITS for it in corpus[name]]
    pool = checks.pooled_predicates(induce_items)
    test_items = corpus["test"]
    failures = []

    def attempt(name, fn, *args):
        try:
            fn(*args)
        except checks.CheckError as exc:
            failures.append(f"{name}: {exc}")

    items = [it for name in SPLITS for it in corpus[name]]
    examples = [ex for name in SPLITS for ex in st["splits"].get(name, [])]
    attempt("graphs", checks.check_graphs, items, examples, st["stats"],
            stance_words)
    k_expected = None if wl.k_fixed is None else min(wl.k_fixed, len(pool))
    attempt("clusters", checks.check_clusters, library, pool, k_expected)
    attempt("schema-edges", checks.check_schema_edges, library, st["graphs"])
    if wl.k_fixed is None:
        points, labels = _clustered_points(st["graphs"], library)
        attempt("silhouette", checks.check_silhouette,
                induce.silhouette(points, labels),
                checks.reference_silhouette(points, labels))
    initial = kernel.build_model(library, cfg, labels=list(cfg.label_set))
    initial_loss, _ = train_mod.dataset_loss(initial, st["train_set"])
    final_loss, _ = train_mod.dataset_loss(result.model, st["train_set"])
    attempt("training", checks.check_training, steps, len(st["train_set"]),
            cfg.batch_size, cfg.max_epochs, result.model.parameters(),
            initial_loss, final_loss)
    attempt("evaluation", checks.check_evaluation, report,
            [it.example.label for it in test_items], list(cfg.label_set),
            F1_FLOOR)
    expected = [report["predictions"][q % len(test_items)]
                for q in range(wl.queries)]
    answered = [(out, ref) for out, ref in zip(st["outputs"], expected)
                if out is not None]
    attempt("predict", checks.check_predict, [a for a, _ in answered],
            [r for _, r in answered])
    return failures


def _clustered_points(graphs, library):
    """Each distinct predicate's embedding (from the graphs) and its cluster
    (from the library's member lists), in sorted predicate order."""
    vectors = {}
    for graph in graphs:
        for node in graph.nodes:
            vectors.setdefault(node.canonical(), node.embedding)
    cluster_of = {m: node.id for node in library.graph.nodes for m in node.members}
    keys = sorted(vectors)
    return (np.stack([vectors[k] for k in keys]),
            np.asarray([cluster_of[k] for k in keys]))


# ---------------------------------------------------------------------------
# Workload make-up, environment, per-layer metrics

def makeup(corpus, rnd: Round) -> dict:
    st = rnd.state
    texts = [it.example.text for split in SPLITS for it in corpus[split]]
    predicates = [name for split in SPLITS for ex in st["splits"].get(split, [])
                  for name in ex.graph.canonical_strings()]
    graphs = [ex.graph for split in SPLITS for ex in st["splits"].get(split, [])]
    return {
        "examples": {split: len(corpus[split]) for split in SPLITS},
        "targets": {split: len({it.example.target for it in corpus[split]})
                    for split in SPLITS},
        "distinct_predicates": len(st["library"].clustering.assignments),
        "mean_nodes_per_graph": float(np.mean([len(g.nodes) for g in graphs])),
        "cache_lines": st["cache_lines"],
        "repeated_text_share": 1 - len(set(texts)) / len(texts),
        "repeated_predicate_share": 1 - len(set(predicates)) / len(predicates),
        "k": st["library"].k,
        "test_f1": st["report"]["metrics"]["all_classes"]["f_avg"],
    }


def environment(cfg: RunConfig) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: value for var, value in sorted(os.environ.items())
                    if var.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
        "stancegraph": stancegraph.__version__,
        "config_fingerprint": cfg.fingerprint(),
    }


COUNT_SPANS = ("kernel.forward", "kernel.backward", "kernel.khop_subgraph",
               "train.AdamW.step", "induce.select_k", "induce.kmeans",
               "induce.silhouette", "embed.embed_batch", "gateway.load",
               "gateway.complete", "fol.parse_fol_line")
TIME_SPANS = ("kernel.forward", "kernel.backward", "kernel.khop_subgraph",
              "kernel.clone_model", "kernel.build_model", "kernel.augment_graph",
              "kernel.save_checkpoint", "kernel.load_checkpoint", "train.train",
              "train.AdamW.step", "train.dataset_loss", "train.evaluate",
              "induce.induce_library", "induce.kmeans",
              "induce.abstract_clusters", "induce.build_schema_graph",
              "induce.load_library", "embed.embed_batch", "gateway.load",
              "gateway.complete", "fol.parse_fol_line", "fol.build_fol_graph",
              "pipeline.generate_fol", "pipeline.rationale_to_graph")
PREDICT_CHILDREN = {"gateway_load_ms": "gateway.load",
                    "load_checkpoint_ms": "kernel.load_checkpoint",
                    "load_library_ms": "induce.load_library",
                    "rationale_to_graph_ms": "pipeline.rationale_to_graph",
                    "forward_ms": "kernel.forward"}


def layer_metrics(tracer: tracing.Tracer, rnd: Round) -> dict:
    """Per-layer (value, unit) of one traced round: self times, call counts,
    counters, and per-query medians of predict's parts."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    values = {f"{name}.s": (self_s.get(name, 0.0), "s") for name in TIME_SPANS}
    values.update({f"{name}.calls": (calls.get(name, 0), "count")
                   for name in COUNT_SPANS})
    queries = tracer.children_by_name("cli.predict")
    for metric, child in PREDICT_CHILDREN.items():
        values[f"cli.predict.{metric}"] = (1000 * statistics.median(
            q.get(child, 0.0) for q in queries), "ms")
    library = rnd.state["library"]
    texts = tracer.counts["embed.texts"]
    values.update({
        "induce.predicates": (len(library.clustering.assignments), "count"),
        "induce.k": (library.k, "count"),
        "induce.peak_traced_mb": (tracer.peak_traced_bytes / 2**20, "MB"),
        "embed.texts": (texts, "count"),
        "embed.distinct_text_ratio": (len(tracer.texts) / max(1, texts), "ratio"),
        "gateway.hits": (tracer.counts["gateway.hits"], "count"),
        "gateway.writes": (tracer.counts["gateway.writes"], "count"),
        "gateway.cache_lines": (rnd.state["cache_lines"], "count"),
    })
    return values


# ---------------------------------------------------------------------------
# The run

def run(name: str, seed: int, seconds: int, trace: bool, out_root: str) -> dict:
    wl = WORKLOADS[name]
    cfg = make_config(wl, seed)
    run_dir = os.path.join(out_root, name, f"seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs_dir = os.path.join(run_dir, "inputs")
    os.makedirs(inputs_dir)
    setup_cache = os.path.join(inputs_dir, "llm_cache.jsonl")

    setup_times = []
    for _ in range(SETUP_REPEATS):
        corpus = responder = None          # let the last repeat's corpus go
        with gc_isolated():
            start = time.perf_counter()
            corpus, responder = setup(wl, seed, cfg, setup_cache)
            setup_times.append(time.perf_counter() - start)
    for split in SPLITS:
        if corpus[split]:
            synth.write_csv([it.example for it in corpus[split]],
                            os.path.join(inputs_dir, f"{split}.csv"))

    deadline = time.perf_counter() + seconds
    rounds: list[Round] = []
    layers: list[dict] = []
    failures: list[str] = []
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(cfg)}
    for index in itertools.count():
        round_dir = os.path.join(run_dir, f"round{index}")
        if index == 0:
            with tracing.count_calls(train_mod.AdamW, "step") as steps:
                rnd = run_round(wl, cfg, corpus, responder, setup_cache, round_dir)
            checks_start = time.perf_counter()
            failures += run_checks(wl, cfg, corpus, rnd, steps["calls"])
            detail["makeup"] = makeup(corpus, rnd)
            # The checks are not part of any round: their time does not
            # count against the run length.
            detail["checks_s"] = time.perf_counter() - checks_start
            deadline += detail["checks_s"]
        elif trace:
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                rnd = run_round(wl, cfg, corpus, responder, setup_cache,
                                round_dir, tracer=tracer)
            layers.append(layer_metrics(tracer, rnd))
            if len(layers) == 1:
                tracer.write(os.path.join(run_dir, "spans.jsonl"))
                detail["self_time_s"] = tracer.self_times()
            del tracer
        else:
            rnd = run_round(wl, cfg, corpus, responder, setup_cache, round_dir)
        rnd.state = {}
        rounds.append(rnd)
        if index:
            shutil.rmtree(round_dir)
        if rnd.digest != rounds[0].digest:
            failures.append(f"round {index} artifacts differ from round 0")
        print(f"[{name} seed={seed}] round {index}"
              f"{' traced' if index and trace else ''}: "
              f"pipeline {rnd.pipeline_s:.3f}s train {rnd.train_s:.3f}s "
              f"predict mean {1000 * statistics.fmean(rnd.latencies):.2f}ms",
              file=sys.stderr)
        # Start another round only if one as long as this one still ends
        # by the deadline, so a run lasts at most about `seconds`.
        if (time.perf_counter() + rnd.wall_s > deadline
                and (layers or not trace)):
            break

    attempted = SETUP_REPEATS + ops_per_round(wl) * len(rounds)
    failed = sum(rnd.failed for rnd in rounds)
    detail.update(check_failures=failures, setup_s=setup_times, rounds=[
        {"pipeline_s": r.pipeline_s, "train_s": r.train_s, "stage_s": r.stage_s,
         "failed": r.failed, "predict_s": r.latencies} for r in rounds])
    if trace:
        metrics = traced_metrics(layers, rounds[0], rounds[1:])
    else:
        latencies = [lat for rnd in rounds for lat in rnd.latencies]
        # Means over the whole run, not medians: the host flips between a
        # fast and a slow speed regime every second or so, so latencies are
        # bimodal and a median jumps between the two modes, while a mean
        # moves only with the share of the run spent in each.
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pipeline_s": (statistics.fmean(r.pipeline_s for r in rounds), "s"),
            "train_s": (statistics.fmean(r.train_s for r in rounds), "s"),
            "predict_mean_ms": (1000 * statistics.fmean(latencies), "ms"),
            "predict_p90_ms": (1000 * float(np.percentile(latencies, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "test_macro_f1": (detail["makeup"]["test_f1"], "F1"),
        }
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    shutil.rmtree(os.path.join(run_dir, "round0", "cache"), ignore_errors=True)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": detail["metrics"]}


def traced_metrics(layers: list[dict], untraced: Round, traced: list[Round]) -> dict:
    """Times are medians over the traced rounds; counts repeat exactly, so
    the first round's are reported. Stage times and the tracing overhead
    are taken against the untraced round 0 of the same process."""
    metrics = {}
    for key, (value, unit) in layers[0].items():
        if unit in ("s", "ms"):
            value = statistics.median(layer[key][0] for layer in layers)
        metrics[key] = (value, unit)
    traced_pipeline = statistics.median(rnd.pipeline_s for rnd in traced)
    metrics["trace.overhead_s"] = (traced_pipeline - untraced.pipeline_s, "s")
    for stage in ("generate_fol", "induce", "eval"):
        metrics[f"stage.{stage}.s"] = (untraced.stage_s[stage], "s")
    return metrics
