"""Command-line driver for the full pipeline.

Subcommands: generate-fol, induce, train, eval, predict, inspect.
Configuration comes from an optional JSON config file; flags override it;
every artifact is stamped with the config fingerprint.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict

import click
import numpy as np

from .config import RunConfig
from .embed import make_provider
from .errors import StanceGraphError
from .gateway import Gateway
from .induce import induce_library, load_library, save_library
from .kernel import (augment_graph, build_model, forward, load_checkpoint,
                     save_checkpoint)
from .pipeline import (file_fingerprint, generate_fol, rationale_to_graph,
                       write_graph_records)
from .train import (LABEL_SETS, evaluate, load_dataset, load_graph_records,
                    train)


def _load_config(config_path: str | None, **overrides) -> RunConfig:
    data = {}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            data = json.load(fh)
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return RunConfig.from_dict(data)


def _apply_ablations(cfg: RunConfig, ablate: tuple[str, ...]) -> None:
    for name in ablate:
        if name == "random-filters":
            cfg.random_filters = True
        elif name == "skip-augmentation":
            cfg.skip_augmentation = True
        else:
            raise click.UsageError(f"unknown ablation {name!r}")


def _labels(label_set: str | None, cfg: RunConfig) -> list[str]:
    if label_set is None:
        return list(cfg.label_set)
    if label_set not in LABEL_SETS:
        raise click.UsageError(
            f"unknown label set {label_set!r}; choose from {sorted(LABEL_SETS)}")
    return LABEL_SETS[label_set]


def _gateway(cfg: RunConfig) -> Gateway:
    cache_path = os.path.join(cfg.cache_dir, "llm_cache.jsonl")
    return Gateway(mode=cfg.mode, cache_path=cache_path)


_GLOBAL_OPTS = [
    click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                 help="JSON config file; flags override its values."),
    click.option("--seed", type=int, default=None),
    click.option("--mode", type=click.Choice(["live", "record", "replay"]), default=None),
    click.option("--cache-dir", type=click.Path(), default=None),
    click.option("--ablate", multiple=True,
                 type=click.Choice(["random-filters", "skip-augmentation"])),
]


def _with_global_opts(fn):
    for opt in reversed(_GLOBAL_OPTS):
        fn = opt(fn)
    return fn


@click.group()
def main() -> None:
    """Schema-guided zero-shot stance detection pipeline."""


@main.command("generate-fol")
@_with_global_opts
@click.argument("dataset", type=click.Path(exists=True))
@click.argument("out", type=click.Path())
@click.option("--label-set", default=None, help="favor-against-none | pro-con-neutral")
def cmd_generate_fol(config_path, seed, mode, cache_dir, ablate,
                     dataset, out, label_set) -> None:
    """Elicit FOL rationales per example and write graph records."""
    cfg = _load_config(config_path, seed=seed, mode=mode, cache_dir=cache_dir)
    _apply_ablations(cfg, ablate)
    labels = _labels(label_set, cfg)
    cfg.label_set = labels
    try:
        examples = load_dataset(dataset, labels)
        provider = make_provider(cfg.embedding_provider, cfg.dimension)
        gateway = _gateway(cfg)
        enriched, stats = generate_fol(examples, gateway, provider, cfg)
        write_graph_records(enriched, out, config_fingerprint=cfg.fingerprint())
    except StanceGraphError as exc:
        raise click.ClickException(str(exc)) from exc
    if stats.dropped_lines or stats.unparsed_lines or stats.fallback_graphs:
        click.echo(f"partial failures: dropped={stats.dropped_lines} "
                   f"unparsed={stats.unparsed_lines} "
                   f"fallback={stats.fallback_graphs}", err=True)
    click.echo(f"wrote {stats.examples} graph records to {out}")


@main.command("induce")
@_with_global_opts
@click.argument("graphs", type=click.Path(exists=True))
@click.argument("out", type=click.Path())
@click.option("--k", "k_fixed", type=int, default=None, help="Fix K instead of searching.")
@click.option("--label-set", default=None)
def cmd_induce(config_path, seed, mode, cache_dir, ablate,
               graphs, out, k_fixed, label_set) -> None:
    """Cluster pooled predicates and build the schema library."""
    cfg = _load_config(config_path, seed=seed, mode=mode, cache_dir=cache_dir,
                       k_fixed=k_fixed)
    _apply_ablations(cfg, ablate)
    labels = _labels(label_set, cfg)
    try:
        examples = load_graph_records(graphs, labels)
        provider = make_provider(cfg.embedding_provider, cfg.dimension)
        gateway = _gateway(cfg)
        library = induce_library(
            [ex.graph for ex in examples], provider, gateway, seed=cfg.seed,
            k_grid=cfg.k_grid, k_fixed=cfg.k_fixed, model_id=cfg.model_id,
            config_fingerprint=cfg.fingerprint())
        save_library(library, out)
    except StanceGraphError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"induced schema library with K={library.k} -> {out}")


@main.command("train")
@_with_global_opts
@click.argument("train_graphs", type=click.Path(exists=True))
@click.argument("dev_graphs", type=click.Path(exists=True))
@click.argument("library_path", type=click.Path(exists=True))
@click.argument("out", type=click.Path())
@click.option("--label-set", default=None)
@click.option("--log-out", type=click.Path(), default=None)
@click.option("--n-filters", type=int, default=None)
@click.option("--epochs", "max_epochs", type=int, default=None)
@click.option("--learning-rate", type=float, default=None)
@click.option("--patience", type=int, default=None)
def cmd_train(config_path, seed, mode, cache_dir, ablate, train_graphs,
              dev_graphs, library_path, out, label_set, log_out,
              n_filters, max_epochs, learning_rate, patience) -> None:
    """Train the kernel model from a schema library."""
    cfg = _load_config(config_path, seed=seed, mode=mode, cache_dir=cache_dir,
                       n_filters=n_filters, max_epochs=max_epochs,
                       learning_rate=learning_rate, patience=patience)
    _apply_ablations(cfg, ablate)
    labels = _labels(label_set, cfg)
    cfg.label_set = labels
    try:
        library = load_library(library_path)
        cfg.dimension = library.dimension
        train_set = load_graph_records(train_graphs, labels)
        dev_set = load_graph_records(dev_graphs, labels)
        if not cfg.skip_augmentation:
            for ex in train_set + dev_set:
                ex.graph = augment_graph(ex.graph, library)
        model = build_model(library, cfg, labels=labels,
                            library_fingerprint=file_fingerprint(library_path))
        result = train(train_set, dev_set, model, cfg)
        save_checkpoint(result.model, out)
        if log_out:
            with open(log_out, "w", encoding="utf-8") as fh:
                json.dump(result.log, fh, ensure_ascii=False, sort_keys=True)
                fh.write("\n")
    except StanceGraphError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"best validation loss {result.best_val_loss:.6f} "
               f"after {result.epochs_run:.2f} epochs -> {out}")


@main.command("eval")
@_with_global_opts
@click.argument("graphs", type=click.Path(exists=True))
@click.argument("checkpoint", type=click.Path(exists=True))
@click.option("--library", "library_path", type=click.Path(exists=True), default=None)
@click.option("--label-set", default=None)
@click.option("--metrics-out", type=click.Path(), default=None)
@click.option("--predictions-out", type=click.Path(), default=None)
@click.option("--force", is_flag=True, default=False)
def cmd_eval(config_path, seed, mode, cache_dir, ablate, graphs, checkpoint,
             library_path, label_set, metrics_out, predictions_out, force) -> None:
    """Evaluate a checkpoint; writes metrics and per-example predictions."""
    cfg = _load_config(config_path, seed=seed, mode=mode, cache_dir=cache_dir)
    _apply_ablations(cfg, ablate)
    try:
        fingerprint = file_fingerprint(library_path) if library_path else None
        model = load_checkpoint(checkpoint, library_fingerprint=fingerprint,
                                force=force)
        examples = load_graph_records(graphs, model.labels)
        if library_path and not cfg.skip_augmentation:
            library = load_library(library_path)
            for ex in examples:
                ex.graph = augment_graph(ex.graph, library)
        report = evaluate(examples, model)
    except StanceGraphError as exc:
        raise click.ClickException(str(exc)) from exc
    if metrics_out:
        payload = {k: report[k] for k in ("accuracy", "metrics", "per_target")}
        payload["config_fingerprint"] = model.config_fingerprint
        with open(metrics_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False, sort_keys=True, indent=1)
            fh.write("\n")
    if predictions_out:
        with open(predictions_out, "w", encoding="utf-8") as fh:
            for pred in report["predictions"]:
                fh.write(json.dumps(pred, ensure_ascii=False, sort_keys=True) + "\n")
    click.echo(json.dumps({
        "accuracy": report["accuracy"],
        "f1_all_classes": report["metrics"]["all_classes"]["f_avg"],
        "f1_polar": report["metrics"]["favor_against_only"]["f_avg"],
    }, sort_keys=True))


@main.command("predict")
@_with_global_opts
@click.argument("text")
@click.argument("target")
@click.argument("checkpoint", type=click.Path(exists=True))
@click.option("--library", "library_path", type=click.Path(exists=True), default=None)
@click.option("--force", is_flag=True, default=False)
def cmd_predict(config_path, seed, mode, cache_dir, ablate, text, target,
                checkpoint, library_path, force) -> None:
    """Predict the stance of one text/target pair, with the filter trace."""
    cfg = _load_config(config_path, seed=seed, mode=mode, cache_dir=cache_dir)
    _apply_ablations(cfg, ablate)
    try:
        fingerprint = file_fingerprint(library_path) if library_path else None
        model = load_checkpoint(checkpoint, library_fingerprint=fingerprint,
                                force=force)
        provider = make_provider(cfg.embedding_provider, model.dimension)
        gateway = _gateway(cfg)
        from .gateway import render_p1
        rationale = gateway.complete(render_p1(text, target, model_id=cfg.model_id,
                                               temperature=cfg.temperature,
                                               max_tokens=cfg.max_tokens))
        graph = rationale_to_graph(rationale, target, provider)
        if library_path and not cfg.skip_augmentation:
            graph = augment_graph(graph, load_library(library_path))
        cache = forward(graph, model)
    except StanceGraphError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(json.dumps({
        "text": text,
        "target": target,
        "pred": model.labels[int(np.argmax(cache.probabilities))],
        "probabilities": [float(p) for p in cache.probabilities],
        "selected_filters": cache.layers[0].selected.tolist(),
    }, ensure_ascii=False, sort_keys=True))


@main.command("inspect")
@_with_global_opts
@click.argument("library_path", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True, default=False)
def cmd_inspect(config_path, seed, mode, cache_dir, ablate,
                library_path, as_json) -> None:
    """Dump schema summaries, cluster sizes, edges, and a filter preview."""
    try:
        library = load_library(library_path)
    except OSError as exc:
        raise click.ClickException(str(exc)) from exc
    except StanceGraphError as exc:
        raise click.ClickException(str(exc)) from exc
    if as_json:
        click.echo(json.dumps({
            "k": library.k,
            "d": library.dimension,
            "seed": library.seed,
            "config_fingerprint": library.config_fingerprint,
            "nodes": [{"id": n.id, "summary": n.summary,
                       "member_count": n.member_count}
                      for n in library.graph.nodes],
            "edges": [{"src": e.src, "dst": e.dst, "relation": e.relation.value,
                       "weight": e.weight} for e in library.graph.edges],
        }, ensure_ascii=False, sort_keys=True))
        return
    click.echo(f"schema library: K={library.k} d={library.dimension} "
               f"seed={library.seed} fingerprint={library.config_fingerprint}")
    for node in library.graph.nodes:
        click.echo(f"  [{node.id:>3}] ({node.member_count} members) {node.summary}")
    for edge in library.graph.edges:
        click.echo(f"  edge {edge.src} -> {edge.dst} "
                   f"{edge.relation.value} w={edge.weight:.3f}")


if __name__ == "__main__":
    main()
