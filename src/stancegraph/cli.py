"""Command-line driver for the full pipeline.

Subcommands: generate-fol, induce, train, eval, predict, inspect.
Configuration comes from an optional JSON config file; flags override it;
every artifact is stamped with the config fingerprint.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import fields

import click
import numpy as np

from . import pipeline
from .config import RunConfig
from .embed import make_provider
from .errors import ConfigError, StanceGraphError
from .gateway import Gateway
from .induce import SchemaLibrary, induce_library, load_library, save_library
from .kernel import augment_graph, build_model, forward, load_checkpoint, save_checkpoint
from .pipeline import fingerprint, generate_fol, write_graph_records
from .train import (LABEL_SETS, LabeledExample, evaluate, load_dataset,
                    load_graph_records, train)

_FIELDS = frozenset(f.name for f in fields(RunConfig))
_CONFIG = click.option("--config", "config_path", type=click.Path(exists=True),
                       default=None, help="JSON config file; flags override its values.")
_SHARED = {
    "seed": click.option("--seed", type=int, default=None),
    "mode": click.option("--mode", type=click.Choice(["live", "record", "replay"]),
                         default=None),
    "cache_dir": click.option("--cache-dir", type=click.Path(), default=None),
}


def _label_set(ctx, param, name: str | None) -> list[str] | None:
    """--label-set NAME as the list of labels it names."""
    if name is not None and name not in LABEL_SETS:
        raise click.BadParameter(
            f"unknown label set {name!r}; choose from {sorted(LABEL_SETS)}")
    return None if name is None else list(LABEL_SETS[name])


_LABEL_SET = click.option("--label-set", default=None, callback=_label_set,
                          help="favor-against-none | pro-con-neutral")


def _load_config(config_path: str | None, overrides: dict) -> RunConfig:
    data = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"{config_path}: not a JSON file ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{config_path}: the config must be a JSON object, "
                              f"not {type(data).__name__}")
    data.update((key, value) for key, value in overrides.items() if value is not None)
    return RunConfig.from_dict(data)


@click.group()
def main() -> None:
    """Schema-guided zero-shot stance detection pipeline."""


def _command(name: str, *flags: str, config: bool = True):
    """Register subcommand `name` with --config and the named shared flags.
    A given parameter named after a RunConfig field overrides that field of
    the config file; the command gets `cfg` and its other parameters. A
    StanceGraphError or OSError from either exits through ClickException."""
    def register(fn):
        @functools.wraps(fn)
        def run(**params):
            try:
                if config:
                    overrides = {key: params.pop(key) for key in params.keys() & _FIELDS}
                    params["cfg"] = _load_config(params.pop("config_path"), overrides)
                fn(**params)
            except (StanceGraphError, OSError) as exc:
                raise click.ClickException(str(exc)) from exc

        for flag in reversed(flags):
            run = _SHARED[flag](run)
        return main.command(name)(_CONFIG(run) if config else run)
    return register


def _gateway(cfg: RunConfig) -> Gateway:
    cache_path = os.path.join(cfg.cache_dir, "llm_cache.jsonl")
    return Gateway(mode=cfg.mode, cache_path=cache_path)


def _augment(examples: list[LabeledExample], library: SchemaLibrary | None,
             cfg: RunConfig) -> list[LabeledExample]:
    """Link each example's graph to the library's schema nodes, unless there
    is no library or the config skips augmentation."""
    if library is not None and not cfg.skip_augmentation:
        for ex in examples:
            ex.graph = augment_graph(ex.graph, library)
    return examples


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _checked_model(checkpoint: str, library_path: str | None, force: bool):
    """The checkpoint, checked against the library file, and the library.
    The fingerprint and the library come from one read of the file."""
    if library_path is None:
        return load_checkpoint(checkpoint, force=force), None
    data = _read(library_path)
    model = load_checkpoint(checkpoint, library_fingerprint=fingerprint(data),
                            force=force)
    return model, load_library(library_path, data)


@_command("generate-fol", "mode", "cache_dir")
@click.argument("dataset", type=click.Path(exists=True))
@click.argument("out", type=click.Path())
@_LABEL_SET
def cmd_generate_fol(cfg, dataset, out) -> None:
    """Elicit FOL rationales per example and write graph records."""
    examples = load_dataset(dataset, cfg.label_set)
    provider = make_provider(cfg.embedding_provider, cfg.dimension)
    enriched, stats = generate_fol(examples, _gateway(cfg), provider, cfg)
    write_graph_records(enriched, out)
    if stats.dropped_lines or stats.unparsed_lines or stats.fallback_graphs:
        click.echo(f"partial failures: dropped={stats.dropped_lines} "
                   f"unparsed={stats.unparsed_lines} "
                   f"fallback={stats.fallback_graphs}", err=True)
    click.echo(f"wrote {stats.examples} graph records to {out}")


@_command("induce", "seed", "mode", "cache_dir")
@click.argument("graphs", type=click.Path(exists=True))
@click.argument("out", type=click.Path())
@click.option("--k", "k_fixed", type=int, default=None, help="Fix K instead of searching.")
@_LABEL_SET
def cmd_induce(cfg, graphs, out) -> None:
    """Cluster pooled predicates and build the schema library."""
    examples = load_graph_records(graphs, cfg.label_set)
    provider = make_provider(cfg.embedding_provider, cfg.dimension)
    library = induce_library(
        [ex.graph for ex in examples], provider, _gateway(cfg), seed=cfg.seed,
        k_grid=cfg.k_grid, k_fixed=cfg.k_fixed, model_id=cfg.model_id,
        config_fingerprint=cfg.fingerprint(), p2_max_lines=cfg.p2_max_lines)
    save_library(library, out)
    fallbacks = sum(node.fallback for node in library.graph.nodes)
    if fallbacks:
        click.echo(f"P2 fallbacks: {fallbacks} of {library.k} schema nodes "
                   f"use their nearest member as summary", err=True)
    click.echo(f"induced schema library with K={library.k} -> {out}")


@_command("train", "seed")
@click.argument("train_graphs", type=click.Path(exists=True))
@click.argument("dev_graphs", type=click.Path(exists=True))
@click.argument("library_path", type=click.Path(exists=True))
@click.argument("out", type=click.Path())
@_LABEL_SET
@click.option("--log-out", type=click.Path(), default=None)
@click.option("--n-filters", type=int, default=None)
@click.option("--epochs", "max_epochs", type=int, default=None)
@click.option("--learning-rate", type=float, default=None)
@click.option("--patience", type=int, default=None)
def cmd_train(cfg, train_graphs, dev_graphs, library_path, out, log_out) -> None:
    """Train the kernel model from a schema library."""
    data = _read(library_path)
    library = load_library(library_path, data)
    cfg.dimension = library.dimension
    train_set, dev_set = (_augment(load_graph_records(path, cfg.label_set), library, cfg)
                          for path in (train_graphs, dev_graphs))
    model = build_model(library, cfg, labels=cfg.label_set,
                        library_fingerprint=fingerprint(data))
    result = train(train_set, dev_set, model, cfg)
    save_checkpoint(result.model, out)
    if log_out:
        with open(log_out, "w", encoding="utf-8") as fh:
            json.dump(result.log, fh, ensure_ascii=False, sort_keys=True)
            fh.write("\n")
    click.echo(f"best validation loss {result.best_val_loss:.6f} "
               f"after {result.epochs_run:.2f} epochs -> {out}")


@_command("eval")
@click.argument("graphs", type=click.Path(exists=True))
@click.argument("checkpoint", type=click.Path(exists=True))
@click.option("--library", "library_path", type=click.Path(exists=True), default=None)
@click.option("--metrics-out", type=click.Path(), default=None)
@click.option("--predictions-out", type=click.Path(), default=None)
@click.option("--force", is_flag=True, default=False)
def cmd_eval(cfg, graphs, checkpoint, library_path, metrics_out,
             predictions_out, force) -> None:
    """Evaluate a checkpoint; writes metrics and per-example predictions."""
    model, library = _checked_model(checkpoint, library_path, force)
    examples = _augment(load_graph_records(graphs, model.labels), library, cfg)
    report = evaluate(examples, model)
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


@_command("predict", "mode", "cache_dir")
@click.argument("text")
@click.argument("target")
@click.argument("checkpoint", type=click.Path(exists=True))
@click.option("--library", "library_path", type=click.Path(exists=True), default=None)
@click.option("--force", is_flag=True, default=False)
def cmd_predict(cfg, text, target, checkpoint, library_path, force) -> None:
    """Predict the stance of one text/target pair, with the filter trace."""
    model, library = _checked_model(checkpoint, library_path, force)
    provider = make_provider(cfg.embedding_provider, model.dimension)
    ex = pipeline.elicit(LabeledExample(text=text, target=target, label=""),
                         _gateway(cfg), provider, cfg)
    cache = forward([_augment([ex], library, cfg)[0].graph], model)
    probabilities = cache.probabilities[0]
    click.echo(json.dumps({
        "text": text,
        "target": target,
        "pred": model.labels[int(np.argmax(probabilities))],
        "probabilities": [float(p) for p in probabilities],
        "selected_filters": cache.layers[0].selected.tolist(),
    }, ensure_ascii=False, sort_keys=True))


@_command("inspect", config=False)
@click.argument("library_path", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True, default=False)
def cmd_inspect(library_path, as_json) -> None:
    """Dump schema summaries, cluster sizes, edges, and a filter preview."""
    library = load_library(library_path)
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
