"""End-to-end stage orchestration shared by the CLI and the tests."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

from .config import RunConfig
from .embed import EmbeddingProvider
from .errors import ParseError, StanceGraphError
from .fol import (build_fol_graph, fallback_graph, parse_fol_line,
                  split_fol_lines)
from .gateway import Gateway, render_p1
from .train import LabeledExample

_STANCE_WORDS = ("Support", "Opposed", "Neutral")


@dataclass
class GenerateStats:
    examples: int = 0
    dropped_lines: int = 0
    unparsed_lines: int = 0
    fallback_graphs: int = 0


def rationale_to_graph(rationale: str, target: str,
                       provider: EmbeddingProvider,
                       stats: GenerateStats | None = None):
    """Parse a rationale into an embedded instance graph, falling back to a
    single text node when nothing parses."""
    stats = stats if stats is not None else GenerateStats()
    lines, dropped = split_fol_lines(rationale)
    stats.dropped_lines += dropped
    exprs = []
    for line in lines:
        try:
            exprs.append(parse_fol_line(line))
        except ParseError:
            stats.unparsed_lines += 1
    if exprs:
        graph = build_fol_graph(exprs)
        texts = graph.canonical_strings()
        vectors = provider.embed_batch(texts)
        for node, vec in zip(graph.nodes, vectors):
            node.embedding = vec
    else:
        stats.fallback_graphs += 1
        graph = fallback_graph(target)
        source = rationale.strip() or target
        graph.nodes[0].embedding = provider.embed_batch([source])[0]
    return graph


def extract_llm_stance(rationale: str) -> str | None:
    for line in reversed(rationale.splitlines()):
        for word in _STANCE_WORDS:
            if word.lower() in line.lower():
                return word
    return None


def elicit(ex: LabeledExample, gateway: Gateway, provider: EmbeddingProvider,
           cfg: RunConfig, stats: GenerateStats | None = None) -> LabeledExample:
    """Ask P1 about one example under cfg; the example with the rationale,
    its instance graph and the stance word the rationale ends on."""
    rationale = gateway.complete(render_p1(
        ex.text, ex.target, model_id=cfg.model_id,
        temperature=cfg.temperature, max_tokens=cfg.max_tokens))
    return replace(ex, rationale=rationale,
                   graph=rationale_to_graph(rationale, ex.target, provider, stats),
                   llm_stance=extract_llm_stance(rationale))


def generate_fol(examples: list[LabeledExample], gateway: Gateway,
                 provider: EmbeddingProvider, cfg: RunConfig
                 ) -> tuple[list[LabeledExample], GenerateStats]:
    stats = GenerateStats(examples=len(examples))
    return [elicit(ex, gateway, provider, cfg, stats) for ex in examples], stats


def write_graph_records(examples: list[LabeledExample], path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            record = {
                "text": ex.text,
                "target": ex.target,
                "label": ex.label,
                "rationale": ex.rationale,
                "llm_stance": ex.llm_stance,
                "graph": ex.graph.to_dict(),
            }
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def fingerprint(data: bytes) -> str:
    """The fingerprint of a file whose bytes are `data`."""
    return hashlib.sha256(data).hexdigest()[:16]


def file_fingerprint(path: str) -> str:
    with open(path, "rb") as fh:
        return fingerprint(fh.read())
