"""Synthetic stance dataset generator plus a deterministic offline responder.

The generator emits examples whose rationale is built from concept families
(cue predicates implying a stance predicate), so schema induction over the
corpus recovers meaningful clusters. The responder answers P1 with the
example's rationale and P2 with a token summary of the cluster members, which
makes record-mode runs fully offline and deterministic; the recorded cache
then drives replay-mode runs.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .fol import split_fol_lines
from .gateway import P1_TEMPLATE, PromptRequest
from .train import LabeledExample

FAMILIES = {
    "Favor": {
        "verbs": ["Reduce", "Improve", "Protect", "Strengthen"],
        "objects": ["Risk", "Health", "Safety", "Rights"],
        "conclusion": "Support",
        "stance_word": "Support",
    },
    "Against": {
        "verbs": ["Increase", "Harm", "Threaten", "Weaken"],
        "objects": ["Cost", "Freedom", "Economy", "Trust"],
        "conclusion": "Oppose",
        "stance_word": "Opposed",
    },
    "None": {
        "verbs": ["Mention", "Describe", "Report", "Discuss"],
        "objects": ["Context", "History", "Details", "Background"],
        "conclusion": "Note",
        "stance_word": "Neutral",
    },
}

LABELS = ["Favor", "Against", "None"]


@dataclass
class SyntheticExample:
    text: str
    target: str
    label: str
    rationale: str


def _make_rationale(label: str, target: str, rng: np.random.Generator,
                    noise: float) -> tuple[str, str]:
    fam = FAMILIES[label]
    verbs = rng.choice(len(fam["verbs"]), size=2, replace=False)
    objs = rng.choice(len(fam["objects"]), size=2, replace=False)
    cues = [f"{fam['verbs'][v]}({target},{fam['objects'][o]})"
            for v, o in zip(verbs, objs)]
    if rng.random() < noise:
        other = [l for l in LABELS if l != label][int(rng.integers(2))]
        ofam = FAMILIES[other]
        cues.append(f"{ofam['verbs'][int(rng.integers(4))]}"
                    f"({target},{ofam['objects'][int(rng.integers(4))]})")
    conclusion = f"{fam['conclusion']}({target})"
    lines = [f"{' ∧ '.join(cues)} → {conclusion}",
             f"Attitude: {fam['stance_word']}"]
    text = (f"This argument about {target} holds that it would "
            f"{' and '.join(c.split('(')[0].lower() for c in cues)} "
            f"{' and '.join(fam['objects'][o].lower() for o in objs)}.")
    return text, "\n".join(lines)


def generate_examples(n: int, targets: list[str], seed: int,
                      noise: float = 0.15) -> list[SyntheticExample]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = LABELS[i % len(LABELS)]
        target = targets[int(rng.integers(len(targets)))]
        text, rationale = _make_rationale(label, target, rng, noise)
        out.append(SyntheticExample(text=text, target=target, label=label,
                                    rationale=rationale))
    return out


def write_csv(examples: list[SyntheticExample], path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "target", "label"])
        for ex in examples:
            writer.writerow([ex.text, ex.target, ex.label])


def to_labeled(examples: list[SyntheticExample]) -> list[LabeledExample]:
    return [LabeledExample(text=e.text, target=e.target, label=e.label)
            for e in examples]


class SyntheticResponder:
    """Offline transport: replays generated rationales for P1 and summarizes
    predicate lists for P2 by their distinct head symbols."""

    def __init__(self, examples: list[SyntheticExample]):
        self._p1: dict[str, str] = {}
        for ex in examples:
            prompt = P1_TEMPLATE.format(sentence=ex.text, target=ex.target)
            self._p1[prompt] = ex.rationale

    def __call__(self, req: PromptRequest) -> str:
        if req.template_id == "P1":
            try:
                return self._p1[req.filled_prompt]
            except KeyError:
                raise AssertionError("P1 prompt not generated by this corpus") from None
        lines, _ = split_fol_lines(req.filled_prompt)
        heads = []
        for line in lines:
            head = line.split("(", 1)[0].strip().lstrip("¬~")
            if head and head not in heads:
                heads.append(head)
        return "Concept of " + " ".join(heads[:6]) if heads else "General concept"


def default_targets(n_targets: int = 10) -> list[str]:
    return [f"Topic{i}" for i in range(n_targets)]


def make_corpus(n_train: int = 32, n_dev: int = 24, n_test: int = 24,
                seed: int = 7, noise: float = 0.15
                ) -> tuple[list[SyntheticExample], list[SyntheticExample],
                           list[SyntheticExample]]:
    """Train/dev/test with disjoint targets (zero-shot flavored)."""
    targets = default_targets(10)
    train = generate_examples(n_train, targets[:6], seed, noise)
    dev = generate_examples(n_dev, targets[6:8], seed + 1, noise)
    test = generate_examples(n_test, targets[8:], seed + 2, noise)
    return train, dev, test


# ---------------------------------------------------------------------------
# Canned fixture: CSVs plus a recorded LLM cache, so every downstream stage
# runs in replay mode with zero network access.

FIXTURE_SEED = 7
FIXTURE_INDUCE_SEED = 3
FIXTURE_DIMENSION = 48
FIXTURE_PROVIDER = "token-average"
FIXTURE_PROBE_K = 64


def build_fixture(data_dir: str) -> dict:
    """Write train/dev/test CSVs and record the LLM cache covering the P1
    calls for every example and the P2 calls of both induction variants
    (silhouette-selected K and the fixed probe K)."""
    from .config import RunConfig
    from .embed import make_provider
    from .gateway import Gateway
    from .induce import induce_library
    from .pipeline import generate_fol

    train, dev, test = make_corpus(seed=FIXTURE_SEED)
    paths = {name: os.path.join(data_dir, f"{name}.csv")
             for name in ("train", "dev", "test")}
    write_csv(train, paths["train"])
    write_csv(dev, paths["dev"])
    write_csv(test, paths["test"])
    cache_path = os.path.join(data_dir, "llm_cache.jsonl")
    if os.path.exists(cache_path):
        os.remove(cache_path)
    cfg = RunConfig(dimension=FIXTURE_DIMENSION,
                    embedding_provider=FIXTURE_PROVIDER)
    responder = SyntheticResponder(train + dev + test)
    gateway = Gateway(mode="record", cache_path=cache_path, transport=responder)
    provider = make_provider(FIXTURE_PROVIDER, FIXTURE_DIMENSION)
    graphs = []
    for part in (train, dev, test):
        enriched, _ = generate_fol(to_labeled(part), gateway, provider, cfg)
        graphs.extend(ex.graph for ex in enriched)
    induce_library(graphs, provider, gateway, seed=FIXTURE_INDUCE_SEED,
                   k_grid=cfg.k_grid)
    induce_library(graphs, provider, gateway, seed=FIXTURE_INDUCE_SEED,
                   k_fixed=FIXTURE_PROBE_K)
    paths["cache"] = cache_path
    return paths


if __name__ == "__main__":
    import sys

    target_dir = sys.argv[1] if len(sys.argv) > 1 else "tests/data"
    written = build_fixture(target_dir)
    for name, path in written.items():
        print(f"{name}: {path}")
