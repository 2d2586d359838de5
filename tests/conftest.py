"""Shared fixtures: the committed synthetic corpus and its recorded LLM
cache, loaded once per session in replay mode (no network)."""

from __future__ import annotations

import pathlib

import pytest

from stancegraph.config import RunConfig
from stancegraph.embed import make_provider
from stancegraph.gateway import Gateway
from stancegraph.induce import induce_library
from stancegraph.pipeline import generate_fol
from stancegraph.synth import (FIXTURE_DIMENSION, FIXTURE_INDUCE_SEED,
                               FIXTURE_PROBE_K, FIXTURE_PROVIDER)
from stancegraph.train import load_dataset

DATA_DIR = pathlib.Path(__file__).parent / "data"
CACHE_PATH = str(DATA_DIR / "llm_cache.jsonl")


def base_config(**overrides) -> RunConfig:
    """The configuration the committed fixture was recorded with, plus the
    training hyperparameters used throughout the tests."""
    cfg = RunConfig(dimension=FIXTURE_DIMENSION,
                    embedding_provider=FIXTURE_PROVIDER,
                    mode="replay",
                    learning_rate=1e-2,
                    max_epochs=60,
                    batch_size=8,
                    validation_interval=1.0,
                    patience=0,
                    seed=3)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def replay_gateway() -> Gateway:
    return Gateway(mode="replay", cache_path=CACHE_PATH)


def torn_cache(path, mid_character):
    """The first three lines of the fixture cache and a torn fourth line,
    cut after 40 bytes or inside a multi-byte UTF-8 character."""
    with open(CACHE_PATH, "rb") as fh:
        lines = [next(fh) for _ in range(4)]
    cut = lines[3].index("∧".encode("utf-8")) + 1 if mid_character else 40
    path.write_bytes(b"".join(lines[:3]) + lines[3][:cut])
    return str(path)


@pytest.fixture(scope="session")
def fixture_cfg() -> RunConfig:
    return base_config()


@pytest.fixture(scope="session")
def provider():
    return make_provider(FIXTURE_PROVIDER, FIXTURE_DIMENSION)


@pytest.fixture(scope="session")
def corpus(fixture_cfg, provider) -> dict:
    gateway = replay_gateway()
    parts = {}
    for name in ("train", "dev", "test"):
        examples = load_dataset(str(DATA_DIR / f"{name}.csv"),
                                fixture_cfg.label_set)
        enriched, _ = generate_fol(examples, gateway, provider, fixture_cfg)
        parts[name] = enriched
    return parts


@pytest.fixture(scope="session")
def all_graphs(corpus) -> list:
    return [ex.graph for part in ("train", "dev", "test")
            for ex in corpus[part]]


@pytest.fixture(scope="session")
def library(all_graphs, provider, fixture_cfg):
    return induce_library(all_graphs, provider, replay_gateway(),
                          seed=FIXTURE_INDUCE_SEED, k_grid=fixture_cfg.k_grid)


@pytest.fixture(scope="session")
def probe_library(all_graphs, provider):
    return induce_library(all_graphs, provider, replay_gateway(),
                          seed=FIXTURE_INDUCE_SEED, k_fixed=FIXTURE_PROBE_K)
