"""Shared fixtures: the committed synthetic corpus and its recorded LLM
cache, loaded once per session in replay mode (no network)."""

from __future__ import annotations

import json
import math
import pathlib
import struct

import numpy as np
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


def artifact_parts(path) -> tuple[bytes, dict, bytes]:
    """The magic, the parsed header and the payload of a binary checkpoint
    or library file."""
    data = pathlib.Path(path).read_bytes()
    size = struct.unpack_from("<Q", data, 8)[0]
    return data[:8], json.loads(data[16:16 + size]), data[16 + size:]


def _write_parts(path, magic: bytes, header, payload: bytes) -> None:
    """Write an artifact file from its parts; the header (any JSON value)
    is padded with spaces to 8 bytes."""
    raw = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    raw += b" " * (-len(raw) % 8)
    pathlib.Path(path).write_bytes(magic + struct.pack("<Q", len(raw)) + raw + payload)


def rewrite_header(path, edit) -> None:
    """Replace the artifact's header by `edit` of it; the payload is kept."""
    magic, header, payload = artifact_parts(path)
    _write_parts(path, magic, edit(header), payload)


def retensor(path, name: str, edit) -> None:
    """Replace tensor `name` by `edit` of its array: the new bytes go at the
    end of the payload and the header entry points at them."""
    magic, header, payload = artifact_parts(path)
    entry = header["tensors"][name]
    array = np.frombuffer(payload, entry["dtype"], math.prod(entry["shape"]),
                          entry["offset"]).reshape(entry["shape"])
    edited = np.ascontiguousarray(edit(array), entry["dtype"])
    header["tensors"][name] = dict(entry, shape=list(edited.shape), offset=len(payload))
    _write_parts(path, magic, header, payload + edited.tobytes())


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
