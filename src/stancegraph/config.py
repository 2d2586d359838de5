"""Run-wide configuration and the config fingerprint stamped into artifacts."""

from __future__ import annotations

import hashlib
import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError


@dataclass
class RunConfig:
    # embeddings
    dimension: int = 384
    embedding_provider: str = "hash"
    # LLM gateway
    model_id: str = "default-model"
    mode: str = "replay"              # live | record | replay
    cache_dir: str = "cache"
    temperature: float = 0.0
    max_tokens: int = 1024
    p2_max_lines: int = 50
    # schema induction
    k_grid: list[int] = field(default_factory=lambda: [4, 8, 16, 32, 64])
    k_fixed: int | None = None
    n_filters: int = 8
    # kernel model
    n_sub: int = 8
    n_filt: int = 6
    walk_length: int = 2              # p
    top_g: int = 4                    # g
    layers: int = 2                   # L
    hidden: int = 64                  # h
    subgraph_hop: int = 1
    relation_weights: dict[str, float] = field(default_factory=lambda: {
        "Implies": 1.0, "Conjunction": 0.5, "Disjunction": 0.5, "InstanceOf": 1.0})
    # training
    batch_size: int = 32
    learning_rate: float = 5e-4
    max_epochs: int = 20
    patience: int = 10
    validation_interval: float = 0.2
    weight_decay: float = 0.01
    seed: int = 0
    # ablations
    random_filters: bool = False
    skip_augmentation: bool = False
    # labels
    label_set: list[str] = field(default_factory=lambda: ["Favor", "Against", "None"])

    def fingerprint(self) -> str:
        """Hash of every field that shapes what a run computes. Where the
        LLM cache lives and the gateway mode are left out, so one run from
        two copies of a cache writes the same artifact bytes."""
        kept = {k: v for k, v in asdict(self).items()
                   if k not in ("cache_dir", "mode")}
        payload = json.dumps(kept, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The config a JSON object gives; each value must have its field's
        type, and each key of _LEAST must be at least its least value."""
        known = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if not _has_type(value, _TYPES[key]):
                raise ConfigError(f"config key {key}: {value!r} is not {known[key]}")
            if key in _LEAST and value < _LEAST[key]:
                raise ConfigError(f"config key {key}: {value!r} is below {_LEAST[key]}")
        return cls(**data)


_TYPES = typing.get_type_hints(RunConfig)  # evaluated once, not per from_dict call
# Least values of keys that no later check covers: P2 prompts hold at least
# one predicate line, and numpy's generators take only non-negative seeds.
_LEAST = {"p2_max_lines": 1, "seed": 0}


def _has_type(value, hint) -> bool:
    """Whether a JSON value has type `hint`; a bool is not an int, an int is a float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_has_type(value, arg) for arg in args)
    if origin is list:
        return type(value) is list and all(_has_type(v, args[0]) for v in value)
    if origin is dict:
        return type(value) is dict and all(
            _has_type(k, args[0]) and _has_type(v, args[1]) for k, v in value.items())
    return type(value) in ((int, float) if hint is float else (hint,))
