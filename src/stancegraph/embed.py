"""Text embedding providers behind one contract.

Two offline providers are fully deterministic and platform-stable:

* HashEmbeddingProvider: 64-bit FNV-1a hash of the text seeds a counter-based
  splitmix64 stream; d standard normals via Box-Muller; L2-normalized.
* TokenAverageProvider: mean of hash embeddings of the word tokens, then
  L2-normalized, so texts sharing tokens land near each other. Used by the
  synthetic pipeline where clustering needs locality. Each instance memoises
  its token vectors in a bounded dict.

The remote provider speaks the common POST /embeddings JSON shape and records
its vectors in the gateway's JSONL cache, keyed by text and model.
"""

from __future__ import annotations

import math
import os
import re
from typing import Iterable, Optional

import numpy as np

from .errors import ConfigError, DimensionMismatchError, ProviderError
from .gateway import PromptRequest, _DiskCache

_MASK64 = (1 << 64) - 1


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a over the UTF-8 bytes."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


_GOLDEN64 = np.uint64(0x9E3779B97F4A7C15)
_TWO64 = 2.0**64
_TWO_PI = 2.0 * math.pi


def _splitmix64_stream(seed: int, count: int) -> list[int]:
    """The first `count` outputs of splitmix64 seeded with `seed`, as Python
    ints. The state after k steps is seed + k * golden (mod 2**64), so the
    whole stream is one uint64 array expression; array arithmetic wraps
    mod 2**64 without a warning."""
    z = np.uint64(seed) + _GOLDEN64 * np.arange(1, count + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z.tolist()


def _normals(seed: int, count: int) -> np.ndarray:
    """Counter-based standard normals: splitmix64 uniforms + Box-Muller.

    Box-Muller stays on math.log/cos/sin per element: numpy's vectorised
    transcendentals differ from them in the last bit on some inputs, which
    would move every embedding."""
    stream = _splitmix64_stream(seed, 2 * ((count + 1) // 2))
    out = []
    for u1, u2 in zip(stream[0::2], stream[1::2]):
        # map to (0,1]; u1 must avoid 0 for the log. The +1 is on Python
        # ints: in uint64 it wraps 2**64 - 1 to 0.
        r = math.sqrt(-2.0 * math.log((u1 + 1) / _TWO64))
        theta = _TWO_PI * (u2 / _TWO64)
        out.append(r * math.cos(theta))
        out.append(r * math.sin(theta))
    return np.array(out[:count], dtype=np.float64)


class EmbeddingProvider:
    """Contract: embed_batch is index-aligned, deterministic, dimension d."""

    name: str = "base"
    dimension: int

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        raise NotImplementedError

    def _check(self, texts: list[str]) -> None:
        if not texts:
            raise ProviderError("embed_batch requires a non-empty batch")
        for t in texts:
            if not t:
                raise ProviderError("embed_batch entries must be non-empty")


class HashEmbeddingProvider(EmbeddingProvider):
    name = "hash"

    def __init__(self, dimension: int = 384):
        self.dimension = dimension

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        self._check(texts)
        return [test_embed(t, self.dimension) for t in texts]


def test_embed(text: str, dimension: int = 384) -> np.ndarray:
    """Deterministic offline embedding: FNV-1a seed, splitmix64 normals,
    L2-normalized. Stable across runs and platforms."""
    if not text:
        raise ProviderError("test_embed requires non-empty text")
    vec = _normals(fnv1a64(text), dimension)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:  # astronomically unlikely; guarded anyway
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


_TOKEN_RE = re.compile(r"\w+", re.UNICODE)

# Bound on the float64 elements a TokenAverageProvider keeps in its token
# memo: 2**20 elements, 8 MB (2,730 tokens at d=384).
_MEMO_ELEMENTS = 1 << 20


class TokenAverageProvider(EmbeddingProvider):
    """Mean of per-token hash embeddings, so shared words pull texts together.

    Token vectors are memoised on the instance, up to _MEMO_ELEMENTS float64
    elements; once the memo is full, new tokens are computed but not stored.
    The memo lives on the instance, not the module, so each process or CLI
    command starts cold. Stored vectors are read-only and only ever summed
    into a fresh array, so results are bit-identical to recomputing."""

    name = "token-average"

    def __init__(self, dimension: int = 384):
        self.dimension = dimension
        self._memo: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self._memo.get(token)
        if vec is None:
            vec = test_embed(token, self.dimension)
            if (len(self._memo) + 1) * self.dimension <= _MEMO_ELEMENTS:
                vec.flags.writeable = False
                self._memo[token] = vec
        return vec

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        self._check(texts)
        out = []
        for text in texts:
            tokens = _TOKEN_RE.findall(text.lower())
            if not tokens:
                out.append(test_embed(text, self.dimension))
                continue
            acc = np.zeros(self.dimension, dtype=np.float64)
            for tok in tokens:
                acc += self._token_vector(tok)
            norm = float(np.linalg.norm(acc))
            if norm == 0.0:
                acc[0] = 1.0
                norm = 1.0
            out.append(acc / norm)
        return out


class RemoteEmbeddingProvider(EmbeddingProvider):
    """POST <base-url>/embeddings with {model, input:[...]}. Vectors are kept
    in the gateway's JSONL cache, keyed by (text, model)."""

    name = "remote"

    def __init__(self, dimension: int, model: str,
                 base_url: Optional[str] = None,
                 api_key: Optional[str] = None,
                 cache_path: str = "embedding_cache.jsonl",
                 transport=None):
        self.dimension = dimension
        self.model = model
        self.base_url = base_url or os.environ.get("LLM_BASE_URL", "")
        self.api_key = api_key or os.environ.get("LLM_API_KEY", "")
        self.cache = _DiskCache(cache_path)
        self._transport = transport or self._http_transport

    def _http_transport(self, payload: dict) -> list[list[float]]:
        import requests

        resp = requests.post(
            self.base_url.rstrip("/") + "/embeddings",
            json=payload,
            headers={"Authorization": f"Bearer {self.api_key}"},
            timeout=60,
        )
        if resp.status_code != 200:
            raise ProviderError(f"embedding endpoint returned {resp.status_code}")
        return [item["embedding"] for item in resp.json()["data"]]

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        self._check(texts)
        reqs = [PromptRequest("EMB", t, self.model) for t in texts]
        keys = [req.cache_key() for req in reqs]
        missing = {key: req for key, req in zip(keys, reqs)
                   if self.cache.get(key) is None}
        if missing:
            try:
                vectors = self._transport(
                    {"model": self.model,
                     "input": [req.filled_prompt for req in missing.values()]})
            except ProviderError:
                raise
            except Exception as exc:  # transport failures wrapped
                raise ProviderError(f"embedding transport failed: {exc}") from exc
            if len(vectors) != len(missing):
                raise ProviderError("embedding endpoint returned wrong batch size")
            for vec in vectors:
                if len(vec) != self.dimension:
                    raise DimensionMismatchError(
                        f"backend returned d={len(vec)}, expected {self.dimension}")
            for (key, req), vec in zip(missing.items(), vectors):
                self.cache.put(key, req, [float(x) for x in vec])
        out = []
        for key in keys:
            vec = np.asarray(self.cache.get(key), dtype=np.float64)
            if vec.shape != (self.dimension,):
                raise DimensionMismatchError(
                    f"cached shape {vec.shape}, expected ({self.dimension},)")
            out.append(vec)
        return out


_PROVIDERS = {
    "hash": HashEmbeddingProvider,
    "token-average": TokenAverageProvider,
}


def make_provider(name: str, dimension: int, **kwargs) -> EmbeddingProvider:
    if dimension < 1:
        raise ConfigError(f"config key dimension: {dimension} is not a count")
    if name == "remote":
        if not kwargs.get("model"):
            raise ProviderError("the remote embedding provider needs model=")
        return RemoteEmbeddingProvider(dimension=dimension, **kwargs)
    if name in _PROVIDERS:
        return _PROVIDERS[name](dimension=dimension)
    raise ProviderError(f"unknown embedding provider {name!r}")
