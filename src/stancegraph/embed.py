"""Text embedding providers behind one contract.

Two offline providers are fully deterministic and platform-stable:

* HashEmbeddingProvider: 64-bit FNV-1a hash of the text seeds a counter-based
  splitmix64 stream; d standard normals via Box-Muller; L2-normalized.
* TokenAverageProvider: mean of hash embeddings of the word tokens, then
  L2-normalized, so texts sharing tokens land near each other. Used by the
  synthetic pipeline where clustering needs locality.

The remote provider speaks the common POST /embeddings JSON shape and records
its vectors in the gateway's JSONL cache, keyed by text and model.
"""

from __future__ import annotations

import math
import os
import re
from typing import Iterable, Optional

import numpy as np

from .errors import DimensionMismatchError, ProviderError, ZeroVectorError
from .gateway import PromptRequest, _DiskCache

_MASK64 = (1 << 64) - 1


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a over the UTF-8 bytes."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return z, state


def _normals(seed: int, count: int) -> np.ndarray:
    """Counter-based standard normals: splitmix64 uniforms + Box-Muller."""
    state = seed
    out = np.empty(count, dtype=np.float64)
    i = 0
    while i < count:
        u1, state = _splitmix64(state)
        u2, state = _splitmix64(state)
        # map to (0,1]; u1 must avoid 0 for the log
        f1 = (u1 + 1) / 2.0**64
        f2 = u2 / 2.0**64
        r = math.sqrt(-2.0 * math.log(f1))
        out[i] = r * math.cos(2.0 * math.pi * f2)
        i += 1
        if i < count:
            out[i] = r * math.sin(2.0 * math.pi * f2)
            i += 1
    return out


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]; rejects zero vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"cosine shapes {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine of a zero vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


class EmbeddingProvider:
    """Contract: embed_batch is index-aligned, deterministic, dimension d."""

    name: str = "base"
    dimension: int

    def embed_batch(self, texts: list[str]) -> list[np.ndarray]:
        raise NotImplementedError

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

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


class TokenAverageProvider(EmbeddingProvider):
    """Mean of per-token hash embeddings, so shared words pull texts together."""

    name = "token-average"

    def __init__(self, dimension: int = 384):
        self.dimension = dimension

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
                acc += test_embed(tok, self.dimension)
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
            for req, vec in zip(missing.values(), vectors):
                self.cache.put(req, [float(x) for x in vec])
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
    if name == "remote":
        if not kwargs.get("model"):
            raise ProviderError("the remote embedding provider needs model=")
        return RemoteEmbeddingProvider(dimension=dimension, **kwargs)
    if name in _PROVIDERS:
        return _PROVIDERS[name](dimension=dimension)
    raise ProviderError(f"unknown embedding provider {name!r}")
