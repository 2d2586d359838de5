"""Prompt rendering and a chat-completion client with a disk record/replay cache.

Modes:
  live   — HTTP call, nothing cached
  record — HTTP call, response appended to the cache, then returned
  replay — cached response only; any network use is a bug

Cache format: one JSON object per line {key, template_id, model, temperature,
prompt, response, created_at}, so caches diff cleanly and merge by
concatenation.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import (CacheMissError, EmptyFieldError, GatewayConfigError,
                     HttpError, TransportTimeoutError)

P1_TEMPLATE = (
    "Your task is to analyze the attitude of the [{sentence}] towards the "
    "[{target}] using first-order logic. Formulate a response and conclude "
    "with a statement indicating the attitude (Support, Opposed, Neutral)."
)

P2_TEMPLATE = (
    "You are provided with several descriptions, each representing a predicate "
    "in first-order logic. Your task is to create new descriptions that "
    "summarize the main points of these predicates.\n\n{predicates}"
)

DEFAULT_P2_MAX_LINES = 50


@dataclass(frozen=True)
class PromptRequest:
    template_id: str          # "P1" | "P2"
    filled_prompt: str
    model_id: str = "default-model"
    temperature: float = 0.0
    max_tokens: int = 1024
    metadata: dict = field(default_factory=dict, compare=False)

    def cache_key(self) -> str:
        payload = json.dumps(
            [self.template_id, self.filled_prompt, self.model_id, self.temperature],
            ensure_ascii=False, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def render_p1(sentence: str, target: str, model_id: str = "default-model",
              temperature: float = 0.0, max_tokens: int = 1024) -> PromptRequest:
    if not sentence or not sentence.strip():
        raise EmptyFieldError("sentence must be non-empty")
    if not target or not target.strip():
        raise EmptyFieldError("target must be non-empty")
    return PromptRequest("P1", P1_TEMPLATE.format(sentence=sentence, target=target),
                         model_id, temperature, max_tokens)


def render_p2(predicate_strings: list[str], model_id: str = "default-model",
              temperature: float = 0.0, max_tokens: int = 1024,
              max_lines: int = DEFAULT_P2_MAX_LINES) -> PromptRequest:
    if not predicate_strings:
        raise EmptyFieldError("predicate list must be non-empty")
    truncated = len(predicate_strings) > max_lines
    lines = predicate_strings[:max_lines]
    req = PromptRequest("P2", P2_TEMPLATE.format(predicates="\n".join(lines)),
                        model_id, temperature, max_tokens)
    req.metadata["truncated"] = truncated
    req.metadata["total_lines"] = len(predicate_strings)
    return req


class _DiskCache:
    """Append-only newline-JSON cache. Writes are serialized by a lock and
    emitted as single write() calls, so concurrent writers never corrupt
    existing entries."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    entry = json.loads(line)
                    self._entries[entry["key"]] = entry["response"]

    def get(self, key: str) -> Optional[str]:
        return self._entries.get(key)

    def put(self, req: PromptRequest, response: str) -> None:
        record = {
            "key": req.cache_key(),
            "template_id": req.template_id,
            "model": req.model_id,
            "temperature": req.temperature,
            "prompt": req.filled_prompt,
            "response": response,
            "created_at": time.time(),
        }
        line = json.dumps(record, ensure_ascii=False) + "\n"
        with self._lock:
            self._entries[record["key"]] = response
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line)


def http_chat_transport(base_url: Optional[str] = None,
                        api_key: Optional[str] = None,
                        timeout: float = 60.0) -> Callable[[PromptRequest], str]:
    """Default live transport: POST <base-url>/chat/completions."""

    def call(req: PromptRequest) -> str:
        import requests

        url = (base_url or os.environ.get("LLM_BASE_URL", "")).rstrip("/")
        key = api_key or os.environ.get("LLM_API_KEY", "")
        try:
            resp = requests.post(
                url + "/chat/completions",
                json={
                    "model": req.model_id,
                    "messages": [{"role": "user", "content": req.filled_prompt}],
                    "temperature": req.temperature,
                    "max_tokens": req.max_tokens,
                },
                headers={"Authorization": f"Bearer {key}"},
                timeout=timeout,
            )
        except requests.Timeout as exc:
            raise TransportTimeoutError(str(exc)) from exc
        if resp.status_code != 200:
            raise HttpError(f"chat endpoint returned {resp.status_code}",
                            status=resp.status_code)
        return resp.json()["choices"][0]["message"]["content"]

    return call


def _fail_transport(req: PromptRequest) -> str:
    raise AssertionError("network transport invoked in replay mode")


class Gateway:
    """Chat-completion gateway with live / record / replay modes."""

    def __init__(self, mode: str = "replay",
                 cache_path: str = "llm_cache.jsonl",
                 transport: Optional[Callable[[PromptRequest], str]] = None,
                 max_retries: int = 3,
                 backoff: float = 0.5):
        if mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown gateway mode {mode!r}")
        if max_retries < 1:
            raise GatewayConfigError(
                f"max_retries must be at least 1, got {max_retries}")
        self.mode = mode
        self.cache = _DiskCache(cache_path)
        if transport is None:
            transport = _fail_transport if mode == "replay" else http_chat_transport()
        self._transport = transport
        self.max_retries = max_retries
        self.backoff = backoff
        self.request_count = 0

    def complete(self, req: PromptRequest) -> str:
        self.request_count += 1
        if self.mode == "replay":
            cached = self.cache.get(req.cache_key())
            if cached is None:
                raise CacheMissError(
                    f"no cached response for {req.template_id} key {req.cache_key()[:12]}…")
            return cached
        if self.mode == "record":
            cached = self.cache.get(req.cache_key())
            if cached is not None:
                return cached
        response = self._call_with_retries(req)
        if self.mode == "record":
            self.cache.put(req, response)
        return response

    def _call_with_retries(self, req: PromptRequest) -> str:
        last: Optional[Exception] = None
        for attempt in range(self.max_retries):
            try:
                return self._transport(req)
            except (HttpError, TransportTimeoutError) as exc:
                last = exc
                if attempt + 1 < self.max_retries:
                    time.sleep(self.backoff * 2 ** attempt)
        if isinstance(last, HttpError):
            raise HttpError(str(last), status=last.status, retries=self.max_retries)
        raise last  # TransportTimeoutError
