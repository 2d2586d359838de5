"""Prompt rendering and a chat-completion client with a disk record/replay cache.

Modes:
  live   — HTTP call, nothing cached
  record — HTTP call, response appended to the cache, then returned
  replay — cached response only; any network use is a bug

Cache format: one JSON object per line {key, template_id, model, temperature,
prompt, response, created_at}, so caches diff cleanly and merge by
concatenation. The remote embedding provider keeps its vectors in the same
format (template id "EMB", the vector as the response).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from .errors import (CacheFormatError, CacheMissError, EmptyFieldError,
                     GatewayConfigError, HttpError, TransportTimeoutError)

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


@dataclass(frozen=True)
class PromptRequest:
    template_id: str          # "P1" | "P2" | "EMB" (embeddings)
    filled_prompt: str
    model_id: str = "default-model"
    temperature: float = 0.0
    max_tokens: int = 1024

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
              temperature: float = 0.0, max_tokens: int = 1024) -> PromptRequest:
    if not predicate_strings:
        raise EmptyFieldError("predicate list must be non-empty")
    prompt = P2_TEMPLATE.format(predicates="\n".join(predicate_strings))
    return PromptRequest("P2", prompt, model_id, temperature, max_tokens)


def read_jsonl_cache(path: str) -> Iterator[tuple[int, Any]]:
    """(line number, decoded value) for each non-blank line of a JSONL file,
    in file order. A torn or undecodable line (say, the tail of an
    interrupted write) raises CacheFormatError naming the path and the line
    number."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise CacheFormatError(path, number, exc) from exc
            yield number, entry


# A line in the shape `put` writes (json.dumps of a record whose first field
# is the key) matches the first branch: it starts `{"key": "<key>", `, holds
# `"response": ` and ends `}` and a newline. The key is printable ASCII
# without `"` or `\`, so its bytes are the key itself. Every other line,
# blank, torn, or of another spacing or field order, matches the second.
_LINE = re.compile(rb'\{"key": "([ !#-\[\]-~]*)", .*"response": .*\}\n|.*\n?')


def _raw(key: str) -> bytes:
    """A key as the cache indexes it: its UTF-8 bytes. A lone surrogate,
    which JSON can spell as an escape, passes through."""
    return key.encode("utf-8", "surrogatepass")


class _DiskCache:
    """Append-only newline-JSON cache. Writes are serialized by a lock and
    emitted as single write() calls, so concurrent writers never corrupt
    existing entries. A response is any JSON value: completion text for the
    gateway, a vector for the remote embedding provider.

    Opening the cache reads the file as one buffer and indexes it: a line in
    the shape `put` writes is kept undecoded, by the offset of the last line
    with its key, and decoded on its first lookup; any other line is decoded
    at once. So damage in a line of another shape (a torn tail, say) raises
    CacheFormatError when the cache is opened, and damage inside a line of
    the written shape when its key is looked up."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._appender = None                 # opened by the first put
        self._buffer = b""
        # _raw(key) -> offset of its last line, until that line is decoded
        self._offsets: dict[bytes, int] = {}
        self._responses: dict[str, Any] = {}
        if not os.path.exists(path):
            return
        with open(path, "rb") as fh:
            self._buffer = fh.read()
        for match in _LINE.finditer(self._buffer):
            key = match[1]
            if key is not None:
                self._offsets[key] = match.start()
            elif match[0].strip():
                # Checked now; decoded again from its offset on lookup.
                key, _ = self._entry(match.start())
                self._offsets[_raw(key)] = match.start()

    def _entry(self, start: int) -> tuple[str, Any]:
        """(key, response) of the line that starts at byte `start`."""
        end = self._buffer.find(b"\n", start)
        line = self._buffer[start:end if end >= 0 else None]
        try:
            entry = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise CacheFormatError(self.path, self._line_number(start), exc) from exc
        if not (isinstance(entry, dict) and isinstance(entry.get("key"), str)
                and "response" in entry):
            raise CacheFormatError(
                self.path, self._line_number(start),
                "expected an object with a string 'key' and a 'response'")
        return entry["key"], entry["response"]

    def _line_number(self, start: int) -> int:
        return self._buffer.count(b"\n", 0, start) + 1

    def get(self, key: str) -> Any:
        raw = _raw(key)
        if raw in self._offsets:
            with self._lock:
                # The response is stored before the offset goes, so a
                # lookup that skips the lock always finds one of them.
                start = self._offsets.get(raw)
                if start is not None:
                    _, self._responses[key] = self._entry(start)
                    del self._offsets[raw]
        return self._responses.get(key)

    def put(self, key: str, req: PromptRequest, response: Any) -> None:
        """Append the record of `req` (whose cache key is `key`). The first
        put makes the directory and opens the file for appending; each put
        writes its line and flushes it before returning."""
        record = {
            "key": key,
            "template_id": req.template_id,
            "model": req.model_id,
            "temperature": req.temperature,
            "prompt": req.filled_prompt,
            "response": response,
            "created_at": time.time(),
        }
        line = json.dumps(record, ensure_ascii=False) + "\n"
        with self._lock:
            self._offsets.pop(_raw(key), None)
            self._responses[key] = response
            if self._appender is None:
                os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
                self._appender = open(self.path, "a", encoding="utf-8")
                weakref.finalize(self, self._appender.close)
            self._appender.write(line)
            self._appender.flush()


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
        except requests.ConnectionError as exc:  # refused, reset, DNS
            raise HttpError(f"chat endpoint unreachable: {exc}",
                            status=None) from exc
        if resp.status_code != 200:
            raise HttpError(f"chat endpoint returned {resp.status_code}",
                            status=resp.status_code)
        try:
            content = resp.json()["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:  # not JSON, no path
            raise HttpError(f"chat endpoint returned a malformed body: {exc!r}",
                            status=200) from exc
        if not isinstance(content, str):
            raise HttpError("chat endpoint returned non-text content",
                            status=200)
        return content

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
            raise GatewayConfigError(f"unknown gateway mode {mode!r}")
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

    def complete(self, req: PromptRequest) -> str:
        if self.mode == "live":
            return self._call_with_retries(req)
        key = req.cache_key()
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        if self.mode == "replay":
            raise CacheMissError(
                f"no cached response for {req.template_id} key {key[:12]}…")
        response = self._call_with_retries(req)
        self.cache.put(key, req, response)
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
