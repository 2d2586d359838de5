"""Prompt rendering and the record/replay completion gateway."""

import json
import os
from collections import Counter

import numpy as np
import pytest

from stancegraph.errors import (CacheFormatError, CacheMissError,
                                EmptyFieldError, GatewayConfigError, HttpError)
from stancegraph.gateway import (Gateway, PromptRequest, http_chat_transport,
                                 render_p1, render_p2)
from tests.conftest import CACHE_PATH, torn_cache


class TestRenderP1:
    def test_contains_both_strings(self):
        req = render_p1("Masks save lives", "mask mandates")
        assert req.template_id == "P1"
        assert "Masks save lives" in req.filled_prompt
        assert "mask mandates" in req.filled_prompt
        assert "first-order logic" in req.filled_prompt

    def test_empty_sentence(self):
        with pytest.raises(EmptyFieldError):
            render_p1("", "x")

    def test_empty_target(self):
        with pytest.raises(EmptyFieldError):
            render_p1("x", "")

    def test_deterministic(self):
        a = render_p1("s", "t")
        b = render_p1("s", "t")
        assert a.filled_prompt == b.filled_prompt
        assert a.cache_key() == b.cache_key()


class TestRenderP2:
    def test_lists_all_lines(self):
        req = render_p2(["Reduce(X,Risk)", "Lower(Y,Harm)"])
        assert req.template_id == "P2"
        assert "Reduce(X,Risk)" in req.filled_prompt
        assert "Lower(Y,Harm)" in req.filled_prompt

    def test_single_predicate(self):
        req = render_p2(["Solo(X)"])
        assert "Solo(X)" in req.filled_prompt

    def test_empty_list(self):
        with pytest.raises(EmptyFieldError):
            render_p2([])


class TestCacheKey:
    def test_key_depends_on_prompt_and_model(self):
        base = PromptRequest("P1", "prompt", "model-a", 0.0)
        assert base.cache_key() != PromptRequest("P1", "other", "model-a", 0.0).cache_key()
        assert base.cache_key() != PromptRequest("P1", "prompt", "model-b", 0.0).cache_key()
        assert base.cache_key() != PromptRequest("P1", "prompt", "model-a", 0.7).cache_key()
        assert base.cache_key() != PromptRequest("P2", "prompt", "model-a", 0.0).cache_key()


class TestGatewayModes:
    def test_record_then_replay(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        req = render_p1("some text", "some target")
        recorder = Gateway(mode="record", cache_path=path,
                           transport=lambda r: "canned response")
        assert recorder.complete(req) == "canned response"
        replayer = Gateway(mode="replay", cache_path=path)
        assert replayer.complete(req) == "canned response"

    def test_replay_miss(self, tmp_path):
        gateway = Gateway(mode="replay", cache_path=str(tmp_path / "c.jsonl"))
        with pytest.raises(CacheMissError):
            gateway.complete(render_p1("unseen", "target"))

    def test_replay_never_touches_network(self, tmp_path):
        calls = []

        def spy(req):
            calls.append(req)
            return "x"

        path = str(tmp_path / "cache.jsonl")
        Gateway(mode="record", cache_path=path, transport=spy).complete(
            render_p1("a", "b"))
        assert len(calls) == 1
        replayer = Gateway(mode="replay", cache_path=path, transport=spy)
        replayer.complete(render_p1("a", "b"))
        assert len(calls) == 1

    def test_record_reuses_existing_entry(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        counter = {"n": 0}

        def transport(req):
            counter["n"] += 1
            return f"response {counter['n']}"

        req = render_p1("a", "b")
        g1 = Gateway(mode="record", cache_path=path, transport=transport)
        first = g1.complete(req)
        g2 = Gateway(mode="record", cache_path=path, transport=transport)
        assert g2.complete(req) == first
        assert counter["n"] == 1

    def test_record_line_has_the_fixture_cache_fields(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        Gateway(mode="record", cache_path=str(path),
                transport=lambda r: "x").complete(render_p1("a", "b"))
        with open(CACHE_PATH, encoding="utf-8") as fh:
            fixture = json.loads(next(fh))
        assert list(json.loads(path.read_text())) == list(fixture)

    def test_retries_then_succeeds(self, tmp_path):
        attempts = {"n": 0}

        def flaky(req):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise HttpError("boom")
            return "recovered"

        gateway = Gateway(mode="live", cache_path=str(tmp_path / "c.jsonl"),
                          transport=flaky, backoff=0.0)
        assert gateway.complete(render_p1("a", "b")) == "recovered"
        assert attempts["n"] == 3

    @pytest.mark.parametrize("max_retries", [0, -1])
    def test_fewer_than_one_attempt_rejected(self, tmp_path, max_retries):
        with pytest.raises(GatewayConfigError, match=str(max_retries)):
            Gateway(mode="live", cache_path=str(tmp_path / "c.jsonl"),
                    transport=lambda req: "unused", max_retries=max_retries)

    def test_retries_exhausted(self, tmp_path):
        def broken(req):
            raise HttpError("down")

        gateway = Gateway(mode="live", cache_path=str(tmp_path / "c.jsonl"),
                          transport=broken, max_retries=2, backoff=0.0)
        with pytest.raises(HttpError):
            gateway.complete(render_p1("a", "b"))


    def test_refused_connection_is_retried_as_http_error(self, tmp_path,
                                                         monkeypatch):
        import requests

        attempts = []

        def refuse(url, **kwargs):
            attempts.append(url)
            raise requests.ConnectionError("connection refused")

        monkeypatch.setattr(requests, "post", refuse)
        gateway = Gateway(mode="live", cache_path=str(tmp_path / "c.jsonl"),
                          transport=http_chat_transport("http://127.0.0.1:9"),
                          max_retries=3, backoff=0.0)
        with pytest.raises(HttpError, match="unreachable") as info:
            gateway.complete(render_p1("a", "b"))
        assert (info.value.status, info.value.retries) == (None, 3)
        assert attempts == ["http://127.0.0.1:9/chat/completions"] * 3

    @pytest.mark.parametrize("body", [
        "<html>502 Bad Gateway</html>",
        {"error": "overloaded"},
        {"choices": []},
        {"choices": [{"message": {"content": None}}]},
        ["choices"],
    ], ids=["not-json", "no-choices", "empty-choices", "null-content",
            "list"])
    def test_malformed_200_body_is_retried_as_http_error(self, tmp_path,
                                                         monkeypatch, body):
        import requests

        attempts = []

        class Reply:
            status_code = 200

            def json(self):
                if isinstance(body, str):
                    raise requests.JSONDecodeError("Expecting value", body, 0)
                return body

        def post(url, **kwargs):
            attempts.append(url)
            return Reply()

        monkeypatch.setattr(requests, "post", post)
        gateway = Gateway(mode="live", cache_path=str(tmp_path / "c.jsonl"),
                          transport=http_chat_transport("http://x"),
                          max_retries=3, backoff=0.0)
        with pytest.raises(HttpError) as info:
            gateway.complete(render_p1("a", "b"))
        assert (info.value.status, info.value.retries) == (200, 3)
        assert len(attempts) == 3


class TestCacheFormat:
    @pytest.mark.parametrize("mid_character", [False, True])
    def test_torn_last_line_names_path_and_line(self, tmp_path, mid_character):
        path = torn_cache(tmp_path / "llm_cache.jsonl", mid_character)
        with pytest.raises(CacheFormatError, match="line 4") as info:
            Gateway(mode="replay", cache_path=path)
        assert path in str(info.value)

    @pytest.mark.parametrize("line", ['{}', '[1, 2]', '"text"',
                                      '{"key": "a", "vector": [1.0, 0.0]}'])
    def test_wrong_shape_line_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "llm_cache.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(CacheFormatError, match="line 1") as info:
            Gateway(mode="replay", cache_path=str(path))
        assert str(path) in str(info.value)


def _write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


class TestIndexedCache:
    """Opening a cache indexes the lines in the shape the gateway writes;
    each such line is decoded on the first lookup of its key."""

    def test_a_line_is_decoded_only_on_its_first_lookup(self, tmp_path,
                                                         monkeypatch):
        path = str(tmp_path / "llm_cache.jsonl")
        reqs = [render_p1(f"text {i}", "target") for i in range(3)]
        answers = {req.cache_key(): f"answer {i}" for i, req in enumerate(reqs)}
        recorder = Gateway(mode="record", cache_path=path,
                           transport=lambda req: answers[req.cache_key()])
        expected = [recorder.complete(req) for req in reqs]
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads",
                            lambda s, **kw: decoded.append(s) or loads(s, **kw))
        gateway = Gateway(mode="replay", cache_path=path)
        assert decoded == []
        assert gateway.complete(reqs[1]) == expected[1]
        assert len(decoded) == 1
        assert gateway.complete(reqs[1]) == expected[1]
        assert len(decoded) == 1

    def test_broken_line_fails_on_lookup_naming_path_and_line(self, tmp_path):
        path = _write_lines(tmp_path / "llm_cache.jsonl",
                            '{"key": "k1", "response": "r1"}',
                            '{"key": "k2", "response": tru}',
                            '{"key": "k3", "response": "r3"}')
        cache = Gateway(mode="replay", cache_path=path).cache
        assert cache.get("k1") == "r1"
        assert cache.get("k3") == "r3"
        with pytest.raises(CacheFormatError, match="line 2") as info:
            cache.get("k2")
        assert path in str(info.value)

    def test_written_shape_without_a_string_key_fails_on_lookup(self, tmp_path):
        path = _write_lines(tmp_path / "llm_cache.jsonl",
                            '{"key": "k1", "other": {"response": 1}}')
        cache = Gateway(mode="replay", cache_path=path).cache
        with pytest.raises(CacheFormatError, match="line 1"):
            cache.get("k1")

    @pytest.mark.parametrize("first, second", [
        ('{"key": "k", "response": "old"}', '{"key": "k", "response": "new"}'),
        ('{"response":"old","key":"k"}', '{"key": "k", "response": "new"}'),
        ('{"key": "k", "response": "old"}', '{"response":"new","key":"k"}'),
    ], ids=["both-written-shape", "other-then-written", "written-then-other"])
    def test_later_line_of_a_key_wins(self, tmp_path, first, second):
        path = _write_lines(tmp_path / "llm_cache.jsonl", first, second)
        assert Gateway(mode="replay", cache_path=path).cache.get("k") == "new"

    @pytest.mark.parametrize("line", ['{"response":"r","key":"k"}',
                                      '{"key":"k","response":"r"}',
                                      '  {"key": "k", "response": "r"}',
                                      '{"key": "k", "response": "r"} '])
    def test_line_of_another_shape_is_found(self, tmp_path, line):
        path = _write_lines(tmp_path / "llm_cache.jsonl", line)
        assert Gateway(mode="replay", cache_path=path).cache.get("k") == "r"

    @pytest.mark.parametrize("key", ["\u00e9t\u00e9", "\ud800"])
    def test_escaped_key_is_found(self, tmp_path, key):
        line = json.dumps({"key": key, "response": "r"})
        path = _write_lines(tmp_path / "llm_cache.jsonl", line)
        assert Gateway(mode="replay", cache_path=path).cache.get(key) == "r"

    def test_put_overrides_an_undecoded_line(self, tmp_path):
        req = render_p1("a", "b")
        path = str(tmp_path / "llm_cache.jsonl")
        Gateway(mode="record", cache_path=path,
                transport=lambda r: "first").complete(req)
        gateway = Gateway(mode="record", cache_path=path,
                          transport=lambda r: "second")
        gateway.cache.put(req.cache_key(), req, "second")
        assert gateway.complete(req) == "second"
        assert Gateway(mode="replay", cache_path=path).complete(req) == "second"

    def test_remote_embeddings_replay_unchanged(self, tmp_path):
        from stancegraph.embed import RemoteEmbeddingProvider

        path = str(tmp_path / "embedding_cache.jsonl")
        vectors = {"a": [0.1, -2.5, 1e-300], "b": [1 / 3, 0.0, -0.0]}

        def transport(payload):
            return [vectors[text] for text in payload["input"]]

        def refuse(payload):
            raise AssertionError("replay called the transport")

        recorded = RemoteEmbeddingProvider(
            3, "m", cache_path=path, transport=transport).embed_batch(["a", "b"])
        replayed = RemoteEmbeddingProvider(
            3, "m", cache_path=path, transport=refuse).embed_batch(["b", "a"])
        assert [v.tolist() for v in recorded] == [vectors["a"], vectors["b"]]
        assert [v.tolist() for v in replayed] == [vectors["b"], vectors["a"]]
        assert np.signbit(replayed[0][2])


class TestCacheWrites:
    def test_record_misses_hash_once_and_make_the_directory_once(
            self, tmp_path, monkeypatch):
        hashed = Counter()
        real_key = PromptRequest.cache_key

        def counting_key(req):
            hashed[req.filled_prompt] += 1
            return real_key(req)

        made = []
        real_makedirs = os.makedirs

        def counting_makedirs(path, *args, **kwargs):
            made.append(path)
            return real_makedirs(path, *args, **kwargs)

        monkeypatch.setattr(PromptRequest, "cache_key", counting_key)
        monkeypatch.setattr(os, "makedirs", counting_makedirs)
        path = tmp_path / "cache" / "llm_cache.jsonl"
        gateway = Gateway(mode="record", cache_path=str(path),
                          transport=lambda req: f"answer to {req.filled_prompt}")
        reqs = [render_p1(f"sentence {i}", "target") for i in range(3)]
        for count, req in enumerate(reqs, start=1):
            gateway.complete(req)
            # the line is on disk as soon as complete (and put) returns
            lines = path.read_text(encoding="utf-8").splitlines()
            assert len(lines) == count
            assert json.loads(lines[-1])["key"] == real_key(req)
        assert list(hashed.values()) == [1, 1, 1]
        assert made == [str(path.parent)]
        replay = Gateway(mode="replay", cache_path=str(path))
        assert [replay.complete(req) for req in reqs] == [
            f"answer to {req.filled_prompt}" for req in reqs]

    def test_replay_miss_hashes_once(self, tmp_path, monkeypatch):
        calls = []
        real_key = PromptRequest.cache_key
        monkeypatch.setattr(PromptRequest, "cache_key",
                            lambda req: calls.append(req) or real_key(req))
        gateway = Gateway(mode="replay", cache_path=str(tmp_path / "none.jsonl"))
        with pytest.raises(CacheMissError):
            gateway.complete(render_p1("a", "b"))
        assert len(calls) == 1
