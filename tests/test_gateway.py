"""Prompt rendering and the record/replay completion gateway."""

import json

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

    def test_truncation(self):
        many = [f"P{i}(x)" for i in range(500)]
        req = render_p2(many, max_lines=50)
        assert req.metadata["truncated"] is True
        assert req.metadata["total_lines"] == 500
        assert "P49(x)" in req.filled_prompt
        assert "P50(x)" not in req.filled_prompt

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

    def test_key_ignores_metadata(self):
        a = PromptRequest("P1", "prompt", metadata={"x": 1})
        b = PromptRequest("P1", "prompt", metadata={"x": 2})
        assert a.cache_key() == b.cache_key()


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
