"""Deterministic embedding providers and cosine similarity."""

import json

import numpy as np
import pytest

from stancegraph.embed import (HashEmbeddingProvider, RemoteEmbeddingProvider,
                               TokenAverageProvider, cosine, make_provider)
from stancegraph.embed import test_embed as embed_text
from stancegraph.errors import (CacheFormatError, DimensionMismatchError,
                                ProviderError, ZeroVectorError)


class TestTestEmbed:
    def test_identical_inputs_identical_vectors(self):
        np.testing.assert_array_equal(embed_text("x"), embed_text("x"))

    def test_distinct_inputs_distinct_vectors(self):
        sim = cosine(embed_text("x"), embed_text("y"))
        assert -1.0 < sim < 1.0
        assert abs(sim - 1.0) > 1e-6

    def test_unit_norm(self):
        for text in ("x", "a longer sentence", "¬Safe(Policy)"):
            assert abs(np.linalg.norm(embed_text(text)) - 1.0) < 1e-6

    def test_dimension(self):
        assert embed_text("x").shape == (384,)
        assert embed_text("x", 48).shape == (48,)

    def test_float64(self):
        assert embed_text("x").dtype == np.float64


class TestCosine:
    def test_identity(self):
        v = embed_text("anything")
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_antipodal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == -1.0

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cosine(np.zeros(3), np.ones(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine(np.ones(3), np.ones(4))


class TestProviders:
    def test_batch_shape_contract(self):
        provider = HashEmbeddingProvider(16)
        out = provider.embed_batch(["a", "b"])
        assert len(out) == 2 and all(v.shape == (16,) for v in out)

    def test_duplicates_align(self):
        provider = HashEmbeddingProvider(16)
        out = provider.embed_batch(["a", "b", "a"])
        np.testing.assert_array_equal(out[0], out[2])

    def test_empty_batch(self):
        with pytest.raises(ProviderError):
            HashEmbeddingProvider(16).embed_batch([])

    def test_token_average_locality(self):
        provider = TokenAverageProvider(48)
        near = cosine(provider.embed_batch(["Reduce(Topic0,Risk)"])[0],
                      provider.embed_batch(["Reduce(Topic1,Risk)"])[0])
        far = cosine(provider.embed_batch(["Reduce(Topic0,Risk)"])[0],
                     provider.embed_batch(["Mention(Topic5,History)"])[0])
        assert near > far

    def test_token_average_unit_norm(self):
        vec = TokenAverageProvider(48).embed_batch(["Reduce(Topic0,Risk)"])[0]
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-6

    def test_make_provider_names(self):
        assert isinstance(make_provider("hash", 8), HashEmbeddingProvider)
        assert isinstance(make_provider("token-average", 8), TokenAverageProvider)
        with pytest.raises(ProviderError):
            make_provider("no-such-provider", 8)

    def test_remote_without_model_names_the_argument(self):
        with pytest.raises(ProviderError, match="model="):
            make_provider("remote", 8)


class FakeEmbeddings:
    """Embedding transport that returns a fixed vector per text and logs
    each request's inputs."""

    def __init__(self, vectors):
        self.vectors = vectors
        self.calls = []

    def __call__(self, payload):
        self.calls.append(payload["input"])
        return [self.vectors[text] for text in payload["input"]]


def _refuse(payload):
    raise AssertionError("transport called on a cached text")


class TestRemoteCache:
    def _provider(self, path, transport, model="m", dimension=2):
        return RemoteEmbeddingProvider(dimension=dimension, model=model,
                                       cache_path=str(path),
                                       transport=transport)

    def test_second_provider_replays_without_a_call(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        fake = FakeEmbeddings({"a": [1.0, 0.0], "b": [0.6, 0.8]})
        first = self._provider(path, fake).embed_batch(["a", "b", "a"])
        assert fake.calls == [["a", "b"]]
        second = self._provider(path, _refuse).embed_batch(["a", "b", "a"])
        assert len(second) == 3
        for old, new in zip(first, second):
            assert np.array_equal(old, new)

    def test_another_model_is_a_cache_miss(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        self._provider(path, FakeEmbeddings({"a": [1.0, 0.0]}),
                       model="m1").embed_batch(["a"])
        fake = FakeEmbeddings({"a": [0.0, 1.0]})
        out = self._provider(path, fake, model="m2").embed_batch(["a"])
        assert fake.calls == [["a"]]
        assert np.array_equal(out[0], [0.0, 1.0])

    def test_records_use_the_gateway_format(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        self._provider(path, FakeEmbeddings({"a": [1.0, 0.0]})).embed_batch(["a"])
        record = json.loads(path.read_text())
        assert set(record) == {"key", "template_id", "model", "temperature",
                               "prompt", "response", "created_at"}
        assert (record["template_id"], record["model"], record["prompt"],
                record["response"]) == ("EMB", "m", "a", [1.0, 0.0])

    def test_wrong_batch_size(self, tmp_path):
        provider = self._provider(tmp_path / "e.jsonl",
                                  lambda payload: [[1.0, 0.0]])
        with pytest.raises(ProviderError, match="batch size"):
            provider.embed_batch(["a", "b"])

    def test_wrong_dimension_caches_nothing(self, tmp_path):
        path = tmp_path / "e.jsonl"
        provider = self._provider(path, FakeEmbeddings({"a": [1.0, 0.0],
                                                        "b": [1.0, 0.0, 0.0]}))
        with pytest.raises(DimensionMismatchError):
            provider.embed_batch(["a", "b"])
        assert not path.exists()

    def test_old_text_keyed_cache_is_refused(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        path.write_text('{"key": "a", "vector": [1.0, 0.0]}\n')
        with pytest.raises(CacheFormatError, match="line 1") as info:
            self._provider(path, _refuse)
        assert str(path) in str(info.value)

    def test_torn_last_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        path.write_text('{"key": "a", "template_id": "EMB", "model": "m", '
                        '"temperature": 0.0, "prompt": "a", '
                        '"response": [1.0, 0.0], "created_at": 0.0}\n'
                        '{"key": "b", "vector": [0.0, 1.')
        with pytest.raises(CacheFormatError, match="line 2") as info:
            RemoteEmbeddingProvider(dimension=2, model="m",
                                    cache_path=str(path),
                                    transport=lambda payload: [])
        assert str(path) in str(info.value)
