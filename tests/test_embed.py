"""Deterministic embedding providers and cosine similarity."""

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
        with pytest.raises(Exception):
            make_provider("no-such-provider", 8)


class TestRemoteCache:
    def test_torn_last_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        path.write_text('{"key": "a", "vector": [1.0, 0.0]}\n'
                        '{"key": "b", "vector": [0.0, 1.')
        with pytest.raises(CacheFormatError, match="line 2") as info:
            RemoteEmbeddingProvider(dimension=2, model="m",
                                    cache_path=str(path),
                                    transport=lambda payload: [])
        assert str(path) in str(info.value)
