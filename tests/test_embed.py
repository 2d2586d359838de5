"""Deterministic embedding providers and cosine similarity."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancegraph import embed
from stancegraph.embed import (HashEmbeddingProvider, RemoteEmbeddingProvider,
                               TokenAverageProvider, make_provider)
from stancegraph.embed import test_embed as embed_text
from stancegraph.errors import (CacheFormatError, DimensionMismatchError,
                                ProviderError)
from tests.oracle import ZeroVectorError, cosine, scalar_embed, scalar_normals


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


# Any text without surrogates, plus text drawn only from outside the Basic
# Multilingual Plane (four UTF-8 bytes per character).
TEXTS = st.text(min_size=1, max_size=16) | st.text(
    st.characters(min_codepoint=0x10000), min_size=1, max_size=6)
DIMENSIONS = st.sampled_from([1, 2, 3, 47, 48, 383, 384]) | st.integers(1, 64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=TEXTS, dimension=DIMENSIONS)
def test_embedding_matches_scalar_oracle(text, dimension):
    assert np.array_equal(embed_text(text, dimension),
                          scalar_embed(text, dimension))


def _seed_whose_first_draw_is(u1: int) -> int:
    """Invert splitmix64's output mix, then step the state back once."""
    mask = (1 << 64) - 1

    def unxorshift(y, shift):
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unxorshift(u1, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z = unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    z = unxorshift(z, 30)
    return (z - 0x9E3779B97F4A7C15) & mask


@pytest.mark.parametrize("u1", [(1 << 64) - 1, (1 << 64) - 2, 0, 1 << 63,
                                (1 << 53) + 1])
def test_normals_at_extreme_uniforms(u1):
    seed = _seed_whose_first_draw_is(u1)
    assert embed._splitmix64_stream(seed, 1) == [u1]
    assert np.array_equal(embed._normals(seed, 5), scalar_normals(seed, 5))


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


def _token_average_oracle(text, dimension):
    acc = np.zeros(dimension, dtype=np.float64)
    for tok in embed._TOKEN_RE.findall(text.lower()):
        acc += scalar_embed(tok, dimension)
    return acc / float(np.linalg.norm(acc))


MEMO_TEXTS = ["Reduce(Topic0,Risk)", "Reduce(Topic1,Risk)", "¬Safe(Policy)",
              "risk RISK Risk", "Mention(Topic5,History)", "Ωmega(𝒳, Risk)",
              "Reduce(Topic0,Risk)", "¬()"]


class TestTokenMemo:
    def test_one_provider_matches_a_fresh_provider_per_text(self):
        provider = TokenAverageProvider(48)
        shared = provider.embed_batch(MEMO_TEXTS[:3]) + \
            provider.embed_batch(MEMO_TEXTS[3:])
        fresh = [TokenAverageProvider(48).embed_batch([t])[0]
                 for t in MEMO_TEXTS]
        assert [v.tobytes() for v in shared] == [v.tobytes() for v in fresh]
        for text, vec in zip(MEMO_TEXTS[:-1], shared):
            assert np.array_equal(vec, _token_average_oracle(text, 48))
        assert np.array_equal(shared[-1], scalar_embed("¬()", 48))

    def test_instances_share_no_state(self):
        first, second = TokenAverageProvider(8), TokenAverageProvider(16)
        first.embed_batch(["alpha beta"])
        assert set(first._memo) == {"alpha", "beta"}
        assert second._memo == {}
        assert second.embed_batch(["alpha"])[0].shape == (16,)
        assert set(first._memo) == {"alpha", "beta"}
        assert second._memo["alpha"].shape == (16,)

    def test_changing_a_result_changes_no_later_result(self):
        provider = TokenAverageProvider(16)
        out = provider.embed_batch(["alpha", "alpha beta", "zz"])
        expected = [v.copy() for v in out]
        for vec in out:
            vec *= -3.0
        again = provider.embed_batch(["alpha", "alpha beta", "zz"])
        assert all(np.array_equal(a, b) for a, b in zip(again, expected))
        for vec in provider._memo.values():
            with pytest.raises(ValueError):
                vec[0] = 0.0

    @pytest.mark.parametrize("tokens_kept", [0, 1, 3, 7])
    def test_memo_stays_under_its_bound(self, monkeypatch, tokens_kept):
        dimension = 16
        cap = tokens_kept * dimension + dimension // 2
        expected = [TokenAverageProvider(dimension).embed_batch([t])[0]
                    for t in MEMO_TEXTS]
        monkeypatch.setattr(embed, "_MEMO_ELEMENTS", cap)
        provider = TokenAverageProvider(dimension)
        for text, want in zip(MEMO_TEXTS * 2, expected * 2):
            got = provider.embed_batch([text])[0]
            assert len(provider._memo) * dimension <= cap
            assert got.tobytes() == want.tobytes()
        assert len(provider._memo) == tokens_kept


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
