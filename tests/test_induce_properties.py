"""Property tests of the chunked distance code in schema induction against
one-shot references: the loop silhouette over the full distance matrix, and
the (n, m, d) broadcast for squared distances. Small chunk sizes make the
row blocks straddle every shape. Examples are derandomized so every run
checks the same cases. A last test bounds the peak memory of both at the
default chunk size."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancegraph import induce
from tests.oracle import loop_silhouette

SEEDS = st.integers(0, 2**32 - 1)


def _one_shot_sq_dists(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sum(diff * diff, axis=2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=SEEDS, n=st.integers(1, 30), m=st.integers(1, 20),
       d=st.integers(1, 9), scale=st.integers(-3, 3),
       chunk=st.integers(1, 400))
def test_chunked_sq_dists_bit_identical(seed, n, m, d, scale, chunk):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d)) * 10.0 ** scale
    b = np.vstack([a[rng.integers(n, size=m // 2)],      # zero distances too
                   rng.normal(size=(m - m // 2, d))])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(induce, "_CHUNK_ELEMENTS", chunk)
        got = induce._sq_dists(a, b)
    assert np.array_equal(got, _one_shot_sq_dists(a, b))


def test_default_chunk_splits_rows():
    rng = np.random.default_rng(0)
    points, centroids = rng.normal(size=(100, 384)), rng.normal(size=(64, 384))
    # 2**20 // (64 * 384) = 42 rows a block: three blocks, the last one short
    assert np.array_equal(induce._sq_dists(points, centroids),
                          _one_shot_sq_dists(points, centroids))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=SEEDS, n=st.integers(2, 30), d=st.integers(1, 5),
       distinct=st.integers(1, 30), n_labelings=st.integers(1, 4),
       chunk=st.integers(1, 200))
def test_silhouettes_match_loop_reference(seed, n, d, distinct, n_labelings,
                                          chunk):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(min(distinct, n), d))
    points = rows[rng.integers(len(rows), size=n)]  # duplicates when distinct < n
    labelings = []
    for _ in range(n_labelings):
        k = int(rng.integers(2, n + 1))
        ids = rng.choice(np.arange(-500, 500), size=k, replace=False)
        labels = ids[rng.integers(k, size=n)]  # non-contiguous, often singletons
        labels[:2] = ids[:2]
        labelings.append(labels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(induce, "_CHUNK_ELEMENTS", chunk)
        got = induce.silhouettes(points, labelings)
    assert len(got) == n_labelings
    for score, labels in zip(got, labelings):
        assert abs(score - loop_silhouette(points, labels)) <= 1e-12


# One difference block of at most 8 MB, squared in place, plus the (n, K)
# outputs and one-hot sums: 6.4 MB for the silhouette and 8.9 MB for the
# distance step at this size. The one-shot broadcast would need ~25 GB
# and ~790 MB.
PEAK_BOUND_MB = 16


def test_distance_peak_memory_is_bounded():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(2000, 384))
    labels = rng.integers(16, size=2000)
    centroids = rng.normal(size=(64, 384))
    peaks = {}
    tracemalloc.start()
    try:
        induce.silhouette(points, labels)
        peaks["silhouette"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.reset_peak()
        induce._sq_dists(points, centroids)
        peaks["sq_dists"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < PEAK_BOUND_MB, peaks
