"""Property tests of the distance code in schema induction against one-shot
references: the loop silhouette over the full distance matrix, the
(n, m, d) broadcast for squared distances, and the difference-based Lloyd
loop for k-means. The Gram-expanded assignment must equal the argmin of
`_sq_dists` exactly, planted ties included. Small chunk sizes make the row
blocks straddle every shape. Examples are derandomized so every run checks
the same cases. A last test bounds the peak memory at the default chunk
size."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancegraph import induce
from tests.oracle import loop_kmeans, loop_silhouette

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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=SEEDS, n=st.integers(1, 40), k=st.integers(1, 10),
       d=st.integers(1, 64), scale=st.integers(-3, 3),
       exponent=st.integers(-16, -10), lattice=st.booleans())
def test_nearest_equals_sq_dists_argmin(seed, n, k, d, scale, exponent, lattice):
    rng = np.random.default_rng(seed)
    if lattice:  # small integers times a power of two: exact distances and ties
        centroids = rng.integers(-3, 4, size=(k, d)) * 2.0 ** (10 * scale // 3)
    else:
        centroids = rng.normal(size=(k, d)) * 10.0 ** scale
    centroids[rng.integers(k, size=k // 3)] = centroids[rng.integers(k, size=k // 3)]
    a, b = rng.integers(k, size=(2, n))
    points = (centroids[a] + centroids[b]) / 2        # (near-)equidistant from two
    kind = rng.integers(4, size=n)
    points[kind == 1] = np.nextafter(points[kind == 1], np.inf)          # 1 ulp
    points[kind == 2] *= 1 + 10.0 ** exponent * rng.normal(size=(np.sum(kind == 2), d))
    points[kind == 3] = rng.normal(size=(np.sum(kind == 3), d)) * 10.0 ** scale
    norms = np.einsum("ij,ij->i", points, points)
    assert np.array_equal(induce._nearest(points, norms, centroids),
                          np.argmin(induce._sq_dists(points, centroids), axis=1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=SEEDS, n=st.integers(1, 24), d=st.integers(1, 8),
       distinct=st.integers(1, 24), k_gap=st.integers(0, 24),
       scale=st.integers(-3, 3))
def test_kmeans_matches_loop_reference(seed, n, d, distinct, k_gap, scale):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(min(distinct, n), d)) * 10.0 ** scale
    points = rows[rng.integers(len(rows), size=n)]  # duplicates when distinct < n
    k = max(1, n - k_gap)                            # often close to n
    got, want = induce.kmeans(points, k, seed), loop_kmeans(points, k, seed)
    # More clusters than distinct points can leave a cluster empty after
    # the repair, and its centroid NaN; both sides must agree on that too.
    assert np.array_equal(got.assignments, want.assignments)
    assert np.array_equal(got.centroids, want.centroids, equal_nan=True)
    assert np.array_equal(got.inertia, want.inertia, equal_nan=True)


def test_kmeans_repair_matches_loop_reference():
    # 3 distinct points, 4 copies each, K = 6: k-means++ draws duplicate
    # centroids, duplicate centroids tie, and the later ones start empty.
    points = np.repeat(np.eye(3) * 3.0, 4, axis=0)
    repairs = []
    want = loop_kmeans(points, 6, seed=0, repairs=repairs)
    got = induce.kmeans(points, 6, seed=0)
    assert repairs
    assert np.array_equal(got.assignments, want.assignments)
    assert np.array_equal(got.centroids, want.centroids)
    assert got.inertia == want.inertia


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=SEEDS, n=st.integers(2, 30), d=st.integers(1, 8),
       distinct=st.integers(1, 30), k=st.integers(2, 6),
       scale=st.integers(-3, 3), offset=st.integers(0, 3))
def test_silhouettes_match_loop_reference_at_scale(seed, n, d, distinct, k,
                                                   scale, offset):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(min(distinct, n), d)) + rng.normal(size=d) * 10.0 ** offset
    points = rows[rng.integers(len(rows), size=n)] * 10.0 ** scale
    points *= 1 + 1e-9 * rng.normal(size=points.shape)  # jittered near-duplicates
    labels = rng.integers(k, size=n)
    labels[:2] = [0, 1]
    got = induce.silhouettes(points, [labels])[0]
    assert abs(got - loop_silhouette(points, labels)) <= 1e-12


# `_sq_dists`: one difference block of at most 8 MB, squared in place, plus
# the (n, K) output, 8.9 MB at this size. The silhouette: (rows, n) Gram
# blocks and their temporaries of at most 1 MB each, plus the one-hot sums,
# 2.6 MB. `_nearest`: the (n, K) Gram matrix and its partition, 2.0 MB. The
# one-shot broadcast would need ~25 GB and ~790 MB.
PEAK_BOUND_MB = 16


def test_distance_peak_memory_is_bounded():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(2000, 384))
    labels = rng.integers(16, size=2000)
    centroids = rng.normal(size=(64, 384))
    norms = np.einsum("ij,ij->i", points, points)
    peaks = {}
    tracemalloc.start()
    try:
        induce.silhouette(points, labels)
        peaks["silhouette"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.reset_peak()
        induce._sq_dists(points, centroids)
        peaks["sq_dists"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.reset_peak()
        induce._nearest(points, norms, centroids)
        peaks["nearest"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < PEAK_BOUND_MB, peaks
