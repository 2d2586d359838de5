"""Reference computations the tests compare the package against."""

import math

import numpy as np

from stancegraph.embed import fnv1a64

_MASK64 = (1 << 64) - 1


def explicit_kernel_oracle(sub_adj: np.ndarray, sub_feat: np.ndarray,
                           filt_adj: np.ndarray, filt_feat: np.ndarray,
                           W: np.ndarray, p: int) -> float:
    """Random-walk kernel that materializes the Kronecker product and its
    p-th power. Only for small sizes."""
    S = sub_feat @ filt_feat.T
    s = S.ravel()
    a_cross = np.kron(sub_adj, filt_adj)
    powered = np.linalg.matrix_power(a_cross, p)
    if W.ndim == 1:
        W = np.diag(W)
    return float(s @ W @ powered @ s)


def bfs_subgraph_order(adjacency: np.ndarray, v: int, hop: int,
                       n_sub: int) -> list[int]:
    """Node v's k-hop subgraph order by one BFS: center first, then by hop
    distance then node index, truncated to n_sub."""
    undirected = (adjacency != 0) | (adjacency.T != 0)
    order, seen, frontier = [v], {v}, [v]
    for _ in range(hop):
        frontier = sorted({int(u) for w in frontier
                           for u in np.nonzero(undirected[w])[0]} - seen)
        order.extend(frontier)
        seen.update(frontier)
    return order[:n_sub]


def loop_silhouette(points: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette from the full (n, n) distance matrix and one loop over
    points and labels; singletons and a = b = 0 points score 0. Only for
    small sizes: the broadcast builds an (n, n, d) temporary."""
    points = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    labels = np.unique(assignments)
    diff = points[:, None, :] - points[None, :, :]
    dmat = np.sqrt(np.maximum(np.sum(diff * diff, axis=2), 0.0))
    scores = np.zeros(points.shape[0], dtype=np.float64)
    for i in range(points.shape[0]):
        own = assignments[i]
        mask_own = (assignments == own)
        size_own = int(mask_own.sum())
        if size_own <= 1:
            continue
        a = float(dmat[i, mask_own].sum() / (size_own - 1))
        b = min(float(dmat[i, assignments == other].mean())
                for other in labels if other != own)
        if a + b == 0.0:
            continue
        scores[i] = (b - a) / (a + b)
    return float(scores.mean())


def scalar_splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step on Python ints: (output, next state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return z, state


def scalar_normals(seed: int, count: int) -> np.ndarray:
    """Counter-based standard normals, one splitmix64 step and one Box-Muller
    half at a time."""
    state = seed
    out = np.empty(count, dtype=np.float64)
    i = 0
    while i < count:
        u1, state = scalar_splitmix64(state)
        u2, state = scalar_splitmix64(state)
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


def scalar_embed(text: str, dimension: int) -> np.ndarray:
    """test_embed on top of scalar_normals."""
    vec = scalar_normals(fnv1a64(text), dimension)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm
