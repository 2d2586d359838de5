"""Reference computations the tests compare the package against."""

import numpy as np


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
