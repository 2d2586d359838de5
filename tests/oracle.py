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
