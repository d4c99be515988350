"""Independent references for the benchmark's correctness check.

Each reference is computed from the same inputs the program receives,
with SciPy / NumPy code that shares nothing with the engine:

* WCC and S-V: ``scipy.sparse.csgraph.connected_components``; label
  arrays are compared as partitions, each canonicalised to "smallest
  vertex id in my class".
* PageRank: NumPy power iteration with the program's damping factor,
  dead-end rule (dead-end rank is spread uniformly) and iteration count,
  compared with ``rtol = 1e-9`` (the engine sums shares per worker, so
  the last bits may differ; any real error is many orders larger).
* SSSP: ``scipy.sparse.csgraph.dijkstra`` on each epoch's graph, which
  the reference rebuilds from the base edges and the batches itself;
  unreachable vertices must match exactly, distances to ``rtol = 1e-9``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

PAGERANK_RTOL = 1e-9
SSSP_RTOL = 1e-9


def canonical_partition(labels: np.ndarray) -> np.ndarray:
    """Map every vertex to the smallest vertex id sharing its label."""
    _, cls = np.unique(labels, return_inverse=True)
    smallest = np.full(cls.max() + 1 if cls.size else 0, labels.size, dtype=np.int64)
    np.minimum.at(smallest, cls, np.arange(labels.size, dtype=np.int64))
    return smallest[cls]


def components(graph) -> np.ndarray:
    """Canonical component partition of an undirected graph."""
    n = graph.num_vertices
    adj = csr_matrix(
        (np.ones(graph.indices.size), graph.indices, graph.indptr), shape=(n, n)
    )
    _, labels = connected_components(adj, directed=False)
    return canonical_partition(labels)


def pagerank(graph, iterations: int, damping: float) -> np.ndarray:
    """PageRank by power iteration: every vertex starts at ``1/n``; each
    iteration spreads rank along out-arcs (parallel arcs count twice) and
    spreads dead-end rank uniformly over all vertices."""
    n = graph.num_vertices
    deg = np.diff(graph.indptr)
    dead = deg == 0
    src = np.repeat(np.arange(n), deg)
    rank = np.full(n, 1.0 / n)
    for _ in range(iterations):
        share = np.where(dead, 0.0, rank / np.maximum(deg, 1))
        incoming = np.bincount(graph.indices, weights=share[src], minlength=n)
        rank = (1.0 - damping) / n + damping * (incoming + rank[dead].sum() / n)
    return rank


def stream_distances(graph, batches, source: int) -> list[np.ndarray]:
    """Single-source distances on the base graph and after each batch of
    an undirected, weighted edge stream (one array per epoch)."""
    if graph.directed or graph.weights is None:
        raise ValueError("the SSSP reference expects an undirected weighted graph")
    n = graph.num_vertices
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    keep = src < graph.indices
    edges = dict(
        zip(
            zip(src[keep].tolist(), graph.indices[keep].tolist()),
            graph.weights[keep].tolist(),
        )
    )
    out = [_dijkstra(edges, n, source)]
    for batch in batches:
        if batch.add_vertices or batch.delete_vertices.size:
            raise ValueError("the SSSP reference handles edge mutations only")
        for u, v in zip(batch.delete_src.tolist(), batch.delete_dst.tolist()):
            del edges[(min(u, v), max(u, v))]
        for u, v, w in zip(
            batch.insert_src.tolist(),
            batch.insert_dst.tolist(),
            batch.insert_weights.tolist(),
        ):
            edges[(min(u, v), max(u, v))] = w
        out.append(_dijkstra(edges, n, source))
    return out


def _dijkstra(edges: dict, n: int, source: int) -> np.ndarray:
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    weights = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    adj = csr_matrix((weights, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return dijkstra(adj, directed=False, indices=source)


def same_partition(values: np.ndarray, reference: np.ndarray) -> bool:
    return np.array_equal(canonical_partition(values), reference)


def same_ranks(values: np.ndarray, reference: np.ndarray) -> bool:
    return np.allclose(values, reference, rtol=PAGERANK_RTOL, atol=0.0)


def same_distances(values: np.ndarray, reference: np.ndarray) -> bool:
    unreachable = np.isinf(reference)
    if not np.array_equal(np.isinf(values), unreachable):
        return False
    return np.allclose(
        values[~unreachable], reference[~unreachable], rtol=SSSP_RTOL, atol=0.0
    )
