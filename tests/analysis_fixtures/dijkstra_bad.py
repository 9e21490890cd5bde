"""Violates dijkstra-kernel: shortest paths solved outside the kernel."""

from scipy.sparse import csgraph
from scipy.sparse.csgraph import shortest_path


def pivots(g, centers):
    return csgraph.dijkstra(
        g.to_scipy(), directed=False, indices=centers, min_only=True
    )


def all_pairs(g):
    return shortest_path(g.to_scipy(), directed=False)
