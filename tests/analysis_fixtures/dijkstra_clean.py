"""Clean twin of dijkstra_bad: both solves go through the kernel."""

from repro.graphs.distances import apsp, symmetric_dijkstra


def pivots(g, centers):
    return symmetric_dijkstra(g, centers, min_only=True)


def all_pairs(g):
    return apsp(g)
