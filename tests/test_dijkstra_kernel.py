"""The shortest-path kernel equals scipy's undirected Dijkstra, bit for bit.

:func:`repro.graphs.distances.symmetric_dijkstra` runs a *directed* solve
over ``WeightedGraph.to_scipy()``, which is only correct because that
matrix stores every edge as both arcs with the same weight.  These tests
pin both halves: every exact-distance entry point (``sssp``,
``batched_sssp``, ``apsp``, the sketch pivots) matches the old
``csgraph.dijkstra(directed=False)`` call exactly — distances, and the
``min_only`` pivot sources under ties — and ``to_scipy()`` is symmetric
however the graph was obtained (built in memory, loaded from the
artifact store with or without memmap, attached from shared memory).
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from repro.distances.sketches import DistanceSketch
from repro.graphs import WeightedGraph
from repro.graphs import distances as gd
from repro.service import ArtifactStore, SharedGraphBuffers
from tests.strategies import mixed_weight_graph

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def undirected(g: WeightedGraph, indices=None, **kwargs):
    """The call every entry point made before the kernel existed."""
    return csgraph.dijkstra(g.to_scipy(), directed=False, indices=indices, **kwargs)


def assert_symmetric(g: WeightedGraph) -> None:
    mat = g.to_scipy()
    assert (mat != mat.T).nnz == 0


@settings(max_examples=60, deadline=None)
@given(g=mixed_weight_graph(), data=st.data())
def test_entry_points_match_undirected_dijkstra(g, data):
    assert_symmetric(g)
    src = data.draw(st.integers(0, g.n - 1))
    assert np.array_equal(gd.sssp(g, src), undirected(g, src))

    sources = np.asarray(
        data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=12)),
        dtype=np.int64,
    )
    want = np.atleast_2d(undirected(g, sources))
    assert np.array_equal(gd.batched_sssp(g, sources), want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gd, "_CHUNK_ENTRIES", 2 * g.n)  # two rows per chunk
        assert np.array_equal(gd.batched_sssp(g, sources), want)

    assert np.array_equal(gd.apsp(g), undirected(g))


@settings(max_examples=60, deadline=None)
@given(g=mixed_weight_graph(), data=st.data())
def test_kernel_predecessors_and_min_only_sources_match(g, data):
    if g.m == 0:
        return  # callers never hand the kernel an edgeless graph
    centers = np.asarray(
        data.draw(
            st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True)
        ),
        dtype=np.int64,
    )
    for kwargs in ({"return_predecessors": True},
                   {"min_only": True, "return_predecessors": True}):
        got = gd.symmetric_dijkstra(g, centers, **kwargs)
        want = undirected(g, centers, **kwargs)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), kwargs


@settings(max_examples=40, deadline=None)
@given(g=mixed_weight_graph(), k=st.integers(2, 5), seed=st.integers(0, 10**6))
def test_sketch_pivots_match_undirected_dijkstra(g, k, seed):
    sk = DistanceSketch(g, k, rng=seed)
    for i in range(1, k):
        ai = sk.levels[i]
        if ai.size == 0 or g.m == 0:
            continue
        dist, _, sources = undirected(
            g, ai, min_only=True, return_predecessors=True
        )
        assert np.array_equal(sk.pivot_dist[i], dist)
        assert np.array_equal(sk.pivot[i], sources)


def test_edgeless_and_isolated_vertices():
    empty = WeightedGraph.from_edges(5, [])
    want = np.full((5, 5), np.inf)
    np.fill_diagonal(want, 0.0)
    assert np.array_equal(gd.apsp(empty), want)
    assert np.array_equal(gd.batched_sssp(empty, [3, 0]), want[[3, 0]])
    assert np.array_equal(gd.sssp(empty, 2), want[2])

    # Vertices 3..5 are isolated; 2 is reachable only through 1.
    g = WeightedGraph.from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)])
    assert_symmetric(g)
    assert np.array_equal(gd.apsp(g), undirected(g))
    assert np.array_equal(gd.sssp(g, 4), undirected(g, 4))


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(7)
    n, m = 60, 200
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = u != v
    return WeightedGraph(n, u[keep], v[keep], rng.integers(1, 4, m)[keep] * 0.5)


@pytest.mark.parametrize("mmap", [True, False])
def test_store_loaded_graph_is_symmetric(graph, tmp_path, mmap):
    store = ArtifactStore(tmp_path)
    h = store.load_graph(store.save_graph(graph), mmap=mmap)
    assert_symmetric(h)
    assert np.array_equal(gd.apsp(h), undirected(graph))


def test_shared_memory_graph_is_symmetric(graph):
    buf = SharedGraphBuffers.create(graph)
    try:
        peer = SharedGraphBuffers.attach(buf.descriptor())
        h = peer.graph()
        assert_symmetric(h)
        assert np.array_equal(gd.apsp(h), undirected(graph))
        del h
        peer.close()
    finally:
        buf.destroy()


def test_no_undirected_dijkstra_call_in_src():
    """Every ``*.dijkstra(...)`` call in the package asks for the directed
    solve; ``directed=False`` would bring back the per-call transpose."""
    calls = 0
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dijkstra"
            ):
                calls += 1
                directed = [k for k in node.keywords if k.arg == "directed"]
                assert directed and directed[0].value.value is True, path
    assert calls == 1  # the kernel itself
