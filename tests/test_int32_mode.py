"""int32 index mode: downcast artifacts answer bit-identically to int64.

The store downcasts index arrays (endpoints, CSR offsets, pivot/bunch
tables) to int32 at save time whenever the values fit — halving the index
footprint for every ``n < 2**31`` graph.  The contract pinned here is
*bit-identity*: index dtype never touches the float Dijkstra/pivot-walk
arithmetic, so an int32-indexed ``batched_sssp`` / sketch ``query_many``
must agree with int64 to the last bit — across the shared scenario
vocabulary (hypothesis) and at ``n >= 2**15``, where the flattened
``v * n + w`` key arithmetic would overflow int32 if any code path forgot
to widen.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import DistanceSketch, SpannerDistanceOracle
from repro.graphs import WeightedGraph
from repro.graphs.distances import batched_capped_bfs, batched_sssp
from repro.graphs import build_graph_from_spec
from repro.service import ArtifactStore

from tests.strategies import graph_spec_strings


def _as_int32(g: WeightedGraph) -> WeightedGraph:
    """The graph the store's downcast path produces: same edges, int32
    endpoints (preserved through canonicalization)."""
    return WeightedGraph.from_canonical(
        g.n,
        g.edges_u.astype(np.int32),
        g.edges_v.astype(np.int32),
        g.edges_w,
    )


class TestInt32GraphConstruction:
    def test_int32_endpoints_preserved(self):
        g = _as_int32(build_graph_from_spec("er:40:0.2", weights="uniform", seed=1))
        assert g.edges_u.dtype == np.int32 and g.edges_v.dtype == np.int32
        assert g.csr.indices.dtype == np.int32
        assert g.csr.indptr.dtype == np.int32
        assert g.to_scipy().indices.dtype == np.int32

    def test_constructor_roundtrip_keeps_int32(self):
        # Through the validating constructor too (dedupe + canonicalize).
        u = np.array([3, 0, 1], dtype=np.int32)
        v = np.array([1, 2, 3], dtype=np.int32)
        g = WeightedGraph(5, u, v, np.ones(3))
        assert g.edges_u.dtype == np.int32
        assert g == WeightedGraph(5, u.astype(np.int64), v.astype(np.int64), np.ones(3))

    def test_edge_keys_widened_to_int64(self):
        # n**2 > 2**31: the sorted (u * n + v) edge-key encoding must not
        # wrap. n=65536 puts u*n+v right at 2**31+ for u >= 32768.
        n = 65536
        u = np.array([0, 40000], dtype=np.int32)
        v = np.array([1, 65535], dtype=np.int32)
        g = WeightedGraph.from_canonical(n, u, v, np.ones(2))
        assert g._sorted_edge_keys().dtype == np.int64
        assert np.array_equal(g.edge_ids_for(u, v), [0, 1])


@settings(max_examples=25, deadline=None)
@given(spec=graph_spec_strings(max_n=48), seed=st.integers(0, 10**6))
def test_batched_sssp_bit_identical_across_index_dtypes(spec, seed):
    g = build_graph_from_spec(spec, weights="uniform", seed=seed)
    g32 = _as_int32(g)
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, g.n, size=min(8, g.n))
    assert np.array_equal(batched_sssp(g, sources), batched_sssp(g32, sources))


@settings(max_examples=15, deadline=None)
@given(spec=graph_spec_strings(max_n=40), seed=st.integers(0, 10**6))
def test_sketch_query_many_bit_identical_across_index_dtypes(spec, seed):
    g = build_graph_from_spec(spec, weights="uniform", seed=seed)
    sk = DistanceSketch(g, k=3, rng=seed)
    sk32 = DistanceSketch.from_arrays(
        _as_int32(g),
        sk.k,
        [lv.astype(np.int32) for lv in sk.levels],
        sk.pivot.astype(np.int32),
        sk.pivot_dist,
        sk.bunch_indptr.astype(np.int32),
        sk.bunch_centers.astype(np.int32),
        sk.bunch_dists,
    )
    rng = np.random.default_rng(seed + 1)
    pairs = rng.integers(0, g.n, size=(200, 2))
    assert np.array_equal(sk.query_many(pairs), sk32.query_many(pairs))
    for u, v in pairs[:10].tolist():
        assert sk.query(u, v) == sk32.query(u, v)


@settings(max_examples=15, deadline=None)
@given(spec=graph_spec_strings(max_n=40), seed=st.integers(0, 10**6))
def test_capped_bfs_bit_identical_across_index_dtypes(spec, seed):
    g = build_graph_from_spec(spec, weights="unit", seed=seed)
    g32 = _as_int32(g)
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, g.n, size=min(6, g.n))
    a = batched_capped_bfs(g, sources, hops=3, cap=9)
    b = batched_capped_bfs(g32, sources, hops=3, cap=9)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


class TestBigN:
    """Explicit n >= 2**15 spot checks: int32-downcast structures where the
    flat (vertex, vertex) key arithmetic exceeds int32 range."""

    def test_batched_sssp_on_grid_65536(self):
        g = build_graph_from_spec("grid:256:256", weights="uniform", seed=0)  # n = 2**16
        g32 = _as_int32(g)
        sources = np.array([0, 32767, 65535])
        assert np.array_equal(batched_sssp(g, sources), batched_sssp(g32, sources))

    def test_sketch_store_roundtrip_at_n_70000(self, tmp_path):
        # n**2 ~ 4.9e9 > 2**31: every bunch key v * n + w with v >= 30680
        # overflows int32 unless widened. Hand-build a small sketch over a
        # path graph (real bunches there would be O(n^1.5)), save through
        # the downcasting store, and pin loaded == original bitwise.
        n = 70_000
        us = np.arange(n - 1, dtype=np.int64)
        g = WeightedGraph.from_canonical(n, us, us + 1, np.ones(n - 1))
        k = 2
        a1 = np.array([10, n - 7], dtype=np.int64)
        pivot = np.full((k + 1, n), -1, dtype=np.int64)
        pivot_dist = np.full((k + 1, n), np.inf)
        pivot[0] = np.arange(n)
        pivot_dist[0] = 0.0
        verts = np.arange(n)
        d1 = np.minimum(np.abs(verts - a1[0]), np.abs(verts - a1[1]))
        pivot[1] = np.where(np.abs(verts - a1[0]) <= np.abs(verts - a1[1]), a1[0], a1[1])
        pivot_dist[1] = d1.astype(np.float64)
        # Bunch of v: itself plus both A_1 centers (ids near n, so keys
        # v * n + center live far beyond int32 range).
        centers = np.sort(
            np.stack([verts, np.full(n, a1[0]), np.full(n, a1[1])], axis=1), axis=1
        )
        dists = np.abs(centers - verts[:, None]).astype(np.float64)
        bunch_indptr = np.arange(0, 3 * n + 1, 3, dtype=np.int64)
        sk = DistanceSketch.from_arrays(
            g, k, [np.arange(n, dtype=np.int64), a1],
            pivot, pivot_dist, bunch_indptr, centers.ravel(), dists.ravel(),
        )
        store = ArtifactStore(tmp_path)
        key = store.save_sketch(sk)
        loaded = store.load_sketch(key)
        assert loaded.bunch_centers.dtype == np.int32  # downcast really happened
        assert loaded._bunch_keys.dtype == np.int64  # keys widened back
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, n, size=(500, 2))
        # Include pairs pinned at the high end, where overflow would bite.
        pairs = np.vstack([pairs, [[n - 1, n - 2], [n - 3, 10], [69_999, 35_000]]])
        assert np.array_equal(sk.query_many(pairs), loaded.query_many(pairs))
        for u, v in pairs[:8].tolist():
            assert sk.query(u, v) == loaded.query(u, v)

    def test_oracle_store_downcasts_and_roundtrips(self, tmp_path):
        g = build_graph_from_spec("er:300:0.04", weights="uniform", seed=3)
        oracle = SpannerDistanceOracle(g, k=3, t=2, rng=0)
        store = ArtifactStore(tmp_path)
        key = store.save_oracle(oracle)
        loaded = store.load_oracle(key)
        assert loaded.spanner.edges_u.dtype == np.int32
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, g.n, size=(400, 2))
        assert np.array_equal(oracle.query_many(pairs), loaded.query_many(pairs))
