"""Property tests for the vectorized distance/sketch layer.

Every array-native fast path introduced by the distance-layer rework is
cross-checked here against an independently-written pure-Python reference:

* ``build_bunches_batched`` (level-batched numpy frontier relaxation) vs
  ``build_bunches_reference`` (per-center dict/heapq truncated Dijkstra) —
  bit-identical bunch sets *and* distances;
* batched ``pairwise_distances`` / ``batched_sssp`` vs ``sssp_reference``;
* the vectorized ``query_many`` vs scalar ``query``, and both (on
  fresh and int32-loaded sketches) vs the frozen ``query_reference`` walk;
* the cached scipy CSR and vectorized edge-lookup helpers on
  ``WeightedGraph``.

Random seeds sweep several graph shapes, including disconnected graphs and
the k=1 edge case (full APSP bunches).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import DistanceSketch
from repro.distances.sketches import (
    build_bunches_batched,
    build_bunches_reference,
    query_reference,
)
from repro.graphs import (
    WeightedGraph,
    batched_sssp,
    bfs_hops,
    erdos_renyi,
    k_hop_ball,
    pairwise_distances,
    sssp,
    sssp_reference,
)
from tests.strategies import mixed_weight_graph, seeds


def _random_graph(seed: int, weights: str = "uniform") -> WeightedGraph:
    """A varied workload: dense/sparse ER, sometimes disconnected."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 120))
    p = float(rng.uniform(0.02, 0.2))
    g = erdos_renyi(n, p, weights=weights, rng=seed)
    if seed % 3 == 0:
        # Two disjoint copies plus isolated vertices.
        u = np.concatenate([g.edges_u, g.edges_u + n])
        v = np.concatenate([g.edges_v, g.edges_v + n])
        w = np.concatenate([g.edges_w, g.edges_w])
        g = WeightedGraph(2 * n + 3, u, v, w)
    return g


def _assert_batched_matches_reference(seed: int, k: int, weights: str) -> None:
    g = _random_graph(seed, weights)
    sk = DistanceSketch(g, k, rng=seed)
    ref = build_bunches_reference(g, sk.levels, sk.pivot_dist)
    got = sk.bunch  # compatibility view over the CSR arrays
    assert len(got) == g.n
    for v in range(g.n):
        assert got[v] == ref[v]  # same centers, bit-identical distances


class TestBunchBuilders:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batched_matches_reference(self, seed, k):
        _assert_batched_matches_reference(seed, k, "uniform")

    # ``unit`` and ``integer`` weights make candidate distances tie, so the
    # per-hop minimum per (vertex, center) sees equal values.
    @pytest.mark.parametrize("weights", ["unit", "integer"])
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batched_matches_reference_tied_weights(self, seed, k, weights):
        _assert_batched_matches_reference(seed, k, weights)

    def test_csr_arrays_consistent(self):
        g = _random_graph(1)
        sk = DistanceSketch(g, 3, rng=1)
        indptr, centers, dists = build_bunches_batched(
            g, sk.levels, sk.pivot_dist
        )
        assert np.array_equal(indptr, sk.bunch_indptr)
        assert np.array_equal(centers, sk.bunch_centers)
        assert np.array_equal(dists, sk.bunch_dists)
        assert indptr[0] == 0 and indptr[-1] == centers.size
        for v in range(g.n):
            span = centers[indptr[v] : indptr[v + 1]]
            # Centers are sorted per vertex (the query path searchsorts them).
            assert np.all(np.diff(span) > 0)
        # Every vertex's bunch contains itself with distance 0 (level 0).
        self_pos = np.searchsorted(
            sk._bunch_keys, np.arange(g.n) * np.int64(g.n) + np.arange(g.n)
        )
        assert np.all(sk.bunch_dists[self_pos] == 0.0)

    def test_query_many_matches_scalar_query(self):
        for seed in range(4):
            g = _random_graph(seed)
            sk = DistanceSketch(g, 3, rng=seed)
            rng = np.random.default_rng(seed + 100)
            pairs = rng.integers(0, g.n, size=(200, 2))
            batch = sk.query_many(pairs)
            scalar = np.array([sk.query(int(a), int(b)) for a, b in pairs])
            assert np.array_equal(batch, scalar)

    def test_small_batches_match_one_large_batch(self):
        """Batches at or under the per-pair walk's cut-off answer exactly
        as the vectorized walk does on the same pairs."""
        from repro.distances import sketches

        for seed in range(3):  # seed 0 is disconnected
            g = _random_graph(seed)
            sk = DistanceSketch(g, 3, rng=seed)
            rng = np.random.default_rng(seed + 200)
            pairs = rng.integers(0, g.n, size=(300, 2))
            pairs[::9, 1] = pairs[::9, 0]  # self pairs
            whole = sk.query_many(pairs)
            assert pairs.shape[0] > sketches._SCALAR_WALK_MAX
            for size in (1, 2, sketches._SCALAR_WALK_MAX, sketches._SCALAR_WALK_MAX + 1):
                parts = [sk.query_many(pairs[lo : lo + size]) for lo in range(0, len(pairs), size)]
                assert np.array_equal(np.concatenate(parts), whole), size

    @settings(max_examples=60, deadline=None)
    @given(
        g=mixed_weight_graph(),
        k=st.integers(1, 4),
        seed=seeds,
        int32=st.booleans(),
        size=st.sampled_from([1, 2, 16, 17]),
        self_pair=st.booleans(),
        data=st.data(),
    )
    def test_walks_match_the_frozen_reference(
        self, g, k, seed, int32, size, self_pair, data
    ):
        """``query`` and ``query_many`` (both walks: 16 pairs is the
        per-pair walk's cut-off) give the floats of ``query_reference``,
        on fresh sketches and on int32 index arrays as the store loads
        them; the graphs include disconnected ones, and k=1."""
        sk = DistanceSketch(g, k, rng=seed)
        if int32:
            i32 = lambda a: a.astype(np.int32)  # noqa: E731
            sk = DistanceSketch.from_arrays(
                g, k, [i32(lv) for lv in sk.levels], i32(sk.pivot), sk.pivot_dist,
                i32(sk.bunch_indptr), i32(sk.bunch_centers), sk.bunch_dists,
            )
        vertex = st.integers(0, g.n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=size, max_size=size))
        if self_pair:
            pairs[-1] = (pairs[-1][0], pairs[-1][0])
        want = [query_reference(sk, u, v) for u, v in pairs]
        assert sk.query_many(np.array(pairs)).tolist() == want
        assert [sk.query(u, v) for u, v in pairs] == want

    def test_pickled_sketch_answers_alike(self):
        """The walk's lazily built memoryviews do not stop a sketch that
        has answered queries from pickling."""
        g = _random_graph(3)
        sk = DistanceSketch(g, 3, rng=3)
        pairs = np.random.default_rng(3).integers(0, g.n, size=(10, 2))
        before = sk.query_many(pairs)
        again = pickle.loads(pickle.dumps(sk))
        assert np.array_equal(again.query_many(pairs), before)

    def test_disconnected_bunches_stay_local(self):
        g = _random_graph(3)  # seed % 3 == 0: disconnected by construction
        sk = DistanceSketch(g, 2, rng=3)
        ref = build_bunches_reference(g, sk.levels, sk.pivot_dist)
        for v in range(g.n):
            assert sk.bunch[v] == ref[v]
        # Isolated vertices (the last three) know only themselves.
        for v in range(g.n - 3, g.n):
            assert sk.bunch[v] == {v: 0.0}

    def test_k1_is_full_apsp(self):
        g = erdos_renyi(40, 0.3, weights="uniform", rng=9)
        sk = DistanceSketch(g, 1, rng=9)
        d = batched_sssp(g, np.arange(g.n))
        for v in range(g.n):
            finite = np.flatnonzero(np.isfinite(d[:, v]))
            assert sorted(sk.bunch[v]) == finite.tolist()
            for c in finite:
                assert sk.bunch[v][int(c)] == d[c, v]


class TestBatchedDistances:
    @pytest.mark.parametrize("seed", range(6))
    def test_pairwise_matches_reference_dijkstra(self, seed):
        g = _random_graph(seed)
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, g.n, size=(50, 2))
        got = pairwise_distances(g, pairs)
        for (a, b), val in zip(pairs, got):
            ref = sssp_reference(g, int(a))[b]
            assert val == pytest.approx(ref, abs=1e-12) or (
                np.isinf(val) and np.isinf(ref)
            )

    def test_batched_sssp_rows_match_sssp(self):
        g = _random_graph(2)
        sources = np.array([0, 3, g.n - 1])
        rows = batched_sssp(g, sources)
        for j, s in enumerate(sources):
            assert np.array_equal(rows[j], sssp(g, int(s)))

    def test_batched_sssp_chunking(self, monkeypatch):
        import repro.graphs.distances as dmod

        g = _random_graph(4)
        sources = np.arange(g.n)
        expect = batched_sssp(g, sources)
        # Force tiny chunks; results must be unchanged.
        monkeypatch.setattr(dmod, "_CHUNK_ENTRIES", 1)
        assert np.array_equal(dmod.batched_sssp(g, sources), expect)

    def test_batched_sssp_empty_graph(self):
        g = WeightedGraph.from_edges(5, [])
        rows = batched_sssp(g, np.array([1, 4]))
        assert rows[0, 1] == 0.0 and np.isinf(rows[0, 0])
        assert rows[1, 4] == 0.0 and np.isinf(rows[1, 2])

    def test_batched_sssp_rejects_bad_source(self):
        g = _random_graph(5)
        with pytest.raises(ValueError):
            batched_sssp(g, np.array([0, g.n]))

    def test_iter_sssp_chunks_covers_all_sources(self, monkeypatch):
        import repro.graphs.distances as dmod

        g = _random_graph(6)
        sources = np.arange(g.n)
        expect = batched_sssp(g, sources)
        monkeypatch.setattr(dmod, "_CHUNK_ENTRIES", 1)  # one source per block
        offsets = []
        for lo, rows in dmod.iter_sssp_chunks(g, sources):
            offsets.append((lo, rows.shape[0]))
            assert np.array_equal(rows, expect[lo : lo + rows.shape[0]])
        assert sum(c for _, c in offsets) == g.n

    def test_oracle_query_many_survives_mid_call_eviction(self):
        from repro.distances import SpannerDistanceOracle

        g = erdos_renyi(60, 0.15, weights="uniform", rng=21)
        # Capacity 1: caching the rows for sources 6..9 inside query_many
        # evicts source 5's row while the same call still needs it.
        o = SpannerDistanceOracle(g, rng=21, cache_rows=1)
        before = o.query(5, 7)
        got = o.query_many([[5, 7], [6, 8], [7, 9], [8, 1], [9, 2], [5, 8]])
        assert got[0] == before
        assert got[1] == o.query(6, 8)
        assert got[5] == o.query(5, 8)
        assert len(o.rows.cache) == 1  # the bound held throughout


class TestGraphLookups:
    def test_edge_ids_for_roundtrip(self):
        g = _random_graph(6)
        ids = g.edge_ids_for(g.edges_u, g.edges_v)
        assert np.array_equal(ids, np.arange(g.m))
        # Swapped endpoints canonicalize to the same ids.
        ids_swapped = g.edge_ids_for(g.edges_v, g.edges_u)
        assert np.array_equal(ids_swapped, np.arange(g.m))

    def test_edge_ids_for_missing(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 2.0)])
        ids = g.edge_ids_for([0, 0, 2], [1, 2, 3])
        assert ids.tolist() == [0, -1, 1]

    def test_edge_ids_for_matches_dict_map(self):
        g = _random_graph(7)
        idx = g.edge_index_map()
        us = g.edges_u
        vs = g.edges_v
        ids = g.edge_ids_for(us, vs)
        for a, b, i in zip(us.tolist(), vs.tolist(), ids.tolist()):
            assert idx[(a, b)] == i

    def test_to_scipy_cached(self):
        g = _random_graph(8)
        assert g.to_scipy() is g.to_scipy()

    def test_has_edge_subset_weight_mismatch(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        h_ok = WeightedGraph.from_edges(3, [(0, 1, 1.0)])
        h_bad = WeightedGraph.from_edges(3, [(0, 1, 1.5)])
        assert g.has_edge_subset(h_ok)
        assert not g.has_edge_subset(h_bad)
        assert g.has_edge_subset(WeightedGraph.from_edges(3, []))


class TestFrontierGathers:
    @pytest.mark.parametrize("seed", range(4))
    def test_bfs_hops_matches_reference(self, seed):
        g = _random_graph(seed)
        csr = g.csr
        for s in (0, g.n // 2):
            got = bfs_hops(g, s)
            # Simple reference BFS.
            ref = np.full(g.n, -1, dtype=np.int64)
            ref[s] = 0
            frontier = [s]
            level = 0
            while frontier:
                level += 1
                nxt = []
                for x in frontier:
                    for y in csr.indices[csr.indptr[x] : csr.indptr[x + 1]]:
                        if ref[y] == -1:
                            ref[y] = level
                            nxt.append(int(y))
                frontier = nxt
            assert np.array_equal(got, ref)

    def test_k_hop_ball_order_matches_reference(self):
        for seed in range(4):
            g = _random_graph(seed)
            csr = g.csr
            for hops in (0, 1, 3):
                got = k_hop_ball(g, 0, hops).tolist()
                seen = {0}
                order = [0]
                frontier = [0]
                for _ in range(hops):
                    nxt = []
                    for x in frontier:
                        for y in csr.indices[csr.indptr[x] : csr.indptr[x + 1]]:
                            y = int(y)
                            if y not in seen:
                                seen.add(y)
                                order.append(y)
                                nxt.append(y)
                    if not nxt:
                        break
                    frontier = nxt
                assert got == order

    def test_k_hop_ball_cap_exact(self):
        g = erdos_renyi(60, 0.2, rng=3)
        ball = k_hop_ball(g, 0, 10, cap=7)
        assert ball.size == 7
        # No duplicates under the cap.
        assert len(set(ball.tolist())) == 7
