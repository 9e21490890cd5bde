"""Tests for the distance oracle layer (Corollary 1.4 logical side)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import (
    SpannerDistanceOracle,
    approximate_sssp,
    measure_approximation,
    sssp_quality,
)
from repro.graphs import apsp, erdos_renyi, sssp


@pytest.fixture(scope="module")
def g():
    return erdos_renyi(220, 0.12, weights="uniform", rng=99)


class TestOracle:
    def test_defaults_use_apsp_parameters(self, g):
        o = SpannerDistanceOracle(g, rng=0)
        import math

        assert o.k == max(2, round(math.log2(g.n)))

    def test_query_symmetric(self, g):
        o = SpannerDistanceOracle(g, rng=1)
        assert o.query(3, 7) == pytest.approx(o.query(7, 3))

    def test_query_self_zero(self, g):
        o = SpannerDistanceOracle(g, rng=2)
        assert o.query(5, 5) == 0.0

    def test_never_underestimates(self, g):
        o = SpannerDistanceOracle(g, rng=3)
        exact = apsp(g)
        approx = o.all_pairs()
        assert np.all(approx + 1e-9 >= exact)

    def test_within_guaranteed_stretch(self, g):
        o = SpannerDistanceOracle(g, rng=4)
        rep = measure_approximation(o, num_pairs=300, rng=5)
        assert rep.within_bound
        assert rep.mean_ratio <= rep.max_ratio

    def test_query_many_matches_query(self, g):
        o = SpannerDistanceOracle(g, rng=6)
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        many = o.query_many(pairs)
        each = [o.query(a, b) for a, b in pairs]
        assert np.allclose(many, each)

    def test_cache_reused(self, g):
        o = SpannerDistanceOracle(g, rng=7)
        a = o.distances_from(0)
        b = o.distances_from(0)
        assert a is b

    def test_bad_source(self, g):
        o = SpannerDistanceOracle(g, rng=8)
        with pytest.raises(ValueError):
            o.distances_from(10**6)

    def test_custom_parameters(self, g):
        o = SpannerDistanceOracle(g, k=3, t=2, rng=9)
        assert o.k == 3 and o.t == 2
        rep = measure_approximation(o, num_pairs=200, rng=10)
        assert rep.max_ratio <= o.guaranteed_stretch + 1e-9

    def test_empty_graph(self):
        from repro.graphs import WeightedGraph

        g0 = WeightedGraph.from_edges(5, [])
        o = SpannerDistanceOracle(g0, k=2, t=1, rng=0)
        assert np.isinf(o.query(0, 1))
        assert o.query(2, 2) == 0.0


class TestSSSPHelpers:
    def test_approximate_never_underestimates(self, g):
        d = approximate_sssp(g, 0, k=4, t=2, rng=11)
        exact = sssp(g, 0)
        assert np.all(d + 1e-9 >= exact)

    def test_quality_ratios(self, g):
        d = approximate_sssp(g, 0, k=4, t=2, rng=12)
        mx, mean = sssp_quality(g, d, 0)
        assert 1.0 <= mean <= mx

    def test_exact_on_spanner_equals_one(self, g):
        exact = sssp(g, 3)
        mx, mean = sssp_quality(g, exact, 3)
        assert mx == pytest.approx(1.0)


class TestLRUCachePolicy:
    """ISSUE 5 bugfix: the row cache evicts LRU instead of clear()-ing."""

    def test_eviction_order(self):
        from repro.core.cache import LRURowCache

        c = LRURowCache(3)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)
        assert c.get("a") == 1  # refresh "a"
        c.put("d", 4)  # evicts "b", the least recently used
        assert "b" not in c and c.keys() == ["c", "a", "d"]
        c.put("c", 30)  # refresh by put
        c.put("e", 5)  # evicts "a"
        assert "a" not in c and c.get("c") == 30
        assert c.evictions == 2

    def test_capacity_one_and_validation(self):
        import pytest

        from repro.core.cache import LRURowCache

        with pytest.raises(ValueError):
            LRURowCache(0)
        c = LRURowCache(1)
        c.put(1, "x")
        c.put(2, "y")
        assert len(c) == 1 and c.get(2) == "y" and c.get(1) is None
        assert c.stats()["hit_rate"] == 0.5

    def test_hot_rows_survive_distinct_source_churn(self, g):
        """A cached single-pair query survives > capacity distinct sources
        without recomputation (the seed's clear() policy failed this)."""
        o = SpannerDistanceOracle(g, k=4, t=2, rng=21, cache_rows=16)
        solved = []
        orig = o.rows.solve_rows
        o.rows.solve_rows = lambda s: solved.extend(s.tolist()) or orig(s)
        hot = o.query(0, 5)
        for s in range(1, g.n):  # 219 distinct cold sources through cap 16
            o.query(s, 7)
            assert o.query(0, 5) == hot
        assert solved.count(0) == 1  # the hot row was computed exactly once
        assert len(solved) == g.n
        assert o.cache_stats["evictions"] > 0

    def test_query_many_populates_cache_past_bound(self, g):
        o = SpannerDistanceOracle(g, k=4, t=2, rng=22, cache_rows=8)
        pairs = np.stack([np.arange(32), np.full(32, 5)], axis=1)
        o.query_many(pairs)  # 32 distinct sources through an 8-row cache
        stats = o.cache_stats
        assert stats["entries"] == 8  # population did not stop at the bound
        assert stats["evictions"] == 32 - 8
        # The 8 most recent sources are resident: these queries are hits.
        before = stats["misses"]
        for s in range(24, 32):
            o.query(s, 7)
        assert o.cache_stats["misses"] == before

    def test_query_many_consistent_under_eviction(self, g):
        o_small = SpannerDistanceOracle(g, k=4, t=2, rng=23, cache_rows=4)
        o_big = SpannerDistanceOracle.from_spanner(
            o_small.spanner, o_small.k, o_small.t,
            t_effective=o_small.t_effective, g=g,
        )
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, g.n, size=(500, 2))
        assert np.array_equal(o_small.query_many(pairs), o_big.query_many(pairs))

    def test_small_batch_path_matches_grouped_gather(self, g, monkeypatch):
        """Pairs read one by one answer and use the cache exactly as the
        grouped gather does: same floats, same solves, same counters and
        the same recency order."""
        from repro.core import cache as cache_mod

        def replay(small_batch):
            monkeypatch.setattr(cache_mod, "_SMALL_BATCH", small_batch)
            o = SpannerDistanceOracle(g, k=4, t=2, rng=25, cache_rows=6)
            solved = []
            orig = o.rows.solve_rows
            o.rows.solve_rows = lambda s: solved.append(s.tolist()) or orig(s)
            rng = np.random.default_rng(3)
            answers = [
                o.query_many(rng.integers(0, 12, size=(size, 2)))
                for size in (1, 3, 5, 8, 2, 7, 4, 6)
            ]
            return answers, solved, o.cache_stats, o.rows.cache.keys()

        small = replay(10**6)
        grouped = replay(0)
        assert all(np.array_equal(a, b) for a, b in zip(small[0], grouped[0]))
        assert small[1:] == grouped[1:]

    def test_from_spanner_round_trip_guarantee(self, g):
        o = SpannerDistanceOracle(g, k=5, t=2, rng=24)
        o2 = SpannerDistanceOracle.from_spanner(
            o.spanner, o.k, o.t, t_effective=o.t_effective, g=g
        )
        assert o2.guaranteed_stretch == o.guaranteed_stretch
        assert o2.result is None
        assert o2.query(1, 9) == o.query(1, 9)
