"""Tests for the PRAM substrate and accounting (Section 6 PRAM claim)."""

from __future__ import annotations

import pytest

from repro.core import general_tradeoff
from repro.graphs import erdos_renyi, verify_spanner
from repro.pram import PRAMTracker, log_star, spanner_pram


class TestLogStar:
    @pytest.mark.parametrize(
        "n,expect",
        [(1, 0), (2, 1), (4, 2), (16, 3), (65536, 4), (10**9, 4), (float(2**1000), 4)],
    )
    def test_values(self, n, expect):
        assert log_star(n) == expect

    def test_zero(self):
        assert log_star(0) == 0


class TestTracker:
    def test_depth_charges(self):
        t = PRAMTracker(65536)
        t.charge("semisort", items=100)
        assert t.depth == 4  # log*(65536)
        t.charge("pointer_merge", items=10)
        assert t.depth == 5

    def test_work_accumulates(self):
        t = PRAMTracker(100)
        t.charge("hash", items=50)
        t.charge("local", items=7)
        assert t.work == 57

    def test_unknown_primitive(self):
        t = PRAMTracker(10)
        with pytest.raises(KeyError):
            t.charge("quantum", items=1)

    def test_negative_items(self):
        t = PRAMTracker(10)
        with pytest.raises(ValueError):
            t.charge("hash", items=-1)

    def test_summary(self):
        t = PRAMTracker(16)
        t.charge("find_min", items=3)
        s = t.summary()
        assert s["log_star_n"] == 3
        assert s["primitive_calls"] == 1


class TestSpannerPRAM:
    def test_valid_spanner_and_depth(self):
        g = erdos_renyi(200, 0.15, weights="uniform", rng=95)
        res = spanner_pram(g, 8, 3, rng=1)
        verify_spanner(g, res.subgraph(g))
        pram = res.extra["pram"]
        # Depth is Theta(iterations * log* n): three log*-charged primitives
        # plus two unit charges per iteration, plus the phase-2 pair.
        ls = pram["log_star_n"]
        expect = res.iterations * (3 * ls + 2) + 2 * ls
        assert pram["depth"] == expect

    def test_t1_depth_below_baswana_sen_depth(self):
        # o(k) depth for t=1 vs the Θ(k log* n) Baswana-Sen baseline (t=k-1).
        g = erdos_renyi(512, 0.06, weights="uniform", rng=7)
        fast = spanner_pram(g, 16, 1, rng=1).extra["pram"]["depth"]
        base = spanner_pram(g, 16, 15, rng=1).extra["pram"]["depth"]
        assert fast < base

    def test_work_near_linear(self):
        g = erdos_renyi(200, 0.15, weights="uniform", rng=96)
        res = spanner_pram(g, 4, 2, rng=2)
        # Each iteration touches O(m) items; total work O(m * iterations).
        assert res.extra["pram"]["work"] <= 8 * g.m * max(res.iterations, 1)

    def test_matches_logical_algorithm(self):
        g = erdos_renyi(150, 0.15, weights="uniform", rng=97)
        import numpy as np

        a = spanner_pram(g, 4, 2, rng=7)
        b = general_tradeoff(g, 4, 2, rng=7)
        assert np.array_equal(a.edge_ids, b.edge_ids)
