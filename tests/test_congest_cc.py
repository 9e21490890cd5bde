"""Tests for the Congested Clique substrate and the Section 8 algorithms."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from repro.cc_impl import apsp_cc, spanner_cc
from repro.congest import CongestedClique, schedule_rounds, two_phase_schedule
from repro.core import contract_clusters, size_bound, stretch_bound
from repro.graphs import erdos_renyi, gnm_random, verify_spanner


class TestCliqueAccounting:
    def test_route_rounds_scale_with_load(self):
        cc = CongestedClique(100)
        r1 = cc.charge_route(max_send=50, max_recv=50, total_words=500)
        r2 = cc.charge_route(max_send=500, max_recv=500, total_words=5000)
        assert r2 > r1

    def test_broadcast_word_one_round(self):
        cc = CongestedClique(64)
        assert cc.charge_broadcast_word() == 1
        assert cc.rounds == 1

    def test_all_learn_scales_with_words_over_n(self):
        cc = CongestedClique(100)
        r_small = cc.charge_all_learn(99)
        r_big = cc.charge_all_learn(100 * 99)
        assert r_small == 2  # one Lenzen phase pair
        assert r_big >= 100 * r_small / 2

    def test_aggregate(self):
        cc = CongestedClique(10)
        assert cc.charge_aggregate() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CongestedClique(0)
        cc = CongestedClique(5)
        with pytest.raises(ValueError):
            cc.charge_route(max_send=-1, max_recv=0, total_words=0)

    def test_summary(self):
        cc = CongestedClique(8)
        cc.charge_broadcast_word()
        s = cc.summary()
        assert s["rounds"] == 1 and s["steps"] == 1


class TestLenzenRouting:
    def test_balanced_batch_constant_congestion(self):
        # Each node sends exactly n words: congestion per phase stays O(1).
        n = 40
        src = np.repeat(np.arange(n), n)
        rng = np.random.default_rng(0)
        dst = rng.permuted(np.repeat(np.arange(n), n))
        _, c1, c2 = two_phase_schedule(n, src, dst)
        assert c1 <= 2
        # Phase 2 congestion depends on receiver balance; here each node
        # receives ~n words so it stays small.
        assert c2 <= 6

    def test_all_to_one_congestion(self):
        # Worst case: everyone sends to node 0; phase 2 funnels through
        # n intermediaries, so per-pair congestion = words per intermediary.
        n = 30
        src = np.arange(n)
        dst = np.zeros(n, dtype=np.int64)
        _, c1, c2 = two_phase_schedule(n, src, dst)
        assert c1 == 1
        assert c2 <= 2

    def test_schedule_rounds_positive(self):
        assert schedule_rounds(10, np.array([1, 2]), np.array([3, 4])) >= 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            two_phase_schedule(5, np.array([7]), np.array([0]))

    def test_empty_batch(self):
        _, c1, c2 = two_phase_schedule(5, np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        assert c1 == 0 and c2 == 0


@pytest.fixture(scope="module")
def g_cc():
    return erdos_renyi(250, 0.12, weights="integer", rng=91, low=1, high=64)


class TestSpannerCC:
    def test_valid_spanner(self, g_cc):
        res = spanner_cc(g_cc, 4, 2, rng=1)
        verify_spanner(g_cc, res.subgraph(g_cc), stretch_bound=stretch_bound(4, 2))

    def test_whp_size_bound(self, g_cc):
        # Theorem 8.1 upgrades expectation to w.h.p. via repetition; with
        # acceptance tests in place every accepted iteration respects its
        # cap, so the total is deterministic-once-accepted.
        for seed in range(4):
            res = spanner_cc(g_cc, 4, 2, rng=seed)
            assert res.num_edges <= size_bound(g_cc.n, 4, 2, constant=8.0)

    def test_rounds_constant_per_iteration(self, g_cc):
        res = spanner_cc(g_cc, 8, 3, rng=2)
        assert res.iterations > 0
        # broadcast + aggregate + apply + contraction rounds: small constant
        # per iteration.
        assert res.extra["rounds"] <= 8 * res.iterations + 8

    def test_repetitions_default_logn(self, g_cc):
        res = spanner_cc(g_cc, 4, 2, rng=3)
        assert res.extra["repetitions"] == math.ceil(math.log2(g_cc.n))

    def test_k1(self, g_cc):
        assert spanner_cc(g_cc, 1, rng=0).num_edges == g_cc.m

    def test_contraction_carries_retiree_radius(self, monkeypatch):
        """A super-node that retires during an epoch keeps the radius bound
        it entered the epoch with; the engine reports 0 for retirees, which
        must not be what contraction carries forward."""
        module = importlib.import_module("repro.cc_impl.spanner_cc")
        calls = []

        def recording(labels, radius_bound, node_radius):
            new_id, new_radius, num_clusters = contract_clusters(labels, radius_bound, node_radius)
            calls.append((np.array(labels), new_id, new_radius))
            return new_id, new_radius, num_clusters

        monkeypatch.setattr(module, "contract_clusters", recording)
        g = gnm_random(2000, 20000, weights="uniform", rng=3)
        module.spanner_cc(g, 16, 2, rng=3)
        assert len(calls) >= 3
        checked = 0
        for (_, _, entry), (labels, new_id, carried) in zip(calls, calls[1:]):
            retired = np.flatnonzero(labels < 0)
            assert np.array_equal(carried[new_id[retired]], entry[retired])
            checked += int(np.count_nonzero(entry[retired] > 0))
        assert checked > 0  # some retiree did enter its epoch with a positive radius


class TestApspCC:
    def test_stretch_and_rounds(self, g_cc):
        res = apsp_cc(g_cc, rng=4)
        from repro.graphs import apsp as exact_apsp

        d = exact_apsp(g_cc)
        a = res.all_pairs()
        iu = np.triu_indices(g_cc.n, k=1)
        base = d[iu]
        mask = np.isfinite(base) & (base > 0)
        ratios = a[iu][mask] / base[mask]
        assert ratios.max() <= res.guaranteed_stretch + 1e-9
        assert res.rounds > res.collection_rounds > 0

    def test_collection_rounds_scale_with_size(self, g_cc):
        res = apsp_cc(g_cc, rng=5)
        expect = 2 * max(1, math.ceil(3 * res.spanner.m / (g_cc.n - 1)))
        assert res.collection_rounds == expect

    def test_distances_from(self, g_cc):
        res = apsp_cc(g_cc, rng=6)
        row = res.distances_from(3)
        assert row[3] == 0.0


class TestQuantizedApspCC:
    """Model-strict mode: quantize weights to O(log n)-bit words first."""

    def test_quantized_pipeline_within_composed_bound(self, g_cc):
        res = apsp_cc(g_cc, quantize_eps=0.25, rng=7)
        from repro.graphs import apsp as exact_apsp

        d = exact_apsp(g_cc)
        a = res.all_pairs()
        iu = np.triu_indices(g_cc.n, k=1)
        base = d[iu]
        mask = np.isfinite(base) & (base > 0)
        ratios = a[iu][mask] / base[mask]
        assert ratios.max() <= res.guaranteed_stretch + 1e-9
        assert res.stretch_factor == pytest.approx(1.25)

    def test_quantized_never_underestimates(self, g_cc):
        res = apsp_cc(g_cc, quantize_eps=0.5, rng=8)
        from repro.graphs import apsp as exact_apsp

        d = exact_apsp(g_cc)
        a = res.all_pairs()
        assert np.all(a + 1e-9 >= d)

    def test_spanner_carries_original_weights(self, g_cc):
        res = apsp_cc(g_cc, quantize_eps=0.25, rng=9)
        assert g_cc.has_edge_subset(res.spanner)
