"""Tests for the paper's three accelerated constructions:

* Section 4 cluster-merging (t=1),
* Section 3 two-phase contraction (t=sqrt(k)),
* Section 5 general tradeoff (arbitrary t),

checking the stretch/size/iteration guarantees of Theorems 3.1/3.4, 4.14
and 5.15 on multiple graph families.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    EdgeSet,
    cluster_merging,
    contract_clusters,
    general_tradeoff,
    num_epochs,
    run_growth_iterations,
    size_bound,
    stretch_bound,
    two_phase_contraction,
)
from repro.graphs import (
    edge_stretch,
    erdos_renyi,
    quotient_edges,
    same_components,
    verify_spanner,
)


@pytest.fixture(scope="module")
def er1024():
    return erdos_renyi(1024, 0.03, weights="uniform", rng=7)


def _epochs_to_converge(g, k: int, *, decaying: bool, rng_seed: int, cap: int) -> int:
    """Contract after every single growth iteration (t=1) and count epochs
    until the super-node count reaches n^{1/k} (or edges run out)."""
    rng = np.random.default_rng(rng_seed)
    target = g.n ** (1.0 / k)
    edges = EdgeSet.from_arrays(g.n, g.edges_u, g.edges_v, g.edges_w)
    for epoch in range(1, cap + 1):
        expo = 2.0 ** (epoch - 1) / k if decaying else 1.0 / k
        out = run_growth_iterations(
            edges, iterations=1, probability=float(g.n) ** -expo, rng=rng, epoch=epoch
        )
        new_id, _, num_clusters = contract_clusters(
            out.labels, out.radius_bound, np.zeros(edges.num_nodes)
        )
        if num_clusters <= target or edges.num_alive == 0:
            return epoch
        q = quotient_edges(new_id, *edges.alive_view())
        edges = EdgeSet.from_arrays(q.num_nodes, q.u, q.v, q.w, q.rep_edge_id)
    return cap


class TestClusterMerging:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_stretch_klog3(self, er_weighted, k):
        res = cluster_merging(er_weighted, k, rng=30 + k)
        bound = k ** math.log2(3)
        verify_spanner(er_weighted, res.subgraph(er_weighted), stretch_bound=bound)

    def test_epoch_count_logk(self, er_weighted):
        for k in (2, 4, 8, 16):
            res = cluster_merging(er_weighted, k, rng=1)
            assert res.iterations <= max(1, math.ceil(math.log2(k)))

    def test_size_bound(self, er_weighted):
        for k in (3, 6):
            res = cluster_merging(er_weighted, k, rng=2)
            assert res.num_edges <= size_bound(er_weighted.n, k, 1)

    def test_cluster_decay_doubly_exponential(self):
        # Lemma 4.12: |C^{(i)}| ~ n^{1-(2^i - 1)/k}; check the trajectory is
        # decreasing and faster than geometric once i >= 2.
        g = erdos_renyi(400, 0.1, weights="uniform", rng=3)
        res = cluster_merging(g, 16, rng=3)
        counts = [s.num_clusters for s in res.stats]
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] < counts[0] / 4

    def test_cluster_decay_tracks_lemma_4_12(self, er1024):
        # E|C^{(i-1)}| = n^{1 - (2^{i-1} - 1)/k}: within a factor 4 per epoch.
        k = 16
        res = cluster_merging(er1024, k, rng=50)
        for s in res.stats:
            predicted = er1024.n ** max(1 - (2.0 ** (s.epoch - 1) - 1) / k, 0.0)
            assert s.num_clusters <= 4 * predicted + 10

    def test_decaying_schedule_needs_log_k_epochs(self, er1024):
        # The sampling-schedule ablation: the paper's n^{-2^{i-1}/k} reaches
        # n^{1/k} clusters in ~log2 k epochs; Baswana-Sen's fixed n^{-1/k}
        # needs ~k.
        k = 16
        fast = _epochs_to_converge(er1024, k, decaying=True, rng_seed=9, cap=3 * k)
        slow = _epochs_to_converge(er1024, k, decaying=False, rng_seed=9, cap=3 * k)
        assert fast <= math.ceil(math.log2(k)) + 2
        assert slow >= 2 * fast

    def test_other_families(self, ba_graph, grid, cliques):
        for g in (ba_graph, grid, cliques):
            res = cluster_merging(g, 4, rng=4)
            verify_spanner(g, res.subgraph(g), stretch_bound=4 ** math.log2(3))

    def test_preserves_components(self, disconnected):
        res = cluster_merging(disconnected, 4, rng=5)
        assert same_components(disconnected, res.subgraph(disconnected))

    def test_k1_all_edges(self, er_weighted):
        assert cluster_merging(er_weighted, 1, rng=0).num_edges == er_weighted.m

    def test_determinism(self, er_weighted):
        a = cluster_merging(er_weighted, 6, rng=42)
        b = cluster_merging(er_weighted, 6, rng=42)
        assert np.array_equal(a.edge_ids, b.edge_ids)

    def test_radius_bound_within_theorem(self, er_weighted):
        # Theorem 4.8: weighted-stretch radius after epoch i is (3^i - 1)/2.
        res = cluster_merging(er_weighted, 8, rng=6)
        for s in res.stats:
            assert s.max_radius_bound <= (3.0**s.epoch - 1) / 2 + 1e-9


class TestTwoPhase:
    @pytest.mark.parametrize("k", [4, 9, 16])
    def test_stretch_linear_in_k(self, er_weighted, k):
        res = two_phase_contraction(er_weighted, k, rng=40 + k)
        rep = edge_stretch(er_weighted, res.subgraph(er_weighted))
        assert rep.max_stretch <= 4 * k  # O(k) with the proofs' constant

    def test_iterations_sqrt_k(self, er_weighted):
        for k in (4, 9, 16, 25):
            res = two_phase_contraction(er_weighted, k, rng=7)
            # t1 + (t2 - 1) iterations, both ceil(sqrt(k)) up to constants.
            assert res.iterations <= 2 * math.ceil(math.sqrt(k)) + 1

    def test_size_bound(self, er_weighted):
        for k in (4, 9):
            res = two_phase_contraction(er_weighted, k, rng=8)
            bound = 4 * math.sqrt(k) * er_weighted.n ** (1 + 1.0 / k)
            assert res.num_edges <= bound

    def test_super_graph_shrinks(self, er_weighted):
        res = two_phase_contraction(er_weighted, 9, rng=9)
        assert res.extra["super_nodes"] < er_weighted.n

    def test_unweighted_input(self, er_unweighted):
        res = two_phase_contraction(er_unweighted, 9, rng=10)
        rep = edge_stretch(er_unweighted, res.subgraph(er_unweighted))
        assert rep.max_stretch <= 4 * 9

    def test_preserves_components(self, disconnected):
        res = two_phase_contraction(disconnected, 4, rng=11)
        assert same_components(disconnected, res.subgraph(disconnected))

    def test_k1_all_edges(self, er_weighted):
        assert two_phase_contraction(er_weighted, 1, rng=0).num_edges == er_weighted.m


class TestGeneralTradeoff:
    @pytest.mark.parametrize("k,t", [(4, 1), (4, 2), (8, 2), (8, 3), (16, 4), (8, 7)])
    def test_stretch_bound(self, er_weighted, k, t):
        res = general_tradeoff(er_weighted, k, t, rng=50 + k + t)
        verify_spanner(
            er_weighted, res.subgraph(er_weighted), stretch_bound=stretch_bound(k, t)
        )

    def test_iteration_formula(self, er_weighted):
        for k, t in [(8, 1), (8, 2), (16, 3), (16, 15)]:
            res = general_tradeoff(er_weighted, k, t, rng=0)
            t_eff = min(t, k - 1)
            assert res.iterations <= num_epochs(k, t_eff) * t_eff

    def test_size_bound(self, er_weighted):
        for k, t in [(4, 2), (8, 3)]:
            res = general_tradeoff(er_weighted, k, t, rng=1)
            assert res.num_edges <= size_bound(er_weighted.n, k, t)

    def test_t_equals_k_minus_1_single_epoch(self, er_weighted):
        # One epoch with p = n^{-1/k}: Baswana-Sen's growth phase.  The
        # clean-up keeps one edge per super-node pair (coarser than BS's
        # per-vertex phase 2), so the guarantee is 2 k^s = 2(2k-1), not
        # 2k-1 — see stretch_bound's docstring.
        k = 5
        res = general_tradeoff(er_weighted, k, k - 1, rng=2)
        verify_spanner(
            er_weighted, res.subgraph(er_weighted), stretch_bound=stretch_bound(k, k - 1)
        )
        assert res.iterations == k - 1

    def test_default_t_is_log_k(self, er_weighted):
        res = general_tradeoff(er_weighted, 16, rng=3)
        assert res.t == 4  # log2(16)

    def test_oversized_t_clamped(self, er_weighted):
        res = general_tradeoff(er_weighted, 4, 100, rng=4)
        assert res.extra["t_effective"] == 3

    def test_super_node_shrinkage(self):
        # Corollary 5.13: final super-node count ~ n^{1/k}.
        g = erdos_renyi(400, 0.15, weights="uniform", rng=5)
        res = general_tradeoff(g, 4, 2, rng=5)
        contractions = res.extra["epoch_contractions"]
        sizes = [c[1] for c in contractions]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_preserves_components(self, disconnected):
        res = general_tradeoff(disconnected, 6, 2, rng=6)
        assert same_components(disconnected, res.subgraph(disconnected))

    def test_k1_all_edges(self, er_weighted):
        assert general_tradeoff(er_weighted, 1, 1, rng=0).num_edges == er_weighted.m

    def test_rejects_bad_params(self, er_weighted):
        with pytest.raises(ValueError):
            general_tradeoff(er_weighted, 0, 1)
        with pytest.raises(ValueError):
            general_tradeoff(er_weighted, 4, 0)

    def test_determinism(self, er_weighted):
        a = general_tradeoff(er_weighted, 8, 3, rng=9)
        b = general_tradeoff(er_weighted, 8, 3, rng=9)
        assert np.array_equal(a.edge_ids, b.edge_ids)

    def test_all_families(self, ba_graph, grid, cliques):
        for g in (ba_graph, grid, cliques):
            res = general_tradeoff(g, 6, 2, rng=10)
            verify_spanner(g, res.subgraph(g), stretch_bound=stretch_bound(6, 2))


class TestCrossValidation:
    """The same algorithm implemented twice (Section 4 directly vs Section 5
    with t=1) must exhibit the same guarantees and similar sizes."""

    def test_t1_vs_cluster_merging_sizes_comparable(self):
        # The two code paths differ only in Phase 2 granularity (Section 4
        # cleans up per original vertex, Section 5 per contracted
        # super-node), so sizes agree up to that additive term and both
        # respect the same O(n^{1+1/k} log k) bound.
        g = erdos_renyi(300, 0.15, weights="uniform", rng=60)
        sizes_cm, sizes_gt = [], []
        for seed in range(5):
            sizes_cm.append(cluster_merging(g, 8, rng=seed).num_edges)
            sizes_gt.append(general_tradeoff(g, 8, 1, rng=seed).num_edges)
        a, b = np.mean(sizes_cm), np.mean(sizes_gt)
        assert abs(a - b) / max(a, b) < 0.5
        bound = size_bound(g.n, 8, 1)
        assert max(sizes_cm) <= bound and max(sizes_gt) <= bound

    def test_t1_vs_cluster_merging_iterations(self, er_weighted):
        for k in (4, 8, 16):
            cm = cluster_merging(er_weighted, k, rng=1)
            gt = general_tradeoff(er_weighted, k, 1, rng=1)
            assert cm.extra["epochs"] == num_epochs(k, 1)
            assert gt.iterations <= cm.extra["epochs"]
