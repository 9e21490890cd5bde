"""Tests for the machine-level MPC implementations (Section 6 / 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import general_tradeoff, mpc_rounds_bound, size_bound, stretch_bound
from repro.graphs import erdos_renyi, same_components, verify_spanner
from repro.mpc import MPCViolation
from repro.mpc_impl import apsp_mpc, spanner_mpc


@pytest.fixture(scope="module")
def g300():
    return erdos_renyi(300, 0.12, weights="uniform", rng=90)


class TestSpannerMPC:
    @pytest.mark.parametrize("k,t", [(4, 2), (8, 3)])
    def test_valid_spanner(self, g300, k, t):
        res = spanner_mpc(g300, k, t, rng=1)
        verify_spanner(g300, res.subgraph(g300), stretch_bound=stretch_bound(k, t))

    def test_size_bound(self, g300):
        res = spanner_mpc(g300, 4, 2, rng=2)
        assert res.num_edges <= size_bound(g300.n, 4, 2)

    def test_rounds_within_theorem_bound(self, g300):
        for gamma in (0.4, 0.6):
            res = spanner_mpc(g300, 8, 3, gamma=gamma, rng=3)
            assert res.extra["rounds"] <= mpc_rounds_bound(8, 3, gamma, constant=16.0)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
    def test_rounds_and_loads_across_gamma(self, gamma):
        # ~12 primitive calls per iteration, each (tree_levels + 1) rounds;
        # constant=24 covers the +1 placement round at large gamma.
        g = erdos_renyi(400, 0.06, weights="uniform", rng=7)
        res = spanner_mpc(g, 8, 3, gamma=gamma, rng=70)
        assert res.extra["rounds"] <= mpc_rounds_bound(8, 3, gamma, constant=24.0)
        mpc = res.extra["mpc"]
        assert mpc["peak_machine_load"] <= mpc["machine_memory"]

    def test_rounds_grow_as_gamma_shrinks(self, g300):
        hi = spanner_mpc(g300, 8, 3, gamma=0.8, rng=4).extra["rounds"]
        lo = spanner_mpc(g300, 8, 3, gamma=0.3, rng=4).extra["rounds"]
        assert lo >= hi

    def test_memory_never_exceeded(self, g300):
        # Completing without MPCViolation *is* the memory certificate; also
        # sanity-check the recorded peak.
        res = spanner_mpc(g300, 4, 2, gamma=0.5, rng=5)
        mpc = res.extra["mpc"]
        assert mpc["peak_machine_load"] <= mpc["machine_memory"]

    def test_smaller_memory_constant_means_more_machines(self, g300):
        # The simulator provisions Θ(N/S) machines, so shrinking S must
        # grow the fleet (and can only grow the tree depth / rounds).
        big = spanner_mpc(g300, 4, 2, gamma=0.5, rng=6, memory_constant=64.0)
        small = spanner_mpc(g300, 4, 2, gamma=0.5, rng=6, memory_constant=8.0)
        assert small.extra["mpc"]["num_machines"] > big.extra["mpc"]["num_machines"]
        assert small.extra["mpc"]["machine_memory"] < big.extra["mpc"]["machine_memory"]
        assert small.extra["rounds"] >= big.extra["rounds"]

    def test_matches_logical_size_statistically(self, g300):
        mpc_sizes = [spanner_mpc(g300, 4, 2, rng=s).num_edges for s in range(3)]
        log_sizes = [general_tradeoff(g300, 4, 2, rng=s).num_edges for s in range(3)]
        a, b = np.mean(mpc_sizes), np.mean(log_sizes)
        assert abs(a - b) / max(a, b) < 0.3

    def test_iteration_count_matches_logical(self, g300):
        mpc = spanner_mpc(g300, 8, 2, rng=7)
        log = general_tradeoff(g300, 8, 2, rng=7)
        assert mpc.iterations == log.iterations

    def test_preserves_components(self, disconnected):
        res = spanner_mpc(disconnected, 4, 2, rng=8)
        assert same_components(disconnected, res.subgraph(disconnected))

    def test_k1(self, g300):
        res = spanner_mpc(g300, 1, rng=0)
        assert res.num_edges == g300.m
        assert res.extra["rounds"] == 0


class TestApspMPC:
    def test_stretch_within_bound(self, g300):
        res = apsp_mpc(g300, rng=10)
        from repro.graphs import apsp as exact_apsp

        d_exact = exact_apsp(g300)
        d_approx = res.all_pairs()
        iu = np.triu_indices(g300.n, k=1)
        base = d_exact[iu]
        mask = np.isfinite(base) & (base > 0)
        ratios = d_approx[iu][mask] / base[mask]
        assert ratios.max() <= res.guaranteed_stretch + 1e-9
        assert np.all(ratios >= 1 - 1e-9)  # spanner never shortens

    def test_rounds_include_collection(self, g300):
        res = apsp_mpc(g300, rng=11)
        assert res.rounds > res.collection_rounds > 0

    def test_spanner_near_linear_size(self, g300):
        # Section 7: k = log n gives size O(n log log n).
        res = apsp_mpc(g300, rng=12)
        import math

        assert res.spanner.m <= 8 * g300.n * max(math.log2(math.log2(g300.n)), 1)

    def test_distances_from_row(self, g300):
        res = apsp_mpc(g300, rng=13)
        row = res.distances_from(0)
        assert row[0] == 0.0
        full = res.all_pairs()
        assert np.allclose(row, full[0])

    def test_parameter_overrides(self, g300):
        res = apsp_mpc(g300, k=3, t=2, rng=14)
        assert res.k == 3 and res.t == 2


class TestNearLinearRegime:
    """Section 6's first paragraph: Θ(n) memory per machine, O(1) rounds
    per iteration (no 1/γ factor)."""

    def test_same_spanner_as_logical(self, g300):
        from repro.mpc_impl import spanner_mpc_nearlinear

        a = spanner_mpc_nearlinear(g300, 8, 3, rng=21)
        b = general_tradeoff(g300, 8, 3, rng=21)
        assert np.array_equal(a.edge_ids, b.edge_ids)

    def test_constant_rounds_per_iteration(self, g300):
        from repro.mpc_impl import spanner_mpc_nearlinear

        res = spanner_mpc_nearlinear(g300, 8, 3, rng=22)
        assert res.extra["rounds"] <= 4 * res.iterations + 4

    def test_fewer_rounds_than_sublinear(self, g300):
        from repro.mpc_impl import spanner_mpc_nearlinear

        near = spanner_mpc_nearlinear(g300, 8, 3, rng=23)
        sub = spanner_mpc(g300, 8, 3, gamma=0.5, rng=23)
        assert near.extra["rounds"] < sub.extra["rounds"]

    def test_layout_fits(self, g300):
        from repro.mpc_impl import spanner_mpc_nearlinear

        res = spanner_mpc_nearlinear(g300, 4, 2, rng=24)
        acct = res.extra["mpc_nearlinear"]
        assert acct["peak_machine_load"] <= acct["machine_memory_words"]
        assert acct["num_machines"] == g300.n

    def test_rejects_undersized_machines(self, g300):
        from repro.mpc_impl import spanner_mpc_nearlinear

        with pytest.raises(ValueError, match="does not fit"):
            spanner_mpc_nearlinear(g300, 4, 2, rng=25, memory_constant=0.001)
