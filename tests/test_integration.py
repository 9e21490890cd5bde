"""Integration tests: full pipelines across subsystems."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cc_impl import apsp_cc
from repro.core import (
    baswana_sen,
    bs_size_bound,
    cluster_merging,
    general_tradeoff,
    size_bound,
    stretch_bound,
    two_phase_contraction,
    tradeoff_table,
)
from repro.distances import SpannerDistanceOracle, measure_approximation
from repro.graphs import (
    barabasi_albert,
    edge_stretch,
    erdos_renyi,
    random_geometric,
    ring_of_cliques,
    verify_spanner,
)
from repro.mpc_impl import apsp_mpc, spanner_mpc


class TestTradeoffShape:
    """The paper's central claim: t trades iterations for stretch."""

    def test_iterations_decrease_stretch_increases(self):
        g = erdos_renyi(350, 0.12, weights="uniform", rng=200)
        k = 8
        rows = []
        for t in (1, 2, 3, 7):
            res = general_tradeoff(g, k, t, rng=5)
            rep = edge_stretch(g, res.subgraph(g))
            rows.append((t, res.iterations, rep.max_stretch, res.num_edges))
        iters = [r[1] for r in rows]
        # iterations non-decreasing in t (t=k-1 has the most)
        assert iters[0] <= iters[-1]
        # every measured stretch within its own bound, and the bound
        # sequence is monotone decreasing in t
        bounds = [stretch_bound(k, t) for t, *_ in rows]
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
        for (t, _, s, _), b in zip(rows, bounds):
            assert s <= b + 1e-9

    def test_faster_than_baswana_sen(self):
        # The headline: for k = 16 the general algorithm needs far fewer
        # iterations than BS's k-1.
        g = erdos_renyi(300, 0.15, weights="uniform", rng=201)
        k = 16
        bs = baswana_sen(g, k, rng=1)
        fast = general_tradeoff(g, k, 1, rng=1)
        assert fast.iterations < bs.iterations / 2

    def test_cluster_merging_fewer_iterations_than_baswana_sen(self):
        g = erdos_renyi(512, 0.06, weights="uniform", rng=7)
        for k in (8, 16, 32):
            cm = cluster_merging(g, k, rng=1)
            assert cm.iterations <= math.ceil(math.log2(k))
            assert cm.iterations < baswana_sen(g, k, rng=1).iterations

    def test_iterations_grow_with_t(self):
        # The contraction-interval ablation: t=1 takes the fewest
        # iterations and t=k-1 more (ceil effects make the middle
        # non-monotone: l = ceil(log k / log(t+1)) jumps discretely).
        g = erdos_renyi(512, 0.06, weights="uniform", rng=7)
        its = [general_tradeoff(g, 16, t, rng=2).iterations for t in (1, 2, 4, 8, 15)]
        assert its[0] == min(its)
        assert its[0] < its[-1]


class TestSizeShape:
    """Measured spanner size against the n^{1+1/k} shape of the size theorems."""

    NS = (128, 256, 512, 1024)

    @pytest.mark.parametrize(
        "builder,bound",
        [
            (lambda g, s: baswana_sen(g, 4, rng=s), lambda n: bs_size_bound(n, 4)),
            (lambda g, s: general_tradeoff(g, 4, 2, rng=s), lambda n: size_bound(n, 4, 3)),
            (lambda g, s: general_tradeoff(g, 8, 3, rng=s), lambda n: size_bound(n, 8, 3)),
        ],
        ids=["baswana-sen-k4", "general-k4-t2", "general-k8-t3"],
    )
    def test_size_growth_exponent(self, builder, bound):
        # Fixed average degree so n is the only variable; mean of 3 seeds.
        sizes = []
        for n in self.NS:
            graphs = [
                erdos_renyi(n, min(0.9, 24.0 / n), weights="uniform", rng=100 + s)
                for s in range(3)
            ]
            size = float(np.mean([builder(g, s).num_edges for s, g in enumerate(graphs)]))
            assert size <= bound(n)
            sizes.append(size)
        slope = np.polyfit(np.log(self.NS), np.log(sizes), 1)[0]
        # Clearly subquadratic: the asymptotic exponent is 1+1/k, but the
        # sampling probabilities depend on n, so a 4-point fit mixes in
        # transient terms.
        assert slope <= 1.5

    def test_size_non_increasing_in_k(self):
        g = erdos_renyi(512, 0.06, weights="uniform", rng=5)
        sizes = [general_tradeoff(g, k, 2, rng=6).num_edges for k in (2, 3, 4, 6, 8, 12)]
        for prev, cur in zip(sizes, sizes[1:]):
            assert cur <= prev * 1.15  # monotone up to noise


class TestAllAlgorithmsOneGraph:
    @pytest.mark.parametrize(
        "family",
        ["er", "ba", "geo", "cliques"],
    )
    def test_every_algorithm_valid(self, family):
        g = {
            "er": lambda: erdos_renyi(180, 0.15, weights="uniform", rng=300),
            "ba": lambda: barabasi_albert(180, 3, weights="exponential", rng=301),
            "geo": lambda: random_geometric(180, 0.18, weights="uniform", rng=302),
            "cliques": lambda: ring_of_cliques(18, 10, weights="uniform", rng=303),
        }[family]()
        k = 4
        for fn, bound in [
            (lambda: baswana_sen(g, k, rng=1), 2 * k - 1),
            (lambda: cluster_merging(g, k, rng=2), k ** math.log2(3)),
            (lambda: two_phase_contraction(g, k, rng=3), 4 * k),
            (lambda: general_tradeoff(g, k, 2, rng=4), stretch_bound(k, 2)),
        ]:
            res = fn()
            verify_spanner(g, res.subgraph(g), stretch_bound=bound)


class TestEndToEndAPSP:
    def test_mpc_and_cc_agree_on_quality(self):
        g = erdos_renyi(200, 0.12, weights="integer", rng=304, low=1, high=32)
        mpc = apsp_mpc(g, rng=7)
        cc = apsp_cc(g, rng=7)
        from repro.graphs import apsp as exact

        d = exact(g)
        iu = np.triu_indices(g.n, k=1)
        base = d[iu]
        mask = np.isfinite(base) & (base > 0)
        for res in (mpc, cc):
            ratios = res.all_pairs()[iu][mask] / base[mask]
            assert ratios.max() <= res.guaranteed_stretch + 1e-9

    def test_oracle_on_geometric_network(self):
        # Road-network-style scenario from the intro motivation.
        g = random_geometric(300, 0.15, weights="uniform", rng=305)
        oracle = SpannerDistanceOracle(g, rng=8)
        rep = measure_approximation(oracle, num_pairs=400, rng=9)
        assert rep.within_bound
        # the spanner actually sparsifies
        assert oracle.spanner.m <= g.m

    def test_sparsification_wins_on_dense_input(self):
        g = erdos_renyi(250, 0.5, weights="uniform", rng=306)
        oracle = SpannerDistanceOracle(g, k=4, t=2, rng=10)
        assert oracle.spanner.m < g.m / 4


class TestSeedReproducibility:
    def test_full_pipeline_deterministic(self):
        g = erdos_renyi(150, 0.2, weights="uniform", rng=307)
        r1 = spanner_mpc(g, 4, 2, rng=11)
        r2 = spanner_mpc(g, 4, 2, rng=11)
        assert np.array_equal(r1.edge_ids, r2.edge_ids)
        assert r1.extra["rounds"] == r2.extra["rounds"]

    def test_tradeoff_table_is_pure(self):
        assert tradeoff_table(16) == tradeoff_table(16)
