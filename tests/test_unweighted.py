"""Tests for the Appendix B unweighted O(k)-spanner (Theorem 1.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import unweighted_spanner
from repro.graphs import (
    edge_stretch,
    erdos_renyi,
    grid_graph,
    same_components,
    star_graph,
    verify_spanner,
)


def _stretch_budget(k: int, gamma: float) -> float:
    # Sparse side: 2k-1.  Dense side: two ball paths (<= 4k each) per
    # auxiliary hop, (4/gamma)-stretch auxiliary spanner.  O(k/gamma) total;
    # this is the constant the construction actually guarantees.
    return (8 * k + 2) * (4.0 / gamma + 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_stretch_linear_in_k(er_unweighted, k):
    res = unweighted_spanner(er_unweighted, k, rng=70 + k)
    rep = edge_stretch(er_unweighted, res.subgraph(er_unweighted))
    assert rep.max_stretch <= _stretch_budget(k, 0.5)


def test_is_spanning_subgraph(er_unweighted):
    res = unweighted_spanner(er_unweighted, 3, rng=1)
    verify_spanner(er_unweighted, res.subgraph(er_unweighted))


def test_rejects_weighted_graph(er_weighted):
    with pytest.raises(ValueError, match="unweighted"):
        unweighted_spanner(er_weighted, 3)


def test_rejects_bad_gamma(er_unweighted):
    with pytest.raises(ValueError, match="gamma"):
        unweighted_spanner(er_unweighted, 3, gamma=0.0)


def test_k1_everything(er_unweighted):
    res = unweighted_spanner(er_unweighted, 1, rng=0)
    assert res.num_edges == er_unweighted.m


def test_sparse_dense_split_reacts_to_cap(er_unweighted):
    dense_run = unweighted_spanner(er_unweighted, 3, rng=2, ball_cap=4)
    sparse_run = unweighted_spanner(er_unweighted, 3, rng=2, ball_cap=10**6)
    assert dense_run.extra["num_dense"] > 0
    assert sparse_run.extra["num_dense"] == 0
    assert sparse_run.extra["num_sparse"] == er_unweighted.n


def test_all_sparse_equals_bs_restriction(er_unweighted):
    # With an unbounded cap everything is sparse and the result is exactly
    # the shared-randomness Baswana-Sen edge set.
    from repro.core import baswana_sen

    rng_a = np.random.default_rng(33)
    res = unweighted_spanner(er_unweighted, 3, rng=rng_a, ball_cap=10**6)
    rng_b = np.random.default_rng(33)
    bs = baswana_sen(er_unweighted, 3, rng=rng_b)
    assert np.array_equal(res.edge_ids, bs.edge_ids)


def test_star_graph_dense_center():
    # The Appendix B.2.1 example: star center becomes dense immediately.
    g = star_graph(300)
    res = unweighted_spanner(g, 2, rng=3, ball_cap=8)
    # The star is a tree: spanner must keep all edges.
    assert res.num_edges == g.m


def test_grid_high_girth():
    g = grid_graph(12, 12)
    res = unweighted_spanner(g, 3, rng=4)
    rep = edge_stretch(g, res.subgraph(g))
    assert rep.max_stretch <= _stretch_budget(3, 0.5)


def test_size_reasonable(er_unweighted):
    # O(k n^{1+1/k}) + O(kn) path edges + O(n) auxiliary: generous cap.
    k = 3
    res = unweighted_spanner(er_unweighted, k, rng=5)
    n = er_unweighted.n
    assert res.num_edges <= 4 * k * n ** (1 + 1.0 / k) + 4 * k * n


def test_preserves_components():
    a = erdos_renyi(60, 0.2, rng=6)
    b = erdos_renyi(60, 0.2, rng=7)
    u = np.concatenate([a.edges_u, b.edges_u + 60])
    v = np.concatenate([a.edges_v, b.edges_v + 60])
    from repro.graphs import WeightedGraph

    g = WeightedGraph(120, u, v, np.ones(u.size))
    res = unweighted_spanner(g, 3, rng=8)
    assert same_components(g, res.subgraph(g))


def test_extra_accounting_fields(er_unweighted):
    res = unweighted_spanner(er_unweighted, 3, rng=9)
    extra = res.extra
    assert extra["num_sparse"] + extra["num_dense"] == er_unweighted.n
    assert extra["analytic_rounds"] > 0
    assert extra["total_memory_words"] >= er_unweighted.m


def test_total_memory_within_appendix_b_bound():
    # Appendix B: total memory O(m + n^{1+gamma}).
    g = erdos_renyi(400, 0.05, rng=60)
    res = unweighted_spanner(g, 3, gamma=0.5, rng=63)
    assert res.extra["total_memory_words"] <= 4 * (g.m + g.n ** 1.5)


def test_mpc_accounted_ball_growing(er_unweighted):
    res = unweighted_spanner(er_unweighted, 3, rng=10, account_mpc=True)
    acct = res.extra["mpc_ball_growing"]
    assert acct["rounds"] > 0
    assert acct["total_words"] <= acct["memory_budget"]
