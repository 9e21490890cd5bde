"""Experiments L4.12 / L5.12 + sampling-probability ablation.

The engine of the paper's speedup is the *doubly exponential* decay of the
cluster count under the decreasing sampling probabilities
``n^{-2^{i-1}/k}``.  This bench (a) regenerates the predicted-vs-measured
cluster trajectory, and (b) runs the DESIGN.md ablation: replace the
decaying schedule by Baswana–Sen's fixed ``n^{-1/k}`` and show the number
of contraction epochs needed to reach ``O(n^{1/k})`` clusters reverts from
``Θ(log k)`` to ``Θ(k)``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import EdgeSet, cluster_merging, contract_clusters, run_growth_iterations
from repro.graphs import quotient_edges
from common import bench_graph, print_table


@pytest.fixture(scope="module")
def g():
    return bench_graph(1024, 0.03)


def test_lemma_4_12_trajectory(benchmark, g, capsys):
    k = 16
    res = cluster_merging(g, k, rng=50)
    rows = []
    for s in res.stats:
        # Lemma 4.12: E|C^{(i-1)}| = n^{1 - (2^{i-1}-1)/k}
        predicted = g.n ** max(1 - (2.0 ** (s.epoch - 1) - 1) / k, 0.0)
        rows.append(
            (s.epoch, f"{s.sampling_probability:.4f}", f"{predicted:.0f}", s.num_clusters)
        )
        # shape check: within a factor 4 of the expectation (fixed seed)
        assert s.num_clusters <= 4 * predicted + 10
    with capsys.disabled():
        print_table(
            f"Lemma 4.12 cluster decay (n={g.n}, k={k})",
            ["epoch", "p_i", "E|C| predicted", "measured"],
            rows,
        )
    benchmark(lambda: cluster_merging(g, k, rng=50))


def _epochs_to_converge(g, k: int, *, decaying: bool, rng_seed: int, cap: int) -> int:
    """Contract after every single growth iteration (t=1) and count epochs
    until the super-node count reaches n^{1/k} (or edges run out)."""
    rng = np.random.default_rng(rng_seed)
    target = g.n ** (1.0 / k)
    edges = EdgeSet.from_arrays(g.n, g.edges_u, g.edges_v, g.edges_w)
    for epoch in range(1, cap + 1):
        p = (
            float(g.n) ** (-(2.0 ** (epoch - 1)) / k)
            if decaying
            else float(g.n) ** (-1.0 / k)
        )
        out = run_growth_iterations(edges, iterations=1, probability=p, rng=rng, epoch=epoch)
        new_id, _, num_clusters = contract_clusters(
            out.labels, out.radius_bound, np.zeros(edges.num_nodes)
        )
        if num_clusters <= target or edges.num_alive == 0:
            return epoch
        eu, ev, ew, eeid = edges.alive_view()
        q = quotient_edges(new_id, eu, ev, ew, eeid)
        edges = EdgeSet.from_arrays(q.num_nodes, q.u, q.v, q.w, q.rep_edge_id)
    return cap


def test_sampling_schedule_ablation(benchmark, g, capsys):
    """DESIGN.md ablation: decaying vs fixed sampling probabilities."""
    k = 16
    cap = 3 * k
    rows = []
    for name, decaying in [("decaying n^{-2^i/k} (paper)", True), ("fixed n^{-1/k} (BS)", False)]:
        epochs = [
            _epochs_to_converge(g, k, decaying=decaying, rng_seed=s, cap=cap)
            for s in range(3)
        ]
        rows.append((name, f"{np.mean(epochs):.1f}", max(epochs)))
    with capsys.disabled():
        print_table(
            f"Sampling-schedule ablation (n={g.n}, k={k}; epochs to n^(1/k) clusters)",
            ["schedule", "mean epochs", "max epochs"],
            rows,
        )
    # the paper's schedule converges in ~log2(k) epochs; fixed-p needs ~k
    fast = _epochs_to_converge(g, k, decaying=True, rng_seed=9, cap=cap)
    slow = _epochs_to_converge(g, k, decaying=False, rng_seed=9, cap=cap)
    assert fast <= math.ceil(math.log2(k)) + 2
    assert slow >= 2 * fast
    benchmark(lambda: _epochs_to_converge(g, k, decaying=True, rng_seed=0, cap=cap))
