"""Theorem 8.1: spanner construction in the Congested Clique.

The expected-size guarantee of the MPC algorithm is upgraded to a
with-high-probability guarantee *without* an ``O(log n)`` round blow-up by
running ``O(log n)`` sampling repetitions of every iteration in parallel
and selecting, per iteration, a run in which both

1. the number of sampled clusters is ``O(|C| p)`` (Chernoff: holds w.h.p.
   in each run once ``|C| p = Ω(log n)``), and
2. the number of edges added to the spanner is ``O(|C| / p)`` (Markov:
   holds with constant probability per run).

Communication per iteration: one round in which every super-node announces
its ``O(log n)``-bit vector of sampling coins (one bit per repetition), one
aggregation round collecting per-run counters, and ``O(1)`` routing rounds
to apply the winning run's merges — so the round complexity matches the MPC
iteration count times a constant (Theorem 8.1).

Weights are assumed to fit one ``O(log n)``-bit word each, as the model
requires (use integer or quantized weights for strict fidelity).
"""

from __future__ import annotations

import math

import numpy as np

from ..congest.clique import CongestedClique
from ..core.engine import EdgeSet, contract_clusters, live_seeds, run_growth_iterations
from ..core.params import coerce_rng, num_epochs, sampling_probability
from ..core.results import IterationStats, RoundStats, SpannerResult
from ..graphs.graph import WeightedGraph, sorted_unique
from ..graphs.quotient import quotient_edges

__all__ = ["spanner_cc"]


def _attempt(edges: EdgeSet, labels, radius, p, rng, epoch):
    """Run one provisional iteration on cloned state; return outcome + clone."""
    clone = EdgeSet(
        edges.num_nodes,
        edges.u,
        edges.v,
        edges.w,
        edges.eid,
        edges.alive.copy(),
    )
    out = run_growth_iterations(
        clone,
        iterations=1,
        probability=p,
        rng=rng,
        epoch=epoch,
        node_radius=radius,
        start_labels=labels,
    )
    return out, clone


def spanner_cc(
    g: WeightedGraph,
    k: int,
    t: int | None = None,
    *,
    rng=None,
    repetitions: int | None = None,
    size_slack: float = 8.0,
) -> SpannerResult:
    """Build the Theorem 8.1 spanner under Congested Clique accounting.

    Parameters
    ----------
    g, k, t, rng:
        As in :func:`repro.core.general_tradeoff.general_tradeoff`.
    repetitions:
        Parallel sampling repetitions per iteration (default
        ``ceil(log2 n)``).
    size_slack:
        The constant in the per-iteration acceptance tests.

    Returns
    -------
    SpannerResult
        ``extra['cc']`` holds the clique summary; ``extra['rounds']`` the
        simulated round count; ``extra['repetition_retries']`` how many
        iterations needed more than one candidate run.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = coerce_rng(rng)
    if t is None:
        from ..core.general_tradeoff import default_t

        t = default_t(k)
    t_eff = min(max(t, 1), max(k - 1, 1))
    n = g.n
    cc = CongestedClique(max(n, 1))
    if repetitions is None:
        repetitions = max(1, math.ceil(math.log2(max(n, 2))))

    if k == 1 or g.m == 0:
        res = SpannerResult(
            edge_ids=np.arange(g.m, dtype=np.int64),
            algorithm="spanner-cc",
            k=k,
            t=t,
            iterations=0,
            extra={"cc": cc.summary(), "repetition_retries": 0},
        )
        res.round_stats = RoundStats(rounds=0)
        return res

    l = num_epochs(k, t_eff)
    edges = EdgeSet.from_arrays(n, g.edges_u, g.edges_v, g.edges_w)
    sn_radius = np.zeros(n)
    labels = np.arange(n, dtype=np.int64)
    num_nodes = n

    spanner_parts: list[np.ndarray] = []
    stats: list[IterationStats] = []
    retries = 0
    iterations_run = 0
    log_n = math.log(max(n, 2))

    for epoch in range(1, l + 1):
        p = sampling_probability(n, k, t_eff, epoch)
        # Contraction carries a retiree's radius from here: the engine
        # reports 0 for nodes that retired during the epoch.
        entry_radius = sn_radius
        for _ in range(t_eff):
            iterations_run += 1
            # One round: every super-node broadcasts its repetition coin
            # vector; one round: counters per run are aggregated.
            cc.charge_broadcast_word(name="sampling-bits")
            cc.charge_aggregate(name="run-counters")

            num_clusters = max(int(live_seeds(labels, num_nodes).size), 1)
            sample_cap = max(size_slack * num_clusters * p, size_slack * log_n)
            added_cap = size_slack * num_clusters / max(p, 1e-12)

            chosen = None
            for attempt in range(repetitions):
                out, clone = _attempt(edges, labels, sn_radius, p, rng, epoch)
                s = out.stats[0]
                if s.num_sampled <= sample_cap and s.num_added <= added_cap:
                    chosen = (out, clone)
                    break
                retries += 1
            if chosen is None:
                # All repetitions failed the w.h.p. event (astronomically
                # unlikely at any reasonable n); keep the last run.
                chosen = (out, clone)
            out, edges = chosen[0], chosen[1]
            labels = out.labels
            sn_radius = out.radius_bound
            stats.extend(out.stats)
            spanner_parts.append(out.spanner_eids)

            # O(1) rounds to apply the winning run's merges (each node
            # learns its new cluster id from its chosen neighbor).
            cc.charge_route(
                max_send=1, max_recv=min(num_nodes, n), total_words=num_nodes,
                name="apply-merges",
            )

        # --- contraction (pure relabeling; announced in one broadcast) -----
        new_id, sn_radius, _ = contract_clusters(labels, out.radius_bound, entry_radius)
        new_num = sn_radius.size
        eu, ev, ew, eeid = edges.alive_view()
        q = quotient_edges(new_id, eu, ev, ew, eeid)
        edges = EdgeSet.from_arrays(new_num, q.u, q.v, q.w, q.rep_edge_id)
        labels = np.arange(new_num, dtype=np.int64)
        num_nodes = new_num
        cc.charge_broadcast_word(name="contraction-ids")
        if edges.u.size == 0:
            break

    _, _, _, remaining = edges.alive_view()
    extra_edges = sorted_unique(remaining)
    edges.kill_all()
    spanner_parts.append(extra_edges)

    eids = sorted_unique(np.concatenate(spanner_parts))
    res = SpannerResult(
        edge_ids=eids,
        algorithm="spanner-cc",
        k=k,
        t=t,
        iterations=iterations_run,
        stats=stats,
        phase2_added=int(extra_edges.size),
        extra={
            "cc": cc.summary(),
            "repetition_retries": retries,
            "repetitions": repetitions,
        },
    )
    res.round_stats = RoundStats(rounds=cc.rounds)
    return res
