"""The general round/stretch tradeoff algorithm (Section 5, Theorem 1.1).

The algorithm proceeds in ``l = ceil(log k / log(t+1))`` epochs.  Epoch
``i`` runs ``t`` Baswana–Sen-style growth iterations on the *current
quotient graph* with the fixed sampling probability
``n^{-(t+1)^{i-1}/k}``, then contracts the resulting clusters into
super-nodes (keeping one minimum-weight edge per super-node pair, Step C).
A final clean-up phase adds the surviving inter-cluster edges.

Guarantees (Theorem 5.15):

* iterations ``t · l = O(t log k / log(t+1))``,
* stretch ``O(k^s)`` with ``s = log(2t+1)/log(t+1)`` (proof constant 2),
* expected size ``O(n^{1+1/k} (t + log k))``.

Special cases recovered exactly:

* ``t = k-1``: one epoch with ``p = n^{-1/k}`` — Baswana–Sen itself;
* ``t = 1``: contraction after every iteration — the Section 4
  cluster-merging algorithm (:mod:`repro.core.cluster_merging` runs the
  same engine iteration over vertex-level cluster labels instead of
  quotients; the tests cross-validate the two);
* ``t = ceil(sqrt(k))``: two epochs — the Section 3 warm-up.
"""

from __future__ import annotations

import math

import numpy as np

from ..graphs.graph import WeightedGraph, sorted_unique
from ..graphs.quotient import quotient_edges
from .engine import EdgeSet, contract_clusters, run_growth_iterations
from .params import coerce_rng, num_epochs, sampling_probability
from .results import SpannerResult

__all__ = ["general_tradeoff", "default_t"]


def default_t(k: int) -> int:
    """The paper's recommended setting ``t = log k`` (stretch ``k^{1+o(1)}``
    in ``O(log^2 k / log log k)`` iterations)."""
    return max(1, int(round(math.log2(max(k, 2)))))


def general_tradeoff(
    g: WeightedGraph,
    k: int,
    t: int | None = None,
    *,
    rng=None,
) -> SpannerResult:
    """Compute an ``O(k^s)``-spanner with ``s = log(2t+1)/log(t+1)``.

    Parameters
    ----------
    g:
        Input weighted graph.
    k:
        Size/stretch parameter: size is ``O(n^{1+1/k}(t + log k))``.
    t:
        Growth iterations per epoch; ``None`` selects ``log k``.  Values
        above ``k - 1`` are clamped to ``k - 1`` (beyond that the algorithm
        is Baswana–Sen and extra iterations would only waste rounds).
    rng:
        Seed or generator.

    Returns
    -------
    SpannerResult
        ``extra['epoch_contractions']`` holds ``(epoch, super_nodes_after)``
        rows; ``extra['final_super_nodes']`` the Corollary 5.13 quantity.

    Examples
    --------
    >>> from repro.graphs import erdos_renyi, edge_stretch
    >>> g = erdos_renyi(300, 0.15, weights="uniform", rng=7)
    >>> res = general_tradeoff(g, k=4, t=2, rng=7)
    >>> h = res.subgraph(g)
    >>> edge_stretch(g, h).max_stretch <= 2 * 4 ** 1.46  # 2 k^s, s(2)≈1.465
    True
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = coerce_rng(rng)
    if t is None:
        t = default_t(k)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    t_eff = min(t, max(k - 1, 1))

    if k == 1 or g.m == 0:
        return SpannerResult(
            edge_ids=np.arange(g.m, dtype=np.int64),
            algorithm="general-tradeoff",
            k=k,
            t=t,
            iterations=0,
        )

    n = g.n
    l = num_epochs(k, t_eff)
    edges = EdgeSet.from_arrays(n, g.edges_u, g.edges_v, g.edges_w)
    sn_radius = np.zeros(n)

    spanner_parts: list[np.ndarray] = []
    stats = []
    contractions: list[tuple[int, int]] = []
    iterations_run = 0

    for i in range(1, l + 1):
        p = sampling_probability(n, k, t_eff, i)
        outcome = run_growth_iterations(
            edges,
            iterations=t_eff,
            probability=p,
            rng=rng,
            epoch=i,
            node_radius=sn_radius,
        )
        iterations_run += t_eff
        spanner_parts.append(outcome.spanner_eids)
        stats.extend(outcome.stats)

        # ---- Step C: contract the final clustering ------------------------
        new_id, sn_radius, _ = contract_clusters(
            outcome.labels, outcome.radius_bound, sn_radius
        )
        new_num = sn_radius.size
        eu, ev, ew, eeid = edges.alive_view()
        q = quotient_edges(new_id, eu, ev, ew, eeid)
        edges = EdgeSet.from_arrays(new_num, q.u, q.v, q.w, q.rep_edge_id)
        contractions.append((i, new_num))

        if edges.u.size == 0:
            break

    # ---- Phase 2: surviving quotient edges --------------------------------
    # After the final contraction each super-node pair retains exactly its
    # minimum-weight connecting edge, so Phase 2 ("min edge per (node,
    # cluster) pair") is precisely the set of all remaining edges.
    _, _, _, remaining = edges.alive_view()
    extra = sorted_unique(remaining)
    edges.kill_all()
    spanner_parts.append(extra)

    eids = sorted_unique(np.concatenate(spanner_parts))
    return SpannerResult(
        edge_ids=eids,
        algorithm="general-tradeoff",
        k=k,
        t=t,
        iterations=iterations_run,
        stats=stats,
        phase2_added=int(extra.size),
        extra={
            "epoch_contractions": contractions,
            "final_super_nodes": contractions[-1][1] if contractions else n,
            "t_effective": t_eff,
        },
    )
