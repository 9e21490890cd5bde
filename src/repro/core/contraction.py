"""Two-phase cluster-contraction spanner (Section 3) — ``t = sqrt(k)``.

Warm-up algorithm: run ``ceil(sqrt(k))`` Baswana–Sen growth iterations
(probability ``n^{-1/k}``), contract the surviving clusters into a
super-graph, then run the *full* Baswana–Sen algorithm with parameter
``t' = ceil(sqrt(k))`` on the super-graph as a black box.  Phase-one
clusters have radius ``O(sqrt(k))`` and the super-graph spanner has stretch
``O(sqrt(k))``, so composed paths have stretch ``O(k)`` (Theorem 3.4), with
size ``O(sqrt(k) · n^{1+1/k})`` (Theorem 3.1) in ``O(sqrt(k))`` iterations.

Note: the paper's Section 3 text twice writes ``t = t' = sqrt(n)``; the
analysis (radius ``O(t t') = O(k)``, size ``O(sqrt(k) n^{1+1/k})``) requires
``sqrt(k)``, which is what we implement (see DESIGN.md).

The paper states this section for unweighted graphs; since our phase
machinery (shared with Section 5) already handles weights via the
strictly-closer rule, the implementation accepts weighted inputs, and the
test-suite checks the ``O(k)`` stretch empirically on both.
"""

from __future__ import annotations

import math

import numpy as np

from ..graphs.graph import WeightedGraph
from ..graphs.quotient import quotient_edges
from .baswana_sen import baswana_sen
from .engine import EdgeSet, contract_clusters, run_growth_iterations
from .params import coerce_rng
from .results import SpannerResult

__all__ = ["two_phase_contraction"]


def two_phase_contraction(g: WeightedGraph, k: int, *, rng=None) -> SpannerResult:
    """Compute an ``O(k)``-stretch spanner in ``O(sqrt(k))`` iterations.

    Parameters
    ----------
    g:
        Input graph (weighted accepted; the paper states the unweighted
        case).
    k:
        Stretch parameter; size is ``O(sqrt(k) n^{1+1/k})``.
    rng:
        Seed or generator.

    Examples
    --------
    >>> from repro.graphs import erdos_renyi, edge_stretch
    >>> g = erdos_renyi(256, 0.3, rng=5)
    >>> res = two_phase_contraction(g, k=9, rng=5)
    >>> edge_stretch(g, res.subgraph(g)).max_stretch <= 4 * 9
    True
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = coerce_rng(rng)

    if k == 1 or g.m == 0:
        return SpannerResult(
            edge_ids=np.arange(g.m, dtype=np.int64),
            algorithm="two-phase-contraction",
            k=k,
            t=1,
            iterations=0,
        )

    t1 = max(1, math.ceil(math.sqrt(k)))
    t1 = min(t1, max(k - 1, 1))
    n = g.n
    p = float(n) ** (-1.0 / k)

    # ---- Phase one: t1 growth iterations on the original graph ------------
    edges = EdgeSet.from_arrays(n, g.edges_u, g.edges_v, g.edges_w)
    outcome = run_growth_iterations(edges, iterations=t1, probability=p, rng=rng, epoch=1)
    parts = [outcome.spanner_eids]

    # ---- Contract: build the super-graph -----------------------------------
    # Retired vertices have no alive edges (Lemma 3.2), so they become
    # isolated super-nodes of the quotient.
    new_id, _, num_clusters = contract_clusters(
        outcome.labels, outcome.radius_bound, np.zeros(n)
    )
    eu, ev, ew, eeid = edges.alive_view()
    q = quotient_edges(new_id, eu, ev, ew, eeid)

    iterations = t1
    if q.m:
        # ---- Phase two: black-box Baswana–Sen on the super-graph ----------
        # Quotient pairs are unique, ``u < v`` and ``(u, v)``-sorted — the
        # graph's canonical order — so super-edge ``e`` is quotient pair
        # ``e`` and its provenance id is one gather.
        t2 = max(2, math.ceil(math.sqrt(k)))
        super_g = WeightedGraph.from_canonical(q.num_nodes, q.u, q.v, q.w)
        sub = baswana_sen(super_g, t2, rng=rng)
        parts.append(q.rep_edge_id[sub.edge_ids])
        iterations += sub.iterations

    eids = np.unique(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
    return SpannerResult(
        edge_ids=eids,
        algorithm="two-phase-contraction",
        k=k,
        t=t1,
        iterations=iterations,
        stats=outcome.stats,
        extra={"super_nodes": num_clusters, "super_edges": int(q.m)},
    )
