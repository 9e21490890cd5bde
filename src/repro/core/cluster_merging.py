"""Cluster-merging spanner (Section 4) — the ``t = 1`` extreme, directly.

``ceil(log2 k)`` epochs; in epoch ``i`` clusters are sampled with the
doubly-exponentially decreasing probability ``n^{-2^{i-1}/k}`` and every
*unsampled cluster* merges wholesale into its closest sampled neighboring
cluster (or, lacking one, connects to each neighboring cluster once and
retires).  Radius triples per epoch, giving stretch ``O(k^{log 3})``
(Theorem 4.10 proof constant: ``k^{log 3}``), expected size
``O(n^{1+1/k} log k)`` (Theorem 4.13), in ``O(log k)`` iterations.

Each epoch is one :func:`~repro.core.engine.run_growth_iterations` call
over the clusters, the engine's ``t = 1`` case.  What stays this module's
own: clusters live as label arrays over the original vertices (an edge
view relabelled per epoch, not a quotient graph), so parallel edges between
two clusters are all kept; Phase 2 runs per *vertex* against the final
clusters; and the exact cluster trees (Definition 4.2) can be tracked.
:mod:`repro.core.general_tradeoff` realizes the same algorithm as its
``t = 1`` case through explicit quotient graphs, and the test-suite
cross-validates the two on shared seeds' statistical behaviour and on the
formal guarantees.
"""

from __future__ import annotations

import math

import numpy as np

from ..graphs.graph import WeightedGraph
from .engine import EdgeSet, phase2_edges, run_growth_iterations
from .params import coerce_rng
from .results import IterationStats, SpannerResult

__all__ = ["cluster_merging"]


def cluster_merging(
    g: WeightedGraph, k: int, *, rng=None, track_forest: bool = False
) -> SpannerResult:
    """Compute an ``O(k^{log 3})``-spanner in ``ceil(log2 k)`` epochs.

    Parameters
    ----------
    g:
        Input weighted graph.
    k:
        Size parameter; the spanner has expected size
        ``O(n^{1+1/k} log k)`` and stretch at most ``k^{log 3}``.
    rng:
        Seed or generator.
    track_forest:
        When true, maintain the exact rooted cluster trees (Definition
        4.2) and return them as ``extra['forest']`` — the proof artifact
        the Theorem 4.8 radius bound is checked against in the tests.

    Examples
    --------
    >>> from repro.graphs import erdos_renyi, edge_stretch
    >>> g = erdos_renyi(256, 0.2, weights="uniform", rng=3)
    >>> res = cluster_merging(g, k=4, rng=3)
    >>> edge_stretch(g, res.subgraph(g)).max_stretch <= 4 ** 1.585
    True
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = coerce_rng(rng)

    if k == 1 or g.m == 0:
        return SpannerResult(
            edge_ids=np.arange(g.m, dtype=np.int64),
            algorithm="cluster-merging",
            k=k,
            t=1,
            iterations=0,
        )

    from .forest import ClusterForest, reroot

    n = g.n
    epochs = max(1, math.ceil(math.log2(k)))
    forest = ClusterForest.singletons(n) if track_forest else None
    seeds = np.arange(n, dtype=np.int64)
    labels = seeds.copy()  # vertex -> cluster seed id
    cluster_alive = np.ones(n, dtype=bool)  # indexed by seed id
    cluster_radius = np.zeros(n)  # recurrence upper bound per seed
    edges = EdgeSet.from_arrays(n, g.edges_u, g.edges_v, g.edges_w)

    spanner_parts: list[np.ndarray] = []
    stats: list[IterationStats] = []

    for i in range(1, epochs + 1):
        # One growth iteration over the clusters: the view's endpoints are
        # cluster labels and it shares ``edges.alive``, so the engine's
        # discards land on the vertex-level edges.
        view = EdgeSet(n, labels[edges.u], labels[edges.v], edges.w, edges.eid, edges.alive)
        out = run_growth_iterations(
            view,
            iterations=1,
            probability=float(n) ** (-(2.0 ** (i - 1)) / k),
            rng=rng,
            epoch=i,
            node_radius=cluster_radius,
            start_labels=np.where(cluster_alive, seeds, -1),
        )
        edges.refresh_alive_count()
        stats.extend(out.stats)
        spanner_parts.append(out.spanner_eids)

        if forest is not None:
            # Definition 4.2 / Step 4: hang each absorbed cluster's tree off
            # the join edge, re-rooted at the edge's endpoint inside it.
            # Uses pre-merge labels, so it must run before the relabel.
            for c in np.flatnonzero((out.labels >= 0) & (out.labels != seeds)):
                e = int(out.join_eids[c])
                a, b = int(g.edges_u[e]), int(g.edges_v[e])
                y, x = (a, b) if labels[a] == c else (b, a)
                reroot(forest, y)
                forest.parent[y] = x
                forest.parent_eid[y] = e
        # Merged clusters move wholesale; retired ones keep their label.
        labels = np.where(out.labels >= 0, out.labels, seeds)[labels]
        cluster_alive = out.labels == seeds
        cluster_radius = out.radius_bound
        if edges.num_alive == 0:
            break

    # ---- Phase 2: vertex-to-cluster clean-up -------------------------------
    # Remaining edges run between alive clusters; each *vertex* endpoint adds
    # the minimum edge to each neighboring cluster (Section 4 Phase 2).
    extra = phase2_edges(edges, labels)
    spanner_parts.append(extra)

    eids = (
        np.unique(np.concatenate(spanner_parts))
        if spanner_parts
        else np.zeros(0, dtype=np.int64)
    )
    return SpannerResult(
        edge_ids=eids,
        algorithm="cluster-merging",
        k=k,
        t=1,
        iterations=len(stats),
        stats=stats,
        phase2_added=int(extra.size),
        extra={
            "epochs": epochs,
            **(
                {"forest": forest, "final_labels": labels}
                if forest is not None
                else {}
            ),
        },
    )
