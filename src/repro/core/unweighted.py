"""Unweighted ``O(k)``-stretch spanner (Theorem 1.3 / Appendix B).

The paper adapts Parter–Yogev's Congested Clique construction [PY18] to
MPC.  Vertices are split by the size of their capped BFS ball:

* **sparse** vertices (ball of ``4k`` hops fits under ``Θ(n^{γ/2})``
  vertices): all their incident spanner decisions are made by locally
  simulating Baswana–Sen with *shared randomness* inside the collected
  ball.  Because every Baswana–Sen decision about an edge incident to ``v``
  within ``k`` iterations depends only on the ``(k+1)``-hop neighborhood
  and on the shared random bits, the union of the local simulations equals
  one global Baswana–Sen run restricted to edges with a sparse endpoint —
  which is how we realize it here (the *rounds* differ, and are accounted
  analytically: ball collection is ``O(log k)`` rounds of graph
  exponentiation, the local simulation is free).
* **dense** vertices (ball hits the cap, hence holds ``Ω(n^{γ/4})``
  vertices): a random hitting set ``Z`` of ``Õ(n^{1-γ/4})`` vertices hits
  every dense ball w.h.p.; each dense vertex stores its BFS path to an
  assigned hitter, and a ``(4/γ)``-stretch Baswana–Sen spanner of the
  auxiliary graph on ``Z`` (edges = original edges between differently
  assigned dense vertices) covers dense–dense edges.

Guarantees: stretch ``O(k/γ) = O(k)`` for constant ``γ``; size
``O(k · n^{1+1/k})`` + ``O(k n)`` path edges; ``O(log k)`` MPC rounds;
total memory ``O(m + n^{1+γ})`` dominated by ball replication.

Vectorization: ball collection is one
:func:`~repro.graphs.distances.batched_capped_bfs` call (all ``n``
sources advance one BFS level per numpy step, with segment counting for
the cap), hitter selection is a ``searchsorted`` over the flat ball
arrays, and the dense-vertex BFS paths are walked root-ward in lockstep
via the batched ``parent_pos`` index.  The pre-vectorization per-source
implementation is preserved verbatim as
:func:`unweighted_spanner_reference`; the equivalence tests and the
benchmark suite's before/after harness certify bit-identical outputs.
"""

from __future__ import annotations

import math

import numpy as np

from ..graphs.distances import batched_capped_bfs
from ..graphs.graph import WeightedGraph, group_by
from .baswana_sen import baswana_sen
from .params import coerce_rng
from .results import SpannerResult

__all__ = ["unweighted_spanner", "unweighted_spanner_reference"]


def _capped_bfs(g: WeightedGraph, source: int, hops: int, cap: int):
    """BFS from ``source`` up to ``hops`` levels or ``cap`` vertices.

    Returns ``(order, parent_edge, complete)`` where ``parent_edge`` maps
    each reached vertex to the edge id used to reach it (-1 for the source)
    and ``complete`` is False iff the cap stopped the exploration.

    The scalar per-source reference that
    :func:`~repro.graphs.distances.batched_capped_bfs` batches; kept for
    the reference implementation and the cross-checking tests.
    """
    csr = g.csr
    parent_edge = {int(source): -1}
    order = [int(source)]
    frontier = [int(source)]
    for _ in range(hops):
        nxt: list[int] = []
        for x in frontier:
            lo, hi = csr.indptr[x], csr.indptr[x + 1]
            for y, eid in zip(csr.indices[lo:hi], csr.edge_ids[lo:hi]):
                y = int(y)
                if y not in parent_edge:
                    parent_edge[y] = int(eid)
                    order.append(y)
                    nxt.append(y)
                    if len(order) >= cap:
                        return order, parent_edge, False
        if not nxt:
            break
        frontier = nxt
    return order, parent_edge, True


def _validate_args(g: WeightedGraph, k: int, gamma: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if not g.is_unweighted:
        raise ValueError("unweighted_spanner requires an unweighted graph")


def unweighted_spanner(
    g: WeightedGraph,
    k: int,
    *,
    gamma: float = 0.5,
    rng=None,
    ball_cap: int | None = None,
    account_mpc: bool = False,
) -> SpannerResult:
    """Compute an ``O(k)``-stretch spanner of an unweighted graph.

    Parameters
    ----------
    g:
        Unweighted input graph (all weights must equal 1).
    k:
        Stretch parameter.
    gamma:
        The MPC local-memory exponent ``γ`` (machines hold ``O(n^γ)``
        words); controls the ball cap ``Θ(n^{γ/2})`` and the auxiliary
        spanner's stretch ``4/γ``.
    rng:
        Seed or generator.
    ball_cap:
        Override the ``Θ(n^{γ/2})`` cap (useful in tests).
    account_mpc:
        When true, additionally run the Appendix B.2.1 graph-exponentiation
        ball growing under the MPC simulator and report *measured* rounds
        and communication volume in ``extra['mpc_ball_growing']`` (the
        analytic figures remain in ``extra['analytic_rounds']``).

    Returns
    -------
    SpannerResult
        ``extra`` records the sparse/dense split, hitting-set size, an
        analytic round count, and the simulated total-memory figure
        ``O(m + n^{1+γ})`` (ball replication).
    """
    _validate_args(g, k, gamma)
    rng = coerce_rng(rng)

    if k == 1 or g.m == 0:
        return SpannerResult(
            edge_ids=np.arange(g.m, dtype=np.int64),
            algorithm="unweighted-py18",
            k=k,
            t=None,
            iterations=0,
        )

    n = g.n
    if ball_cap is None:
        ball_cap = max(4, int(math.ceil(n ** (gamma / 2.0))))
    hops = 4 * k

    # ---- Classify vertices by capped ball growth ---------------------------
    # One batched multi-source BFS instead of n scalar traversals; the flat
    # (indptr, ball, parent_edge, parent_pos) arrays drive everything below.
    indptr, ball, parent_edge, parent_pos, sparse = batched_capped_bfs(
        g, np.arange(n, dtype=np.int64), hops, ball_cap
    )
    total_ball_words = int(indptr[-1])

    parts: list[np.ndarray] = []

    # ---- Sparse side: shared-randomness Baswana–Sen ------------------------
    # One global run with a fixed seed equals the union of all local
    # simulations (see module docstring); keep edges with a sparse endpoint.
    bs = baswana_sen(g, k, rng=rng)
    if bs.edge_ids.size:
        bu = g.edges_u[bs.edge_ids]
        bv = g.edges_v[bs.edge_ids]
        keep = sparse[bu] | sparse[bv]
        parts.append(bs.edge_ids[keep])

    dense = np.flatnonzero(~sparse)
    assign = np.full(n, -1, dtype=np.int64)
    hitters = np.zeros(0, dtype=np.int64)
    fallback = 0
    if dense.size:
        # ---- Hitting set --------------------------------------------------
        # Dense balls hold >= ball_cap vertices; sample so each is hit w.h.p.
        p_hit = min(1.0, 4.0 * math.log(max(n, 2)) / ball_cap)
        hit_flag = rng.random(n) < p_hit
        hitters = np.flatnonzero(hit_flag)

        # First hitter per dense ball, in BFS order: the flat positions of
        # all hit ball entries are ascending, so one searchsorted per ball
        # start finds each ball's earliest hit (if it lies before the end).
        hit_pos = np.flatnonzero(hit_flag[ball])
        start = indptr[dense]
        end = indptr[dense + 1]
        if hit_pos.size:
            nxt = np.searchsorted(hit_pos, start)
            cand = hit_pos[np.minimum(nxt, hit_pos.size - 1)]
            has = (nxt < hit_pos.size) & (cand < end)
        else:
            cand = start
            has = np.zeros(dense.size, dtype=bool)

        # The w.h.p. event failed for some balls: fall back to the sparse
        # treatment (keep those vertices' Baswana–Sen edges).
        fb_vs = dense[~has]
        fallback = int(fb_vs.size)
        if fallback and bs.edge_ids.size:
            fb = np.zeros(n, dtype=bool)
            fb[fb_vs] = True
            bu = g.edges_u[bs.edge_ids]
            bv = g.edges_v[bs.edge_ids]
            parts.append(bs.edge_ids[fb[bu] | fb[bv]])

        hit_dense = dense[has]
        z_pos = cand[has]
        assign[hit_dense] = ball[z_pos]
        # BFS-tree paths hitter -> v, walked root-ward in lockstep: every
        # step gathers one parent edge per still-walking ball.
        root = indptr[hit_dense]
        cur = z_pos.copy()
        walking = cur != root
        while walking.any():
            parts.append(parent_edge[cur[walking]])
            cur[walking] = parent_pos[cur[walking]]
            walking = cur != root

        # ---- Auxiliary graph on the hitting set ----------------------------
        du = g.edges_u
        dv = g.edges_v
        both_dense = (assign[du] >= 0) & (assign[dv] >= 0)
        za, zb = assign[du[both_dense]], assign[dv[both_dense]]
        rep = np.flatnonzero(both_dense)
        diff = za != zb
        za, zb, rep = za[diff], zb[diff], rep[diff]
        if za.size:
            lo = np.minimum(za, zb)
            hi = np.maximum(za, zb)
            # One representative per hitter pair: its minimum edge id.
            order, start = group_by(lo * n + hi)
            rep = np.minimum.reduceat(rep[order], start)
            first = order[start]
            lo, hi = lo[first], hi[first]
            # Compact hitter ids for the auxiliary graph.
            zs, inv_lo = np.unique(np.concatenate([lo, hi]), return_inverse=True)
            aux = WeightedGraph(
                zs.size,
                inv_lo[: lo.size],
                inv_lo[lo.size :],
                np.ones(lo.size),
                validate=False,
            )
            k_aux = max(2, math.ceil(2.0 / gamma))  # stretch 2k_aux-1 ~ 4/gamma
            aux_res = baswana_sen(aux, k_aux, rng=rng)
            # The compact relabeling is monotone and the (lo, hi) pairs are
            # unique and already (lo, hi)-sorted, so the graph constructor's
            # canonical edge order is exactly ours: aux edge id i *is* the
            # i-th pair, and the representative lookup is one gather.
            parts.append(rep[aux_res.edge_ids])

    eids = np.unique(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
    # Analytic MPC round count: O(log(4k)) exponentiation doublings for ball
    # collection plus O(1/gamma) rounds for each of the O(1) shuffles.
    rounds = math.ceil(math.log2(max(hops, 2))) + math.ceil(1.0 / gamma) * 4
    mpc_accounting = None
    if account_mpc:
        from ..mpc_impl.ball_growing import grow_balls_mpc

        growth = grow_balls_mpc(g, hops, gamma=gamma, cap=ball_cap)
        mpc_accounting = {
            "rounds": growth.rounds,
            "total_words": growth.total_words,
            "memory_budget": growth.memory_budget(),
        }
    return SpannerResult(
        edge_ids=eids,
        algorithm="unweighted-py18",
        k=k,
        t=None,
        iterations=rounds,
        extra={
            "num_sparse": int(sparse.sum()),
            "num_dense": int(dense.size),
            "ball_cap": int(ball_cap),
            "hitting_set_size": int(hitters.size),
            "fallbacks": int(fallback),
            "analytic_rounds": rounds,
            "total_memory_words": int(g.m + total_ball_words),
            **({"mpc_ball_growing": mpc_accounting} if mpc_accounting else {}),
        },
    )


# ---------------------------------------------------------------------------
# Frozen pre-vectorization implementation (per-source scalar BFS, per-dense
# hitter scans and path walks, dict-based auxiliary-edge mapping).  The
# equivalence tests and the benchmark suite's before/after harness compare
# against it.  Do not optimize this code.
# ---------------------------------------------------------------------------


def unweighted_spanner_reference(
    g: WeightedGraph,
    k: int,
    *,
    gamma: float = 0.5,
    rng=None,
    ball_cap: int | None = None,
) -> SpannerResult:
    """Pre-vectorization :func:`unweighted_spanner`, frozen as a reference.

    Bit-identical to :func:`unweighted_spanner` on every ``(graph, k,
    gamma, rng, ball_cap)`` — the equivalence tests assert it, and the
    benchmark suite measures the ball-collection speedup against this one.
    (``account_mpc`` is omitted: it only adds instrumentation.)
    """
    _validate_args(g, k, gamma)
    rng = coerce_rng(rng)

    if k == 1 or g.m == 0:
        return SpannerResult(
            edge_ids=np.arange(g.m, dtype=np.int64),
            algorithm="unweighted-py18",
            k=k,
            t=None,
            iterations=0,
        )

    n = g.n
    if ball_cap is None:
        ball_cap = max(4, int(math.ceil(n ** (gamma / 2.0))))
    hops = 4 * k

    sparse = np.zeros(n, dtype=bool)
    balls: dict[int, tuple[list[int], dict[int, int]]] = {}
    ball_sizes = np.zeros(n, dtype=np.int64)
    for v in range(n):
        order, parent_edge, complete = _capped_bfs(g, v, hops, ball_cap)
        ball_sizes[v] = len(order)
        if complete:
            sparse[v] = True
        else:
            balls[v] = (order, parent_edge)

    parts: list[np.ndarray] = []

    bs = baswana_sen(g, k, rng=rng)
    if bs.edge_ids.size:
        bu = g.edges_u[bs.edge_ids]
        bv = g.edges_v[bs.edge_ids]
        keep = sparse[bu] | sparse[bv]
        parts.append(bs.edge_ids[keep])

    dense = np.flatnonzero(~sparse)
    assign = np.full(n, -1, dtype=np.int64)
    hitters = np.zeros(0, dtype=np.int64)
    fallback = 0
    if dense.size:
        p_hit = min(1.0, 4.0 * math.log(max(n, 2)) / ball_cap)
        hit_flag = rng.random(n) < p_hit
        hitters = np.flatnonzero(hit_flag)

        for v in dense:
            order, parent_edge = balls[int(v)]
            z = next((x for x in order if hit_flag[x]), None)
            if z is None:
                fallback += 1
                if bs.edge_ids.size:
                    bu = g.edges_u[bs.edge_ids]
                    bv = g.edges_v[bs.edge_ids]
                    parts.append(bs.edge_ids[(bu == v) | (bv == v)])
                continue
            assign[v] = z
            path: list[int] = []
            cur = int(z)
            while cur != int(v):
                eid = parent_edge[cur]
                path.append(eid)
                a, b = int(g.edges_u[eid]), int(g.edges_v[eid])
                cur = a if b == cur else b
            parts.append(np.asarray(path, dtype=np.int64))

        du = g.edges_u
        dv = g.edges_v
        both_dense = (assign[du] >= 0) & (assign[dv] >= 0)
        za, zb = assign[du[both_dense]], assign[dv[both_dense]]
        rep = np.flatnonzero(both_dense)
        diff = za != zb
        za, zb, rep = za[diff], zb[diff], rep[diff]
        if za.size:
            lo = np.minimum(za, zb)
            hi = np.maximum(za, zb)
            order = np.lexsort((rep, hi, lo))
            lo, hi, rep = lo[order], hi[order], rep[order]
            lead = np.ones(lo.size, dtype=bool)
            lead[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            lo, hi, rep = lo[lead], hi[lead], rep[lead]
            zs, inv_lo = np.unique(np.concatenate([lo, hi]), return_inverse=True)
            aux = WeightedGraph(
                zs.size,
                inv_lo[: lo.size],
                inv_lo[lo.size :],
                np.ones(lo.size),
                validate=False,
            )
            pair_rep = {
                (int(a), int(b)): int(r)
                for a, b, r in zip(inv_lo[: lo.size], inv_lo[lo.size :], rep)
            }
            k_aux = max(2, math.ceil(2.0 / gamma))
            aux_res = baswana_sen(aux, k_aux, rng=rng)
            chosen = [
                pair_rep[
                    (
                        min(int(aux.edges_u[e]), int(aux.edges_v[e])),
                        max(int(aux.edges_u[e]), int(aux.edges_v[e])),
                    )
                ]
                for e in aux_res.edge_ids
            ]
            parts.append(np.asarray(chosen, dtype=np.int64))

    eids = np.unique(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
    rounds = math.ceil(math.log2(max(hops, 2))) + math.ceil(1.0 / gamma) * 4
    return SpannerResult(
        edge_ids=eids,
        algorithm="unweighted-py18",
        k=k,
        t=None,
        iterations=rounds,
        extra={
            "num_sparse": int(sparse.sum()),
            "num_dense": int(dense.size),
            "ball_cap": int(ball_cap),
            "hitting_set_size": int(hitters.size),
            "fallbacks": int(fallback),
            "analytic_rounds": rounds,
            "total_memory_words": int(g.m + ball_sizes.sum()),
        },
    )
