"""The shared Baswana–Sen-style iteration engine.

Every algorithm in the paper is built from the same inner loop (Section 5.1
Step B, which for ``t = k-1`` *is* Baswana–Sen's first phase):

1. sample the current clusters with probability ``p``;
2. every super-node whose cluster was not sampled is processed
   individually: it joins the "closest" (minimum edge weight) sampled
   neighboring cluster — adding that connecting edge to the spanner and
   also one edge to every neighboring cluster that is *strictly closer*
   than the joined one — or, if no neighboring cluster was sampled, adds
   one minimum edge per neighboring cluster and retires;
3. intra-cluster edges are removed.

:func:`run_growth_iterations` executes ``t`` such iterations over an
arbitrary edge list (original graph or quotient graph — the caller decides)
and returns the surviving clustering, the edges added to the spanner
(identified by *caller-provided provenance ids*, so they always refer to the
original input graph), and per-iteration instrumentation.
:func:`contract_clusters` is Step C's relabel of that clustering into the
next quotient's super-nodes.

Callers: Baswana–Sen (one call of ``k - 1`` iterations); the Section 3
two-phase contraction (one call, then :func:`contract_clusters` and a
quotient); the Section 5 general tradeoff and the Congested Clique
construction (``t`` iterations per epoch, each epoch then contracted the
same way); and Section 4 cluster merging (one iteration per epoch over an
edge view whose endpoints are cluster labels, so whole clusters act as
super-nodes without a quotient).

Vectorization strategy (this is the hot loop of the whole library): each
call ranks its records once by (weight, eid) (:func:`rank_records`: one
default ``np.argsort`` of the weights, then only tied runs are re-sorted).
An iteration then lays out the two arcs of every alive record in rank
order, so comparing two arc indices compares (weight, eid), and groups them
by (tail, head cluster) with :func:`repro.graphs.graph.group_by` — numpy's
default (unstable, SIMD) ``argsort`` of one integer key.  No decision reads
the order of arcs inside a group, only group membership and group minima:
a group's leader is the ``np.minimum.reduceat`` of its arc indices, the
closest sampled cluster of a tail is the same segment minimum over its
sampled group leaders, and discards expand group decisions back onto
member arcs.  So sort stability buys nothing, and the output is the same
whatever order the sort leaves ties in.  No Python loop runs over nodes or
edges.  This mirrors the paper's own MPC implementation (Section 6), which
performs the same grouping with one distributed sort per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import group_by, sorted_unique
from .results import IterationStats

__all__ = [
    "EdgeSet",
    "GrowthOutcome",
    "run_growth_iterations",
    "contract_clusters",
    "live_seeds",
    "phase2_edges",
    "rank_records",
]


@dataclass
class EdgeSet:
    """A mutable edge list over ``num_nodes`` super-nodes with provenance.

    ``eid`` carries the id of the original-graph edge each record descends
    from; ``alive`` flags unprocessed records.  The engine never reallocates
    — it only flips ``alive`` bits — so callers can cheaply extract the
    surviving sub-list afterwards.

    The alive count is cached and maintained incrementally by :meth:`kill` /
    :meth:`kill_all`, so :attr:`num_alive` (read several times per
    iteration) no longer re-sums the boolean array.  Code that writes
    ``alive`` directly must call :meth:`refresh_alive_count` afterwards.
    """

    num_nodes: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    eid: np.ndarray
    alive: np.ndarray
    _alive_count: int = field(default=-1, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._alive_count < 0:
            self._alive_count = int(self.alive.sum())

    @classmethod
    def from_arrays(cls, num_nodes: int, u, v, w, eid=None) -> "EdgeSet":
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if eid is None:
            eid = np.arange(u.size, dtype=np.int64)
        else:
            eid = np.asarray(eid, dtype=np.int64)
        return cls(num_nodes, u, v, w, eid, np.ones(u.size, dtype=bool))

    def alive_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        at = np.flatnonzero(self.alive)
        return self.u.take(at), self.v.take(at), self.w.take(at), self.eid.take(at)

    def kill(self, positions: np.ndarray) -> None:
        """Mark the records at ``positions`` dead (duplicates and
        already-dead positions are fine)."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return
        self.alive[pos] = False
        self._alive_count = int(np.count_nonzero(self.alive))

    def kill_all(self) -> None:
        """Mark every record dead."""
        if self._alive_count:
            self.alive[:] = False
        self._alive_count = 0

    def refresh_alive_count(self) -> None:
        """Re-derive the cached count after a direct write to ``alive``."""
        self._alive_count = int(self.alive.sum())

    @property
    def num_alive(self) -> int:
        return self._alive_count


@dataclass
class GrowthOutcome:
    """What ``t`` growth iterations produced.

    Attributes
    ----------
    labels:
        Per super-node: id of its final cluster (the seed super-node's id),
        or ``-1`` for retired super-nodes.
    spanner_eids:
        Provenance ids of the edges added to the spanner.
    stats:
        One :class:`IterationStats` per executed iteration.
    radius_bound:
        Per super-node: for nodes in final clusters, the recurrence upper
        bound on the cluster's weighted-stretch radius (same value for all
        members); 0 for retired nodes.
    join_eids:
        Per super-node: provenance id of the edge by which it last joined a
        sampled cluster (always one of ``spanner_eids``), or ``-1`` for
        nodes that never joined or ended retired.
    """

    labels: np.ndarray
    spanner_eids: np.ndarray
    stats: list[IterationStats]
    radius_bound: np.ndarray
    join_eids: np.ndarray


def _sort_tied_runs(order: np.ndarray, tie: np.ndarray, vals: np.ndarray) -> None:
    """Sort, in place, each run of ``order`` whose neighbours ``tie`` links.

    ``tie[i]`` says entries ``i`` and ``i + 1`` belong to the same run, and
    ``vals`` holds each entry's next sort key, aligned with ``order``:
    non-negative integers, as record positions and provenance ids are.
    Entries equal on ``vals`` end in unspecified order within their run.
    """
    linked = np.zeros(order.size, dtype=bool)
    linked[1:] = tie
    run_start = ~linked
    linked[:-1] |= tie
    at = np.flatnonzero(linked)
    run = np.cumsum(run_start[at]) - 1
    # Pack (run, value) into one int64 key: offset the values to start at 0,
    # or, if their span times the run count would overflow, dense-rank them
    # (a rank is below ``at.size``).
    v = vals[at]
    v = v - v.min()
    span = int(v.max()) + 1
    if (int(run[-1]) + 1) * span >= 2**63:
        by_val, val_start = group_by(v)
        v = np.empty(at.size, dtype=np.int64)
        v[by_val] = np.repeat(np.arange(val_start.size), np.diff(val_start, append=at.size))
        span = at.size
    order[at] = order[at[np.argsort(run * np.int64(span) + v)]]


def rank_records(w: np.ndarray, eid: np.ndarray) -> np.ndarray:
    """Positions of the records in (weight, eid, position) order.

    The same permutation as ``np.lexsort((eid, w))``, built from one default
    ``np.argsort`` of the weights: only the runs of tied weights are
    re-sorted by eid, and only runs tied on both by position.  Ties are rare
    on real-valued weights, so the common cost is a single SIMD sort.
    """
    order = np.argsort(w)
    ws = w[order]
    tie = ws[1:] == ws[:-1]
    if tie.any():
        _sort_tied_runs(order, tie, eid[order])
        es = eid[order]
        tie &= es[1:] == es[:-1]
        if tie.any():
            _sort_tied_runs(order, tie, order)
    return order


def live_seeds(labels: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted distinct cluster seeds among ``labels >= 0``.

    Labels are seed ids in ``[0, num_nodes)``, so a scatter into a flag
    array gives ``np.unique``'s result in O(n) instead of a sort.
    """
    flags = np.zeros(num_nodes, dtype=bool)
    flags[labels[labels >= 0]] = True
    return np.flatnonzero(flags)


def _arc_groups(
    edges: EdgeSet,
    ranked: np.ndarray,
    labels: np.ndarray,
    tail_ok: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the arcs of the records at ``ranked`` by (tail, head cluster).

    ``ranked`` lists record positions in (weight, eid) order.  Arcs ``2i``
    and ``2i + 1`` are record ``ranked[i]`` read ``u -> v`` and ``v -> u``,
    so comparing two arc indices compares (weight, eid); arcs whose tail
    fails ``tail_ok`` are dropped.  Arcs are grouped on the one integer key
    ``tail * n + cluster``; each group's leader is its minimum arc index,
    i.e. its (weight, eid) minimum.  Records that tie on both (only possible
    when eids repeat) are ordered by their place in ``ranked``.

    Returns ``(tail, cluster, pos, order, lead, lead_arc)``: per arc (in arc
    order) its tail, head cluster and record position; the grouping
    permutation (unspecified order within a group); the indices into
    ``order`` at which the groups start; and each group's leader arc.
    """
    tail = np.empty(2 * ranked.size, dtype=np.int64)
    tail[0::2] = edges.u.take(ranked)
    tail[1::2] = edges.v.take(ranked)
    head = np.empty_like(tail)
    head[0::2] = tail[1::2]
    head[1::2] = tail[0::2]
    pos = np.repeat(ranked, 2)
    if tail_ok is not None:
        keep = np.flatnonzero(tail_ok.take(tail))
        tail, head, pos = tail.take(keep), head.take(keep), pos.take(keep)
    cluster = labels.take(head)
    order, lead = group_by(tail * edges.num_nodes + cluster)
    lead_arc = np.minimum.reduceat(order, lead) if lead.size else lead
    return tail, cluster, pos, order, lead, lead_arc


def run_growth_iterations(
    edges: EdgeSet,
    *,
    iterations: int,
    probability,
    rng: np.random.Generator,
    epoch: int = 1,
    node_radius: np.ndarray | None = None,
    start_labels: np.ndarray | None = None,
) -> GrowthOutcome:
    """Run ``iterations`` Baswana–Sen-style growth iterations in place.

    Parameters
    ----------
    edges:
        Mutable edge set (``alive`` flags are updated in place).
    iterations:
        Number of iterations ``t``.
    probability:
        Either a float (used every iteration) or a callable
        ``iteration -> float`` (1-based).
    rng:
        Source of sampling randomness.
    epoch:
        Epoch index recorded into the stats (cosmetic).
    node_radius:
        Internal weighted-stretch-radius upper bound per super-node (from
        previous contractions); defaults to zeros.  Used only for the
        radius-recurrence instrumentation, never for algorithmic decisions.
    start_labels:
        Initial clustering; defaults to singletons (identity).  Must use
        seed-node ids as labels (``labels[x] == x`` for seeds); ``-1``
        marks a retired node, which must have no alive incident record.

    Notes
    -----
    All processing within one iteration is *simultaneous*: every decision
    reads the previous iteration's clustering, then additions are applied
    before discards, exactly as in the paper (an edge both "moved to the
    spanner" and "discarded" ends up in the spanner and dead — that is what
    "move" means).
    """
    n = edges.num_nodes
    if node_radius is None:
        node_radius = np.zeros(n)
    else:
        node_radius = np.asarray(node_radius, dtype=np.float64).copy()
    if start_labels is None:
        labels = np.arange(n, dtype=np.int64)
    else:
        labels = np.asarray(start_labels, dtype=np.int64).copy()

    # Cluster radius bound, indexed by seed id; seeded with the seed node's
    # internal radius.
    cluster_radius = node_radius.copy()

    join_edge_per_node = np.full(n, -1, dtype=np.int64)  # provenance id
    spanner: list[np.ndarray] = []
    stats: list[IterationStats] = []
    # Record positions in (weight, eid) order; each iteration keeps the
    # alive ones, so its arcs come out already ranked.
    rank = rank_records(edges.w, edges.eid)
    cluster_ids = live_seeds(labels, n)

    for j in range(1, iterations + 1):
        p = probability(j) if callable(probability) else float(probability)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"sampling probability {p} outside [0, 1]")

        active = labels >= 0
        num_clusters = int(cluster_ids.size)
        alive_before = edges.num_alive

        # --- Step B1: sample clusters -------------------------------------
        sampled_flag = np.zeros(n, dtype=bool)  # indexed by seed id
        if num_clusters:
            sampled_flag[cluster_ids] = rng.random(num_clusters) < p
        num_sampled = int(sampled_flag[cluster_ids].sum()) if num_clusters else 0

        node_sampled = active & sampled_flag[np.where(labels >= 0, labels, 0)]
        processing = active & ~node_sampled

        added_this_iter: list[np.ndarray] = []
        new_labels = labels.copy()
        # Every processing node retires unless it joins below.
        new_labels[processing] = -1

        join_edge_per_node[processing] = -1
        join_cluster_per_node = np.full(n, -1, dtype=np.int64)

        tails, hc, apos, order, lead_idx, lead_arc = _arc_groups(
            edges, rank.take(np.flatnonzero(edges.alive.take(rank))), labels, processing
        )
        if tails.size:
            # Per-(tail, cluster) group leader: the group's minimum arc.
            gt = tails[lead_arc]
            gw = edges.w[apos[lead_arc]]
            g_sampled = sampled_flag[hc[lead_arc]]

            # --- Choose the join target per tail ---------------------------
            # Groups are sorted by tail, so each tail's groups form one
            # segment; the smallest leader arc index over its sampled groups
            # is the closest sampled cluster (``no_join`` when none was).
            new_tail = np.diff(gt, prepend=-1) != 0
            tail_start = np.flatnonzero(new_tail)
            tail_of_group = np.cumsum(new_tail) - 1
            no_join = tails.size
            best = np.minimum.reduceat(np.where(g_sampled, lead_arc, no_join), tail_start)
            joiners = best < no_join
            join_arc = best[joiners]
            join_pos = apos[join_arc]
            f_tail = gt[tail_start[joiners]]
            f_cluster = hc[join_arc]
            join_edge_per_node[f_tail] = edges.eid[join_pos]
            join_cluster_per_node[f_tail] = f_cluster

            # --- Decide per-group actions ----------------------------------
            # Map each group to its tail's join weight (inf when retiring,
            # which makes every neighboring group "strictly closer" and thus
            # connected + discarded — exactly Step B4).  Weights, not arc
            # indices, are compared: a group tied with the join edge stays.
            join_w = np.full(tail_start.size, np.inf)
            join_w[joiners] = edges.w[join_pos]
            g_is_join_group = lead_arc == best[tail_of_group]
            # A neighboring group is connected-and-discarded iff it is
            # strictly closer than the join edge (or the node retires).
            g_connect = (~g_is_join_group) & (gw < join_w[tail_of_group])
            g_discard = g_connect | g_is_join_group

            added_this_iter.append(edges.eid[apos[lead_arc[g_connect]]])
            added_this_iter.append(join_edge_per_node[f_tail])

            # --- Apply discards --------------------------------------------
            # Expand group decisions back onto sorted arcs, then onto edges.
            group_sizes = np.diff(lead_idx, append=order.size)
            arc_discard = np.repeat(g_discard, group_sizes)
            edges.kill(apos[order[arc_discard]])

            new_labels[f_tail] = f_cluster

        # Processing nodes with no alive incident edges retire silently
        # (already handled by the default -1 assignment).

        # --- Radius-recurrence instrumentation -----------------------------
        # Lemma 5.8: r_j <= r_{j-1} + 2 * (max internal radius absorbed) + 1.
        joined_nodes = np.flatnonzero(join_cluster_per_node >= 0)
        if joined_nodes.size:
            targets = join_cluster_per_node[joined_nodes]
            growth = np.zeros(n)
            np.maximum.at(growth, targets, 2.0 * node_radius[joined_nodes] + 1.0)
            grew = np.flatnonzero(growth > 0)
            cluster_radius[grew] += growth[grew]

        # --- Step B6: drop intra-cluster edges -----------------------------
        if edges.num_alive:
            pos = np.flatnonzero(edges.alive)
            intra = new_labels.take(edges.u.take(pos)) == new_labels.take(edges.v.take(pos))
            edges.kill(pos[intra])

        labels = new_labels
        num_added = int(sum(a.size for a in added_this_iter))
        spanner.extend(added_this_iter)
        cluster_ids = live_seeds(labels, n)
        max_rb = float(cluster_radius[cluster_ids].max()) if cluster_ids.size else 0.0
        stats.append(
            IterationStats(
                epoch=epoch,
                iteration=j,
                num_clusters=num_clusters,
                num_sampled=num_sampled,
                num_alive_edges=alive_before,
                num_added=num_added,
                sampling_probability=p,
                max_radius_bound=max_rb,
            )
        )

    out_radius = np.zeros(n)
    act = labels >= 0
    if act.any():
        out_radius[act] = cluster_radius[labels[act]]
    eids = sorted_unique(np.concatenate(spanner)) if spanner else np.zeros(0, dtype=np.int64)
    return GrowthOutcome(
        labels=labels,
        spanner_eids=eids,
        stats=stats,
        radius_bound=out_radius,
        join_eids=join_edge_per_node,
    )


def contract_clusters(
    labels: np.ndarray, radius_bound: np.ndarray, node_radius: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Step C's relabel: number a final clustering as the next super-nodes.

    ``labels`` is a :attr:`GrowthOutcome.labels` array (seed ids, ``-1``
    for retirees).  The ``C`` clusters become super-nodes ``0..C-1`` in
    seed order, and every retiree a fresh singleton after them, in node
    order.

    Returns ``(new_id, new_radius, C)``: each super-node's next id, and per
    new super-node its radius bound — the cluster's ``radius_bound``, or
    the retiree's own ``node_radius``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    clustered = labels >= 0
    is_seed = np.zeros(labels.size, dtype=bool)
    is_seed[labels[clustered]] = True
    num_clusters = int(np.count_nonzero(is_seed))
    retired = np.flatnonzero(~clustered)
    new_id = np.empty(labels.size, dtype=np.int64)
    new_id[clustered] = (np.cumsum(is_seed) - 1)[labels[clustered]]
    new_id[retired] = num_clusters + np.arange(retired.size)
    new_radius = np.empty(num_clusters + retired.size)
    new_radius[new_id] = np.where(clustered, radius_bound, node_radius)
    return new_id, new_radius, num_clusters


def phase2_edges(edges: EdgeSet, labels: np.ndarray) -> np.ndarray:
    """The final clean-up phase (Phase 2 of Sections 4 and 5).

    For every super-node ``v`` incident to a remaining alive edge and every
    neighboring final cluster ``c``, the minimum-weight edge of ``E(v, c)``
    joins the spanner; everything else is discarded.  Marks all alive edges
    dead and returns the provenance ids added.
    """
    if edges.num_alive == 0:
        return np.zeros(0, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    alive = np.flatnonzero(edges.alive)
    ranked = alive.take(rank_records(edges.w.take(alive), edges.eid.take(alive)))
    _, hc, apos, _, _, lead_arc = _arc_groups(edges, ranked, labels)
    if (hc < 0).any():
        raise AssertionError(
            "alive edge endpoint outside any final cluster — Lemma 5.6 violated"
        )
    chosen = edges.eid[apos[lead_arc]]
    edges.kill_all()
    return sorted_unique(chosen)
