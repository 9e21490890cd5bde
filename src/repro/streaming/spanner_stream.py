"""The paper's contraction spanner as a multi-pass streaming algorithm.

Section 2.4: the ``t = 1`` algorithm runs in ``log k`` *passes* over a
stream (one pass per epoch — each pass computes the per-cluster-pair
minimum edges the epoch needs) and achieves stretch ``O(k^{log 3})`` on
*weighted* graphs, versus [AGM12]'s ``k^{log 5}`` in the same ``log k``
passes for unweighted dynamic streams.

Cross-pass state is ``O(n log k)``: the cluster label per vertex, the
alive flag per cluster, the sampling coins, and — per epoch — a label
snapshot plus the set of *discarded cluster-pair groups* (the streaming
stand-in for the in-memory engine's per-edge ``alive`` bits: a later pass
must not re-select an edge whose group was already consumed, or the
Theorem 5.11 radius argument breaks).  The per-pass working set — one
running minimum per adjacent cluster pair — is measured and reported (the
dynamic-stream literature compresses it with linear sketches; see
DESIGN.md).

Because a stream cannot mark individual edges dead, cluster adjacency is
re-derived from labels each pass; this makes the algorithm exactly the
Section 5 general algorithm with ``t = 1`` (where Step C's contraction
keeps the minimum edge per super-node pair and everything re-enters), so
the Theorem 5.11/5.15 guarantees apply verbatim.

Vectorization strategy: every pass consumes the stream through
:meth:`~repro.streaming.stream.EdgeStream.passes_chunked` and applies the
same ``np.lexsort`` + segment-minima grouping the in-memory engine uses
(the paper's own Section 6 MPC sort) — chunks are filtered as arrays and
folded into the running per-pair minima a few chunks at a time, so pass
work is O(chunk) numpy operations per chunk, memory stays at the
streaming working set O(chunk + pairs), and no Python loop ever touches
edges or cluster pairs.
Epoch decisions (join / connect-closer / retire) are segment operations
over the pair-minima arrays, and the discarded-group records are
structured cluster-pair CSRs (:class:`_DiscardRecord`) — not ``c * n + b``
integer keys, whose O(n²) range needed ``n`` threaded everywhere.

:func:`streaming_spanner_reference` preserves the pre-vectorization
implementation verbatim (dict-of-pairs running minima, scalar epoch loop,
integer-encoded dead keys).  The equivalence tests and the benchmark
suite's before/after harness certify the two emit bit-identical spanners
on every seed.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.params import coerce_rng
from ..core.results import IterationStats, SpannerResult, StreamStats
from ..graphs.graph import WeightedGraph, lockstep_run_lookup, sorted_lookup
from .stream import EdgeStream

__all__ = ["streaming_spanner", "streaming_spanner_reference"]


class _DiscardRecord:
    """One epoch's discarded cluster-pair groups as a structured mask.

    Stores the epoch's label snapshot plus a CSR over *cluster pairs*: for
    cluster ``a``, the discarded partner clusters live (sorted) in
    ``dead_b[indptr[a]:indptr[a+1]]``.  This replaces the previous
    ``c * n + b`` integer dead-key encoding — same semantics, but keyed on
    the pair itself (no O(n²)-range keys, no ``n`` threaded through the
    lookups), and probed with an O(1) indptr gather plus a lockstep binary
    search instead of per-key arithmetic.
    """

    __slots__ = ("labels", "indptr", "dead_b")

    def __init__(self, labels: np.ndarray, dead_a: np.ndarray, dead_b: np.ndarray):
        # (dead_a, dead_b) arrive lexsorted by (a, b).
        self.labels = labels
        counts = np.bincount(dead_a, minlength=labels.size)
        self.indptr = np.zeros(labels.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.dead_b = dead_b

    @property
    def num_pairs(self) -> int:
        return int(self.dead_b.size)

    def probe(self, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """Vectorized: is the *ordered* pair ``(qa, qb)`` discarded?

        The ``a``-runs come straight from the CSR indptr; the ``b`` search
        within each run is the shared lockstep binary-search kernel.
        """
        return lockstep_run_lookup(
            self.dead_b, self.indptr[qa], self.indptr[qa + 1], qb
        )


def _pass_group_minima(
    stream: EdgeStream,
    labels: np.ndarray,
    alive: np.ndarray,
    discarded: list[_DiscardRecord],
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int]:
    """One pass: min-weight edge per *ordered* adjacent cluster pair.

    Skips edges that are intra-cluster, touch a dead cluster, or belong to
    a cluster-pair group a previous epoch discarded (``discarded`` holds
    one ``(labels snapshot, dead pair a-keys, dead pair b-keys)`` record
    per epoch — the streaming stand-in for the in-memory engine's per-edge
    ``alive`` bits; without it a later pass can pick an already-consumed
    edge as a pair minimum and void the Theorem 5.11 radius argument).

    Returns ``((a, b, w, eid), working)``: per ordered adjacent pair
    ``a -> b`` the minimum ``(w, eid)`` edge, plus the peak working-set
    size (one record per ordered pair).  The minimum edge of ``E(a, b)``
    and of ``E(b, a)`` is the same record, so the pass reduces surviving
    *unordered* pairs and mirrors the minima into both directions at the
    end.  Filtered chunk rows are buffered and folded into the running
    pair minima (one lexsort + segment leaders per fold) whenever the
    buffer reaches a few chunks, so per-pass memory stays O(chunk + pairs)
    — the streaming-model working set, not O(m).
    """
    run_lo = np.zeros(0, dtype=np.int64)
    run_hi = np.zeros(0, dtype=np.int64)
    run_w = np.zeros(0)
    run_e = np.zeros(0, dtype=np.int64)
    buf: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    buffered = 0
    fold_budget = 8 * stream.chunk

    def fold() -> None:
        nonlocal run_lo, run_hi, run_w, run_e, buf, buffered
        if not buf:
            return
        lo = np.concatenate([run_lo] + [t[0] for t in buf])
        hi = np.concatenate([run_hi] + [t[1] for t in buf])
        w = np.concatenate([run_w] + [t[2] for t in buf])
        e = np.concatenate([run_e] + [t[3] for t in buf])
        order = np.lexsort((e, w, hi, lo))
        lo, hi, w, e = lo[order], hi[order], w[order], e[order]
        lead = np.ones(lo.size, dtype=bool)
        lead[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        run_lo, run_hi, run_w, run_e = lo[lead], hi[lead], w[lead], e[lead]
        buf = []
        buffered = 0

    for eu, ev, ew, eid in stream.passes_chunked():
        cu = labels[eu]
        cv = labels[ev]
        idx = np.flatnonzero((cu != cv) & alive[cu] & alive[cv])
        for rec in discarded:
            if rec.num_pairs == 0 or idx.size == 0:
                continue
            ou = rec.labels[eu[idx]]
            ov = rec.labels[ev[idx]]
            # An edge died if either direction of its then-current group
            # was discarded; only still-surviving rows are probed.
            dead = rec.probe(ou, ov)
            dead |= rec.probe(ov, ou)
            idx = idx[~dead]
        cu, cv = cu[idx], cv[idx]
        buf.append((np.minimum(cu, cv), np.maximum(cu, cv), ew[idx], eid[idx]))
        buffered += idx.size
        if buffered >= fold_budget:
            fold()
    fold()
    if run_lo.size == 0:
        z = np.zeros(0, dtype=np.int64)
        return (z, z, np.zeros(0), z), 0
    a = np.concatenate([run_lo, run_hi])
    b = np.concatenate([run_hi, run_lo])
    return (
        (a, b, np.concatenate([run_w, run_w]), np.concatenate([run_e, run_e])),
        int(a.size),
    )


def streaming_spanner(
    g: WeightedGraph,
    k: int,
    *,
    rng=None,
    chunk: int = 4096,
    order_seed: int = 0,
) -> SpannerResult:
    """Build the ``t = 1`` contraction spanner in ``ceil(log2 k) + 1``
    stream passes.

    Returns a :class:`SpannerResult` whose ``extra['stream']`` holds the
    pass/working-set accounting.

    Examples
    --------
    >>> from repro.graphs import erdos_renyi, edge_stretch
    >>> g = erdos_renyi(128, 0.2, weights="uniform", rng=1)
    >>> res = streaming_spanner(g, 4, rng=1)
    >>> res.extra["stream"]["passes"] <= 3   # ceil(log2 4) + 1
    True
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = coerce_rng(rng)

    if k == 1 or g.m == 0:
        res = SpannerResult(
            edge_ids=np.arange(g.m, dtype=np.int64),
            algorithm="streaming-spanner",
            k=k,
            t=1,
            iterations=0,
        )
        res.stream_stats = StreamStats(passes=1 if g.m else 0)
        return res

    n = g.n
    stream = EdgeStream(g, chunk=chunk, order_seed=order_seed)
    epochs = max(1, math.ceil(math.log2(k)))
    labels = np.arange(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    spanner_parts: list[np.ndarray] = []
    stats: list[IterationStats] = []
    # Per-epoch discard records: label snapshot + CSR of dead cluster pairs.
    discarded: list[_DiscardRecord] = []

    for epoch in range(1, epochs + 1):
        p = float(n) ** (-(2.0 ** (epoch - 1)) / k)
        (pa, pb, pw, pe), working = _pass_group_minima(stream, labels, alive, discarded)
        stream.end_pass(working)
        if pa.size == 0:
            break

        live_ids = np.flatnonzero(alive)
        # Only clusters with vertices matter; restrict to ones seen adjacent
        # plus all alive (harmless).
        sampled = np.zeros(n, dtype=bool)
        sampled[live_ids] = rng.random(live_ids.size) < p

        # --- Per unsampled alive cluster: decide from the pass summary -----
        # Sort its pair minima by (sampled-first, w, eid, b); the segment's
        # first row is then either the join target (sampled) or proof that
        # no neighboring cluster was sampled (retire).
        proc = alive[pa] & ~sampled[pa]
        a = pa[proc]
        b = pb[proc]
        w = pw[proc]
        e = pe[proc]
        merge_target = np.full(n, -1, dtype=np.int64)
        died = np.zeros(n, dtype=bool)
        num_added = 0
        dead_a = np.zeros(0, dtype=np.int64)
        dead_b = np.zeros(0, dtype=np.int64)
        if a.size:
            nbr_sampled = sampled[b]
            order = np.lexsort((b, e, w, ~nbr_sampled, a))
            a, b, w, e = a[order], b[order], w[order], e[order]
            nbr_sampled = nbr_sampled[order]
            seg = np.ones(a.size, dtype=bool)
            seg[1:] = a[1:] != a[:-1]
            seg_id = np.cumsum(seg) - 1
            first_idx = np.flatnonzero(seg)
            joins = nbr_sampled[first_idx]  # per segment: has a sampled nbr
            join_w = np.where(joins, w[first_idx], np.inf)
            join_b = np.where(joins, b[first_idx], np.int64(-1))
            # A neighboring group is connected-and-discarded iff strictly
            # closer than the join edge (everything, when retiring).
            selected = (w < join_w[seg_id]) & (b != join_b[seg_id])
            selected[first_idx[joins]] = True  # the join group itself
            merge_target[a[first_idx[joins]]] = b[first_idx[joins]]
            died[a[first_idx[~joins]]] = True
            spanner_parts.append(e[selected])
            num_added = int(selected.sum())
            # Selected groups are exactly the consumed (discarded) ones.
            dead_a = a[selected]
            dead_b = b[selected]
            dorder = np.lexsort((dead_b, dead_a))
            dead_a, dead_b = dead_a[dorder], dead_b[dorder]
        # Unsampled alive clusters with no neighbors retire silently.
        seen = np.zeros(n, dtype=bool)
        seen[a] = True
        idle = alive & ~sampled & ~seen
        died |= idle

        discarded.append(_DiscardRecord(labels.copy(), dead_a, dead_b))

        merged = np.flatnonzero(merge_target >= 0)
        if merged.size:
            relabel = np.arange(n, dtype=np.int64)
            relabel[merged] = merge_target[merged]
            labels = relabel[labels]
            alive[merged] = False
        alive[died] = False

        stats.append(
            IterationStats(
                epoch=epoch,
                iteration=1,
                num_clusters=int(live_ids.size),
                num_sampled=int(sampled[live_ids].sum()),
                num_alive_edges=int(pa.size) // 2,
                num_added=num_added,
                sampling_probability=p,
                max_radius_bound=0.0,
            )
        )

    # Final pass: remaining inter-cluster minima join the spanner.
    (pa, pb, pw, pe), working = _pass_group_minima(stream, labels, alive, discarded)
    stream.end_pass(working)
    phase2 = np.unique(pe)
    spanner_parts.append(phase2)

    eids = (
        np.unique(np.concatenate(spanner_parts))
        if spanner_parts
        else np.zeros(0, dtype=np.int64)
    )
    res = SpannerResult(
        edge_ids=eids,
        algorithm="streaming-spanner",
        k=k,
        t=1,
        iterations=len(stats),
        stats=stats,
        phase2_added=int(phase2.size),
    )
    res.stream_stats = stream.stats
    return res


# ---------------------------------------------------------------------------
# Frozen pre-vectorization implementation.
#
# Kept verbatim (dict-of-pairs running minima, scalar per-cluster epoch loop,
# ``c * n + b`` integer-encoded dead keys) as the reference the equivalence
# tests and the benchmark suite's before/after harness compare against —
# the same role :func:`repro.graphs.distances.sssp_reference` plays for the
# distance layer.  Do not optimize this code.
# ---------------------------------------------------------------------------


def _pass_group_minima_reference(
    stream: EdgeStream,
    labels: np.ndarray,
    alive: np.ndarray,
    discarded: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[dict[tuple[int, int], tuple[float, int]], int]:
    """Pre-vectorization pass: dict of running pair minima (reference)."""
    n = labels.size
    best: dict[tuple[int, int], tuple[float, int]] = {}
    for eu, ev, ew, eid in stream.passes():
        cu = labels[eu]
        cv = labels[ev]
        ok = (cu != cv) & alive[cu] & alive[cv]
        for old_labels, dead_keys in discarded:
            if dead_keys.size == 0:
                continue
            ou = old_labels[eu]
            ov = old_labels[ev]
            for a, b in ((ou, ov), (ov, ou)):
                dead, _ = sorted_lookup(dead_keys, a * np.int64(n) + b)
                ok &= ~dead
        a = np.concatenate([cu[ok], cv[ok]])
        b = np.concatenate([cv[ok], cu[ok]])
        w = np.concatenate([ew[ok], ew[ok]])
        e = np.concatenate([eid[ok], eid[ok]])
        if a.size == 0:
            continue
        order = np.lexsort((e, w, b, a))
        a, b, w, e = a[order], b[order], w[order], e[order]
        lead = np.ones(a.size, dtype=bool)
        lead[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        for aa, bb, ww, ee in zip(a[lead], b[lead], w[lead], e[lead]):
            key = (int(aa), int(bb))
            cand = (float(ww), int(ee))
            if key not in best or cand < best[key]:
                best[key] = cand
    return best, len(best)


def streaming_spanner_reference(
    g: WeightedGraph,
    k: int,
    *,
    rng=None,
    chunk: int = 4096,
    order_seed: int = 0,
) -> SpannerResult:
    """Pre-vectorization :func:`streaming_spanner`, frozen as a reference.

    Bit-identical to :func:`streaming_spanner` on every ``(graph, k, rng,
    order_seed)`` — the equivalence tests assert it, and the benchmark
    suite measures the speedup of the vectorized path against this one.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = coerce_rng(rng)

    if k == 1 or g.m == 0:
        res = SpannerResult(
            edge_ids=np.arange(g.m, dtype=np.int64),
            algorithm="streaming-spanner",
            k=k,
            t=1,
            iterations=0,
        )
        res.stream_stats = StreamStats(passes=1 if g.m else 0)
        return res

    n = g.n
    stream = EdgeStream(g, chunk=chunk, order_seed=order_seed)
    epochs = max(1, math.ceil(math.log2(k)))
    labels = np.arange(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    spanner: set[int] = set()
    stats: list[IterationStats] = []
    discarded: list[tuple[np.ndarray, np.ndarray]] = []

    for epoch in range(1, epochs + 1):
        p = float(n) ** (-(2.0 ** (epoch - 1)) / k)
        best, working = _pass_group_minima_reference(stream, labels, alive, discarded)
        stream.end_pass(working)
        if not best:
            break

        live_ids = np.flatnonzero(alive)
        sampled = np.zeros(n, dtype=bool)
        sampled[live_ids] = rng.random(live_ids.size) < p
        num_added = 0

        neighbors: dict[int, list[tuple[float, int, int]]] = {}
        for (a, b), (w, e) in best.items():
            if alive[a] and not sampled[a]:
                neighbors.setdefault(a, []).append((w, e, b))
        merge_target = np.full(n, -1, dtype=np.int64)
        died = np.zeros(n, dtype=bool)
        dead_keys: list[int] = []
        for c, nbrs in neighbors.items():
            nbrs.sort()
            samp = [(w, e, b) for (w, e, b) in nbrs if sampled[b]]
            if samp:
                wj, ej, bj = samp[0]
                spanner.add(ej)
                num_added += 1
                merge_target[c] = bj
                dead_keys.append(c * n + bj)  # the join group is consumed
                for w, e, b in nbrs:
                    if w < wj and b != bj:
                        spanner.add(e)
                        num_added += 1
                        dead_keys.append(c * n + b)
            else:
                for _, e, _ in nbrs:
                    spanner.add(e)
                    num_added += 1
                died[c] = True
                dead_keys.extend(c * n + b for (_, _, b) in nbrs)
        seen = np.zeros(n, dtype=bool)
        seen[list(neighbors.keys())] = True
        idle = alive & ~sampled & ~seen
        died |= idle

        discarded.append(
            (labels.copy(), np.unique(np.asarray(dead_keys, dtype=np.int64)))
        )

        merged = np.flatnonzero(merge_target >= 0)
        if merged.size:
            relabel = np.arange(n, dtype=np.int64)
            relabel[merged] = merge_target[merged]
            labels = relabel[labels]
            alive[merged] = False
        alive[died] = False

        stats.append(
            IterationStats(
                epoch=epoch,
                iteration=1,
                num_clusters=int(live_ids.size),
                num_sampled=int(sampled[live_ids].sum()),
                num_alive_edges=len(best) // 2,
                num_added=num_added,
                sampling_probability=p,
                max_radius_bound=0.0,
            )
        )

    best, working = _pass_group_minima_reference(stream, labels, alive, discarded)
    stream.end_pass(working)
    phase2 = {e for (_, e) in best.values()}
    spanner |= phase2

    eids = np.array(sorted(spanner), dtype=np.int64)
    res = SpannerResult(
        edge_ids=eids,
        algorithm="streaming-spanner",
        k=k,
        t=1,
        iterations=len(stats),
        stats=stats,
        phase2_added=len(phase2),
    )
    res.stream_stats = stream.stats
    return res
