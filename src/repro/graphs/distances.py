"""Exact shortest-path computation: the one Dijkstra kernel.

Every exact distance in the repository — spanner stretch checks, oracle
and exact-backend rows, the APSP results, sketch pivots — comes from
:func:`symmetric_dijkstra`, scipy's compiled Dijkstra run *directed* over
the graph's cached CSR (:meth:`WeightedGraph.to_scipy`).  That matrix
stores every edge as both arcs with the same weight, so the directed solve
is the undirected one, minus the per-call transpose and the second arc
scan that scipy's ``directed=False`` mode pays.  Multi-source runs are
chunked against the memory budget (:mod:`repro.core.membudget`), so the
number of sources is limited by time, not RAM.  A pure-Python binary-heap
Dijkstra is kept as an independently-verified reference implementation
(the property tests cross-check the two).
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np
from scipy.sparse import csgraph

from .graph import WeightedGraph

__all__ = [
    "symmetric_dijkstra",
    "sssp",
    "sssp_reference",
    "batched_sssp",
    "iter_sssp_chunks",
    "apsp",
    "pairwise_distances",
    "bfs_hops",
    "batched_capped_bfs",
    "connected_components",
    "same_components",
    "eccentricity",
    "k_hop_ball",
]

_INF = np.inf

# Batched runs are chunked so the dense (sources, n) scratch block stays
# within the memory budget resolved by :mod:`repro.core.membudget`
# (explicit ``REPRO_MEM_BUDGET`` beats a fraction of available RAM).
# Setting ``_CHUNK_ENTRIES`` to an integer pins the historical
# fixed-entry-count chunking instead — tests monkeypatch it to force
# tiny chunks deterministically.
_CHUNK_ENTRIES: int | None = None


def _chunk_rows(n: int, site: str) -> int:
    """Sources per chunk for a dense ``(rows, n)`` float64 scratch block."""
    if _CHUNK_ENTRIES is not None:
        return max(1, _CHUNK_ENTRIES // max(n, 1))
    from ..core import membudget  # lazy: core imports this module

    return membudget.chunk_rows(n, entry_bytes=8)


def symmetric_dijkstra(g: WeightedGraph, indices=None, **kwargs):
    """scipy's Dijkstra over ``g.to_scipy()``, run as a *directed* solve.

    Relies on the invariant :meth:`WeightedGraph.to_scipy` keeps: every
    edge is stored as both arcs with the same weight, so the matrix is
    symmetric and the arcs leaving a vertex are exactly its undirected
    edges.  scipy's ``directed=False`` mode scans those arcs and then the
    same arcs again through a transpose (``csgraph.T.tocsr()``, rebuilt
    on every call); the second scan offers the labels the first one just
    set and never improves any.  The directed solve skips it and the
    transpose, and returns bit-identical distances, predecessors and
    ``min_only`` sources.

    ``indices`` and ``kwargs`` (``min_only``, ``return_predecessors``,
    ...) pass straight to :func:`scipy.sparse.csgraph.dijkstra`.  Callers
    handle ``g.m == 0`` themselves.  This is the only shortest-path call
    site in the package (``repro lint`` rule ``dijkstra-kernel``).
    """
    return csgraph.dijkstra(g.to_scipy(), directed=True, indices=indices, **kwargs)


def _note_alloc(site: str, nbytes: int) -> None:
    from ..core import membudget

    membudget.note(site, nbytes)


def _gather_neighbors(
    indptr: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat CSR indices of every arc leaving ``frontier``, plus the frontier
    slot each arc came from — one ``np.repeat``-based gather, no Python loop
    over frontier vertices."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    reps = np.repeat(np.arange(frontier.size), counts)
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return starts[reps] + within, reps


def iter_sssp_chunks(g: WeightedGraph, sources: np.ndarray):
    """Yield ``(offset, rows)`` blocks of a multi-source Dijkstra.

    Each block's dense distance scratch stays within the resolved memory
    budget (:mod:`repro.core.membudget`), so callers that reduce blocks
    immediately (stretch checks, pairwise lookups) keep peak memory
    bounded no matter how many sources they ask for.  Rows match
    :func:`sssp` exactly — the chunk size only moves batching granularity,
    never values.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size and (sources.min() < 0 or sources.max() >= g.n):
        raise ValueError("source out of range")
    site = "graphs.distances.iter_sssp_chunks"
    chunk = _chunk_rows(g.n, site)
    for lo in range(0, sources.size, chunk):
        block = sources[lo : lo + chunk]
        if g.m == 0:
            rows = np.full((block.size, g.n), _INF)
            rows[np.arange(block.size), block] = 0.0
        else:
            rows = np.atleast_2d(symmetric_dijkstra(g, block))
        _note_alloc(site, rows.nbytes)
        yield lo, rows


def batched_sssp(g: WeightedGraph, sources: np.ndarray) -> np.ndarray:
    """Dijkstra from many sources at once: ``(len(sources), n)`` distances.

    One chunked :func:`symmetric_dijkstra` call instead of a
    Python loop of single-source runs; rows match :func:`sssp` exactly.
    The *returned* matrix is dense ``O(len(sources) · n)`` — callers with
    many sources that only need a reduction per row should stream
    :func:`iter_sssp_chunks` instead of materializing this.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    out = np.empty((sources.size, g.n))
    for lo, rows in iter_sssp_chunks(g, sources):
        out[lo : lo + rows.shape[0]] = rows
    return out


def sssp(g: WeightedGraph, source: int) -> np.ndarray:
    """Single-source shortest path distances from ``source`` (scipy Dijkstra).

    Unreachable vertices get ``inf``.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range for n={g.n}")
    if g.m == 0:
        d = np.full(g.n, _INF)
        d[source] = 0.0
        return d
    return symmetric_dijkstra(g, source)


def sssp_reference(g: WeightedGraph, source: int) -> np.ndarray:
    """Pure-Python Dijkstra with a binary heap; used to cross-validate
    :func:`sssp` in tests."""
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range for n={g.n}")
    dist = np.full(g.n, _INF)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    csr = g.csr
    done = np.zeros(g.n, dtype=bool)
    while heap:
        d, x = heapq.heappop(heap)
        if done[x]:
            continue
        done[x] = True
        lo, hi = csr.indptr[x], csr.indptr[x + 1]
        for y, w in zip(csr.indices[lo:hi], csr.weights[lo:hi]):
            nd = d + w
            if nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, int(y)))
    return dist


def apsp(g: WeightedGraph) -> np.ndarray:
    """Exact all-pairs shortest paths, ``(n, n)`` matrix.

    ``O(n (m + n log n))`` via repeated Dijkstra; only call at benchmark
    scale (n up to a few thousand).
    """
    if g.m == 0:
        d = np.full((g.n, g.n), _INF)
        np.fill_diagonal(d, 0.0)
        return d
    return symmetric_dijkstra(g)


def pairwise_distances(
    g: WeightedGraph, pairs: Sequence[tuple[int, int]] | np.ndarray
) -> np.ndarray:
    """Exact distances for selected ``(u, v)`` pairs.

    One *batched* Dijkstra over the distinct sources (chunked to bound the
    dense distance block), so it is efficient when sources repeat — the
    sampled-pair stretch measurement does exactly that.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return np.zeros(0)
    sources, inv = np.unique(pairs[:, 0], return_inverse=True)
    out = np.empty(pairs.shape[0])
    for lo, rows in iter_sssp_chunks(g, sources):
        sel = (inv >= lo) & (inv < lo + rows.shape[0])
        out[sel] = rows[inv[sel] - lo, pairs[sel, 1]]
    return out


def bfs_hops(g: WeightedGraph, source: int) -> np.ndarray:
    """Hop distances (ignoring weights) from ``source``; ``-1`` means
    unreachable.  Vectorized frontier BFS."""
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range")
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    csr = g.csr
    level = 0
    while frontier.size:
        level += 1
        # Gather all neighbors of the frontier at once (repeat-based gather
        # straight from the cached CSR — no per-vertex slicing).
        flat, _ = _gather_neighbors(csr.indptr, frontier)
        if flat.size == 0:
            break
        nbrs = np.unique(csr.indices[flat])
        new = nbrs[dist[nbrs] == -1]
        dist[new] = level
        frontier = new
    return dist


def k_hop_ball(g: WeightedGraph, source: int, hops: int, *, cap: int | None = None) -> np.ndarray:
    """Vertices within ``hops`` hops of ``source`` (including it), BFS order.

    ``cap`` truncates exploration once that many vertices are collected —
    this is the ``Θ(n^{γ/2})``-capped ball-growing of Appendix B.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    seen = np.zeros(g.n, dtype=bool)
    seen[source] = True
    frontier = np.asarray([int(source)], dtype=np.int64)
    parts = [frontier]
    count = 1
    csr = g.csr
    for _ in range(hops):
        # Scan order matches the old per-vertex loop: frontier order crossed
        # with CSR neighbor order, keeping only first occurrences.
        flat, _ = _gather_neighbors(csr.indptr, frontier)
        cand = csr.indices[flat]
        cand = cand[~seen[cand]]
        if cand.size == 0:
            break
        _, first = np.unique(cand, return_index=True)
        new = cand[np.sort(first)]
        seen[new] = True
        if cap is not None and count + new.size >= cap:
            # The scan stops right after the vertex that reaches the cap, so
            # at least one vertex is always taken even when cap <= count.
            parts.append(new[: max(cap - count, 1)])
            return np.concatenate(parts)
        parts.append(new)
        count += new.size
        frontier = new
    return np.concatenate(parts)


def _batched_capped_bfs_block(g: WeightedGraph, src: np.ndarray, hops: int, cap: int):
    """One block of :func:`batched_capped_bfs`: all sources advance one BFS
    level per numpy step (frontier arrays + segment counting for the cap).

    Like the scalar BFS — and unlike the sort-based frontier helpers — no
    per-level sort is needed: candidates arrive slot-grouped in scan order
    (the frontier is slot-grouped and the CSR gather preserves order), so
    per-(slot, vertex) first occurrences fall out of one reversed scatter
    into a scratch mark array, and the cap is enforced by segment counting.
    Each level consumes its frontier in doubling per-slot windows, so a
    slot stops gathering arcs (almost) as soon as its cap is reached —
    the vectorized analogue of the scalar loop's mid-scan early exit,
    without which dense slots would gather whole frontier neighborhoods
    only to discard all but ``cap`` vertices.
    """
    n = g.n
    s = src.size
    csr = g.csr
    seen = np.zeros(s * n, dtype=bool)  # flat (slot, vertex) bitmap
    slots = np.arange(s, dtype=np.int64)
    seen[slots * np.int64(n) + src] = True
    counts = np.ones(s, dtype=np.int64)  # ball sizes so far (the source)
    capped = np.zeros(s, dtype=bool)

    # Flat ball entries, accumulated level by level.
    p_slot = [slots]
    p_vtx = [src.astype(np.int64, copy=False)]
    p_edge = [np.full(s, -1, dtype=np.int64)]
    p_ppos = [np.zeros(s, dtype=np.int64)]  # local position of the parent
    p_lpos = [np.zeros(s, dtype=np.int64)]  # local position of the entry

    # --- Level 1: the source's own CSR row, clipped to the cap ------------
    # Neighbors of a source are distinct and unseen, so no dedupe is needed
    # and only the first min(degree, cap - 1) arcs are ever gathered (the
    # append-then-check scalar loop takes at least one).
    if hops >= 1 and s:
        deg = csr.indptr[src + 1] - csr.indptr[src]
        room = np.maximum(cap - 1, 1)
        take_n = np.minimum(deg, room)
        capped |= deg >= room
        total = int(take_n.sum())
        if total:
            reps = np.repeat(slots, take_n)
            within = np.arange(total) - np.repeat(np.cumsum(take_n) - take_n, take_n)
            flatpos = csr.indptr[src][reps] + within
            new_v = csr.indices[flatpos].astype(np.int64, copy=False)
            new_lpos = within + 1  # after the source at local position 0
            seen[reps * np.int64(n) + new_v] = True
            counts += take_n
            p_slot.append(reps)
            p_vtx.append(new_v)
            p_edge.append(csr.edge_ids[flatpos].astype(np.int64, copy=False))
            p_ppos.append(np.zeros(total, dtype=np.int64))
            p_lpos.append(new_lpos)
            carry = ~capped[reps]
            f_slot, f_vtx, f_lpos = reps[carry], new_v[carry], new_lpos[carry]
        else:
            f_slot = f_vtx = f_lpos = np.zeros(0, dtype=np.int64)
    else:
        f_slot = f_vtx = f_lpos = np.zeros(0, dtype=np.int64)

    # Frontier: (slot, vertex, local position), slot-grouped in scan order.
    for _ in range(max(hops - 1, 0)):
        if f_vtx.size == 0:
            break
        # Rank of each frontier entry within its slot's segment.
        seg = np.ones(f_slot.size, dtype=bool)
        seg[1:] = f_slot[1:] != f_slot[:-1]
        seg_start = np.flatnonzero(seg)
        seg_len = np.diff(np.append(seg_start, f_slot.size))
        frank = np.arange(f_slot.size) - np.repeat(seg_start, seg_len)
        fcur = np.zeros(s, dtype=np.int64)  # frontier entries consumed
        window = 1
        nxt: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        while True:
            rem = ~capped[f_slot] & (frank >= fcur[f_slot])
            if not rem.any():
                break
            sub = np.flatnonzero(rem & (frank < fcur[f_slot] + window))
            fcur += np.bincount(f_slot[sub], minlength=s)
            window = min(window * 2, 1 << 20)
            sub_slot = f_slot[sub]
            sub_ppos = f_lpos[sub]
            flat, rep = _gather_neighbors(csr.indptr, f_vtx[sub])
            if flat.size == 0:
                continue
            cand_v = csr.indices[flat]
            cand_e = csr.edge_ids[flat]
            cand_slot = sub_slot[rep]
            cand_ppos = sub_ppos[rep]
            unseen = ~seen[cand_slot * np.int64(n) + cand_v]
            if not unseen.any():
                continue
            cand_v, cand_e, cand_slot, cand_ppos = (
                cand_v[unseen], cand_e[unseen], cand_slot[unseen], cand_ppos[unseen],
            )
            # First occurrence per (slot, vertex) in scan order.  Windows
            # are small (a few entries per live slot), so a per-window
            # stable sort is cheap — no O(s·n) scratch array needed.  The
            # tiebreak key stays int32 (window sizes always fit), halving
            # the widest lexsort key.
            scan_dt = np.int32 if cand_v.size < 2**31 else np.int64
            scan = np.arange(cand_v.size, dtype=scan_dt)
            order = np.lexsort((scan, cand_v, cand_slot))
            cs, cv = cand_slot[order], cand_v[order]
            lead = np.ones(order.size, dtype=bool)
            lead[1:] = (cs[1:] != cs[:-1]) | (cv[1:] != cv[:-1])
            first = np.sort(order[lead])  # back to scan order, slot-grouped
            new_v, new_e, new_slot, new_ppos = (
                cand_v[first], cand_e[first], cand_slot[first], cand_ppos[first],
            )
            # Cap by segment counting: rank within the slot's new vertices
            # vs the room left under the cap.  The scalar loop appends,
            # then checks, so it always takes at least one vertex (cf.
            # k_hop_ball).
            nseg = np.ones(new_slot.size, dtype=bool)
            nseg[1:] = new_slot[1:] != new_slot[:-1]
            nstart = np.flatnonzero(nseg)
            nlen = np.diff(np.append(nstart, new_slot.size))
            rank = np.arange(new_slot.size) - np.repeat(nstart, nlen)
            room = np.maximum(cap - counts[new_slot], 1)
            take = rank < room
            now_capped = nlen >= np.maximum(cap - counts[new_slot[nstart]], 1)
            capped[new_slot[nstart[now_capped]]] = True

            new_v, new_e, new_slot, new_ppos, rank = (
                new_v[take], new_e[take], new_slot[take], new_ppos[take], rank[take],
            )
            new_lpos = counts[new_slot] + rank
            seen[new_slot * np.int64(n) + new_v] = True
            counts += np.bincount(new_slot, minlength=s)

            p_slot.append(new_slot)
            p_vtx.append(new_v)
            p_edge.append(new_e)
            p_ppos.append(new_ppos)
            p_lpos.append(new_lpos)

            # Capped sources stop exploring; the rest carry the new
            # vertices into the next level.
            carry = ~capped[new_slot]
            nxt.append((new_slot[carry], new_v[carry], new_lpos[carry]))
        if nxt:
            f_slot = np.concatenate([x[0] for x in nxt])
            f_vtx = np.concatenate([x[1] for x in nxt])
            f_lpos = np.concatenate([x[2] for x in nxt])
            # Windows interleave slots across rounds; restore slot grouping
            # (stable, so per-slot discovery order is untouched).
            order = np.argsort(f_slot, kind="stable")
            f_slot, f_vtx, f_lpos = f_slot[order], f_vtx[order], f_lpos[order]
        else:
            f_slot = f_vtx = f_lpos = np.zeros(0, dtype=np.int64)

    # Assemble without sorting: each entry's flat destination is known
    # directly from its slot and local position.
    indptr = np.zeros(s + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    slot_all = np.concatenate(p_slot)
    dest = indptr[slot_all] + np.concatenate(p_lpos)
    total = int(indptr[-1])
    ball = np.empty(total, dtype=np.int64)
    parent_edge = np.empty(total, dtype=np.int64)
    parent_pos = np.empty(total, dtype=np.int64)
    ball[dest] = np.concatenate(p_vtx)
    parent_edge[dest] = np.concatenate(p_edge)
    parent_pos[dest] = indptr[slot_all] + np.concatenate(p_ppos)
    return indptr, ball, parent_edge, parent_pos, ~capped


def batched_capped_bfs(
    g: WeightedGraph, sources: np.ndarray, hops: int, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Capped BFS from many sources at once, over the cached CSR.

    The batched equivalent of growing one capped ball per source with a
    scalar BFS: every source's ball is explored in the same scan order as
    the per-vertex loop (frontier order crossed with CSR neighbor order,
    first occurrences kept), and exploration stops for a source the moment
    its ball reaches ``cap`` vertices.  Sources are processed in chunks so
    the ``(sources, n)`` visited bitmap stays bounded.

    Returns ``(indptr, ball, parent_edge, parent_pos, complete)``:

    * ``ball[indptr[i]:indptr[i+1]]`` — BFS order of ``sources[i]``;
    * ``parent_edge`` — per entry, the edge id used to reach it (-1 for
      the source itself);
    * ``parent_pos`` — per entry, the *flat index into ball* of its BFS
      parent (its own index for the source), so root-ward path walks are
      lockstep array gathers;
    * ``complete[i]`` — False iff the cap stopped the exploration (the
      vertex is *dense* in the Appendix B sense).
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    if cap < 1:
        raise ValueError("cap must be positive")
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size and (sources.min() < 0 or sources.max() >= g.n):
        raise ValueError("source out of range")
    site = "graphs.distances.batched_capped_bfs"
    chunk = _chunk_rows(g.n, site)
    parts = []
    for lo in range(0, sources.size, chunk):
        block = sources[lo : lo + chunk]
        _note_alloc(site, block.size * g.n)  # the (slot, vertex) bitmap
        parts.append(_batched_capped_bfs_block(g, block, hops, cap))
    if len(parts) == 1:
        return parts[0]
    if not parts:
        z = np.zeros(0, dtype=np.int64)
        return np.zeros(1, dtype=np.int64), z, z, z, np.zeros(0, dtype=bool)
    sizes = [p[1].size for p in parts]
    offsets = np.cumsum([0] + sizes[:-1])
    indptr = np.concatenate(
        [parts[0][0]] + [p[0][1:] + off for p, off in zip(parts[1:], offsets[1:])]
    )
    ball = np.concatenate([p[1] for p in parts])
    parent_edge = np.concatenate([p[2] for p in parts])
    parent_pos = np.concatenate([p[3] + off for p, off in zip(parts, offsets)])
    complete = np.concatenate([p[4] for p in parts])
    return indptr, ball, parent_edge, parent_pos, complete


def connected_components(g: WeightedGraph) -> np.ndarray:
    """Component label per vertex (labels are arbitrary but consistent)."""
    if g.m == 0:
        return np.arange(g.n, dtype=np.int64)
    _, labels = csgraph.connected_components(g.to_scipy(), directed=False)
    return labels.astype(np.int64, copy=False)


def same_components(a: WeightedGraph, b: WeightedGraph) -> bool:
    """True if the two graphs (on the same vertex set) induce the same
    partition into connected components.  A spanner must preserve the
    component structure of its input."""
    if a.n != b.n:
        return False
    la, lb = connected_components(a), connected_components(b)
    # Same partition iff the label pairs biject.
    pa = {}
    pb = {}
    for x in range(a.n):
        if la[x] in pa and pa[la[x]] != lb[x]:
            return False
        if lb[x] in pb and pb[lb[x]] != la[x]:
            return False
        pa[la[x]] = lb[x]
        pb[lb[x]] = la[x]
    return True


def eccentricity(g: WeightedGraph, source: int) -> float:
    """Max finite distance from ``source`` (0 for isolated vertices)."""
    d = sssp(g, source)
    finite = d[np.isfinite(d)]
    return float(finite.max()) if finite.size else 0.0
