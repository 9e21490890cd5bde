"""Thorup–Zwick distance sketches, plain and spanner-accelerated.

The paper motivates its spanners partly through distance sketches: [DN19]
used spanners to speed up sketch *preprocessing* in MPC ("an exponential
speed up in preprocessing of distance sketches").  This module provides the
sketch substrate that application builds on:

* :class:`DistanceSketch` — the classic Thorup–Zwick construction: a
  sampled hierarchy ``V = A_0 ⊇ A_1 ⊇ … ⊇ A_{k-1}``, per-vertex pivots
  ``p_i(v)`` (nearest ``A_i`` vertex) and bunches
  ``B(v) = ∪_i {w ∈ A_i \\ A_{i+1} : d(v,w) < d(v, A_{i+1})}``.
  Expected size ``O(k n^{1+1/k})`` words, query time ``O(k)``, stretch at
  most ``2k - 1``.
* :func:`sketch_on_spanner` — the [DN19] idea reproduced at the logical
  level: preprocess the sketch on a *spanner* of ``G`` rather than ``G``
  itself.  Preprocessing now touches ``O(spanner size)`` edges instead of
  ``m`` (the MPC work/memory win), at the cost of multiplying the query
  stretch by the spanner's stretch.

Implementation notes: pivots come from one multi-source Dijkstra per level
(the shared :func:`~repro.graphs.distances.symmetric_dijkstra` kernel with
scipy's ``min_only``).  The sketch builds the graph's CSR before the first
of them, so scipy's matrix wraps the CSR's arrays and one arc sort serves
both the pivots and the bunches.  Bunches come from a *level-batched,
array-based* truncated relaxation (:func:`build_bunches_batched`) that grows
flat ``(vertex, center, dist)`` arrays one frontier hop at a time, pruning
every candidate against the level's cut ``d(v, A_{i+1}) - _EPS`` with one
numpy comparison — this is what keeps the total sketch size near-linear
without a per-center Python Dijkstra.

Before a truncated level's hops, the builder also drops every arc
``x -> y`` of weight ``w`` with ``w >= cut[y]``.  No such arc can ever pass:
frontier distances are ``d >= 0``, and float addition is monotone, so
``fl(d + w) >= w >= cut[y]``.  The pruned view keeps each row's arc order,
so every hop's candidate arrays are exactly the unpruned ones minus
candidates the cut would have rejected anyway — the output does not
change by a bit, while the hops gather only the arcs that can still matter
(a few percent of them at the lowest levels, whose bounds are smallest).

The classic per-center dict/heapq truncated Dijkstra is retained as
:func:`build_bunches_reference` and cross-checked by the property tests;
the two builders produce bit-identical bunch distances.

Bunch storage format (changed from the seed's ``list[dict]``): bunches are
CSR-style flat arrays — ``bunch_indptr`` (``n + 1``), ``bunch_centers`` and
``bunch_dists``, with vertex ``v``'s bunch in
``bunch_centers[bunch_indptr[v]:bunch_indptr[v+1]]`` sorted by center id.
The old dict-shaped API survives as the lazily materialized
:attr:`DistanceSketch.bunch` compatibility view.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left

import numpy as np

from ..core import membudget
from ..core.params import coerce_rng
from ..core.results import SpannerResult
from ..graphs.distances import _gather_neighbors, iter_sssp_chunks, symmetric_dijkstra
from ..graphs.graph import WeightedGraph, group_by, sorted_lookup

__all__ = [
    "DistanceSketch",
    "sketch_on_spanner",
    "build_bunches_batched",
    "build_bunches_reference",
    "query_reference",
]

# Matches the truncation slack of the original per-center Dijkstra: a vertex
# is relaxed only through distances strictly below d(v, A_{i+1}) - _EPS.
_EPS = 1e-15
#: Batches up to this many pairs take the per-pair walk in ``query_many``.
_SCALAR_WALK_MAX = 16


def _level_sources(levels: list[np.ndarray], i: int, n: int) -> np.ndarray:
    """Centers processed at level ``i``: ``A_i \\ A_{i+1}`` (every center is
    handled exactly once, at its topmost level)."""
    sources = levels[i]
    if i + 1 < len(levels):
        in_next = np.zeros(n, dtype=bool)
        in_next[levels[i + 1]] = True
        sources = sources[~in_next[sources]]
    return sources


def build_bunches_batched(
    g: WeightedGraph, levels: list[np.ndarray], pivot_dist: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array-native bunch construction for all centers at once.

    For each hierarchy level the truncated Dijkstras of *every* center in
    ``A_i \\ A_{i+1}`` advance together: the state is a flat sorted array of
    ``(vertex, center)`` keys with tentative distances, and one iteration
    relaxes the whole frontier with a single ``np.repeat`` gather over the
    level's pruned view of the cached CSR adjacency (only the arcs that
    can pass the level's truncation; see the module notes).  Candidates violating the
    ``d(v, A_{i+1})`` truncation bound are dropped before the merge, so the
    state never exceeds the final bunch size plus one frontier hop.

    The converged distances are the least fixpoint of the same truncated
    relaxation the per-center reference Dijkstra computes (float sums are
    associated identically), so the output is bit-identical to
    :func:`build_bunches_reference`.

    Returns ``(indptr, centers, dists)`` in the CSR layout documented in the
    module docstring.
    """
    n = g.n
    k = len(levels)
    csr = g.csr
    nn = np.int64(n)
    all_keys: list[np.ndarray] = []
    all_dists: list[np.ndarray] = []

    for i in range(k):
        sources = _level_sources(levels, i, n)
        if sources.size == 0:
            continue
        bound = pivot_dist[i + 1]

        if not np.isfinite(bound).any():
            # No truncation anywhere (the top level, or an empty next
            # level): the reference runs *plain* Dijkstras here, so hand
            # the whole batch to scipy's compiled Dijkstra, streamed in
            # chunks so the dense distance block stays bounded.
            key_parts: list[np.ndarray] = []
            dist_parts: list[np.ndarray] = []
            for lo, rows in iter_sssp_chunks(g, sources):
                ridx, verts = np.nonzero(np.isfinite(rows))
                key_parts.append(verts * nn + sources[lo + ridx])
                dist_parts.append(rows[ridx, verts])
            keys = np.concatenate(key_parts)
            dists = np.concatenate(dist_parts)
            membudget.note(
                "distances.sketches.build_bunches_batched",
                keys.nbytes + dists.nbytes,
            )
            # One key per (vertex, source) pair: distinct, so any sort
            # gives the same order.
            order = np.argsort(keys)
            all_keys.append(keys[order])
            all_dists.append(dists[order])
            continue

        # Only arcs lighter than their head's cut can pass the truncation
        # (see the module notes); the pruned view keeps each row's order.
        cut = bound - _EPS
        arcs = np.flatnonzero(csr.weights < cut[csr.indices])
        v_indptr = np.searchsorted(arcs, csr.indptr)
        v_heads = csr.indices[arcs]
        v_weights = csr.weights[arcs]
        membudget.note(
            "distances.sketches.build_bunches_batched",
            v_indptr.nbytes + v_heads.nbytes + v_weights.nbytes,
        )

        # Settled/tentative state: keys = vertex * n + center, sorted.
        # ``levels`` arrays are ascending, so the initial keys w*(n+1) are too.
        bk = sources * nn + sources
        bd = np.zeros(sources.size)
        front_v = sources
        front_c = sources
        front_d = np.zeros(sources.size)

        while front_v.size:
            flat, reps = _gather_neighbors(v_indptr, front_v)
            if flat.size == 0:
                break
            cand_v = v_heads[flat]
            cand_c = front_c[reps]
            cand_d = front_d[reps] + v_weights[flat]

            keep = cand_d < cut[cand_v]
            cand_v, cand_c, cand_d = cand_v[keep], cand_c[keep], cand_d[keep]
            if cand_v.size == 0:
                break

            # Minimum distance per (vertex, center) among this hop's arrivals.
            ckey = cand_v * nn + cand_c
            order, start = group_by(ckey)
            cand_d = np.minimum.reduceat(cand_d[order], start)
            ckey = ckey[order[start]]

            # Keep only candidates that improve the current state.
            present, clipped = sorted_lookup(bk, ckey)
            improve = ~present
            improve[present] = cand_d[present] < bd[clipped[present]]
            ckey, cand_d = ckey[improve], cand_d[improve]
            if ckey.size == 0:
                break
            pos, present = clipped[improve], present[improve]

            bd[pos[present]] = cand_d[present]
            fresh = ~present
            if fresh.any():
                bk = np.concatenate([bk, ckey[fresh]])
                bd = np.concatenate([bd, cand_d[fresh]])
                # Fresh keys are absent from ``bk``, so all keys are distinct.
                order = np.argsort(bk)
                bk, bd = bk[order], bd[order]

            front_v = ckey // nn
            front_c = ckey - front_v * nn
            front_d = cand_d

        membudget.note(
            "distances.sketches.build_bunches_batched", bk.nbytes + bd.nbytes
        )
        all_keys.append(bk)
        all_dists.append(bd)

    if all_keys:
        keys = np.concatenate(all_keys)
        dists = np.concatenate(all_dists)
        # Centers are disjoint across levels, so keys are globally unique;
        # one sort groups them by vertex with centers ascending within.
        order = np.argsort(keys)
        keys, dists = keys[order], dists[order]
        verts = keys // nn
        centers = keys - verts * nn
    else:
        verts = np.zeros(0, dtype=np.int64)
        centers = np.zeros(0, dtype=np.int64)
        dists = np.zeros(0)

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(verts, minlength=n), out=indptr[1:])
    return indptr, centers, dists


def build_bunches_reference(
    g: WeightedGraph, levels: list[np.ndarray], pivot_dist: np.ndarray
) -> list[dict[int, float]]:
    """The classic per-center truncated dict/heapq Dijkstra (the seed
    implementation), retained as the independently-verified reference the
    property tests and the distance-layer benchmark compare against."""
    n = g.n
    k = len(levels)
    bunch: list[dict[int, float]] = [dict() for _ in range(n)]
    csr = g.csr
    for i in range(k):
        next_dist = pivot_dist[i + 1]
        for w in _level_sources(levels, i, n):
            w = int(w)
            # Truncated Dijkstra from w: only settle v with
            # d(w, v) < d(v, A_{i+1}).
            dist: dict[int, float] = {w: 0.0}
            heap = [(0.0, w)]
            while heap:
                d, x = heapq.heappop(heap)
                if d > dist.get(x, math.inf):
                    continue
                bunch[x][w] = d
                lo, hi = csr.indptr[x], csr.indptr[x + 1]
                for y, we in zip(csr.indices[lo:hi], csr.weights[lo:hi]):
                    y = int(y)
                    nd = d + float(we)
                    if nd < next_dist[y] - _EPS and nd < dist.get(y, math.inf):
                        dist[y] = nd
                        heapq.heappush(heap, (nd, y))
    return bunch


def query_reference(sketch: "DistanceSketch", u: int, v: int) -> float:
    """The pivot walk of one in-range pair: one ``searchsorted`` of
    the bunch keys per round.  The walk :meth:`DistanceSketch.query` ran
    before it indexed memoryviews, retained as the frozen reference the
    property tests compare every walk against."""
    if u == v:
        return 0.0
    keys, n = sketch._bunch_keys, sketch.g.n
    w, du_w = u, 0.0
    for i in range(sketch.k):
        if i:
            u, v = v, u
            w = int(sketch.pivot[i, u])
            du_w = float(sketch.pivot_dist[i, u])
            if w < 0 or not math.isfinite(du_w):
                return math.inf
        key = v * n + w
        pos = int(keys.searchsorted(key))
        if pos < keys.size and keys[pos] == key:
            return du_w + float(sketch.bunch_dists[pos])
    return math.inf


class DistanceSketch:
    """A Thorup–Zwick approximate-distance sketch of stretch ``2k - 1``.

    Parameters
    ----------
    g:
        Weighted input graph.
    k:
        Number of hierarchy levels; stretch is ``2k - 1``, expected size
        ``O(k n^{1+1/k})``.
    rng:
        Seed or generator for the hierarchy sampling.

    Examples
    --------
    >>> from repro.graphs import erdos_renyi, sssp
    >>> g = erdos_renyi(100, 0.2, weights="uniform", rng=0)
    >>> sk = DistanceSketch(g, k=2, rng=0)
    >>> d = sk.query(0, 5)
    >>> d >= sssp(g, 0)[5] - 1e-9        # never underestimates
    True
    """

    def __init__(self, g: WeightedGraph, k: int, *, rng=None) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        rng = coerce_rng(rng)
        self.g = g
        self.k = k
        n = g.n
        p = float(n) ** (-1.0 / k) if n > 1 else 0.5

        # --- hierarchy -----------------------------------------------------
        levels: list[np.ndarray] = [np.arange(n, dtype=np.int64)]
        for _ in range(1, k):
            prev = levels[-1]
            keep = rng.random(prev.size) < p
            levels.append(prev[keep])
        self.levels = levels

        # --- pivots: d(v, A_i) and the achieving source ---------------------
        self.pivot_dist = np.full((k + 1, n), np.inf)
        self.pivot = np.full((k + 1, n), -1, dtype=np.int64)
        self.pivot_dist[0] = 0.0
        self.pivot[0] = np.arange(n)
        # Build the CSR first: the pivot Dijkstras' scipy matrix then wraps
        # its arrays, so one arc sort serves the pivots and the bunches.
        g.csr
        for i in range(1, k):
            ai = levels[i]
            if ai.size == 0 or g.m == 0:
                continue
            dist, _, sources = symmetric_dijkstra(
                g, ai, min_only=True, return_predecessors=True
            )
            self.pivot_dist[i] = dist
            self.pivot[i] = sources
        # Level k is empty: d(v, A_k) = inf (already initialized).

        # --- bunches via the level-batched array builder --------------------
        self.bunch_indptr, self.bunch_centers, self.bunch_dists = (
            build_bunches_batched(g, levels, self.pivot_dist)
        )
        self._init_query_state()

    def _init_query_state(self) -> None:
        """What the query walks derive from the arrays, shared by both
        constructors.  The membership keys (vertex * n + center,
        ascending, always int64: ``v * n + center`` overflows int32 for
        every ``n >= 2**15.5``) let one ``searchsorted`` answer "is w in
        B(v)" for any batch of queries; the per-pair walk's memoryviews
        are built on its first call."""
        n = self.g.n
        self._bunch_keys = (
            self.bunch_centers.astype(np.int64, copy=False)
            + np.repeat(np.arange(n, dtype=np.int64), np.diff(self.bunch_indptr))
            * np.int64(n)
        )
        self._bunch_dicts: list[dict[int, float]] | None = None
        self._views: tuple | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        g: WeightedGraph,
        k: int,
        levels: list[np.ndarray],
        pivot: np.ndarray,
        pivot_dist: np.ndarray,
        bunch_indptr: np.ndarray,
        bunch_centers: np.ndarray,
        bunch_dists: np.ndarray,
    ) -> "DistanceSketch":
        """Rebuild a sketch from persisted state without recomputation.

        This is the persistence path (:mod:`repro.service.store`): the
        hierarchy sampling, pivot Dijkstras and bunch construction ran
        once, and the saved arrays are everything the query walk touches —
        a reloaded sketch answers :meth:`query`/:meth:`query_many`
        bit-identically to the freshly built one.

        Index arrays that arrive as int32 (downcast store artifacts) are
        kept int32, and already-correct dtypes are adopted without a copy —
        memmap-backed artifact views stay memmaps.
        """
        if pivot.shape != (k + 1, g.n) or pivot_dist.shape != (k + 1, g.n):
            raise ValueError("pivot arrays must have shape (k + 1, n)")
        if bunch_indptr.shape != (g.n + 1,):
            raise ValueError("bunch_indptr must have shape (n + 1,)")
        if bunch_centers.shape != bunch_dists.shape:
            raise ValueError("bunch_centers and bunch_dists must be parallel")

        def _idx(arr):
            arr = np.asarray(arr)
            if arr.dtype in (np.int32, np.int64):
                return arr
            return arr.astype(np.int64, copy=False)

        self = cls.__new__(cls)
        self.g = g
        self.k = int(k)
        self.levels = [_idx(lv) for lv in levels]
        self.pivot = _idx(pivot)
        self.pivot_dist = np.asarray(pivot_dist).astype(np.float64, copy=False)
        self.bunch_indptr = _idx(bunch_indptr)
        self.bunch_centers = _idx(bunch_centers)
        self.bunch_dists = np.asarray(bunch_dists).astype(np.float64, copy=False)
        self._init_query_state()
        return self

    def __getstate__(self) -> dict:
        # Memoryviews do not pickle; the walk rebuilds them when needed.
        return {**self.__dict__, "_views": None}

    @property
    def bunch(self) -> list[dict[int, float]]:
        """Dict-shaped compatibility view of the CSR bunch arrays.

        Materialized lazily; the query path never touches it.
        """
        if self._bunch_dicts is None:
            self._bunch_dicts = [
                dict(
                    zip(
                        self.bunch_centers[a:b].tolist(),
                        self.bunch_dists[a:b].tolist(),
                    )
                )
                for a, b in zip(self.bunch_indptr[:-1], self.bunch_indptr[1:])
            ]
        return self._bunch_dicts

    @property
    def size_words(self) -> int:
        """Total sketch size: bunch entries plus pivot tables."""
        return int(self.bunch_centers.size) + 2 * (self.k + 1) * self.g.n

    def expected_size_bound(self, constant: float = 8.0) -> float:
        """The ``O(k n^{1+1/k})`` guarantee with an explicit constant."""
        return constant * self.k * float(self.g.n) ** (1.0 + 1.0 / self.k)

    def query(self, u: int, v: int) -> float:
        """Approximate ``d(u, v)`` with stretch at most ``2k - 1``.

        The classic bidirectional pivot walk: at most ``k - 1`` swaps.
        """
        n = self.g.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("vertex out of range")
        return self._walk(int(u), int(v))

    def _walk(self, u: int, v: int) -> float:
        """The pivot walk of one in-range pair, on Python scalars: per
        round, one ``bisect`` of ``w`` in ``v``'s bunch centers (sorted
        per vertex).  Memoryview items are Python ints and floats, so no
        numpy scalar is made; gives the floats of
        :func:`query_reference`."""
        if u == v:
            return 0.0
        if self._views is None:
            # Views of the arrays as they are (int32 stays int32, a
            # memmap stays a memmap): nothing is copied.
            self._views = (
                [memoryview(row) for row in self.pivot],
                [memoryview(row) for row in self.pivot_dist],
                memoryview(self.bunch_indptr),
                memoryview(self.bunch_centers),
                memoryview(self.bunch_dists),
            )
        pivot, pivot_dist, indptr, centers, dists = self._views
        w, du_w = u, 0.0
        for i in range(self.k):
            if i:
                u, v = v, u
                w = pivot[i][u]
                du_w = pivot_dist[i][u]
                if w < 0 or not math.isfinite(du_w):
                    return math.inf
            hi = indptr[v + 1]
            pos = bisect_left(centers, w, indptr[v], hi)
            if pos < hi and centers[pos] == w:
                return du_w + dists[pos]
        return math.inf

    def query_many(self, pairs) -> np.ndarray:
        """Vectorized :meth:`query`: the pivot walk advances for *all* pairs
        simultaneously, with membership tests batched through one
        ``searchsorted`` against the global bunch-key array per round.

        Up to :data:`_SCALAR_WALK_MAX` pairs walk one at a time instead: a
        round of the vectorized walk costs a dozen array calls whatever
        the batch size, which a small batch never earns back.  Both walks
        give the same floats.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return np.zeros(0)
        n = self.g.n
        if pairs.min() < 0 or pairs.max() >= n:
            raise ValueError("vertex out of range")
        if pairs.shape[0] <= _SCALAR_WALK_MAX:
            return np.array([self._walk(a, b) for a, b in pairs.tolist()])
        u = pairs[:, 0].copy()
        v = pairs[:, 1].copy()
        out = np.full(u.shape, np.inf)
        active = u != v
        out[~active] = 0.0
        w = u.copy()
        du_w = np.zeros(u.shape)
        keys = self._bunch_keys
        for i in range(self.k):
            if not active.any():
                break
            if i > 0:
                u[active], v[active] = v[active], u[active]
                w[active] = self.pivot[i][u[active]]
                du_w[active] = self.pivot_dist[i][u[active]]
                dead = active & ((w < 0) | ~np.isfinite(du_w))
                active &= ~dead  # stays inf
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            qkey = v[idx] * np.int64(n) + w[idx]
            hit, pos = sorted_lookup(keys, qkey)
            done = idx[hit]
            out[done] = du_w[done] + self.bunch_dists[pos[hit]]
            active[done] = False
        return out


def sketch_on_spanner(
    g: WeightedGraph,
    spanner: SpannerResult | WeightedGraph,
    k: int,
    *,
    rng=None,
) -> tuple[DistanceSketch, dict]:
    """Preprocess a Thorup–Zwick sketch on a spanner of ``g`` ([DN19]).

    Returns the sketch (built on the spanner, so queries answer with
    stretch ``(2k-1) · spanner_stretch`` w.r.t. ``g``) and an accounting
    dict: edges touched by preprocessing on the spanner vs. on ``g`` — the
    resource the spanner trades accuracy for.
    """
    h = spanner.subgraph(g) if isinstance(spanner, SpannerResult) else spanner
    if h.n != g.n:
        raise ValueError("spanner must span g's vertex set")
    sk = DistanceSketch(h, k, rng=rng)
    accounting = {
        "edges_in_g": g.m,
        "edges_in_spanner": h.m,
        "preprocessing_edge_ratio": h.m / max(g.m, 1),
        "sketch_words": sk.size_words,
    }
    return sk, accounting
