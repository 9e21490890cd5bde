"""Weighted graph data structures backed by numpy arrays.

The whole reproduction works on simple undirected weighted graphs.  The
canonical in-memory representation is :class:`WeightedGraph`, which stores a
de-duplicated, canonically ordered edge list (``u < v`` per edge) together
with a lazily built CSR adjacency structure.  Edge ids index into the edge
list, which lets spanner algorithms return *edge id sets* that always refer
to edges of the original input graph even after several rounds of cluster
contraction.

Design notes
------------
* Vertices are ``0 .. n-1`` integers; there is no vertex-relabelling layer.
* Edges are stored column-wise (``u``, ``v``, ``w`` arrays) which keeps all
  per-edge operations vectorized — the guides for this domain emphasize
  avoiding per-element Python loops, so every bulk operation here is a numpy
  expression.
* Graphs are immutable after construction.  Algorithms build *new* graphs
  (e.g. quotient graphs) instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

__all__ = [
    "WeightedGraph",
    "canonical_edges",
    "dedupe_edges",
    "group_by",
    "group_starts",
    "lockstep_run_lookup",
    "sorted_lookup",
    "sorted_pair_lookup",
    "sorted_unique",
]


def lockstep_run_lookup(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """Is ``queries[i]`` present in the sorted run ``values[lo[i]:hi[i]]``?

    Lower-bound binary search advanced in lockstep for every query at once
    (``O(log max-run)`` numpy passes) — the shared kernel behind
    :func:`sorted_pair_lookup` and the streaming discard-record probes.
    """
    l = lo.copy()
    r = hi.copy()
    active = l < r
    while active.any():
        mid = (l + r) >> 1
        less = np.zeros(l.size, dtype=bool)
        less[active] = values[mid[active]] < queries[active]
        go = active & less
        l[go] = mid[go] + 1
        stay = active & ~less
        r[stay] = mid[stay]
        active = l < r
    found = np.zeros(queries.size, dtype=bool)
    cand = l < hi
    found[cand] = values[l[cand]] == queries[cand]
    return found


def sorted_lookup(haystack: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized membership of ``keys`` in the ascending ``haystack``.

    Returns ``(found, pos)`` where ``found`` flags keys present in the
    haystack and ``pos`` is the (clipped) searchsorted index — valid as the
    match position wherever ``found`` is true.  Shared by every sorted-key
    index in the repo (edge lookups, bunch membership, stream discard
    records) so the clip-guard subtlety lives in one place.
    """
    keys = np.asarray(keys)
    if haystack.size == 0:
        return np.zeros(keys.shape, dtype=bool), np.zeros(keys.shape, dtype=np.int64)
    pos = np.searchsorted(haystack, keys)
    clipped = np.minimum(pos, haystack.size - 1)
    return (pos < haystack.size) & (haystack[clipped] == keys), clipped


def group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices at which the runs of equal values of an ascending array start."""
    first = np.empty(sorted_keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def group_by(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group records by one integer key: ``(order, starts)``.

    ``order`` is numpy's default (unstable, SIMD) ``argsort`` of ``keys`` and
    ``starts`` indexes into it where each group begins, so group ``i`` is
    ``order[starts[i]:starts[i + 1]]``.  The order *within* a group is
    unspecified: callers read only group membership and per-group minima
    (``np.minimum.reduceat(values[order], starts)``), which makes a stable
    sort unnecessary.  This is the build's one grouping kernel — growth
    arcs, quotient super-edges and bunch candidates all go through it.
    """
    order = np.argsort(keys)
    return order, group_starts(keys[order])


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The ascending distinct values of ``values`` (``np.unique``'s result).

    A sort plus a neighbour mask: bare ``np.unique`` on integers may take a
    hash-based path that is several times slower at build sizes.
    """
    s = np.sort(np.asarray(values).ravel())
    return s[group_starts(s)]


def sorted_pair_lookup(
    hay_a: np.ndarray, hay_b: np.ndarray, qa: np.ndarray, qb: np.ndarray
) -> np.ndarray:
    """Vectorized membership of ``(qa, qb)`` pairs in a lexsorted pair set.

    ``(hay_a, hay_b)`` is a set of integer pairs sorted by
    ``np.lexsort((hay_b, hay_a))`` order.  Unlike packing pairs into a
    single ``a * n + b`` integer key (whose range is O(n²) and whose ``n``
    must be threaded everywhere), this keys directly on the structured
    pair: one ``searchsorted`` on the first key locates each query's
    ``a``-run, then a vectorized binary search (lockstep over all queries,
    ``O(log |haystack|)`` numpy passes) finds ``b`` inside the run.
    """
    qa = np.asarray(qa).ravel()
    qb = np.asarray(qb).ravel()
    if hay_a.size == 0 or qa.size == 0:
        return np.zeros(qa.shape, dtype=bool)
    lo = np.searchsorted(hay_a, qa, side="left")
    hi = np.searchsorted(hay_a, qa, side="right")
    return lockstep_run_lookup(hay_b, lo, hi, qb)


def canonical_edges(
    u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return edge arrays with endpoints swapped so that ``u < v`` holds.

    Self loops are rejected with :class:`ValueError` — spanners of simple
    graphs never need them and silently dropping them would hide input bugs.

    Endpoint arrays that arrive as int32 (the store's downcast index mode
    for ``n < 2**31``) stay int32; everything else is normalized to int64.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if not (u.dtype == np.int32 and v.dtype == np.int32):
        u = u.astype(np.int64, copy=False)
        v = v.astype(np.int64, copy=False)
    w = np.asarray(w, dtype=np.float64)
    if u.shape != v.shape or u.shape != w.shape:
        raise ValueError(
            f"edge arrays must have equal shapes; got {u.shape}, {v.shape}, {w.shape}"
        )
    if np.any(u == v):
        raise ValueError("self loops are not allowed")
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return lo, hi, w


def dedupe_edges(
    u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonicalize and remove parallel edges, keeping the minimum weight.

    The result is sorted by ``(lo, hi)``, and each pair keeps the minimum
    of its copies' weights.  Tied copies are indistinguishable, so the
    grouping sort (:func:`group_by`) need not be stable for the result to
    be deterministic.  Endpoints are non-negative vertex ids, so
    ``lo * (hi.max() + 1) + hi`` is an order-preserving pair key.
    """
    lo, hi, w = canonical_edges(u, v, w)
    if lo.size == 0:
        return lo, hi, w
    key = lo.astype(np.int64, copy=False) * (np.int64(hi.max()) + 1) + hi
    order, starts = group_by(key)
    first = order[starts]
    # fmin, not minimum: a NaN copy loses to a number, as it sorted last.
    return lo[first], hi[first], np.fmin.reduceat(w[order], starts)


@dataclass(frozen=True)
class _CSR:
    """Compact adjacency: for vertex ``x``, neighbors live in
    ``indices[indptr[x]:indptr[x+1]]`` with matching ``weights`` and the id
    of the underlying undirected edge in ``edge_ids``."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    edge_ids: np.ndarray


class WeightedGraph:
    """An immutable simple undirected weighted graph.

    Parameters
    ----------
    n:
        Number of vertices (vertices are ``0..n-1``).
    u, v, w:
        Parallel arrays describing edges.  Parallel edges are collapsed to
        the minimum weight; self loops raise.
    validate:
        When true (default) endpoints are range-checked and weights checked
        for positivity/finiteness.  Spanner stretch arguments assume
        non-negative weights; we require strictly positive finite weights.

    Examples
    --------
    >>> g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
    >>> g.n, g.m
    (3, 2)
    >>> list(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("n", "_u", "_v", "_w", "_csr", "_scipy", "_edge_keys")

    def __init__(
        self,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        lo, hi, w = dedupe_edges(u, v, w)
        if validate and lo.size:
            if lo.min() < 0 or hi.max() >= n:
                raise ValueError("edge endpoint out of range")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("edge weights must be positive and finite")
        self.n = int(n)
        self._u = lo
        self._v = hi
        self._w = w
        self._csr: _CSR | None = None
        self._scipy: sparse.csr_matrix | None = None
        self._edge_keys: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int, float]]
    ) -> "WeightedGraph":
        """Build from an iterable of ``(u, v, weight)`` triples."""
        edges = list(edges)
        if not edges:
            z = np.zeros(0, dtype=np.int64)
            return cls(n, z, z, np.zeros(0))
        arr = np.asarray(edges, dtype=np.float64)
        return cls(
            n,
            arr[:, 0].astype(np.int64, copy=False),
            arr[:, 1].astype(np.int64, copy=False),
            arr[:, 2],
        )

    @classmethod
    def from_unweighted_edges(
        cls, n: int, edges: Iterable[tuple[int, int]]
    ) -> "WeightedGraph":
        """Build an unweighted graph (all weights 1.0)."""
        edges = list(edges)
        if not edges:
            z = np.zeros(0, dtype=np.int64)
            return cls(n, z, z, np.zeros(0))
        arr = np.asarray(edges, dtype=np.int64)
        return cls(n, arr[:, 0], arr[:, 1], np.ones(arr.shape[0]))

    @classmethod
    def from_canonical(
        cls,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        *,
        scipy_csr: "sparse.csr_matrix | None" = None,
    ) -> "WeightedGraph":
        """Adopt already-canonical edge arrays without copying them.

        ``u``, ``v``, ``w`` must be exactly what :attr:`edges_u` /
        :attr:`edges_v` / :attr:`edges_w` of some graph held: deduplicated,
        ``u < v`` per edge, lexsorted by ``(u, v)``.  That is what the
        artifact store persists and what shared-memory attach hands back,
        so the zero-copy load paths use this instead of re-running
        :func:`dedupe_edges` (which would sort and copy every array).
        The arrays may be read-only views (``np.memmap``, shared-memory
        buffers); the graph never writes to them.

        ``scipy_csr`` optionally preloads the :meth:`to_scipy` cache with an
        externally shared matrix, so workers never rebuild it privately.
        """
        self = cls.__new__(cls)
        self.n = int(n)
        self._u = np.asarray(u)
        self._v = np.asarray(v)
        self._w = np.asarray(w)
        self._csr = None
        self._scipy = scipy_csr
        self._edge_keys = None
        return self

    @classmethod
    def from_networkx(cls, g) -> "WeightedGraph":
        """Convert a ``networkx`` graph (nodes must be 0..n-1 ints)."""
        n = g.number_of_nodes()
        us, vs, ws = [], [], []
        for a, b, data in g.edges(data=True):
            us.append(a)
            vs.append(b)
            ws.append(float(data.get("weight", 1.0)))
        return cls(
            n,
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
            np.asarray(ws, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of (undirected, de-duplicated) edges."""
        return int(self._u.size)

    @property
    def edges_u(self) -> np.ndarray:
        """Lower endpoints, shape ``(m,)``; read-only view."""
        return self._u

    @property
    def edges_v(self) -> np.ndarray:
        """Upper endpoints, shape ``(m,)``."""
        return self._v

    @property
    def edges_w(self) -> np.ndarray:
        """Edge weights, shape ``(m,)``."""
        return self._w

    @property
    def is_unweighted(self) -> bool:
        """True if every weight equals 1."""
        return bool(np.all(self._w == 1.0))

    def total_weight(self) -> float:
        """Sum of edge weights."""
        return float(self._w.sum())

    def edge_tuples(self) -> Iterator[tuple[int, int, float]]:
        """Iterate ``(u, v, w)`` triples (u < v)."""
        for a, b, c in zip(self._u, self._v, self._w):
            yield int(a), int(b), float(c)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        kind = "unweighted" if self.is_unweighted else "weighted"
        return f"WeightedGraph(n={self.n}, m={self.m}, {kind})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._u, other._u)
            and np.array_equal(self._v, other._v)
            and np.array_equal(self._w, other._w)
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((self.n, self.m, self._w.sum()))

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def _arc_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge's two arcs in ``(tail, head)`` order:
        ``(edge_ids, heads, indptr)``.

        The arcs are sorted by the packed key ``tail * n + head``.  A simple
        graph has distinct keys, so numpy's default argsort yields the
        permutation a 2-key ``lexsort`` would.  ``edge_ids`` and ``heads``
        give each sorted arc's edge and head, and ``indptr`` the tail
        offsets.  :attr:`csr` and :meth:`to_scipy` both come from here, so
        they share one layout.

        int32 graphs keep int32 heads and indptr (2m + 1 always fits
        there: int32 endpoints imply n < 2**31, and the arc count is bounded
        by the edge arrays we could address to begin with).
        """
        m = self.m
        tails = np.concatenate([self._u, self._v])
        heads = np.concatenate([self._v, self._u])
        keys = tails.astype(np.int64, copy=False) * np.int64(self.n) + heads
        order = np.argsort(keys)
        idx_dtype = (
            np.int32
            if self._u.dtype == np.int32 and 2 * m < np.iinfo(np.int32).max
            else np.int64
        )
        indptr = np.zeros(self.n + 1, dtype=idx_dtype)
        np.cumsum(np.bincount(tails, minlength=self.n), out=indptr[1:])
        # Arc j < m reads edge j forwards, arc j >= m edge j - m backwards.
        return np.where(order < m, order, order - m), heads[order], indptr

    def _build_csr(self) -> _CSR:
        """The CSR adjacency in :meth:`_arc_order`'s layout, which
        :meth:`to_scipy` shares."""
        eid, heads, indptr = self._arc_order()
        return _CSR(indptr=indptr, indices=heads, weights=self._w[eid], edge_ids=eid)

    @property
    def csr(self) -> _CSR:
        """CSR adjacency (built lazily, cached)."""
        if self._csr is None:
            self._csr = self._build_csr()
        return self._csr

    def degree(self, x: int | None = None):
        """Degree of vertex ``x``, or the full degree array if ``x is None``."""
        c = self.csr
        degs = np.diff(c.indptr)
        if x is None:
            return degs
        return int(degs[x])

    def neighbors(self, x: int) -> np.ndarray:
        """Neighbor array of vertex ``x``."""
        c = self.csr
        return c.indices[c.indptr[x] : c.indptr[x + 1]]

    def incident_weights(self, x: int) -> np.ndarray:
        """Weights parallel to :meth:`neighbors`."""
        c = self.csr
        return c.weights[c.indptr[x] : c.indptr[x + 1]]

    def incident_edge_ids(self, x: int) -> np.ndarray:
        """Edge ids parallel to :meth:`neighbors`."""
        c = self.csr
        return c.edge_ids[c.indptr[x] : c.indptr[x + 1]]

    # ------------------------------------------------------------------
    # Conversions / derived graphs
    # ------------------------------------------------------------------
    def to_scipy(self) -> sparse.csr_matrix:
        """Symmetric scipy CSR matrix of weights (for shortest paths).

        Every edge is stored as both arcs, ``(u, v)`` and ``(v, u)``, with
        the same weight.  The shortest-path kernel
        (:func:`repro.graphs.distances.symmetric_dijkstra`) depends on that
        invariant: it runs a *directed* Dijkstra over this matrix, which
        equals the undirected solve only because the matrix is symmetric.
        Anything that preloads this cache (shared-memory attach) must hand
        over the matrix this method built.

        Built lazily and cached: graphs are immutable, and every shortest-path
        entry point (``sssp``/``apsp``/``pairwise_distances``/stretch checks)
        hits this, so repeated calls must not rebuild the matrix.  Callers
        must treat the returned matrix as read-only.

        The matrix has :meth:`_arc_order`'s layout, the same as :attr:`csr`.
        When :attr:`csr` is already cached its arrays are wrapped (scipy
        downcasts the indices to int32); otherwise the triplet comes
        straight from the arc order and no :class:`_CSR` is built, so a
        serving process that only runs Dijkstras never holds the int64
        edge ids the bunch builder needs.
        """
        if self._scipy is None:
            if self._csr is not None:
                c = self._csr
                indptr, indices, data = c.indptr, c.indices, c.weights
            else:
                eid, indices, indptr = self._arc_order()
                data = self._w[eid]
            self._scipy = sparse.csr_matrix(
                (data, indices, indptr), shape=(self.n, self.n)
            )
        return self._scipy

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` with ``weight`` attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_weighted_edges_from(
            zip(self._u.tolist(), self._v.tolist(), self._w.tolist())
        )
        return g

    def subgraph_from_edge_ids(self, edge_ids: Sequence[int] | np.ndarray) -> "WeightedGraph":
        """The spanning subgraph induced by a set of edge ids.

        The vertex set is unchanged (all ``n`` vertices), which is exactly
        what a spanner is: a spanning subgraph.
        """
        ids = sorted_unique(np.asarray(edge_ids).astype(np.int64, copy=False))
        if ids.size and (ids[0] < 0 or ids[-1] >= self.m):
            raise ValueError("edge id out of range")
        return WeightedGraph(
            self.n, self._u[ids], self._v[ids], self._w[ids], validate=False
        )

    def _sorted_edge_keys(self) -> np.ndarray:
        """Edges encoded as sorted int64 keys ``u * n + v``.

        ``dedupe_edges`` leaves the edge list sorted by ``(u, v)``, so the key
        array is ascending and the position of a key *is* the edge id — which
        makes every ``(u, v) -> id`` lookup a vectorized ``searchsorted``.
        """
        if self._edge_keys is None:
            # Force int64: u * n overflows int32 whenever n**2 >= 2**31,
            # which int32-indexed graphs (n < 2**31) routinely hit.
            self._edge_keys = (
                self._u.astype(np.int64, copy=False) * np.int64(self.n) + self._v
            )
        return self._edge_keys

    def edge_ids_for(self, us, vs, *, missing: int = -1) -> np.ndarray:
        """Vectorized ``(u, v) -> edge id`` lookup; ``missing`` for absent edges.

        Endpoint order does not matter (pairs are canonicalized internally).
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        keys = lo * np.int64(self.n) + hi
        found, pos = sorted_lookup(self._sorted_edge_keys(), keys)
        return np.where(found, pos, np.int64(missing))

    def has_edge_subset(self, other: "WeightedGraph") -> bool:
        """True if ``other``'s edge set (with weights) is a subset of ours."""
        if other.n != self.n:
            return False
        if other.m == 0:
            return True
        ids = self.edge_ids_for(other._u, other._v)
        if np.any(ids < 0):
            return False
        return bool(np.array_equal(self._w[ids], other._w))

    def edge_index_map(self) -> dict[tuple[int, int], int]:
        """Map ``(u, v)`` (u < v) to edge id.

        For bulk lookups prefer the vectorized :meth:`edge_ids_for`; this
        dict view exists for hand-written tests and small-scale inspection.
        """
        return {
            (int(a), int(b)): i
            for i, (a, b) in enumerate(zip(self._u.tolist(), self._v.tolist()))
        }

    def reweighted(self, weights: np.ndarray) -> "WeightedGraph":
        """Same topology with new weights."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != self._w.shape:
            raise ValueError("weight array shape mismatch")
        return WeightedGraph(self.n, self._u, self._v, w)
