"""The one cached-row implementation: LRU distance rows over a row solver.

The paper's APSP answer (Corollary 1.4) is "collect the spanner on one
machine, answer every query there with local Dijkstra".  Every row-based
answer path in the repo is that loop: keep per-source distance rows in a
bounded cache, and hand the sources that miss to a row solver.
:class:`CachedRows` is the single implementation of it.  The
:class:`~repro.distances.oracle.SpannerDistanceOracle` wraps one over the
spanner, and every :class:`~repro.service.provider.RowProvider` (the
``exact`` and ``oracle`` serving paths) wraps one over its graph, with the
serving engine's sharded solver substituted where it applies.  It owns the
row cache, the solver, and the ``rows_solved`` / ``solve_wall_s``
accounting, so whoever serves through it reports the same numbers.

:class:`LRURowCache` is the bounded store underneath: recency-ordered
eviction (a ``dict`` keeps insertion order, and a hit is delete+reinsert,
so every operation is O(1)) with hit/miss/eviction counters.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["LRURowCache", "CachedRows"]


class LRURowCache:
    """A bounded mapping with least-recently-*used* eviction.

    Parameters
    ----------
    capacity:
        Maximum number of entries held.  Must be >= 1; inserting beyond it
        evicts the least recently used entry (both :meth:`get` hits and
        :meth:`put` refreshes count as uses).  Distance rows are cached
        through :class:`CachedRows`, which holds one of these.
    """

    __slots__ = ("capacity", "_data", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        """Membership test — does *not* refresh recency (use :meth:`get`)."""
        return key in self._data

    def get(self, key, default=None):
        """Return the cached value (refreshing its recency) or ``default``."""
        try:
            value = self._data.pop(key)
        except KeyError:
            self.misses += 1
            return default
        self._data[key] = value  # reinsert at the most-recent end
        self.hits += 1
        return value

    def peek(self, key, default=None):
        """Return the cached value *without* touching recency or counters."""
        return self._data.get(key, default)

    def put(self, key, value) -> None:
        """Insert/refresh ``key``; evict the LRU entry past capacity."""
        self._data.pop(key, None)
        self._data[key] = value
        if len(self._data) > self.capacity:
            oldest = next(iter(self._data))
            del self._data[oldest]
            self.evictions += 1

    def keys(self):
        """Keys from least to most recently used."""
        return list(self._data)

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> dict:
        """Counters for serving-layer reporting (JSON-ready)."""
        total = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "entries": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }


#: Batches up to this many pairs skip the grouped gather in
#: :meth:`CachedRows.answer`.
_SMALL_BATCH = 32


class CachedRows:
    """Distance rows for sources ``0..n-1``: solved on a miss, kept in an LRU.

    Parameters
    ----------
    n:
        Number of vertices; sources and targets must lie in ``[0, n)``.
    solve_rows:
        ``solve_rows(sources) -> (len(sources), n)`` dense distance rows
        (e.g. ``partial(batched_sssp, graph)``).  Looked up on every solve,
        so it may be swapped after construction.
    capacity:
        Bound on cached rows (see :class:`LRURowCache`).
    """

    def __init__(self, n: int, solve_rows, capacity: int) -> None:
        self.n = int(n)
        self.solve_rows = solve_rows
        self.cache = LRURowCache(capacity)
        self.rows_solved = 0
        self.solve_wall_s = 0.0

    def _solve(self, sources: np.ndarray) -> np.ndarray:
        self.rows_solved += int(sources.size)
        start = time.perf_counter()
        try:
            return self.solve_rows(sources)
        finally:
            self.solve_wall_s += time.perf_counter() - start

    def row(self, source: int) -> np.ndarray:
        """The row of ``source``: a cache hit, or one solve that is cached."""
        if not 0 <= source < self.n:
            raise ValueError(f"source {source} out of range")
        row = self.cache.get(source)
        if row is None:
            row = self._solve(np.asarray([source], dtype=np.int64))[0].copy()
            self.cache.put(source, row)
        return row

    def distance(self, u: int, v: int) -> float:
        """One pair, answered from the row of ``u``."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return float(self.row(u)[v])

    def _rows(self, sources: list[int]) -> dict:
        """The rows of distinct ascending ``sources``, keyed by source.

        Rows already cached are gathered, the *missing* sources go to one
        ``solve_rows`` call, and every fresh row is cached.  Two invariants
        live here exactly once: the returned dict holds a reference to
        every row the call touches (LRU eviction triggered by the fresh
        rows must not drop one mid-call), and cached rows are *copies*,
        never views into the solver's dense batch buffer (a view would pin
        the whole block for as long as the row survives in the cache).
        """
        row_map = {}
        missing = []
        for s in sources:
            row = self.cache.get(s)
            if row is None:
                missing.append(s)
            else:
                row_map[s] = row
        if missing:
            rows = self._solve(np.asarray(missing, dtype=np.int64))
            for j, s in enumerate(missing):
                row = rows[j].copy()
                row_map[s] = row
                self.cache.put(s, row)
        return row_map

    def answer(self, pairs) -> np.ndarray:
        """Distances for an ``(r, 2)`` pair array, grouped by source.

        Every distinct source is looked up once, in ascending order (see
        :meth:`_rows`).  Up to :data:`_SMALL_BATCH` pairs are then read
        one by one; a larger batch gathers each source's targets at once,
        which costs more fixed array calls than a small batch saves.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return np.zeros(0)
        pairs = pairs.reshape(-1, 2)
        if pairs.min() < 0 or pairs.max() >= self.n:
            raise ValueError("vertex out of range")
        if pairs.shape[0] <= _SMALL_BATCH:
            us, vs = pairs[:, 0].tolist(), pairs[:, 1].tolist()
            row_map = self._rows(sorted(set(us)))
            return np.array([row_map[u][v] for u, v in zip(us, vs)], dtype=np.float64)
        sources, inv = np.unique(pairs[:, 0], return_inverse=True)
        row_map = self._rows(sources.tolist())
        out = np.empty(pairs.shape[0])
        order = np.argsort(inv, kind="stable")
        bounds = np.searchsorted(inv[order], np.arange(sources.size + 1))
        for j, s in enumerate(sources.tolist()):
            idx = order[bounds[j] : bounds[j + 1]]
            out[idx] = row_map[s][pairs[idx, 1]]
        return out
