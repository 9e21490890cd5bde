"""The serving-side query engine: one provider, sharded row solves.

:class:`QueryEngine` serves whatever :func:`~repro.service.provider.build_providers`
makes of a loaded artifact — a bare graph or an oracle (``rows``), a
sketch (``sketch``), or a bundle (a :class:`PlannedProvider` over
``exact``/``oracle``/``sketch``/``tiered``).  Row caching and batched
planning live in the providers' :class:`~repro.core.cache.CachedRows`; the
engine adds only what a serving replica needs on top:

* **Sharding** — the served spanner's rows are solved by
  :meth:`QueryEngine._solve_rows`.  With ``shards >= 2``, the distinct
  missing sources of a batch are partitioned across a persistent
  ``ProcessPoolExecutor``.  All workers *and* the parent read **one**
  physical copy of the spanner: the edge arrays and the scipy CSR live in
  a :class:`~repro.service.shm.SharedGraphBuffers` shared-memory segment,
  workers attach by name in the pool initializer and rebuild a zero-copy
  graph over the views.  Worker memory is therefore O(graph + ε) total,
  not O(shards × graph).  Rows come back to the provider's cache, so
  sharded and serial engines answer bit-identically — Dijkstra runs are
  independent per source.  :meth:`close` (or interpreter exit, via an
  atexit hook) unlinks the segment.
* **Accounting** — the engine keeps no counters of its own.
  :meth:`stats` reads queries, batches and wall time from the provider
  it calls (which records a call only once it succeeds), and sums rows
  solved, solve time and cache counters over its row providers.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..core import membudget
from ..distances.oracle import SpannerDistanceOracle
from ..graphs.distances import batched_sssp
from ..graphs.graph import WeightedGraph
from .mem import process_memory
from .provider import PlannedProvider, PlanTarget, build_providers
from .shm import SharedGraphBuffers

__all__ = ["QueryEngine"]

# Worker-process state: a zero-copy graph over the attached shared-memory
# views — only the segment *name* crosses the process boundary.
_WORKER_GRAPH: WeightedGraph | None = None


def _init_worker(descriptor: dict) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = SharedGraphBuffers.attach(descriptor).graph()


def _worker_rows(sources: np.ndarray) -> np.ndarray:
    assert _WORKER_GRAPH is not None
    return batched_sssp(_WORKER_GRAPH, sources)


def _worker_memstats(settle_s: float) -> dict:
    """Memory snapshot of one worker; the sleep keeps probes from landing
    on the same (fast) worker twice."""
    time.sleep(settle_s)
    return process_memory()


class QueryEngine:
    """Serve distance queries from a built spanner, oracle, sketch, or bundle.

    Parameters
    ----------
    backend:
        A :class:`WeightedGraph` (the spanner queries run on), a built
        :class:`SpannerDistanceOracle` (its spanner is used), a
        :class:`DistanceSketch`, or a
        :class:`~repro.service.provider.ProviderBundle` (all backends,
        routed by the planner); see
        :func:`~repro.service.provider.build_providers`.
    cache_rows:
        LRU bound on cached per-source distance rows, per row provider.
    shards:
        ``0``/``1`` solves missing rows in-process; ``>= 2`` partitions
        them across that many worker processes.  Workers start lazily on
        the first sharded solve and persist until :meth:`close`.

    Examples
    --------
    >>> from repro.graphs import erdos_renyi
    >>> from repro.distances import SpannerDistanceOracle
    >>> g = erdos_renyi(128, 0.1, weights="uniform", rng=0)
    >>> engine = QueryEngine(SpannerDistanceOracle(g, k=3, t=2, rng=0))
    >>> engine.query(0, 7) >= 0.0
    True
    """

    def __init__(
        self,
        backend,
        *,
        cache_rows: int = SpannerDistanceOracle.DEFAULT_CACHE_ROWS,
        shards: int = 0,
        meta: dict | None = None,
        target: PlanTarget | None = None,
    ) -> None:
        if shards < 0:
            raise ValueError("shards must be >= 0")
        self.shards = int(shards)
        self.meta = dict(meta or {})
        self._pool: ProcessPoolExecutor | None = None
        self._shared: SharedGraphBuffers | None = None
        self.graph: WeightedGraph | None = None  # set by _row_solver
        providers = build_providers(
            backend, cache_rows=cache_rows, row_solver=self._row_solver
        )
        if len(providers) > 1:
            self.planner: PlannedProvider | None = PlannedProvider(providers, target)
            self.provider = self.planner
        elif target is not None:
            raise ValueError(
                "a plan target needs a ProviderBundle backend (persist the "
                "artifact with kind='bundle' to serve all backends)"
            )
        else:
            self.planner = None
            (self.provider,) = providers.values()
        if self.graph is None:  # a sketch solves no rows
            self.graph = self.provider.graph
        self._rows = [p.rows for p in providers.values() if hasattr(p, "rows")]
        self.n = self.provider.n

    # ------------------------------------------------------------------
    # Construction from persisted artifacts
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store,
        key: str,
        *,
        cache_rows: int = SpannerDistanceOracle.DEFAULT_CACHE_ROWS,
        shards: int = 0,
        mmap: bool = True,
        target: PlanTarget | None = None,
    ) -> "QueryEngine":
        """Load an artifact (``oracle``, ``sketch`` or ``bundle``) and serve it.

        ``store`` is an :class:`~repro.service.store.ArtifactStore` or a
        path to one.  ``mmap=True`` (default) serves straight off memmap
        views of the artifact files; see :meth:`ArtifactStore.load`.
        ``target`` (bundle artifacts only) configures the planner; see
        :class:`~repro.service.provider.PlanTarget`.
        """
        from .store import ArtifactStore

        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        info = store.info(key)
        backend = store.load(key, mmap=mmap)
        meta = {"artifact_key": key, "artifact_kind": info.kind, **info.meta}
        return cls(
            backend, cache_rows=cache_rows, shards=shards, meta=meta, target=target
        )

    # ------------------------------------------------------------------
    # Row solving (shards)
    # ------------------------------------------------------------------
    def _row_solver(self, graph: WeightedGraph):
        """Serve rows on ``graph`` through :meth:`_solve_rows`."""
        self.graph = graph
        return self._solve_rows

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self._shared is None:
                # Pack the graph (edge arrays + scipy CSR) into one shared
                # segment and re-point the serial path at the same views,
                # so parent + N workers together map one physical copy.
                self._shared = SharedGraphBuffers.create(self.graph)
                self.graph = self._shared.graph()
            self._pool = ProcessPoolExecutor(
                max_workers=self.shards,
                initializer=_init_worker,
                initargs=(self._shared.descriptor(),),
            )
        return self._pool

    def _solve_rows(self, missing: np.ndarray) -> np.ndarray:
        """Dense ``(len(missing), n)`` distance rows for the given sources."""
        if self.shards >= 2 and missing.size >= 2:
            pool = self._ensure_pool()
            chunks = [
                c for c in np.array_split(missing, min(self.shards, missing.size))
                if c.size
            ]
            futures = [pool.submit(_worker_rows, chunk) for chunk in chunks]
            # np.array_split preserves order, so concatenation restores
            # the original source order.
            return np.concatenate([f.result() for f in futures], axis=0)
        return batched_sssp(self.graph, missing)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def backends(self) -> tuple[str, ...]:
        """Names a per-query ``backend`` override may use (empty for
        single-backend engines)."""
        if self.planner is None:
            return ()
        return tuple(sorted(self.planner.providers))

    def _route(self, backend: str | None) -> dict:
        """Keyword arguments pinning a (validated) ``backend`` override."""
        if backend is None:
            return {}
        if self.planner is None:
            raise ValueError(
                "this engine serves a single fixed backend; load a 'bundle' "
                "artifact to route per-query backends"
            )
        if backend not in self.planner.providers:
            raise ValueError(
                f"unknown backend {backend!r} (have: {', '.join(self.backends())})"
            )
        return {"backend": backend}

    def query(self, u: int, v: int, *, backend: str | None = None) -> float:
        """Approximate distance between ``u`` and ``v``.

        ``backend`` overrides the planner's routing for this query
        (bundle-backed engines only).
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("vertex out of range")
        route = self._route(backend)
        return self.provider.query(u, v, **route)

    def query_many(self, pairs, *, backend: str | None = None) -> np.ndarray:
        """Batched :meth:`query` over an ``(r, 2)`` pair array.

        Row providers plan the batch: pairs are grouped by source, rows
        already cached are gathered immediately, and the distinct missing
        sources go to *one* row solve (sharded across the worker pool when
        configured), landing in the cache for later single queries.
        Bundle-backed engines route the whole batch through the planner;
        ``backend`` pins it to one fixed backend.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        route = self._route(backend)
        if pairs.size == 0:
            return np.zeros(0)
        pairs = pairs.reshape(-1, 2)
        if pairs.min() < 0 or pairs.max() >= self.n:
            raise ValueError("vertex out of range")
        return self.provider.query_many(pairs, **route)

    def needs_solve(self, sources, *, backend: str | None = None) -> bool:
        """Whether :meth:`query_many` over pairs from these ``sources``
        (their first column) may solve a Dijkstra row.

        The provider is resolved as :meth:`query_many` resolves it (the
        planner's routing when ``backend`` is ``None``).  A provider
        without rows (``sketch``, ``tiered``) never solves; a row provider
        solves unless every source's row is cached.  Touches neither the
        cache's recency nor any counter, so a server can ask before it
        decides where the batch runs.
        """
        route = self._route(backend)
        provider = self.provider if self.planner is None else self.planner.route(**route)
        rows = getattr(provider, "rows", None)
        return rows is not None and any(s not in rows.cache for s in sources)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving counters plus row-cache effectiveness (JSON-ready).

        ``queries_served``, ``batches`` (a single :meth:`query` is a batch
        of one) and ``wall_s`` are the counters of the provider the engine
        calls, so a solve that raises counts nothing.  ``rows_solved``,
        ``solve_wall_s`` and ``cache`` are summed over the engine's row
        providers (a sketch engine has none, so its cache reports capacity
        0).  Bundle-backed engines report ``backend="planned"`` plus a
        ``planner`` key with per-backend counters.  Counters only grow:
        diff two snapshots to measure an interval.
        """
        caches = [r.cache.stats() for r in self._rows]
        cache_stats = {
            key: sum(c[key] for c in caches)
            for key in ("capacity", "entries", "hits", "misses", "evictions")
        }
        total = cache_stats["hits"] + cache_stats["misses"]
        cache_stats["hit_rate"] = (
            round(cache_stats["hits"] / total, 4) if total else 0.0
        )
        return {
            "backend": self.provider.name,
            "n": self.n,
            "m": self.graph.m,
            "shards": self.shards,
            "queries_served": self.provider.queries_served,
            "batches": self.provider.batches,
            "wall_s": round(self.provider.wall_s, 6),
            "rows_solved": sum(r.rows_solved for r in self._rows),
            "solve_wall_s": round(sum(r.solve_wall_s for r in self._rows), 6),
            "cache": cache_stats,
            **({"planner": self.planner.stats()} if self.planner is not None else {}),
            "membudget": {
                "budget_bytes": membudget.resolve_budget(),
                "sites": membudget.accounting(),
            },
            **({"meta": self.meta} if self.meta else {}),
        }

    def worker_memstats(self, *, settle_s: float = 0.05) -> list[dict]:
        """Per-worker memory snapshots (one dict per distinct worker pid).

        Starts the pool if needed.  Oversubscribes short probe tasks so
        every worker is sampled despite executor scheduling; the scale
        benchmark uses this to enforce the O(graph + ε) worker-memory gate.
        """
        if self.shards < 2:
            return []
        pool = self._ensure_pool()
        futures = [
            pool.submit(_worker_memstats, settle_s) for _ in range(4 * self.shards)
        ]
        by_pid: dict[int, dict] = {}
        for f in futures:
            snap = f.result()
            by_pid[snap["pid"]] = snap
        return [by_pid[pid] for pid in sorted(by_pid)]

    def close(self) -> None:
        """Shut down the shard worker pool and unlink the shared-memory
        segment (idempotent; also runs via atexit if forgotten).

        Serial queries keep working afterwards: unlink removes the segment
        *name*, while this process's mapping — and therefore the engine's
        graph views — stays valid until the process exits.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._shared is not None:
            self._shared.destroy()
            self._shared = None

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
