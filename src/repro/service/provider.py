"""Unified distance answering: the :class:`DistanceProvider` contract and
the budget-aware planner over it.

The repo has three answer paths with wildly different cost/accuracy
profiles:

* **exact** — Dijkstra rows on the *input* graph: stretch 1, a full
  ``O(m log n)`` row solve per cold source.
* **oracle** — Dijkstra rows on a built spanner
  (:class:`~repro.distances.oracle.SpannerDistanceOracle`): stretch
  ``2 k^s`` (Theorem 5.11), row solves touch only the spanner's
  ``O(n^{1+1/k} (t + log k))`` edges.
* **sketch** — Thorup–Zwick pivot walks
  (:class:`~repro.distances.sketches.DistanceSketch`): stretch
  ``2k - 1``, ``O(k)`` per query, no rows at all.

Every path implements one small protocol — ``query`` / ``query_many`` /
``cost_model`` / ``stretch_bound`` — and :func:`build_providers` turns
every loaded artifact kind (a bare graph, an oracle, a sketch, or a
:class:`ProviderBundle` holding all three paths) into providers, so the
serving engine has one code path whatever it loaded.  The row paths are
:class:`RowProvider` over the repo's one cached-row implementation,
:class:`~repro.core.cache.CachedRows`.  :class:`PlannedProvider` routes each
batch of a bundle from a declarative :class:`PlanTarget`:

* ``backend="exact" | "oracle" | "sketch" | "tiered"`` — fixed routing;
* ``backend="auto"`` — pick the cheapest backend (by observed per-query
  latency EWMAs, the accounting each backend reports under
  ``QueryEngine.stats()["planner"]["backends"]``) whose declared stretch bound satisfies ``max_stretch``; with a
  ``p99_ms`` latency target the planner instead picks the *most accurate*
  backend whose observed p99 meets the target, falling back to the
  fastest when nothing does.
* ``backend="tiered"`` — answer from the sketch immediately and refine
  via oracle rows already hot in the LRU (a ``peek``, never a new row
  solve): both answers upper-bound the true distance, so the elementwise
  minimum is a strictly tighter answer at sketch cost.

Every provider reply is an **upper bound** on the true distance and at
most ``stretch_bound`` times it — the PR 3 conformance claims as a
runtime contract.  ``benchmarks/bench_provider.py`` records the achieved
accuracy/latency Pareto frontier and gates the ``auto`` planner against
the declared bound.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Protocol, runtime_checkable

import numpy as np

from ..core.cache import CachedRows
from ..core.params import stretch_bound as general_stretch_bound
from ..distances.oracle import SpannerDistanceOracle
from ..distances.sketches import DistanceSketch
from ..graphs.distances import batched_sssp
from ..graphs.graph import WeightedGraph

__all__ = [
    "DistanceProvider",
    "RowProvider",
    "SketchProvider",
    "TieredProvider",
    "PlanTarget",
    "PlannedProvider",
    "ProviderBundle",
    "build_providers",
    "BACKENDS",
]

#: The fixed backends every :class:`ProviderBundle` serves, cheapest
#: (per query) first — also the planner's probe order.
BACKENDS = ("sketch", "oracle", "exact")

#: Ring size for observed per-query latencies (p99 estimation).
_LATENCY_RING = 512


@runtime_checkable
class DistanceProvider(Protocol):
    """One way of answering approximate-distance queries.

    Implementations promise: answers are upper bounds on the true
    distance, at most :attr:`stretch_bound` times it for connected pairs
    (``inf`` exactly when disconnected), and ``query``/``query_many``
    are bit-identical on the same pairs.
    """

    name: str

    def query(self, u: int, v: int) -> float: ...

    def query_many(self, pairs) -> np.ndarray: ...

    def cost_model(self) -> dict: ...

    @property
    def stretch_bound(self) -> float: ...


class _TimedProvider:
    """Shared accounting: queries/batches served, wall time, and the
    observed per-query latency EWMA + ring the planner routes on.

    :meth:`query` / :meth:`query_many` time the subclass's ``_query`` /
    ``_query_many`` (the latter gets a non-empty ``(r, 2)`` int64 array);
    keyword arguments pass through (the planner's ``backend``).
    """

    name = "?"

    def __init__(self) -> None:
        self.queries_served = 0
        self.batches = 0
        self.wall_s = 0.0
        self.ewma_s: float | None = None  # per-query, alpha below
        self._ewma_alpha = 0.2
        self._lat_ring: deque[float] = deque(maxlen=_LATENCY_RING)

    def _record(self, npairs: int, wall: float) -> None:
        self.queries_served += npairs
        self.batches += 1
        self.wall_s += wall
        per_query = wall / max(npairs, 1)
        a = self._ewma_alpha
        self.ewma_s = (
            per_query if self.ewma_s is None else a * per_query + (1 - a) * self.ewma_s
        )
        self._lat_ring.append(per_query)

    def query(self, u: int, v: int, **route) -> float:
        start = time.perf_counter()
        out = self._query(u, v, **route)
        self._record(1, time.perf_counter() - start)
        return out

    def query_many(self, pairs, **route) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return np.zeros(0)
        pairs = pairs.reshape(-1, 2)
        start = time.perf_counter()
        out = self._query_many(pairs, **route)
        self._record(int(pairs.shape[0]), time.perf_counter() - start)
        return out

    def observed_p99_s(self) -> float | None:
        """p99 of recent per-query latencies (per-call means), or ``None``
        before the first routed call."""
        if not self._lat_ring:
            return None
        return float(np.percentile(np.asarray(self._lat_ring), 99.0))

    def stats(self) -> dict:
        """Serving counters + observed latency (JSON-ready)."""
        p99 = self.observed_p99_s()
        return {
            "queries_served": self.queries_served,
            "batches": self.batches,
            "wall_s": round(self.wall_s, 6),
            "stretch_bound": _json_stretch(self.stretch_bound),
            "ewma_us_per_query": (
                None if self.ewma_s is None else round(self.ewma_s * 1e6, 3)
            ),
            "observed_p99_us": None if p99 is None else round(p99 * 1e6, 3),
        }

    @property
    def stretch_bound(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError


def _json_stretch(value: float) -> float | None:
    return None if not math.isfinite(value) else round(float(value), 6)


class RowProvider(_TimedProvider):
    """Cached Dijkstra rows over a graph — the exact and oracle paths.

    ``name="exact"`` serves rows on the input graph (stretch 1);
    ``name="oracle"`` serves rows on a built spanner with the paper's
    ``2 k^s`` guarantee.  The rows, their LRU and their solve accounting
    are one :class:`~repro.core.cache.CachedRows`; this class adds the
    provider contract on top.  ``solve_rows`` lets a serving engine
    substitute its sharded solver for the default in-process one.
    """

    def __init__(
        self,
        name: str,
        graph: WeightedGraph,
        *,
        stretch: float,
        cache_rows: int = SpannerDistanceOracle.DEFAULT_CACHE_ROWS,
        solve_rows=None,
    ) -> None:
        super().__init__()
        self.name = name
        self.graph = graph
        self.n = graph.n
        self._stretch = float(stretch)
        self.rows = CachedRows(
            graph.n, solve_rows or partial(batched_sssp, graph), cache_rows
        )

    @property
    def stretch_bound(self) -> float:
        return self._stretch

    @property
    def cache(self):
        return self.rows.cache

    @property
    def rows_solved(self) -> int:
        return self.rows.rows_solved

    def cost_model(self) -> dict:
        return {
            "kind": "rows",
            "graph_m": self.graph.m,
            "row_cost": "dijkstra over graph_m edges per cold source",
            "query_cost": "O(1) on a cached row",
            "cache_rows": self.cache.capacity,
        }

    def peek_row(self, source: int):
        """The cached row for ``source`` or ``None`` — never solves, never
        touches recency (the tiered refinement hook)."""
        return self.cache.peek(source)

    def _query(self, u: int, v: int) -> float:
        return self.rows.distance(u, v)

    def _query_many(self, pairs: np.ndarray) -> np.ndarray:
        return self.rows.answer(pairs)

    def stats(self) -> dict:
        return {
            **super().stats(),
            "rows_solved": self.rows_solved,
            "cache": self.cache.stats(),
        }


class SketchProvider(_TimedProvider):
    """O(k) Thorup–Zwick pivot walks: stretch ``2k - 1``, no rows.

    ``stretch`` overrides the declared bound (a sketch preprocessed *on a
    spanner* answers with ``(2k-1) x spanner_stretch``, see
    :func:`~repro.distances.sketches.sketch_on_spanner`).
    """

    name = "sketch"

    def __init__(self, sketch: DistanceSketch, *, stretch: float | None = None) -> None:
        super().__init__()
        self.sketch = sketch
        self.graph = sketch.g
        self.n = sketch.g.n
        self._stretch = float(stretch) if stretch is not None else 2.0 * sketch.k - 1.0

    @property
    def stretch_bound(self) -> float:
        return self._stretch

    def cost_model(self) -> dict:
        return {
            "kind": "sketch",
            "sketch_words": self.sketch.size_words,
            "query_cost": f"O(k) pivot walk, k={self.sketch.k}",
            "row_cost": "none",
        }

    def _query(self, u: int, v: int) -> float:
        return self.sketch.query(u, v)

    def _query_many(self, pairs: np.ndarray) -> np.ndarray:
        return self.sketch.query_many(pairs)


class TieredProvider(_TimedProvider):
    """Sketch answer immediately, oracle refinement on cache hit.

    Every query is answered by the sketch walk; pairs whose source row is
    already *hot* in the refiner's LRU (a ``peek`` — refinement never
    triggers a row solve, so the cost stays at sketch level) are tightened
    to the elementwise minimum of the two answers.  Both paths
    overestimate the true distance, so the minimum is still a valid upper
    bound; the declared stretch stays the sketch's (the refinement only
    ever improves on it).
    """

    name = "tiered"

    def __init__(self, sketch: SketchProvider, refiner: RowProvider) -> None:
        super().__init__()
        self.sketch_provider = sketch
        self.refiner = refiner
        self.n = sketch.n
        self.refined = 0

    @property
    def stretch_bound(self) -> float:
        return self.sketch_provider.stretch_bound

    def cost_model(self) -> dict:
        return {
            "kind": "tiered",
            "query_cost": "sketch walk + row peek; refinement on LRU hit only",
            "refiner": self.refiner.name,
            "row_cost": "none (hot rows only)",
        }

    def _query(self, u: int, v: int) -> float:
        out = self.sketch_provider.sketch.query(u, v)
        row = self.refiner.peek_row(u)
        if row is not None:
            refined = float(row[v])
            if refined < out:
                out = refined
                self.refined += 1
        return out

    def _query_many(self, pairs: np.ndarray) -> np.ndarray:
        out = self.sketch_provider.sketch.query_many(pairs)
        for s in np.unique(pairs[:, 0]).tolist():
            row = self.refiner.peek_row(s)
            if row is None:
                continue
            idx = np.flatnonzero(pairs[:, 0] == s)
            refined = np.asarray(row)[pairs[idx, 1]]
            better = refined < out[idx]
            self.refined += int(better.sum())
            out[idx] = np.minimum(out[idx], refined)
        return out


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanTarget:
    """Declarative routing target for :class:`PlannedProvider`.

    ``backend``
        A fixed backend name, ``"tiered"``, or ``"auto"``.
    ``max_stretch``
        Only backends whose *declared* stretch bound is <= this are
        eligible under ``auto`` (``None`` = no accuracy constraint).
    ``p99_ms``
        Latency SLO per query: ``auto`` picks the most accurate eligible
        backend whose observed p99 meets it (``None`` = route for speed).
    """

    backend: str = "auto"
    max_stretch: float | None = None
    p99_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_stretch is not None and self.max_stretch < 1.0:
            raise ValueError(f"max_stretch must be >= 1, got {self.max_stretch}")
        if self.p99_ms is not None and self.p99_ms <= 0:
            raise ValueError(f"p99_ms must be > 0, got {self.p99_ms}")

    def describe(self) -> str:
        parts = [f"backend={self.backend}"]
        if self.max_stretch is not None:
            parts.append(f"stretch<={self.max_stretch:g}")
        if self.p99_ms is not None:
            parts.append(f"p99<{self.p99_ms:g}ms")
        return " ".join(parts)


class PlannedProvider(_TimedProvider):
    """Route each batch to one of several providers from a :class:`PlanTarget`.

    Routing state is the per-backend latency accounting the providers
    themselves keep (EWMA + p99 ring of per-query wall time); unsampled
    backends are probed cheapest-first so the EWMAs converge without a
    separate warmup phase.
    """

    name = "planned"

    def __init__(self, providers: dict, target: PlanTarget | None = None) -> None:
        super().__init__()
        if not providers:
            raise ValueError("PlannedProvider needs at least one provider")
        self.providers = dict(providers)
        self.target = target or PlanTarget()
        if self.target.backend != "auto" and self.target.backend not in self.providers:
            raise ValueError(
                f"unknown backend {self.target.backend!r} "
                f"(have: {', '.join(sorted(self.providers))})"
            )
        self.n = next(iter(self.providers.values())).n

    @property
    def stretch_bound(self) -> float:
        """The declared bound of the worst backend the target can route to."""
        return max(p.stretch_bound for p in self._eligible())

    def cost_model(self) -> dict:
        return {
            "kind": "planned",
            "target": self.target.describe(),
            "backends": {n: p.cost_model() for n, p in self.providers.items()},
        }

    # -- routing --------------------------------------------------------
    def _eligible(self) -> list:
        """Providers the target allows, most accurate first."""
        if self.target.backend != "auto":
            return [self.providers[self.target.backend]]
        pool = [
            p
            for name, p in self.providers.items()
            if name != "tiered"  # tiered is an explicit mode, not an auto stop
        ]
        if self.target.max_stretch is not None:
            ok = [p for p in pool if p.stretch_bound <= self.target.max_stretch + 1e-9]
            # Nothing declared tight enough: serve the most accurate we have
            # rather than silently violating the target.
            pool = ok or [min(pool, key=lambda p: p.stretch_bound)]
        return sorted(pool, key=lambda p: p.stretch_bound)

    def choose(self) -> str:
        """The backend the next batch routes to (also used by the server
        to label micro-batches)."""
        candidates = self._eligible()
        if len(candidates) == 1:
            return candidates[0].name
        # Probe unsampled backends cheapest-declared-cost-first so the
        # latency model converges.
        order = {name: i for i, name in enumerate(BACKENDS)}
        unsampled = [p for p in candidates if p.ewma_s is None]
        if unsampled:
            return min(unsampled, key=lambda p: order.get(p.name, 99)).name
        if self.target.p99_ms is not None:
            budget = self.target.p99_ms / 1e3
            for p in candidates:  # most accurate first
                p99 = p.observed_p99_s()
                if p99 is not None and p99 <= budget:
                    return p.name
            # SLO unreachable: degrade to the fastest answer we can give.
        return min(candidates, key=lambda p: p.ewma_s).name

    def route(self, backend: str | None = None):
        """The provider a call goes to: ``backend`` when pinned, else the
        target's pick (:meth:`choose`).  Reads routing state only."""
        name = backend or self.choose()
        if name not in self.providers:
            raise ValueError(
                f"unknown backend {name!r} (have: {', '.join(sorted(self.providers))})"
            )
        return self.providers[name]

    def _query(self, u: int, v: int, *, backend: str | None = None) -> float:
        return self.route(backend).query(u, v)

    def _query_many(
        self, pairs: np.ndarray, *, backend: str | None = None
    ) -> np.ndarray:
        return self.route(backend).query_many(pairs)

    def stats(self) -> dict:
        """``routed`` is each backend's own ``queries_served``: only the
        planner calls its backends, so that is what it routed there."""
        return {
            **super().stats(),
            "target": self.target.describe(),
            "routed": {n: p.queries_served for n, p in self.providers.items()},
            "backends": {n: p.stats() for n, p in self.providers.items()},
        }


# ----------------------------------------------------------------------
# Bundles: one artifact, all three backends
# ----------------------------------------------------------------------
@dataclass
class ProviderBundle:
    """Everything one serving replica needs for all three answer paths:
    the input graph (exact rows), the built spanner + its parameters
    (oracle rows), and the full Thorup–Zwick state (sketch walks).
    Persisted side by side under one key by
    :meth:`~repro.service.store.ArtifactStore.save_bundle`.
    """

    graph: WeightedGraph
    spanner: WeightedGraph
    k: int
    t: int | None
    t_effective: int
    sketch: DistanceSketch
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def oracle_stretch(self) -> float:
        return general_stretch_bound(self.k, self.t_effective)


def build_providers(
    backend,
    *,
    cache_rows: int = SpannerDistanceOracle.DEFAULT_CACHE_ROWS,
    row_solver=None,
) -> dict:
    """The providers a loaded artifact serves, keyed by backend name.

    * :class:`ProviderBundle` — ``exact``, ``oracle``, ``sketch`` and
      ``tiered`` (the planner's backends);
    * :class:`SpannerDistanceOracle` — ``rows`` on its spanner, with the
      oracle's guaranteed stretch;
    * :class:`WeightedGraph` — ``rows`` on the graph itself (exact on it);
    * :class:`DistanceSketch` — ``sketch``.

    ``row_solver(graph)`` returns the row solver for the served spanner
    (the bundle's ``oracle`` path, or the single ``rows`` path); a serving
    engine passes its sharded one here.  The bundle's ``exact`` path
    always solves in-process: its rows are on the full input graph, which
    the engine's shared spanner segment does not hold.
    """

    def spanner_rows(name: str, graph: WeightedGraph, stretch: float) -> RowProvider:
        return RowProvider(
            name,
            graph,
            stretch=stretch,
            cache_rows=cache_rows,
            solve_rows=row_solver(graph) if row_solver is not None else None,
        )

    if isinstance(backend, ProviderBundle):
        exact = RowProvider("exact", backend.graph, stretch=1.0, cache_rows=cache_rows)
        oracle = spanner_rows("oracle", backend.spanner, backend.oracle_stretch)
        sketch = SketchProvider(backend.sketch)
        return {
            "exact": exact,
            "oracle": oracle,
            "sketch": sketch,
            "tiered": TieredProvider(sketch, oracle),
        }
    if isinstance(backend, SpannerDistanceOracle):
        return {"rows": spanner_rows("rows", backend.spanner, backend.guaranteed_stretch)}
    if isinstance(backend, WeightedGraph):
        return {"rows": spanner_rows("rows", backend, 1.0)}
    if isinstance(backend, DistanceSketch):
        return {"sketch": SketchProvider(backend)}
    raise TypeError(
        f"backend must be a WeightedGraph, SpannerDistanceOracle, "
        f"DistanceSketch or ProviderBundle, got {type(backend).__name__}"
    )
