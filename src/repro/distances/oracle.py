"""Spanner-based approximate distance oracles (Section 7).

The paper's APSP scheme is: build a near-linear-size spanner (``k = log n``,
``t = log log n`` ⇒ size ``O(n log log n)``, stretch ``log^{1+o(1)} n``),
ship it to one machine, and answer every distance query locally on the
spanner.  :class:`SpannerDistanceOracle` is that "one machine": it holds the
spanner and answers queries with Dijkstra runs on it, cached per source in
the repo's one cached-row implementation (:class:`~repro.core.cache.CachedRows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..core import membudget
from ..core.cache import CachedRows
from ..core.general_tradeoff import general_tradeoff
from ..core.params import apsp_parameters, coerce_rng, stretch_bound
from ..core.results import SpannerResult
from ..graphs.distances import apsp, batched_sssp, pairwise_distances
from ..graphs.graph import WeightedGraph

__all__ = ["SpannerDistanceOracle", "ApproximationReport", "measure_approximation"]


@dataclass(frozen=True)
class ApproximationReport:
    """Observed quality of the oracle against exact distances."""

    max_ratio: float
    mean_ratio: float
    num_pairs: int
    stretch_bound: float

    @property
    def within_bound(self) -> bool:
        return self.max_ratio <= self.stretch_bound + 1e-9


class SpannerDistanceOracle:
    """All-pairs approximate distances via a collected spanner.

    Parameters
    ----------
    g:
        The input weighted graph.
    k, t:
        Spanner parameters; default to the paper's APSP setting
        ``k = log2 n``, ``t = log2 log2 n`` (Section 7).
    rng:
        Seed or generator for the spanner construction.
    cache_rows:
        Bound on the per-source distance-row cache.  Rows are evicted
        least-recently-used (see :class:`~repro.core.cache.LRURowCache`),
        so hot sources survive arbitrarily many distinct cold sources —
        the seed's wholesale ``clear()`` eviction is gone.

    Examples
    --------
    >>> from repro.graphs import erdos_renyi
    >>> g = erdos_renyi(256, 0.1, weights="uniform", rng=0)
    >>> oracle = SpannerDistanceOracle(g, rng=0)
    >>> d = oracle.query(0, 5)          # approximate distance
    >>> oracle.spanner.m <= g.m
    True
    """

    #: Default bound on cached per-source distance rows.
    DEFAULT_CACHE_ROWS = 4096

    def __init__(
        self,
        g: WeightedGraph,
        k: int | None = None,
        t: int | None = None,
        *,
        rng=None,
        cache_rows: int = DEFAULT_CACHE_ROWS,
    ) -> None:
        if k is None or t is None:
            dk, dt = apsp_parameters(g.n)
            k = k if k is not None else dk
            t = t if t is not None else dt
        self.g = g
        self.k = k
        self.t = t
        self.result: SpannerResult | None = general_tradeoff(g, k, t, rng=rng)
        self.t_effective: int = self.result.extra.get("t_effective", t)
        self.spanner: WeightedGraph = self.result.subgraph(g)
        self.rows = CachedRows(g.n, partial(batched_sssp, self.spanner), cache_rows)

    @classmethod
    def from_spanner(
        cls,
        spanner: WeightedGraph,
        k: int,
        t: int | None,
        *,
        t_effective: int | None = None,
        g: WeightedGraph | None = None,
        cache_rows: int = DEFAULT_CACHE_ROWS,
    ) -> "SpannerDistanceOracle":
        """Rebuild an oracle around an *already constructed* spanner.

        This is the persistence path: the expensive ``general_tradeoff``
        construction ran once (possibly in another process, see
        :mod:`repro.service.store`), and the saved spanner graph is all a
        serving replica needs — queries are answered on the spanner, so a
        reloaded oracle is bit-identical to the freshly built one.  The
        ``result`` instrumentation is ``None`` on reloaded oracles.
        """
        self = cls.__new__(cls)
        self.g = g if g is not None else spanner
        self.k = k
        self.t = t
        self.result = None
        self.t_effective = t_effective if t_effective is not None else t
        self.spanner = spanner
        self.rows = CachedRows(spanner.n, partial(batched_sssp, spanner), cache_rows)
        return self

    @property
    def guaranteed_stretch(self) -> float:
        """The paper's stretch bound ``2 k^s`` for this (k, t)."""
        return stretch_bound(self.k, self.t_effective)

    @property
    def cache_stats(self) -> dict:
        """Row-cache effectiveness counters (hits/misses/evictions)."""
        return self.rows.cache.stats()

    def distances_from(self, source: int) -> np.ndarray:
        """Approximate distances from ``source`` to all vertices."""
        return self.rows.row(source)

    def query(self, u: int, v: int) -> float:
        """Approximate distance between ``u`` and ``v``."""
        return self.rows.distance(u, v)

    def query_many(self, pairs) -> np.ndarray:
        """Vectorized :meth:`query` over an ``(r, 2)`` pair array.

        Sources missing from the row cache are solved with *one* batched
        Dijkstra on the spanner; the rows land in the cache for later
        single queries.
        """
        return self.rows.answer(pairs)

    def all_pairs(self, *, allow_dense: bool = False) -> np.ndarray:
        """Full approximate APSP matrix (``O(n^2)`` memory).

        The dense matrix is fine at benchmark scale but a multi-terabyte
        allocation at n≥10⁶, so when its footprint exceeds the resolved
        memory budget (:mod:`repro.core.membudget`) this raises unless the
        caller opts in with ``allow_dense=True``.  Bounded-memory
        alternatives: :meth:`query_many` for selected pairs,
        :meth:`distances_from` for whole rows.
        """
        need = 8 * self.g.n * self.g.n
        if not allow_dense and need > membudget.resolve_budget():
            raise MemoryError(
                f"all_pairs would materialize a ({self.g.n}, {self.g.n}) "
                f"float64 matrix ({need / 2**30:.1f} GiB), above the "
                f"{membudget.resolve_budget() / 2**30:.1f} GiB memory budget. "
                "Pass allow_dense=True to force it, raise "
                f"{membudget.ENV_VAR}, or use query_many/distances_from "
                "for bounded-memory answers."
            )
        membudget.note("distances.oracle.all_pairs", need)
        return apsp(self.spanner)


def measure_approximation(
    oracle: SpannerDistanceOracle,
    *,
    num_pairs: int = 512,
    rng=None,
) -> ApproximationReport:
    """Compare oracle answers with exact distances on random connected pairs."""
    rng = coerce_rng(rng)
    n = oracle.g.n
    if n < 2:
        return ApproximationReport(1.0, 1.0, 0, oracle.guaranteed_stretch)
    us = rng.integers(0, n, size=num_pairs)
    vs = rng.integers(0, n, size=num_pairs)
    keep = us != vs
    pairs = np.stack([us[keep], vs[keep]], axis=1)
    exact = pairwise_distances(oracle.g, pairs)
    approx = oracle.query_many(pairs)
    mask = np.isfinite(exact) & (exact > 0)
    if not mask.any():
        return ApproximationReport(1.0, 1.0, 0, oracle.guaranteed_stretch)
    ratios = approx[mask] / exact[mask]
    return ApproximationReport(
        max_ratio=max(float(ratios.max()), 1.0),
        mean_ratio=max(float(ratios.mean()), 1.0),
        num_pairs=int(mask.sum()),
        stretch_bound=oracle.guaranteed_stretch,
    )
