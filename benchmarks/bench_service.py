"""Benchmark the sketch-serving query subsystem: throughput + cache policy.

Protocol (see EXPERIMENTS.md):

1. Build one spanner oracle (``general``, the paper's workhorse) on the
   reference graph and persist it to a temporary
   :class:`~repro.service.store.ArtifactStore`.
2. **Thrash workload** — a zipf-ranked hot-source stream of single
   queries (the serving pattern the seed bug punished) is answered twice
   on the *loaded* spanner with the same cache capacity: once by
   :class:`_ClearEvictServer` (the seed's wholesale ``clear()`` eviction,
   reproduced verbatim) and once by the LRU-backed
   :class:`~repro.service.engine.QueryEngine`.  The acceptance gate
   defends a >= 5x wall-clock speedup at full scale.
3. **Batched workload** — the same pair volume dispatched through
   ``query_many`` (grouped-by-source planning), plus a uniform-source
   mix, recording queries/second.
4. **Equivalence + persistence** — sharded (2 workers) vs serial engines
   must agree bit-identically, and oracle/sketch artifacts reloaded from
   disk must answer ``query_many`` bit-identically to the freshly built
   objects.

Run it with ``python scripts/bench_snapshot.py --suite service [--smoke]``.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np
from scipy.sparse import csgraph

from repro.core.params import coerce_rng
from repro.distances import DistanceSketch, SpannerDistanceOracle
from repro.graphs.specs import GraphSpec
from repro.service import ArtifactStore, QueryEngine

__all__ = [
    "run",
    "format_table",
    "gates",
    "headline",
    "thrash_gate",
    "identity_gate",
    "zipf_sources",
    "THRASH_GATE",
]

#: Minimum LRU-vs-clear() wall-clock speedup the full-scale zipf workload
#: must defend (the ISSUE 5 acceptance floor).
THRASH_GATE = 5.0

#: The zipf workload: sources are zipf(``zipf_a``)-ranked over a window of
#: ``hot_ranks`` hot vertices (a fixed random permutation), blended with a
#: ``uniform_mix`` fraction of uniform cold sources — the classic serving
#: mix of a bounded hot set under sustained distinct-source pressure.  The
#: cache bound sits just above the hot window (the realistic provisioning:
#: big enough for the hot set, not for everything), which is exactly the
#: regime where the seed's clear() eviction thrashed.
FULL_CONFIG = {
    "graph": "er:1024:0.02",
    "k": 6,
    "t": 2,
    "seed": 0,
    "cache_rows": 128,
    "zipf_a": 1.05,
    "hot_ranks": 120,
    "uniform_mix": 0.01,
    "zipf_queries": 50_000,
    "uniform_queries": 10_000,
    "batch": 256,
    "sketch_k": 3,
}
SMOKE_CONFIG = {
    "graph": "er:256:0.08",
    "k": 4,
    "t": 2,
    "seed": 0,
    "cache_rows": 32,
    "zipf_a": 1.05,
    "hot_ranks": 28,
    "uniform_mix": 0.01,
    "zipf_queries": 2_000,
    "uniform_queries": 500,
    "batch": 128,
    "sketch_k": 3,
}


class _ClearEvictServer:
    """The seed oracle's cache policy, frozen for the before/after run.

    Single-pair serving against a dict row cache that is evicted by
    wholesale ``clear()`` on reaching capacity — the policy
    ``SpannerDistanceOracle`` shipped with before the shared LRU fix
    (src/repro/distances/oracle.py at PR 4).  Row solving is the same
    scipy Dijkstra call the engine makes, so the measured difference is
    the cache policy, nothing else.
    """

    def __init__(self, spanner, capacity: int) -> None:
        self._matrix = spanner.to_scipy() if spanner.m else None
        self._n = spanner.n
        self.capacity = capacity
        self._cache: dict[int, np.ndarray] = {}
        self.rows_solved = 0

    def query(self, u: int, v: int) -> float:
        if u not in self._cache:
            self.rows_solved += 1
            if self._matrix is None:
                d = np.full(self._n, np.inf)
                d[u] = 0.0
            else:
                d = csgraph.dijkstra(self._matrix, directed=False, indices=u)
            if len(self._cache) >= self.capacity:
                self._cache.clear()
            self._cache[u] = d
        return float(self._cache[u][v])


def zipf_sources(
    n: int, size: int, a: float, rng, *, hot_ranks: int | None = None,
    uniform_mix: float = 0.0,
) -> np.ndarray:
    """Zipf(``a``)-ranked sources over a hot window of a vertex permutation.

    Ranks are folded onto the first ``hot_ranks`` entries of a fixed
    permutation of ``0..n-1`` (``None`` = all of them); a ``uniform_mix``
    fraction of the draws is replaced by uniform sources over the whole
    vertex set — the cold distinct-source pressure that forces evictions.
    """
    rng = coerce_rng(rng)
    hot = n if hot_ranks is None else min(hot_ranks, n)
    perm = rng.permutation(n)
    src = perm[(rng.zipf(a, size=size) - 1) % hot]
    if uniform_mix > 0.0:
        cold = rng.random(size) < uniform_mix
        src = np.where(cold, rng.integers(0, n, size=size), src)
    return src


def _single_query_wall(server, pairs: np.ndarray) -> float:
    start = time.perf_counter()
    for u, v in pairs:
        server.query(int(u), int(v))
    return time.perf_counter() - start


def run(*, smoke: bool = False) -> dict:
    """Execute the protocol; returns the JSON-ready record."""
    cfg = SMOKE_CONFIG if smoke else FULL_CONFIG
    rng = coerce_rng(cfg["seed"])
    g = GraphSpec.parse(cfg["graph"]).build(weights="uniform", seed=cfg["seed"])
    oracle = SpannerDistanceOracle(g, cfg["k"], cfg["t"], rng=cfg["seed"])

    work = tempfile.mkdtemp(prefix="bench_service_")
    store = ArtifactStore(os.path.join(work, "store"))
    key = store.save_oracle(oracle, meta={"graph": cfg["graph"], "seed": cfg["seed"]})

    # --- workloads -------------------------------------------------------
    n = g.n
    r = cfg["zipf_queries"]
    zipf_pairs = np.stack(
        [
            zipf_sources(
                n,
                r,
                cfg["zipf_a"],
                rng,
                hot_ranks=cfg["hot_ranks"],
                uniform_mix=cfg["uniform_mix"],
            ),
            rng.integers(0, n, size=r),
        ],
        axis=1,
    )
    ru = cfg["uniform_queries"]
    uniform_pairs = np.stack(
        [rng.integers(0, n, size=ru), rng.integers(0, n, size=ru)], axis=1
    )

    # --- 2: the thrash duel (same loaded spanner, same capacity) ---------
    loaded = store.load_oracle(key)
    clear_server = _ClearEvictServer(loaded.spanner, cfg["cache_rows"])
    clear_s = _single_query_wall(clear_server, zipf_pairs)

    lru_engine = QueryEngine(loaded.spanner, cache_rows=cfg["cache_rows"])
    lru_s = _single_query_wall(lru_engine, zipf_pairs)
    lru_stats = lru_engine.stats()

    # --- 3: batched serving ----------------------------------------------
    batch_engine = QueryEngine(loaded.spanner, cache_rows=cfg["cache_rows"])
    batch = cfg["batch"]
    start = time.perf_counter()
    batched_out = np.concatenate(
        [
            batch_engine.query_many(zipf_pairs[lo : lo + batch])
            for lo in range(0, r, batch)
        ]
    )
    batched_s = time.perf_counter() - start
    start = time.perf_counter()
    for lo in range(0, ru, batch):
        batch_engine.query_many(uniform_pairs[lo : lo + batch])
    uniform_s = time.perf_counter() - start

    # --- 4: equivalence + persistence ------------------------------------
    sample = zipf_pairs[: min(2048, r)]
    serial_engine = QueryEngine(loaded.spanner, cache_rows=cfg["cache_rows"])
    serial_out = serial_engine.query_many(sample)
    with QueryEngine(
        loaded.spanner, cache_rows=cfg["cache_rows"], shards=2
    ) as sharded_engine:
        sharded_out = sharded_engine.query_many(sample)
    sharded_identical = bool(np.array_equal(serial_out, sharded_out))
    oracle_roundtrip = bool(
        np.array_equal(oracle.query_many(sample), loaded.query_many(sample))
    )

    sketch = DistanceSketch(loaded.spanner, cfg["sketch_k"], rng=cfg["seed"])
    skey = store.save_sketch(sketch)
    sketch_loaded = store.load_sketch(skey)
    sketch_roundtrip = bool(
        np.array_equal(sketch.query_many(sample), sketch_loaded.query_many(sample))
    )

    import shutil

    shutil.rmtree(work, ignore_errors=True)

    return {
        "suite": "service",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "config": dict(cfg),
        "graph": {"n": g.n, "m": g.m, "spanner_m": oracle.spanner.m},
        "thrash": {
            "queries": r,
            "cache_rows": cfg["cache_rows"],
            "clear_evict_s": round(clear_s, 4),
            "clear_evict_rows": clear_server.rows_solved,
            "lru_s": round(lru_s, 4),
            "lru_rows": lru_stats["rows_solved"],
            "lru_hit_rate": lru_stats["cache"]["hit_rate"],
            "speedup": round(clear_s / max(lru_s, 1e-9), 2),
            "rows_reduction": round(
                clear_server.rows_solved / max(lru_stats["rows_solved"], 1), 2
            ),
        },
        "batched": {
            "zipf_s": round(batched_s, 4),
            "zipf_qps": round(r / max(batched_s, 1e-9), 1),
            "uniform_s": round(uniform_s, 4),
            "uniform_qps": round(ru / max(uniform_s, 1e-9), 1),
            "batch": batch,
            "matches_single": bool(
                np.allclose(batched_out[: sample.shape[0]], serial_out)
            ),
        },
        "equivalence": {
            "sharded_identical": sharded_identical,
            "oracle_roundtrip_identical": oracle_roundtrip,
            "sketch_roundtrip_identical": sketch_roundtrip,
        },
    }


def thrash_gate(record: dict, *, minimum: float = THRASH_GATE):
    """The >= 5x LRU-vs-clear() acceptance gate (full scale only).

    Returns ``(ok, reasons)``; smoke-scale runs skip with an explicit
    reason — at tiny n the Dijkstra rows are microseconds and the duel
    measures timer noise, not the cache policy.
    """
    speedup = record.get("thrash", {}).get("speedup", 0.0)
    if record.get("smoke"):
        return True, [
            f"skipped: smoke-scale timings are noise (recorded {speedup:.2f}x; "
            f"rows_reduction {record.get('thrash', {}).get('rows_reduction')}x)"
        ]
    if speedup >= minimum:
        return True, [f"LRU vs clear() speedup {speedup:.2f}x meets the {minimum:.0f}x gate"]
    return False, [f"LRU vs clear() speedup {speedup:.2f}x below the {minimum:.0f}x gate"]


def identity_gate(record: dict):
    """Bit-identity invariants — enforced at every scale.

    Returns ``(ok, reasons)``: sharded == serial, and loaded-from-disk
    oracle/sketch answers identical to the freshly built objects.
    """
    eq = record.get("equivalence", {})
    reasons = []
    ok = True
    for name in (
        "sharded_identical",
        "oracle_roundtrip_identical",
        "sketch_roundtrip_identical",
    ):
        if eq.get(name):
            reasons.append(f"{name}: ok")
        else:
            ok = False
            reasons.append(f"{name}: FAILED")
    return ok, reasons


def gates(record: dict, committed: dict | None = None) -> list[tuple[str, bool, list[str]]]:
    return [
        ("thrash gate", *thrash_gate(record)),
        ("identity gate", *identity_gate(record)),
    ]


def headline(record: dict) -> dict[str, float | None]:
    return {
        "thrash speedup": record["thrash"]["speedup"],
        "zipf qps": record["batched"]["zipf_qps"],
    }


def format_table(record: dict) -> str:
    t = record["thrash"]
    b = record["batched"]
    e = record["equivalence"]
    gr = record["graph"]
    lines = [
        f"service bench ({'smoke' if record['smoke'] else 'full'}, "
        f"n={gr['n']} spanner_m={gr['spanner_m']}, "
        f"cpu_count={record['cpu_count']})",
        f"  thrash duel ({t['queries']} zipf queries, {t['cache_rows']} rows): "
        f"clear() {t['clear_evict_s']:.3f}s ({t['clear_evict_rows']} rows) -> "
        f"LRU {t['lru_s']:.3f}s ({t['lru_rows']} rows, "
        f"{t['lru_hit_rate']:.0%} hits): {t['speedup']:.2f}x",
        f"  batched: zipf {b['zipf_qps']:,.0f} q/s, uniform {b['uniform_qps']:,.0f} q/s "
        f"(batch={b['batch']})",
        f"  equivalence: sharded={e['sharded_identical']} "
        f"oracle_roundtrip={e['oracle_roundtrip_identical']} "
        f"sketch_roundtrip={e['sketch_roundtrip_identical']}",
    ]
    return "\n".join(lines)
