"""Distance-layer benchmark: vectorized sketches / batched Dijkstra vs seed.

The tentpole claim of the distance-layer rework is that Thorup–Zwick sketch
preprocessing — the slowest code in the seed repo, one pure-Python truncated
Dijkstra per hierarchy vertex — becomes ≥5x faster when rebuilt on batched,
array-native primitives, while answering *bit-identical* queries under a
fixed rng.  This bench measures exactly that, plus the batched
``pairwise_distances`` path, and emits a JSON record
(``BENCH_distance_layer.json`` via ``scripts/bench_snapshot.py``) so future
PRs have a perf trajectory to defend.

Run it with ``python scripts/bench_snapshot.py --suite distance [--smoke]``;
the tier-1 suite runs it in smoke mode (``tests/test_bench_distance_layer.py``).
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.sparse import csgraph

from repro.distances.sketches import DistanceSketch, build_bunches_reference
from repro.graphs import erdos_renyi, pairwise_distances

#: Minimum full-scale seed-vs-vectorized sketch preprocessing speedup.
SPEEDUP_GATE = 5.0

# The acceptance-scale configuration: erdos_renyi(2000, 0.01), k=3.
FULL_CONFIG = {"n": 2000, "p": 0.01, "k": 3, "seed": 7}
SMOKE_CONFIG = {"n": 200, "p": 0.05, "k": 3, "seed": 7}


def _seed_preprocess(g, k, rng_seed):
    """The seed implementation end-to-end: hierarchy sampling + scipy pivots
    + per-center dict/heapq truncated Dijkstra bunches.

    Consumes the rng stream exactly like ``DistanceSketch.__init__``, so the
    hierarchy (and therefore every distance) matches the vectorized build.
    """
    rng = np.random.default_rng(rng_seed)
    n = g.n
    p = float(n) ** (-1.0 / k) if n > 1 else 0.5
    levels = [np.arange(n, dtype=np.int64)]
    for _ in range(1, k):
        prev = levels[-1]
        levels.append(prev[rng.random(prev.size) < p])
    mat = g.to_scipy() if g.m else None
    pivot_dist = np.full((k + 1, n), np.inf)
    pivot = np.full((k + 1, n), -1, dtype=np.int64)
    pivot_dist[0] = 0.0
    pivot[0] = np.arange(n)
    for i in range(1, k):
        ai = levels[i]
        if ai.size == 0 or mat is None:
            continue
        dist, _, sources = csgraph.dijkstra(
            mat, directed=False, indices=ai, min_only=True,
            return_predecessors=True,
        )
        pivot_dist[i] = dist
        pivot[i] = sources
    bunch = build_bunches_reference(g, levels, pivot_dist)
    return levels, pivot_dist, pivot, bunch


def _query_reference(pivot, pivot_dist, bunch, k, n, pairs):
    """The seed query loop over dict bunches (for bit-identity checks)."""
    out = np.empty(pairs.shape[0])
    for idx, (u, v) in enumerate(pairs):
        u, v = int(u), int(v)
        if u == v:
            out[idx] = 0.0
            continue
        w = u
        i = 0
        du_w = 0.0
        while w not in bunch[v]:
            i += 1
            if i >= k:
                du_w, w = math.inf, None
                break
            u, v = v, u
            w = int(pivot[i][u])
            du_w = float(pivot_dist[i][u])
            if w < 0 or not math.isfinite(du_w):
                du_w, w = math.inf, None
                break
        out[idx] = du_w if w is None else du_w + bunch[v][w]
    return out


def _pairwise_reference(g, pairs):
    """The seed ``pairwise_distances``: one scipy Dijkstra per source in a
    Python loop."""
    pairs = np.asarray(pairs, dtype=np.int64)
    out = np.empty(pairs.shape[0])
    mat = g.to_scipy() if g.m else None
    for s in np.unique(pairs[:, 0]):
        mask = pairs[:, 0] == s
        if mat is None:
            d = np.full(g.n, np.inf)
            d[s] = 0.0
        else:
            d = csgraph.dijkstra(mat, directed=False, indices=int(s))
        out[mask] = d[pairs[mask, 1]]
    return out


def run(*, smoke: bool = False, num_query_pairs: int = 2000) -> dict:
    """Time seed vs vectorized distance-layer paths; return the JSON record.

    Raises ``AssertionError`` if the hierarchy or the batched
    ``pairwise_distances`` diverge from the seed; query bit-identity is
    recorded for :func:`identity_gate`.
    """
    cfg = dict(SMOKE_CONFIG if smoke else FULL_CONFIG)
    g = erdos_renyi(cfg["n"], cfg["p"], weights="uniform", rng=cfg["seed"])
    k, seed = cfg["k"], cfg["seed"]

    # --- sketch preprocessing: seed vs vectorized -------------------------
    t0 = time.perf_counter()
    levels, pivot_dist, pivot, ref_bunch = _seed_preprocess(g, k, seed)
    t_seed = time.perf_counter() - t0

    # Fresh graph object so the seed run's cached CSR/scipy matrices do not
    # subsidize the vectorized run.
    g2 = erdos_renyi(cfg["n"], cfg["p"], weights="uniform", rng=cfg["seed"])
    t0 = time.perf_counter()
    sk = DistanceSketch(g2, k, rng=seed)
    t_vec = time.perf_counter() - t0

    for lv_a, lv_b in zip(levels, sk.levels):
        assert np.array_equal(lv_a, lv_b), "hierarchy diverged — rng stream changed"

    rng = np.random.default_rng(12345)
    pairs = rng.integers(0, g.n, size=(num_query_pairs, 2))
    q_ref = _query_reference(pivot, pivot_dist, ref_bunch, k, g.n, pairs)
    q_vec = sk.query_many(pairs)
    queries_identical = bool(np.array_equal(q_ref, q_vec))

    # --- pairwise_distances: seed loop vs batched -------------------------
    pd_pairs = rng.integers(0, g.n, size=(max(64, num_query_pairs // 4), 2))
    t0 = time.perf_counter()
    pd_ref = _pairwise_reference(g, pd_pairs)
    t_pd_seed = time.perf_counter() - t0
    t0 = time.perf_counter()
    pd_vec = pairwise_distances(g, pd_pairs)
    t_pd_vec = time.perf_counter() - t0
    assert np.array_equal(pd_ref, pd_vec), "batched pairwise_distances diverged"

    record = {
        "benchmark": "distance_layer",
        "config": {**cfg, "smoke": smoke, "num_query_pairs": num_query_pairs},
        "graph": {"n": g.n, "m": g.m},
        "sketch_preprocess": {
            "seed_seconds": t_seed,
            "vectorized_seconds": t_vec,
            "speedup": t_seed / t_vec if t_vec > 0 else float("inf"),
            "bunch_words": int(sk.bunch_centers.size),
            "queries_bit_identical": queries_identical,
        },
        "pairwise_distances": {
            "seed_seconds": t_pd_seed,
            "vectorized_seconds": t_pd_vec,
            "speedup": t_pd_seed / t_pd_vec if t_pd_vec > 0 else float("inf"),
        },
    }
    return record


def format_table(record: dict) -> str:
    """Render the before/after table EXPERIMENTS.md records."""
    sp = record["sketch_preprocess"]
    pw = record["pairwise_distances"]
    g = record["graph"]
    lines = [
        f"distance layer @ n={g['n']}, m={g['m']}, "
        f"k={record['config']['k']} (smoke={record['config']['smoke']})",
        f"{'stage':<24}{'seed (s)':>12}{'vectorized (s)':>16}{'speedup':>10}",
        "-" * 62,
        f"{'sketch preprocess':<24}{sp['seed_seconds']:>12.4f}"
        f"{sp['vectorized_seconds']:>16.4f}{sp['speedup']:>9.1f}x",
        f"{'pairwise_distances':<24}{pw['seed_seconds']:>12.4f}"
        f"{pw['vectorized_seconds']:>16.4f}{pw['speedup']:>9.1f}x",
        f"queries bit-identical: {sp['queries_bit_identical']}",
    ]
    return "\n".join(lines)


def speedup_gate(record: dict, *, minimum: float = SPEEDUP_GATE):
    """The >= 5x sketch preprocessing gate (full scale only).

    Returns ``(ok, reasons)``; smoke-scale runs skip with a reason — at
    tiny n the seed's Python loop is too short to time.
    """
    speedup = record["sketch_preprocess"]["speedup"]
    if record["config"]["smoke"]:
        return True, [f"skipped: smoke-scale timings are noise (recorded {speedup:.2f}x)"]
    if speedup >= minimum:
        return True, [f"sketch preprocessing {speedup:.2f}x meets the {minimum:.0f}x gate"]
    return False, [f"sketch preprocessing {speedup:.2f}x below the {minimum:.0f}x gate"]


def identity_gate(record: dict):
    """Vectorized sketch queries bit-identical to the seed's (every scale)."""
    if record["sketch_preprocess"]["queries_bit_identical"]:
        return True, ["queries_bit_identical: ok"]
    return False, ["queries_bit_identical: FAILED"]


def gates(record: dict, committed: dict | None = None) -> list[tuple[str, bool, list[str]]]:
    return [
        ("speedup gate", *speedup_gate(record)),
        ("identity gate", *identity_gate(record)),
    ]


def headline(record: dict) -> dict[str, float | None]:
    return {"sketch_preprocess speedup": record["sketch_preprocess"]["speedup"]}
