"""Cross-algorithm benchmark suite: the perf trajectory's spine.

Every algorithm in the registry — all spanner constructions and both APSP
pipelines — is swept through a fixed graph-family × size protocol, and the
wall time, edges/second throughput, and spanner size land in one
JSON-ready record (committed as ``BENCH_suite.json`` at the repo root, see
EXPERIMENTS.md for the protocol).

The module is one of the snapshot suites behind
``scripts/bench_snapshot.py`` and exports the same four names as the
others: :func:`run`, :func:`format_table`, :func:`gates` and
:func:`headline`; ``python scripts/bench_snapshot.py --suite suite`` runs
it.  Against the committed ``BENCH_suite.json`` (a smoke run against that
record's ``smoke_ref``), :func:`gates` adds the per-algorithm >2x slowdown
gate, with explicit timer-noise skips so CI on slow shared runners never
flags phantom regressions.

The record also carries a **hot-loop before/after harness**: the
vectorized streaming pass processing and unweighted ball collection are
timed against the frozen pre-vectorization references
(:func:`~repro.streaming.spanner_stream.streaming_spanner_reference`,
:func:`~repro.core.unweighted.unweighted_spanner_reference`) on the same
inputs, asserting bit-identical outputs — the measured speedups are the
numbers the acceptance gates (≥5x pass processing, ≥3x ball collection at
n=2048) defend.
"""

from __future__ import annotations

import os
import time

import numpy as np

__all__ = [
    "run",
    "format_table",
    "gates",
    "headline",
    "slowdown_gate",
    "hot_loop_gates",
    "SLOWDOWN_GATE",
    "NOISE_FLOOR_S",
    "STREAMING_PASS_GATE",
    "UNWEIGHTED_BALLS_GATE",
]

#: A tracked algorithm may not get more than this factor slower than the
#: committed snapshot.
SLOWDOWN_GATE = 2.0

#: Baseline timings below this are timer noise; the slowdown gate skips
#: them instead of flagging phantom regressions.
NOISE_FLOOR_S = 0.02

#: Acceptance floors for the hot-loop before/after harness (full size).
STREAMING_PASS_GATE = 5.0
UNWEIGHTED_BALLS_GATE = 3.0

#: Per-algorithm sweep configuration.  Spanners run at one size per mode;
#: the APSP pipelines (which simulate collection on top) use a smaller n.
#: Every full cell is larger than its smoke cell and takes at least ~90 ms
#: on a 2-vCPU VM (the fastest are apsp-cc, pram and mpc-nearlinear), so a
#: full-mode baseline gates every algorithm above the noise floor.
FULL_CONFIG = {
    "spanner_graph": "er:6144:0.01",
    "apsp_graph": "er:2048:0.05",
    "k": 6,
    "seed": 0,
    "trials": 2,
    "hot_n": 2048,
    "hot_p": 0.01,
}
#: Smoke sizes are chosen so every algorithm's cell takes at least 40 ms
#: (twice the timer-noise floor; the fastest, apsp-cc, mpc-nearlinear and
#: pram, take ~65-90 ms on a 2-vCPU VM), so the CI slowdown gate covers all of
#: them and no noisy run can drop it below three gate-eligible cells.
SMOKE_CONFIG = {
    "spanner_graph": "er:4096:0.015",
    "apsp_graph": "er:1792:0.05",
    "k": 4,
    "seed": 0,
    "trials": 1,
    "hot_n": 256,
    "hot_p": 0.08,
}


def _best_of(fn, trials: int) -> tuple[float, object]:
    best = None
    result = None
    for _ in range(max(trials, 1)):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return float(best), result


def _sweep_algorithms(cfg: dict) -> dict:
    """Run every registered algorithm once per protocol cell."""
    from .graphs.specs import GraphSpec
    from .registry import iter_algorithms

    out: dict[str, dict] = {}
    graphs: dict[tuple[str, str], object] = {}
    for spec in iter_algorithms():
        graph_spec = cfg["apsp_graph"] if spec.kind == "apsp" else cfg["spanner_graph"]
        weights = "uniform" if spec.weighted else "unit"
        key = (graph_spec, weights)
        if key not in graphs:
            graphs[key] = GraphSpec.parse(graph_spec).build(
                weights=weights, seed=cfg["seed"]
            )
        g = graphs[key]
        g.csr  # exclude one-time adjacency construction from the timings
        k = None if spec.kind == "apsp" else cfg["k"]
        spec.run(g, k=k, t=None, rng=cfg["seed"])  # untimed warmup: lazy imports
        wall, res = _best_of(
            lambda: spec.run(g, k=k, t=None, rng=cfg["seed"]), cfg["trials"]
        )
        record = {
            "graph": graph_spec,
            "weights": weights,
            "n": g.n,
            "m": g.m,
            "k": k,
            "kind": spec.kind,
            "model": spec.model,
            "trials": cfg["trials"],
            "wall_s": round(wall, 5),
            "edges_per_s": round(g.m / max(wall, 1e-9), 1),
        }
        if spec.kind == "spanner":
            record["spanner_edges"] = int(res.num_edges)
        else:
            record["spanner_edges"] = int(res.spanner.m)
            record["rounds"] = int(res.rounds)
        out[spec.name] = record
    return out


def _hot_loop_harness(cfg: dict) -> dict:
    """Before/after timings of the vectorized hot loops vs the frozen
    references, with bit-identical-output checks on the same seeds."""
    from .core.unweighted import (
        _capped_bfs,
        unweighted_spanner,
        unweighted_spanner_reference,
    )
    from .graphs.distances import batched_capped_bfs
    from .graphs.generators import erdos_renyi
    from .streaming import EdgeStream, streaming_spanner, streaming_spanner_reference
    from .streaming.spanner_stream import (
        _pass_group_minima,
        _pass_group_minima_reference,
    )

    n, p, seed = cfg["hot_n"], cfg["hot_p"], cfg["seed"]
    k = cfg["k"]
    out: dict[str, dict] = {}

    # --- Streaming pass processing (the per-epoch stream reduction) -------
    g = erdos_renyi(n, p, weights="uniform", rng=seed)
    g.csr
    labels = np.arange(g.n)
    alive = np.ones(g.n, dtype=bool)

    def one_pass(fn):
        stream = EdgeStream(g, chunk=4096)
        return lambda: fn(stream, labels, alive, [])

    vec_s, _ = _best_of(one_pass(_pass_group_minima), 3)
    ref_s, _ = _best_of(one_pass(_pass_group_minima_reference), 3)
    res_vec = streaming_spanner(g, k, rng=seed)
    res_ref = streaming_spanner_reference(g, k, rng=seed)
    stream_identical = bool(np.array_equal(res_vec.edge_ids, res_ref.edge_ids))
    e2e_vec, _ = _best_of(lambda: streaming_spanner(g, k, rng=seed), 2)
    e2e_ref, _ = _best_of(lambda: streaming_spanner_reference(g, k, rng=seed), 2)
    out["streaming_pass"] = {
        "n": g.n,
        "m": g.m,
        "k": k,
        "reference_s": round(ref_s, 5),
        "vectorized_s": round(vec_s, 5),
        "speedup": round(ref_s / max(vec_s, 1e-9), 2),
        "identical": stream_identical,
        "end_to_end_reference_s": round(e2e_ref, 5),
        "end_to_end_vectorized_s": round(e2e_vec, 5),
        "end_to_end_speedup": round(e2e_ref / max(e2e_vec, 1e-9), 2),
    }

    # --- Unweighted ball collection (capped multi-source BFS) -------------
    gu = erdos_renyi(n, p, weights="unit", rng=seed)
    gu.csr
    cap = max(4, int(np.ceil(gu.n ** 0.25)))  # the gamma=0.5 default cap
    hops = 4 * k
    sources = np.arange(gu.n, dtype=np.int64)

    def scalar_balls():
        for v in range(gu.n):
            _capped_bfs(gu, v, hops, cap)

    vec_s, _ = _best_of(lambda: batched_capped_bfs(gu, sources, hops, cap), 3)
    ref_s, _ = _best_of(scalar_balls, 3)
    u_vec = unweighted_spanner(gu, k, rng=seed)
    u_ref = unweighted_spanner_reference(gu, k, rng=seed)
    balls_identical = bool(np.array_equal(u_vec.edge_ids, u_ref.edge_ids))
    e2e_vec, _ = _best_of(lambda: unweighted_spanner(gu, k, rng=seed), 2)
    e2e_ref, _ = _best_of(lambda: unweighted_spanner_reference(gu, k, rng=seed), 2)
    out["unweighted_balls"] = {
        "n": gu.n,
        "m": gu.m,
        "hops": hops,
        "cap": cap,
        "reference_s": round(ref_s, 5),
        "vectorized_s": round(vec_s, 5),
        "speedup": round(ref_s / max(vec_s, 1e-9), 2),
        "identical": balls_identical,
        "end_to_end_reference_s": round(e2e_ref, 5),
        "end_to_end_vectorized_s": round(e2e_vec, 5),
        "end_to_end_speedup": round(e2e_ref / max(e2e_vec, 1e-9), 2),
    }
    return out


def run(*, smoke: bool = False, with_smoke_ref: bool | None = None) -> dict:
    """Execute the cross-algorithm protocol; returns the JSON-ready record.

    Full runs embed a ``smoke_ref`` section (the smoke-scale sweep), so a
    CI smoke run always has same-scale baseline timings to gate against in
    the committed full snapshot.
    """
    cfg = SMOKE_CONFIG if smoke else FULL_CONFIG
    if with_smoke_ref is None:
        with_smoke_ref = not smoke
    record = {
        "suite": "cross-algorithm",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "config": dict(cfg),
        "algorithms": _sweep_algorithms(cfg),
        "hot_loops": _hot_loop_harness(cfg),
    }
    if with_smoke_ref and not smoke:
        record["smoke_ref"] = {
            "config": dict(SMOKE_CONFIG),
            "algorithms": _sweep_algorithms(SMOKE_CONFIG),
        }
    return record


def _baseline_algorithms(record: dict, baseline: dict) -> tuple[dict | None, str]:
    """The baseline's per-algorithm table comparable to ``record``'s."""
    if record.get("smoke") == baseline.get("smoke"):
        return baseline.get("algorithms"), "same-mode baseline"
    if record.get("smoke") and "smoke_ref" in baseline:
        return baseline["smoke_ref"].get("algorithms"), "full baseline's smoke_ref"
    return None, "baseline has no comparable-mode timings"


def slowdown_gate(
    record: dict,
    baseline: dict,
    *,
    factor: float = SLOWDOWN_GATE,
    noise_floor_s: float = NOISE_FLOOR_S,
) -> tuple[bool, list[str]]:
    """Per-algorithm >``factor``x slowdown gate against a snapshot.

    Returns ``(ok, reasons)``.  Gracefully skips (with an explicit reason)
    when the baseline has no comparable-mode timings, and per algorithm
    when the baseline wall time sits under the timer-noise floor — a 3ms
    cell that doubles is scheduler jitter, not a regression.

    Ratios are normalized by their median before gating: the snapshot may
    have been recorded on different hardware (CI runner vs dev box), and a
    uniformly slower machine shifts *every* ratio by the same factor —
    that common mode is machine speed, not a regression.  A genuine
    per-algorithm regression still sticks out against the median.
    """
    base, how = _baseline_algorithms(record, baseline)
    if base is None:
        return True, [f"skipped: {how}"]
    reasons: list[str] = []
    cells: list[tuple[str, float, float, float]] = []
    for name, rec in sorted(record.get("algorithms", {}).items()):
        old = base.get(name)
        if old is None:
            reasons.append(f"{name}: new algorithm, no baseline — skipped")
            continue
        if old.get("graph") != rec.get("graph") or old.get("k") != rec.get("k"):
            reasons.append(f"{name}: protocol changed, baseline not comparable — skipped")
            continue
        old_s = float(old.get("wall_s", 0.0))
        new_s = float(rec.get("wall_s", 0.0))
        if old_s < noise_floor_s:
            reasons.append(
                f"{name}: baseline {old_s*1000:.1f}ms under the "
                f"{noise_floor_s*1000:.0f}ms noise floor — skipped"
            )
            continue
        cells.append((name, old_s, new_s, new_s / max(old_s, 1e-9)))
    if len(cells) < 3:
        reasons.append(
            f"skipped: only {len(cells)} gate-eligible cells — too few for a "
            "machine-speed-normalized verdict"
        )
        return True, reasons
    med = float(np.median([c[3] for c in cells]))
    reasons.append(f"machine-speed factor (median ratio): {med:.2f}x")
    ok = True
    for name, old_s, new_s, ratio in cells:
        norm = ratio / max(med, 1e-9)
        if norm > factor:
            ok = False
            reasons.append(
                f"{name}: {old_s:.3f}s -> {new_s:.3f}s ({ratio:.2f}x raw, "
                f"{norm:.2f}x normalized) exceeds the {factor:.1f}x slowdown gate"
            )
        else:
            reasons.append(
                f"{name}: {old_s:.3f}s -> {new_s:.3f}s ({norm:.2f}x normalized) ok"
            )
    return ok, reasons


def hot_loop_gates(record: dict) -> tuple[bool, list[str]]:
    """The acceptance floors for the vectorized hot loops (full size only).

    Smoke-scale runs skip with an explicit reason — at tiny n the numpy
    constant factors swamp the asymptotics and the numbers are noise.
    """
    hot = record.get("hot_loops", {})
    reasons: list[str] = []
    ok = True
    smoke = bool(record.get("smoke"))
    for key, floor in (
        ("streaming_pass", STREAMING_PASS_GATE),
        ("unweighted_balls", UNWEIGHTED_BALLS_GATE),
    ):
        rec = hot.get(key)
        if rec is None:
            ok = False
            reasons.append(f"{key}: missing from record")
            continue
        # Bit-identity is scale-independent — enforced even at smoke size.
        if not rec.get("identical", False):
            ok = False
            reasons.append(f"{key}: vectorized output NOT bit-identical to reference")
            continue
        if smoke:
            reasons.append(
                f"{key}: identical; speedup floor skipped (smoke-scale "
                "timings are noise)"
            )
            continue
        speedup = float(rec.get("speedup", 0.0))
        if speedup < floor:
            ok = False
            reasons.append(f"{key}: {speedup:.2f}x below the {floor:.0f}x floor")
        else:
            reasons.append(f"{key}: {speedup:.2f}x meets the {floor:.0f}x floor")
    return ok, reasons


def gates(record: dict, committed: dict | None = None) -> list[tuple[str, bool, list[str]]]:
    """Every gate on ``record`` as ``(name, ok, reasons)``; the slowdown
    gate runs only against a ``committed`` record."""
    out = [("hot-loop gate", *hot_loop_gates(record))]
    if committed is not None:
        out.append(("slowdown gate", *slowdown_gate(record, committed)))
    return out


def headline(record: dict) -> dict[str, float | None]:
    """Per-algorithm wall time and hot-loop speedups, for trajectory diffs."""
    out = {
        f"{name} wall_s": rec.get("wall_s")
        for name, rec in sorted(record.get("algorithms", {}).items())
    }
    for key, rec in sorted(record.get("hot_loops", {}).items()):
        out[f"hot-loop {key} speedup"] = rec.get("speedup")
    return out


def format_table(record: dict) -> str:
    mode = "smoke" if record.get("smoke") else "full"
    lines = [
        f"cross-algorithm suite ({mode}, cpu_count={record.get('cpu_count')})",
        f"  {'algorithm':<16} {'graph':<14} {'wall':>9} {'edges/s':>12} {'spanner':>8}",
    ]
    for name, rec in sorted(record.get("algorithms", {}).items()):
        lines.append(
            f"  {name:<16} {rec['graph']:<14} {rec['wall_s']:>8.3f}s "
            f"{rec['edges_per_s']:>12,.0f} {rec['spanner_edges']:>8}"
        )
    hot = record.get("hot_loops", {})
    for key, rec in sorted(hot.items()):
        lines.append(
            f"  hot-loop {key}: {rec['reference_s']*1000:.1f}ms -> "
            f"{rec['vectorized_s']*1000:.1f}ms ({rec['speedup']:.1f}x, "
            f"identical={rec['identical']})"
        )
    return "\n".join(lines)
