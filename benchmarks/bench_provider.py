"""Benchmark the provider planner: the accuracy/latency Pareto frontier.

Protocol (see EXPERIMENTS.md):

1. Build one ``bundle`` artifact (graph + spanner + Thorup-Zwick sketch
   under one key) and persist it to a temporary
   :class:`~repro.service.store.ArtifactStore`.
2. **Fixed backends** — for each workload (zipf hot-window + uniform),
   run every fixed backend (``exact``, ``oracle``, ``sketch``,
   ``tiered``) through batched ``query_many`` on one shared engine and
   record its Pareto point: queries/second vs observed stretch (ratio to
   the exact answers, which are the stretch-1 ground truth).  ``tiered``
   runs after ``oracle`` on purpose: refinement from rows the oracle run
   left hot in the LRU is its designed behavior.
3. **Auto planner** — a *fresh* engine (clean latency state) serves the
   same workload with ``backend="auto"``; the record keeps its routing
   counters, throughput, and measured max stretch next to the planner's
   declared bound.
4. **Sketch-tier identity** — the engine's ``backend="sketch"`` answers
   must be bit-identical to offline
   :meth:`~repro.distances.sketches.DistanceSketch.query_many` on the
   loaded bundle.

Gates (``--suite provider`` in scripts/bench_snapshot.py):

* ``stretch_gate`` — every auto-planned reply is within the planner's
  declared stretch bound of the exact distance (every scale; stretch is
  not a timing).
* ``throughput_gate`` — auto throughput >= the slowest fixed backend
  (full scale only; smoke timings are noise).
* ``identity_gate`` — sketch-tier bit-identity (every scale).
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from bench_service import zipf_sources
from repro.core.params import coerce_rng
from repro.distances.sketches import DistanceSketch
from repro.graphs.specs import GraphSpec
from repro.registry import get_algorithm
from repro.service import ArtifactStore, PlanTarget, QueryEngine

__all__ = [
    "run",
    "format_table",
    "gates",
    "headline",
    "stretch_gate",
    "throughput_gate",
    "identity_gate",
    "FIXED_BACKENDS",
]

#: Fixed answer paths measured for the Pareto frontier, in run order
#: (tiered after oracle so its LRU refinement hook has hot rows to hit).
FIXED_BACKENDS = ("exact", "oracle", "sketch", "tiered")

FULL_CONFIG = {
    "graph": "er:1024:0.02",
    "algorithm": "general",
    "k": 6,
    "t": 2,
    "seed": 0,
    "cache_rows": 128,
    "zipf_a": 1.05,
    "hot_ranks": 120,
    "uniform_mix": 0.01,
    "zipf_queries": 20_000,
    "uniform_queries": 5_000,
    "batch": 256,
}
SMOKE_CONFIG = {
    "graph": "er:256:0.08",
    "algorithm": "general",
    "k": 4,
    "t": 2,
    "seed": 0,
    "cache_rows": 32,
    "zipf_a": 1.05,
    "hot_ranks": 28,
    "uniform_mix": 0.01,
    "zipf_queries": 1_500,
    "uniform_queries": 400,
    "batch": 128,
}


def _build_bundle(store: ArtifactStore, cfg: dict) -> str:
    g = GraphSpec.parse(cfg["graph"]).build(weights="uniform", seed=cfg["seed"])
    algo = get_algorithm(cfg["algorithm"])
    res = algo.run(g, k=cfg["k"], t=cfg["t"], rng=cfg["seed"])
    sketch = DistanceSketch(g, cfg["k"], rng=cfg["seed"])
    return store.save_bundle(
        g,
        res.subgraph(g),
        sketch,
        k=res.k,
        t=res.t,
        t_effective=res.extra.get("t_effective", res.t),
        meta={"graph": cfg["graph"], "seed": cfg["seed"]},
    )


def _run_batched(engine, pairs: np.ndarray, batch: int, *, backend=None):
    """(answers, wall_s) for the workload pushed through ``query_many``."""
    outs = []
    start = time.perf_counter()
    for lo in range(0, pairs.shape[0], batch):
        outs.append(engine.query_many(pairs[lo : lo + batch], backend=backend))
    wall = time.perf_counter() - start
    return np.concatenate(outs), wall


def _stretch_stats(answers: np.ndarray, truth: np.ndarray) -> dict:
    """Observed stretch of ``answers`` against the exact ``truth``."""
    mask = np.isfinite(truth) & (truth > 0)
    agree_unreachable = bool(
        np.array_equal(np.isfinite(answers), np.isfinite(truth))
    )
    if not mask.any():
        return {"mean": None, "max": None, "agree_unreachable": agree_unreachable}
    ratios = answers[mask] / truth[mask]
    return {
        "mean": round(float(ratios.mean()), 4),
        "max": round(float(ratios.max()), 4),
        "agree_unreachable": agree_unreachable,
    }


def run(*, smoke: bool = False) -> dict:
    """Execute the protocol; returns the JSON-ready record."""
    cfg = SMOKE_CONFIG if smoke else FULL_CONFIG
    rng = coerce_rng(cfg["seed"])

    work = tempfile.mkdtemp(prefix="bench_provider_")
    store = ArtifactStore(os.path.join(work, "store"))
    key = _build_bundle(store, cfg)
    bundle = store.load_bundle(key)
    n = bundle.n

    workload_pairs = {}
    r = cfg["zipf_queries"]
    workload_pairs["zipf"] = np.stack(
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
    workload_pairs["uniform"] = np.stack(
        [rng.integers(0, n, size=ru), rng.integers(0, n, size=ru)], axis=1
    )

    batch = cfg["batch"]
    workloads: dict[str, dict] = {}
    for name, pairs in workload_pairs.items():
        # -- fixed backends: one shared engine, per-provider caches ------
        fixed_engine = QueryEngine.from_store(
            store, key, cache_rows=cfg["cache_rows"]
        )
        truth = None
        pareto = []
        with fixed_engine:
            for backend in FIXED_BACKENDS:
                answers, wall = _run_batched(
                    fixed_engine, pairs, batch, backend=backend
                )
                if backend == "exact":
                    truth = answers
                pstats = fixed_engine.stats()["planner"]["backends"][backend]
                pareto.append(
                    {
                        "backend": backend,
                        "wall_s": round(wall, 4),
                        "qps": round(pairs.shape[0] / max(wall, 1e-9), 1),
                        "declared_stretch": pstats["stretch_bound"],
                        "observed_p99_us": pstats["observed_p99_us"],
                        "stretch": _stretch_stats(answers, truth),
                    }
                )

        # -- the auto planner: fresh engine, clean latency state ---------
        auto_engine = QueryEngine.from_store(
            store, key, cache_rows=cfg["cache_rows"], target=PlanTarget()
        )
        with auto_engine:
            declared = float(auto_engine.planner.stretch_bound)
            auto_answers, auto_wall = _run_batched(auto_engine, pairs, batch)
            auto_stats = auto_engine.stats()["planner"]
        workloads[name] = {
            "queries": int(pairs.shape[0]),
            "pareto": pareto,
            "auto": {
                "wall_s": round(auto_wall, 4),
                "qps": round(pairs.shape[0] / max(auto_wall, 1e-9), 1),
                "declared_stretch": round(declared, 4),
                "stretch": _stretch_stats(auto_answers, truth),
                "routed": auto_stats["routed"],
            },
        }

    # -- sketch-tier identity vs the offline sketch -----------------------
    sample = workload_pairs["zipf"][: min(2048, r)]
    with QueryEngine.from_store(store, key, cache_rows=cfg["cache_rows"]) as eng:
        served = eng.query_many(sample, backend="sketch")
    offline = store.load_bundle(key).sketch.query_many(sample)
    sketch_identical = bool(np.array_equal(served, offline))

    import shutil

    shutil.rmtree(work, ignore_errors=True)

    return {
        "suite": "provider",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "config": dict(cfg),
        "graph": {
            "n": bundle.n,
            "m": bundle.graph.m,
            "spanner_m": bundle.spanner.m,
            "sketch_words": bundle.sketch.size_words,
        },
        "workloads": workloads,
        "identity": {"sketch_tier_identical": sketch_identical},
    }


def stretch_gate(record: dict):
    """Auto answers never exceed the planner's declared stretch bound.

    Checked against the exact-backend ground truth on every workload, at
    every scale — stretch is a correctness property, not a timing.
    Returns ``(ok, reasons)``.
    """
    ok = True
    reasons = []
    for name, wl in sorted(record.get("workloads", {}).items()):
        auto = wl.get("auto", {})
        declared = auto.get("declared_stretch")
        measured = auto.get("stretch", {}).get("max")
        agree = auto.get("stretch", {}).get("agree_unreachable")
        if not agree:
            ok = False
            reasons.append(f"{name}: auto disagrees with exact on reachability")
            continue
        if measured is None:
            reasons.append(f"{name}: no reachable pairs to measure (ok)")
            continue
        if measured <= declared + 1e-6:
            reasons.append(
                f"{name}: auto max stretch {measured:.3f} within declared "
                f"{declared:.3f}"
            )
        else:
            ok = False
            reasons.append(
                f"{name}: auto max stretch {measured:.3f} EXCEEDS declared "
                f"{declared:.3f}"
            )
    return ok, reasons


def throughput_gate(record: dict):
    """Auto is never slower than the worst fixed backend (full scale only).

    Returns ``(ok, reasons)``; smoke-scale timings are dominated by the
    planner's probe batches and timer noise, so they skip with a reason.
    """
    reasons = []
    if record.get("smoke"):
        for name, wl in sorted(record.get("workloads", {}).items()):
            reasons.append(
                f"{name}: skipped at smoke scale (auto "
                f"{wl.get('auto', {}).get('qps')} q/s recorded)"
            )
        return True, reasons
    ok = True
    for name, wl in sorted(record.get("workloads", {}).items()):
        worst = min((p["qps"] for p in wl.get("pareto", [])), default=0.0)
        auto_qps = wl.get("auto", {}).get("qps", 0.0)
        if auto_qps >= worst:
            reasons.append(
                f"{name}: auto {auto_qps:,.0f} q/s >= worst fixed {worst:,.0f} q/s"
            )
        else:
            ok = False
            reasons.append(
                f"{name}: auto {auto_qps:,.0f} q/s BELOW worst fixed {worst:,.0f} q/s"
            )
    return ok, reasons


def identity_gate(record: dict):
    """Sketch-tier answers bit-identical to the offline sketch (every scale)."""
    if record.get("identity", {}).get("sketch_tier_identical"):
        return True, ["sketch_tier_identical: ok"]
    return False, ["sketch_tier_identical: FAILED"]


def gates(record: dict, committed: dict | None = None) -> list[tuple[str, bool, list[str]]]:
    return [
        ("stretch gate", *stretch_gate(record)),
        ("throughput gate", *throughput_gate(record)),
        ("identity gate", *identity_gate(record)),
    ]


def headline(record: dict) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    for name, wl in sorted(record["workloads"].items()):
        out[f"{name} auto qps"] = wl["auto"]["qps"]
        out[f"{name} auto max stretch"] = wl["auto"]["stretch"]["max"]
    return out


def format_table(record: dict) -> str:
    gr = record["graph"]
    lines = [
        f"provider bench ({'smoke' if record['smoke'] else 'full'}, "
        f"n={gr['n']} m={gr['m']} spanner_m={gr['spanner_m']}, "
        f"cpu_count={record['cpu_count']})"
    ]
    for name, wl in sorted(record["workloads"].items()):
        lines.append(f"  {name} ({wl['queries']} queries):")
        for p in wl["pareto"]:
            stretch = p["stretch"]
            mean = "-" if stretch["mean"] is None else f"{stretch['mean']:.3f}"
            lines.append(
                f"    {p['backend']:<7} {p['qps']:>12,.0f} q/s  "
                f"stretch mean {mean} (declared <= {p['declared_stretch']})"
            )
        a = wl["auto"]
        routed = ", ".join(f"{k}={v}" for k, v in sorted(a["routed"].items()) if v)
        mean = (
            "-" if a["stretch"]["mean"] is None else f"{a['stretch']['mean']:.3f}"
        )
        lines.append(
            f"    auto    {a['qps']:>12,.0f} q/s  stretch mean {mean} "
            f"(declared <= {a['declared_stretch']}; routed {routed})"
        )
    ident = record["identity"]
    lines.append(f"  identity: sketch_tier_identical={ident['sketch_tier_identical']}")
    return "\n".join(lines)
