"""Benchmark memory scaling of the persist-then-serve path: peak RSS + wall.

The zero-copy refactor's claim is that serving memory is **O(graph + ε)**,
not O(shards × graph): every shard worker attaches to one shared-memory
segment (:class:`repro.service.shm.SharedGraphBuffers`) instead of
receiving a pickled spanner copy, and :meth:`ArtifactStore.load` hands
back ``np.memmap`` views instead of materialized arrays.  This bench
measures that claim directly, per measurement point:

1. **Build + persist** — build the spanner oracle, save it through the
   (int32-downcasting) store; record wall time, store bytes on disk, and
   the parent's ``resource.getrusage`` peak RSS after each phase.
2. **Load probes** — fresh subprocesses load the artifact ``mmap`` vs
   ``eager`` and answer the same probe pairs; record load/query wall,
   peak RSS, and an answer digest.  The digests must agree with each
   other *and* with the freshly built oracle (the saved/loaded
   bit-identity bar).
3. **Worker-memory duel** — with the pool initialized but before any row
   work (so the probe sees storage, not Dijkstra scratch):

   * a **baseline** pool (fork, no initializer) pins the per-worker
     interpreter-heap floor;
   * the **engine** pool (shared-memory attach) must sit within
     ``WORKER_EPS_BYTES`` per worker of that floor plus
     ``SCALE_GATE`` × one graph footprint *in total* — the acceptance
     gate;
   * a **legacy** pool replays the pre-refactor recipe (initializer
     receives ``(n, u, v, w)``, each worker builds its own canonical
     arrays + CSR) for the before/after record (~4-10× footprint per
     run at full scale).

   Memory is ``/proc/self/smaps_rollup`` private bytes — RSS counts the
   shared segment once *per mapper*, private bytes count what a worker
   actually adds.
4. **Serve** — serial vs sharded ``query_many`` over a bounded-source
   workload: wall, q/s, and the sharded == serial bit-identity gate.

Points whose config declares a ``budget`` run a different, *budget-gated*
protocol instead: a fresh subprocess with ``REPRO_MEM_BUDGET`` pinned to
the declared budget builds the graph, builds + persists the oracle,
reloads it, and answers probe pairs — and its whole-life peak RSS
(``service.mem.peak_rss_bytes``) must stay **under the declared budget**
(``budget_gate``).  The same cell records per-edge build throughput,
gated at >= ``THROUGHPUT_GATE`` x the ``scale`` point's rate
(``throughput_gate``), and re-checks in-process that budget-autotuned
chunked ``batched_sssp`` is bit-identical to forced tiny chunks at
small n.

The full run measures three points: the BENCH_service reference graph
(``er:1024:0.02``, shards=4 — the ISSUE 6 acceptance point), a big-n
point (``gnm:200000:1000000``), where the legacy recipe pays hundreds of
MB and the shared-memory engine pays ~2 MB, and the budget-gated
million-node cell (``gnm:1000000:4000000``).

Run it with ``python scripts/bench_snapshot.py --suite scale [--smoke]``;
``run(points=["million"])`` runs a subset of the points.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.distances import SpannerDistanceOracle
from repro.graphs.graph import WeightedGraph
from repro.graphs.specs import GraphSpec
from repro.service import ArtifactStore, QueryEngine
from repro.service.mem import peak_rss_bytes, process_memory

__all__ = [
    "run",
    "format_table",
    "gates",
    "headline",
    "scale_gate",
    "identity_gate",
    "budget_gate",
    "throughput_gate",
    "graph_footprint",
    "probe_pairs",
    "SCALE_GATE",
    "THROUGHPUT_GATE",
    "WORKER_EPS_BYTES",
]

#: Combined worker memory beyond the baseline heap (after the fixed
#: per-worker allowance) must stay under this multiple of one graph's
#: array footprint — the ISSUE 6 acceptance gate (< 1.3x, vs ~4x for the
#: initializer-shipped legacy recipe).
SCALE_GATE = 1.3

#: Fixed per-worker allowance for attach overhead: interpreter heap the
#: pool initializer touches (module imports, view bookkeeping).  Measured
#: ~0.6 MB per worker and independent of graph size — the ε in
#: "O(graph + ε)".
WORKER_EPS_BYTES = int(1.5 * 2**20)

#: The million-node cell's per-edge build throughput must stay at least
#: this fraction of the ``scale`` point's (n=2x10^5) rate — chunking for
#: memory must not trade away asymptotic build speed.
THROUGHPUT_GATE = 0.5

#: Each measurement point: the spanner-oracle build config, the shard
#: count under test, and a bounded-source query workload (``sources``
#: distinct Dijkstra roots keep the row volume O(sources x n), so the
#: workload scales to big n without drowning the memory signal in rows).
FULL_CONFIG = {
    "seed": 0,
    "points": {
        "service": {
            "graph": "er:1024:0.02",
            "k": 6,
            "t": 2,
            "shards": 4,
            "sources": 48,
            "pairs": 4_000,
            "probe_pairs": 1_000,
        },
        "scale": {
            "graph": "gnm:200000:1000000",
            "k": 4,
            "t": 2,
            "shards": 4,
            "sources": 24,
            "pairs": 4_000,
            "probe_pairs": 1_000,
        },
        # Budget-gated protocol (the ``budget`` key selects it): whole
        # build+persist+load+query life under REPRO_MEM_BUDGET in a fresh
        # subprocess, peak RSS gated against the declared budget.
        "million": {
            "graph": "gnm:1000000:4000000",
            "k": 4,
            "t": 2,
            "budget": "4G",
            "sources": 16,
            "probe_pairs": 500,
            "identity_n": 2_000,
        },
    },
}
SMOKE_CONFIG = {
    "seed": 0,
    "points": {
        "scale": {
            "graph": "gnm:20000:100000",
            "k": 3,
            "t": 2,
            "shards": 2,
            "sources": 8,
            "pairs": 800,
            "probe_pairs": 200,
        },
        # CI keeps the real n=10^6 budget gate, just with a thinner edge
        # set and probe workload than the full run.
        "million": {
            "graph": "gnm:1000000:2000000",
            "k": 3,
            "t": 2,
            "budget": "4G",
            "sources": 8,
            "probe_pairs": 100,
            "identity_n": 500,
        },
    },
}


def graph_footprint(g: WeightedGraph) -> int:
    """Bytes of one physical copy of the serving arrays: the canonical
    edge triplet plus the scipy CSR (data, indices, indptr) — exactly the
    payload :class:`SharedGraphBuffers` packs."""
    if not g.m:
        return int(g.edges_u.nbytes + g.edges_v.nbytes + g.edges_w.nbytes)
    mat = g.to_scipy()
    return int(
        g.edges_u.nbytes + g.edges_v.nbytes + g.edges_w.nbytes
        + mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    )


def probe_pairs(n: int, count: int, sources: int, seed: int) -> np.ndarray:
    """A ``(count, 2)`` workload whose first column draws from a palette
    of ``sources`` distinct roots — bounded row volume at any n."""
    rng = np.random.default_rng(seed)
    palette = rng.integers(0, n, size=sources)
    return np.stack(
        [palette[rng.integers(0, sources, size=count)],
         rng.integers(0, n, size=count)],
        axis=1,
    )


def _digest(answers: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(answers).tobytes()).hexdigest()


# ----------------------------------------------------------------------
# Pool probes (top-level: the executor pickles tasks by reference)
# ----------------------------------------------------------------------
def _pool_probe(settle_s: float) -> dict:
    time.sleep(settle_s)
    return process_memory()


_LEGACY_GRAPH: WeightedGraph | None = None


def _legacy_init(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    """The pre-refactor worker recipe: arrays shipped via initargs, a
    private validating :class:`WeightedGraph`, and the private CSR the
    first ``batched_sssp`` call would have built."""
    global _LEGACY_GRAPH
    _LEGACY_GRAPH = WeightedGraph(n, u, v, w)
    _LEGACY_GRAPH.to_scipy()


def _pool_memstats(pool: ProcessPoolExecutor, workers: int, settle_s: float) -> list[dict]:
    by_pid: dict[int, dict] = {}
    for f in [pool.submit(_pool_probe, settle_s) for _ in range(4 * workers)]:
        snap = f.result()
        by_pid[snap["pid"]] = snap
    return [by_pid[pid] for pid in sorted(by_pid)]


# ----------------------------------------------------------------------
# Load probes (fresh subprocess per mode: clean peak-RSS accounting)
# ----------------------------------------------------------------------
_LOAD_PROBE_SCRIPT = """
import json, sys, time
import numpy as np

sys.path.insert(0, sys.argv[1])
from repro.service import ArtifactStore, QueryEngine
from repro.service.mem import peak_rss_bytes, process_memory
import hashlib

store_path, key, mode = sys.argv[2], sys.argv[3], sys.argv[4]
n, count, sources, seed = (int(x) for x in sys.argv[5:9])

t0 = time.perf_counter()
backend = ArtifactStore(store_path).load(key, mmap=(mode == "mmap"))
load_s = time.perf_counter() - t0
after_load = process_memory()

rng = np.random.default_rng(seed)
palette = rng.integers(0, n, size=sources)
pairs = np.stack(
    [palette[rng.integers(0, sources, size=count)],
     rng.integers(0, n, size=count)],
    axis=1,
)
engine = QueryEngine(backend)
t0 = time.perf_counter()
answers = engine.query_many(pairs)
query_s = time.perf_counter() - t0
print(json.dumps({
    "mode": mode,
    "load_s": round(load_s, 4),
    "query_s": round(query_s, 4),
    "rss_after_load_bytes": after_load["rss_bytes"],
    "private_after_load_bytes": after_load["private_bytes"],
    "peak_rss_bytes": peak_rss_bytes(),
    "digest": hashlib.sha256(np.ascontiguousarray(answers).tobytes()).hexdigest(),
}))
"""


def _load_probe(
    src_dir: str, store_path: str, key: str, mode: str,
    n: int, count: int, sources: int, seed: int,
) -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE_SCRIPT, src_dir, store_path, key,
         mode, str(n), str(count), str(sources), str(seed)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"load probe ({mode}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Budget probe (fresh subprocess: REPRO_MEM_BUDGET pinned, clean peak RSS)
# ----------------------------------------------------------------------
_BUDGET_PROBE_SCRIPT = """
import hashlib, json, sys, time
import numpy as np

sys.path.insert(0, sys.argv[1])
from repro.core import membudget
from repro.distances import SpannerDistanceOracle
from repro.graphs.specs import GraphSpec
from repro.service import ArtifactStore, QueryEngine
from repro.service.mem import peak_rss_bytes

spec, k, t, seed = sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
store_path, count, sources = sys.argv[6], int(sys.argv[7]), int(sys.argv[8])

budget = membudget.resolve_budget()  # REPRO_MEM_BUDGET set by the parent

t0 = time.perf_counter()
g = GraphSpec.parse(spec).build(weights="uniform", seed=seed)
graph_s = time.perf_counter() - t0

t0 = time.perf_counter()
oracle = SpannerDistanceOracle(g, k, t, rng=seed)
oracle_s = time.perf_counter() - t0
spanner_m = oracle.spanner.m

store = ArtifactStore(store_path)
t0 = time.perf_counter()
key = store.save_oracle(oracle, meta={"graph": spec, "seed": seed})
save_s = time.perf_counter() - t0
del oracle

engine = QueryEngine(store.load(key))
rng = np.random.default_rng(seed + 1)
palette = rng.integers(0, g.n, size=sources)
pairs = np.stack(
    [palette[rng.integers(0, sources, size=count)],
     rng.integers(0, g.n, size=count)],
    axis=1,
)
t0 = time.perf_counter()
answers = engine.query_many(pairs)
query_s = time.perf_counter() - t0
stats = engine.stats()["membudget"]

print(json.dumps({
    "n": g.n,
    "m": g.m,
    "spanner_m": int(spanner_m),
    "budget_bytes": budget,
    "graph_s": round(graph_s, 3),
    "oracle_s": round(oracle_s, 3),
    "save_s": round(save_s, 3),
    "query_s": round(query_s, 4),
    "edges_per_s": round(g.m / max(oracle_s, 1e-9), 1),
    "peak_rss_bytes": peak_rss_bytes(),
    "digest": hashlib.sha256(
        np.ascontiguousarray(answers).tobytes()).hexdigest(),
    "membudget_sites": sorted(stats["sites"]),
}))
"""


def _chunked_identity(n: int, seed: int) -> bool:
    """Budget-autotuned chunked ``batched_sssp`` == forced tiny chunks,
    bit for bit — the small-n identity leg of the million cell."""
    import repro.graphs.distances as dmod

    g = GraphSpec.parse(f"gnm:{n}:{4 * n}").build(weights="uniform", seed=seed)
    sources = np.arange(min(64, g.n))
    saved = dmod._CHUNK_ENTRIES
    try:
        dmod._CHUNK_ENTRIES = None        # budget-autotuned (covers all rows)
        expect = dmod.batched_sssp(g, sources)
        dmod._CHUNK_ENTRIES = 3 * g.n     # forced 3-row chunks
        got = dmod.batched_sssp(g, sources)
    finally:
        dmod._CHUNK_ENTRIES = saved
    return bool(np.array_equal(expect, got))


def _run_budget_point(name: str, cfg: dict, seed: int, src_dir: str, work: str) -> dict:
    store_path = os.path.join(work, f"store_{name}")
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    env["REPRO_MEM_BUDGET"] = str(cfg["budget"])
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _BUDGET_PROBE_SCRIPT, src_dir,
         cfg["graph"], str(cfg["k"]), str(cfg["t"]), str(seed), store_path,
         str(cfg["probe_pairs"]), str(cfg["sources"])],
        capture_output=True, text=True, env=env, timeout=3600,
    )
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"budget probe ({name}) failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "config": dict(cfg),
        "graph": {"n": probe["n"], "m": probe["m"],
                  "spanner_m": probe["spanner_m"]},
        "build": {
            "graph_s": probe["graph_s"],
            "oracle_s": probe["oracle_s"],
            "save_s": probe["save_s"],
            "edges_per_s": probe["edges_per_s"],
            "budget_bytes": probe["budget_bytes"],
            "peak_rss_bytes": probe["peak_rss_bytes"],
            "under_budget": bool(
                probe["peak_rss_bytes"] <= probe["budget_bytes"]),
        },
        "serve": {"probe_pairs": cfg["probe_pairs"],
                  "query_s": probe["query_s"],
                  "digest": probe["digest"]},
        "identity": {
            "chunked_matches_unchunked":
                _chunked_identity(cfg["identity_n"], seed + 3),
        },
        "membudget_sites": probe["membudget_sites"],
        "wall_s": round(wall_s, 2),
    }


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# ----------------------------------------------------------------------
# One measurement point
# ----------------------------------------------------------------------
def _run_point(name: str, cfg: dict, seed: int, src_dir: str, work: str) -> dict:
    shards = cfg["shards"]

    # --- 1: build + persist ----------------------------------------------
    t0 = time.perf_counter()
    g = GraphSpec.parse(cfg["graph"]).build(weights="uniform", seed=seed)
    graph_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle = SpannerDistanceOracle(g, cfg["k"], cfg["t"], rng=seed)
    oracle_s = time.perf_counter() - t0
    build_peak = peak_rss_bytes()

    store_path = os.path.join(work, f"store_{name}")
    store = ArtifactStore(store_path)
    t0 = time.perf_counter()
    key = store.save_oracle(oracle, meta={"graph": cfg["graph"], "seed": seed})
    save_s = time.perf_counter() - t0
    store_bytes = _dir_bytes(os.path.join(store_path, key))

    # --- 2: load probes in fresh subprocesses ----------------------------
    # Warm the page cache first: the probe order must not hand whichever
    # mode runs first the cold-disk bill.
    for root, _dirs, files in os.walk(store_path):
        for fname in files:
            with open(os.path.join(root, fname), "rb") as fh:
                while fh.read(1 << 20):
                    pass
    pp = probe_pairs(g.n, cfg["probe_pairs"], cfg["sources"], seed + 1)
    built_digest = _digest(oracle.query_many(pp))
    probes = {
        mode: _load_probe(src_dir, store_path, key, mode, g.n,
                          cfg["probe_pairs"], cfg["sources"], seed + 1)
        for mode in ("mmap", "eager")
    }

    loaded = store.load_oracle(key)  # mmap default: what serving uses
    spanner = loaded.spanner
    footprint = graph_footprint(spanner)

    # --- 3: worker-memory duel (post-init, pre-work) ---------------------
    with ProcessPoolExecutor(max_workers=shards) as pool:
        baseline = _pool_memstats(pool, shards, 0.1)
    base_private = sorted(s["private_bytes"] for s in baseline) \
        if all(s["private_bytes"] is not None for s in baseline) else None

    workload = probe_pairs(g.n, cfg["pairs"], cfg["sources"], seed + 2)
    cache_rows = 2 * cfg["sources"]
    engine = QueryEngine(loaded, cache_rows=cache_rows, shards=shards)
    worker_stats = engine.worker_memstats(settle_s=0.1)  # pool init, no rows yet
    worker_private = sorted(s["private_bytes"] for s in worker_stats) \
        if all(s["private_bytes"] is not None for s in worker_stats) else None

    with ProcessPoolExecutor(
        max_workers=shards, initializer=_legacy_init,
        initargs=(spanner.n, spanner.edges_u, spanner.edges_v, spanner.edges_w),
    ) as pool:
        legacy = _pool_memstats(pool, shards, 0.1)
    legacy_private = sorted(s["private_bytes"] for s in legacy) \
        if all(s["private_bytes"] is not None for s in legacy) else None

    def _overheads(private):
        if private is None or base_private is None:
            return None, None, None
        floor = base_private[len(base_private) // 2]
        raw = sum(max(b - floor, 0) for b in private)
        gated = max(0, raw - shards * WORKER_EPS_BYTES)
        return raw, gated, round(gated / footprint, 3)

    overhead, overhead_eps, ratio = _overheads(worker_private)
    legacy_overhead, legacy_eps, legacy_ratio = _overheads(legacy_private)

    # --- 4: serve (serial vs sharded, bit-identity) ----------------------
    serial = QueryEngine(loaded, cache_rows=cache_rows)
    t0 = time.perf_counter()
    serial_out = serial.query_many(workload)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    sharded_out = engine.query_many(workload)
    sharded_s = time.perf_counter() - t0
    engine.close()
    serve_peak = peak_rss_bytes()

    return {
        "config": dict(cfg),
        "graph": {"n": g.n, "m": g.m, "spanner_m": spanner.m,
                  "endpoint_dtype": str(spanner.edges_u.dtype)},
        "build": {"graph_s": round(graph_s, 3), "oracle_s": round(oracle_s, 3),
                  "edges_per_s": round(g.m / max(oracle_s, 1e-9), 1),
                  "peak_rss_bytes": build_peak},
        "save": {"wall_s": round(save_s, 3), "store_bytes": store_bytes},
        "load": {
            "mmap": probes["mmap"],
            "eager": probes["eager"],
            "mmap_eager_identical": probes["mmap"]["digest"] == probes["eager"]["digest"],
            "loaded_matches_built": probes["mmap"]["digest"] == built_digest,
        },
        "memory": {
            "footprint_bytes": footprint,
            "worker_eps_bytes": WORKER_EPS_BYTES,
            "baseline_private_bytes": base_private,
            "worker_private_bytes": worker_private,
            "overhead_bytes": overhead,
            "overhead_minus_eps_bytes": overhead_eps,
            "overhead_ratio": ratio,
            "legacy_private_bytes": legacy_private,
            "legacy_overhead_bytes": legacy_overhead,
            "legacy_overhead_ratio": legacy_ratio,
        },
        "serve": {
            "pairs": int(workload.shape[0]),
            "serial_s": round(serial_s, 4),
            "serial_qps": round(workload.shape[0] / max(serial_s, 1e-9), 1),
            "sharded_s": round(sharded_s, 4),
            "sharded_qps": round(workload.shape[0] / max(sharded_s, 1e-9), 1),
            "sharded_identical": bool(np.array_equal(serial_out, sharded_out)),
            "peak_rss_bytes": serve_peak,
        },
    }


def run(*, smoke: bool = False, points: list[str] | None = None) -> dict:
    """Execute the protocol at every measurement point; JSON-ready record.

    ``points`` selects a subset of the config's points by name (e.g.
    ``["million"]`` for a CI step that only wants the budget gate).
    """
    cfg = SMOKE_CONFIG if smoke else FULL_CONFIG
    selected = cfg["points"]
    if points:
        unknown = sorted(set(points) - set(selected))
        if unknown:
            raise ValueError(
                f"unknown point(s) {unknown}; available: {sorted(selected)}")
        selected = {name: selected[name] for name in points}
    src_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    work = tempfile.mkdtemp(prefix="bench_scale_")
    try:
        results = {
            name: (_run_budget_point if "budget" in point else _run_point)(
                name, point, cfg["seed"], src_dir, work)
            for name, point in selected.items()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "suite": "scale",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "scale_gate": SCALE_GATE,
        "throughput_gate": THROUGHPUT_GATE,
        "worker_eps_bytes": WORKER_EPS_BYTES,
        "points": results,
    }


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def scale_gate(record: dict, *, maximum: float = SCALE_GATE):
    """The worker-memory acceptance gate, enforced at every scale.

    Per point: combined worker private bytes beyond the baseline heap,
    after the fixed ``WORKER_EPS_BYTES`` per-worker allowance, must stay
    under ``maximum`` × one graph footprint.  Returns ``(ok, reasons)``;
    points without ``smaps_rollup`` (non-Linux) skip with a reason.
    """
    reasons, ok = [], True
    for name, point in record.get("points", {}).items():
        if "memory" not in point:
            continue  # budget-gated points have no worker pool
        mem = point["memory"]
        ratio = mem.get("overhead_ratio")
        if ratio is None:
            reasons.append(f"{name}: skipped (no private-bytes accounting on this platform)")
            continue
        legacy = mem.get("legacy_overhead_ratio")
        tail = f" (legacy recipe: {legacy}x)" if legacy is not None else ""
        if ratio < maximum:
            reasons.append(
                f"{name}: worker overhead {ratio}x of footprint meets the <{maximum}x gate{tail}"
            )
        else:
            ok = False
            reasons.append(
                f"{name}: worker overhead {ratio}x of footprint EXCEEDS the <{maximum}x gate{tail}"
            )
    return ok, reasons


def identity_gate(record: dict):
    """Bit-identity invariants — enforced at every scale.

    Returns ``(ok, reasons)``.  Pool points check sharded == serial,
    mmap == eager load, and loaded-from-disk == freshly built; budget
    points check chunked == unchunked ``batched_sssp``.  Only the checks
    a point's protocol produced are evaluated.
    """
    reasons, ok = [], True
    for name, point in record.get("points", {}).items():
        checks = {}
        srv = point.get("serve", {})
        if "sharded_identical" in srv:
            checks["sharded_identical"] = srv["sharded_identical"]
        ld = point.get("load", {})
        for key in ("mmap_eager_identical", "loaded_matches_built"):
            if key in ld:
                checks[key] = ld[key]
        checks.update(point.get("identity", {}))
        if not checks:
            ok = False
            reasons.append(f"{name}: FAILED (no identity checks recorded)")
            continue
        for check, value in checks.items():
            if value:
                reasons.append(f"{name}.{check}: ok")
            else:
                ok = False
                reasons.append(f"{name}.{check}: FAILED")
    return ok, reasons


def budget_gate(record: dict):
    """Budget-gated points must finish their whole build + persist +
    load + query life with subprocess peak RSS
    (``service.mem.peak_rss_bytes``) **under** the declared
    ``REPRO_MEM_BUDGET``.  Points without a declared budget are skipped.
    """
    reasons, ok = [], True
    for name, point in record.get("points", {}).items():
        build = point.get("build", {})
        budget = build.get("budget_bytes")
        if budget is None:
            continue
        peak = build.get("peak_rss_bytes")
        line = f"{name}: peak RSS {_mb(peak)} vs declared budget {_mb(budget)}"
        if peak is not None and peak <= budget:
            reasons.append(line + " — under budget")
        else:
            ok = False
            reasons.append(line + " — OVER BUDGET")
    if not reasons:
        reasons.append("skipped (no budget-gated points in this run)")
    return ok, reasons


def throughput_gate(record: dict, *, minimum: float = THROUGHPUT_GATE):
    """The million cell's per-edge build rate vs the scale point's.

    Memory-bounded chunking must not trade away asymptotic build speed:
    ``million.build.edges_per_s >= minimum x scale.build.edges_per_s``.
    Recorded but not enforced on smoke runs (the thin smoke configs
    measure different k/m regimes).
    """
    points = record.get("points", {})
    ref = points.get("scale", {}).get("build", {}).get("edges_per_s")
    big = points.get("million", {}).get("build", {}).get("edges_per_s")
    if ref is None or big is None:
        return True, ["skipped (needs both the scale and million points)"]
    ratio = big / max(ref, 1e-9)
    line = (f"million build {big:,.0f} edges/s vs scale {ref:,.0f} edges/s "
            f"= {ratio:.2f}x (gate >= {minimum}x)")
    if record.get("smoke"):
        return True, [f"recorded, not enforced in smoke: {line}"]
    if ratio >= minimum:
        return True, [line + " — ok"]
    return False, [line + " — BELOW GATE"]


def gates(record: dict, committed: dict | None = None) -> list[tuple[str, bool, list[str]]]:
    return [
        ("scale gate", *scale_gate(record)),
        ("identity gate", *identity_gate(record)),
        ("budget gate", *budget_gate(record)),
        ("throughput gate", *throughput_gate(record)),
    ]


def headline(record: dict) -> dict[str, float | None]:
    """Worker overhead (pool points) or peak RSS vs budget (budget points),
    plus build throughput, per point."""
    out: dict[str, float | None] = {}
    for name, point in sorted(record["points"].items()):
        if "memory" in point:
            out[f"{name} worker overhead_ratio"] = point["memory"]["overhead_ratio"]
            out[f"{name} legacy overhead_ratio"] = point["memory"]["legacy_overhead_ratio"]
        else:
            out[f"{name} peak_rss_bytes"] = point["build"]["peak_rss_bytes"]
            out[f"{name} budget_bytes"] = point["build"]["budget_bytes"]
        out[f"{name} build edges_per_s"] = point["build"]["edges_per_s"]
    return out


def _mb(x) -> str:
    return "-" if x is None else f"{x / 2**20:.1f}MB"


def format_table(record: dict) -> str:
    lines = [
        f"scale bench ({'smoke' if record['smoke'] else 'full'}, "
        f"cpu_count={record['cpu_count']})"
    ]
    for name, point in record["points"].items():
        if "budget_bytes" in point.get("build", {}):
            gr, b, srv = point["graph"], point["build"], point["serve"]
            lines += [
                f"  [{name}] n={gr['n']:,} m={gr['m']:,} "
                f"spanner_m={gr['spanner_m']:,} (budget-gated)",
                f"    build {b['oracle_s']:.2f}s ({b['edges_per_s']:,.0f} edges/s), "
                f"peak {_mb(b['peak_rss_bytes'])} vs budget {_mb(b['budget_bytes'])} "
                f"(under={b['under_budget']})",
                f"    query {srv['probe_pairs']} pairs in {srv['query_s']:.3f}s; "
                f"chunked==unchunked: "
                f"{point['identity']['chunked_matches_unchunked']}",
            ]
            continue
        gr, mem, srv, ld = point["graph"], point["memory"], point["serve"], point["load"]
        lines += [
            f"  [{name}] n={gr['n']:,} spanner_m={gr['spanner_m']:,} "
            f"({gr['endpoint_dtype']} endpoints, store {_mb(point['save']['store_bytes'])})",
            f"    build {point['build']['oracle_s']:.2f}s "
            f"(peak {_mb(point['build']['peak_rss_bytes'])}); "
            f"load mmap {ld['mmap']['load_s']:.3f}s/peak {_mb(ld['mmap']['peak_rss_bytes'])} "
            f"vs eager {ld['eager']['load_s']:.3f}s/peak {_mb(ld['eager']['peak_rss_bytes'])}",
            f"    workers x{point['config']['shards']}: footprint {_mb(mem['footprint_bytes'])}, "
            f"overhead {_mb(mem['overhead_bytes'])} "
            f"({mem['overhead_ratio']}x gated) vs legacy {_mb(mem['legacy_overhead_bytes'])} "
            f"({mem['legacy_overhead_ratio']}x)",
            f"    serve: serial {srv['serial_qps']:,.0f} q/s, "
            f"sharded {srv['sharded_qps']:,.0f} q/s, "
            f"identical={srv['sharded_identical']}",
        ]
    return "\n".join(lines)
