"""Build-once/serve-many benchmark of the spanner -> bundle -> QueryServer stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

Both workloads set up by building gnm:10000:300000 at the APSP setting
``apsp_parameters(n)`` (``general`` -> ``SpannerResult.subgraph`` ->
``DistanceSketch`` -> ``ArtifactStore.save_bundle``), several times, and
then serve the artifact (see README.md for why each exists):

``serve-hot``
    ``QueryServer`` with a 1024-row cache; 80% oracle requests from a zipf
    hot set the row cache holds, 20% sketch requests.
``serve-cold``
    a 256-row cache and uniform oracle sources, so nearly every request
    solves a Dijkstra row.

Every served reply is checked bit for bit against an offline
``QueryEngine.query_many`` on the same artifact; the spanner is checked
against its input graph and the registry's stretch claim.  The last stdout
line is the result object; the line before it is the full run record
(environment, set-up split by phase, checks, generator validity, and with
``--trace 1`` the per-layer span summary).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import importlib
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    from repro.core.params import apsp_parameters
    from repro.distances.sketches import DistanceSketch
    from repro.graphs.distances import batched_sssp, same_components
    from repro.graphs.graph import WeightedGraph
    from repro.graphs.specs import GraphSpec
    # The package re-exports a function under the module's name.
    general_mod = importlib.import_module("repro.core.general_tradeoff")
    from repro.registry import ClaimContext, get_algorithm
    from repro.service.engine import QueryEngine
    from repro.service.server import AsyncClient
    from repro.service.shm import SHM_PREFIX
    from repro.service.store import ArtifactStore

    import loadgen
    from loadgen import BACKENDS, Requests
    from metrics import best_window, environment, percentile, window_percentiles, window_rates
    from server_proc import offline_answers, serve_main, spin_idle
    from spans import Tracer, span_cost_s, summarize
except ImportError as exc:  # e.g. run outside a full checkout
    print(f"perfbench: cannot import the library under {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

ALGORITHM = "general"
HOT_SET = 256
CONNECTIONS = 2  # load-generator connections; the machine has 2 CPUs
ZIPF_S = 1.2
ORACLE_SHARE = 0.8
STRETCH_PROBES = 24  # probe sources; every vertex is a probe target
MAX_LAG_P99_MS = 2.0  # open-loop generator validity limits
MAX_LATE_SHARE = 0.05
RATE_WINDOW = 2000  # closed-loop replies per throughput window (record only)


@dataclass(frozen=True)
class Serve:
    mix: str  # "hot" or "cold"
    cache_rows: int
    rate: float  # open-loop requests per second
    window: int  # closed-loop requests in flight per connection
    latency_window: int  # open-loop requests per latency window
    open_share: float = 0.7  # of the serve seconds; the rest is closed loop
    hot_set: int = HOT_SET


@dataclass(frozen=True)
class Workload:
    graph: str
    serve: Serve
    setup_reps: int = 4


WORKLOADS = {
    "serve-hot": Workload(
        "gnm:10000:300000", Serve("hot", cache_rows=1024, rate=3000.0, window=64, latency_window=1000)
    ),
    # serve-cold's open loop (~1,300 requests) is one latency window: its
    # row solves make every window's p50 follow the host's speed, and the
    # whole phase's p50 spreads least.
    "serve-cold": Workload(
        "gnm:10000:300000",
        Serve("cold", cache_rows=256, rate=60.0, window=8, latency_window=2000, open_share=0.85),
    ),
}

SMOKE_GRAPH = "gnm:600:6000"

UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "spanner_edge_ratio": "ratio",
    "stretch_max": "ratio",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "throughput_qps": "1/s",
    "success_share": "share",
}


def smoke(wl: Workload) -> Workload:
    """A seconds-long version of ``wl`` for the benchmark's own tests."""
    return replace(
        wl,
        graph=SMOKE_GRAPH,
        serve=replace(wl.serve, hot_set=32, rate=min(wl.serve.rate, 500.0)),
        setup_reps=2,
    )


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """Handle on the forked server (see ``server_proc``), and, when the
    server has a CPU of its own, on an idle-priority busy loop that keeps
    that CPU from halting while :meth:`keep_awake` is on."""

    TIMEOUT_S = 120.0

    def __init__(self, trace: bool, cpus=None) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=serve_main, args=(child, trace, cpus), daemon=True)
        self.proc.start()
        child.close()
        self._spin = ctx.RawValue("b", 0)
        self.spinner = None
        if cpus:
            self.spinner = ctx.Process(target=spin_idle, args=(self._spin, cpus), daemon=True)
            self.spinner.start()

    def keep_awake(self, on: bool) -> None:
        self._spin.value = int(on)

    def call(self, op: str, arg=None) -> dict:
        self.submit(op, arg)
        return self.result(op)

    def submit(self, op: str, arg=None) -> None:
        self._conn.send((op, arg))

    def result(self, op: str) -> dict:
        if not self._conn.poll(self.TIMEOUT_S):
            raise TimeoutError(f"server did not answer {op!r}")
        reply = self._conn.recv()
        if isinstance(reply, dict) and "error" in reply:
            raise RuntimeError(f"server failed on {op!r}:\n{reply['error']}")
        return reply

    def stop(self) -> None:
        """End the processes and wait for them; kill any that does not exit."""
        self._spin.value = -1
        if self.proc.is_alive():
            try:
                self._conn.send(("exit", None))
            except (BrokenPipeError, OSError):
                pass
            self.proc.join(10.0)
        for proc in (self.proc, self.spinner):
            if proc is None:
                continue
            proc.join(10.0)
            if proc.is_alive():
                proc.kill()
                proc.join(10.0)
        self._conn.close()


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Run:
    def __init__(self, args, wl: Workload, server: ServerProcess, work: Path) -> None:
        self.args = args
        self.wl = wl
        self.server = server
        self.work = work
        self.seed = int(args.seed)
        self.tracer = Tracer()
        self.algo = get_algorithm(ALGORITHM)
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.record: dict = {"workload": args.workload, "smoke": bool(args.smoke)}

    # -- bookkeeping ---------------------------------------------------
    def check(self, name: str, ok: bool, detail=None) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        self.attempted += 1
        self.failed += 0 if ok else 1

    def instrument(self) -> None:
        """Spans around the build layers, patched where their callers look."""
        t = self.tracer
        t.wrap(GraphSpec, "build", "graphs.generate")
        t.wrap(general_mod, "run_growth_iterations", "core.growth")
        t.wrap(general_mod, "quotient_edges", "graphs.quotient")
        t.wrap(WeightedGraph, "subgraph_from_edge_ids", "graphs.subgraph")

    # -- building ------------------------------------------------------
    def generate(self) -> tuple[WeightedGraph, float]:
        gc.collect()
        t0 = time.perf_counter()
        g = GraphSpec.parse(self.wl.graph).build(weights="uniform", seed=self.seed)
        return g, time.perf_counter() - t0

    def build(self, g: WeightedGraph, k: int, t: int, rep: int) -> dict:
        """general -> subgraph -> DistanceSketch -> save_bundle, timed by stage.

        Repetition ``rep`` draws the construction's randomness from its own
        seed, so a run's repetitions average over independent spanners.
        """
        span = self.tracer.span
        rng_seed = self.seed * 1000 + rep
        store_dir = self.work / f"store{rep}"
        gc.collect()
        t0 = time.perf_counter()
        with span("core.general"):
            res = self.algo.run(g, k=k, t=t, rng=rng_seed)
        t1 = time.perf_counter()
        h = res.subgraph(g)
        t2 = time.perf_counter()
        with span("distances.sketch_build"):
            sk = DistanceSketch(g, k, rng=rng_seed)
        t3 = time.perf_counter()
        with span("service.store.save"):
            key = ArtifactStore(store_dir).save_bundle(
                g, h, sk, k=res.k, t=res.t,
                t_effective=res.extra.get("t_effective", res.t),
                meta={"graph": self.wl.graph, "seed": rng_seed},
            )
        t4 = time.perf_counter()
        return {
            "key": key,
            "store": store_dir,
            "result": res,
            "spanner": h,
            "phases": {"general_s": t1 - t0, "subgraph_s": t2 - t1, "sketch_s": t3 - t2, "save_s": t4 - t3},
            "build_s": t4 - t0,
            "bytes_written": sum(p.stat().st_size for p in store_dir.rglob("*") if p.is_file()),
        }

    def spanner_checks(self, g: WeightedGraph, builds: list[dict], k: int, t: int) -> list[dict]:
        """Subset, components, reachability and stretch of every built
        spanner (untimed).  The probe pairs are fixed by the seed: a few
        sources, every vertex as target.  Each spanner gets its own
        sources, so one unlucky probe set does not raise every spanner's
        maximum at once."""
        claim = float(self.algo.claims.stretch(ClaimContext(n=g.n, m=g.m, k=k, t=t)))
        out = []
        for rep, built in enumerate(builds):
            rng = np.random.default_rng([self.seed, 7, rep])
            sources = rng.choice(g.n, size=min(STRETCH_PROBES, g.n), replace=False)
            true = batched_sssp(g, sources)
            finite = np.isfinite(true) & (true > 0)
            h = built["spanner"]
            via = batched_sssp(h, sources)
            stretch_max = float((via[finite] / true[finite]).max())
            self.check("spanner_edge_subset", g.has_edge_subset(h))
            self.check("spanner_same_components", same_components(g, h))
            self.check("reachability_preserved", bool(np.array_equal(np.isfinite(true), np.isfinite(via))))
            self.check("stretch_within_claim", stretch_max <= claim, {"stretch_max": stretch_max, "claim": claim})
            out.append({"spanner_m": h.m, "edge_ratio": h.m / g.m, "stretch_max": stretch_max,
                        "stretch_claim": claim, "probe_pairs": int(finite.sum())})
        return out

    # -- serving -------------------------------------------------------
    def traffic(self, n: int, hot: np.ndarray, count: int, rng) -> Requests:
        s = self.wl.serve
        if s.mix == "hot":
            return loadgen.hot_mix(rng, n, hot, count, oracle_share=ORACLE_SHARE, zipf_s=ZIPF_S)
        return loadgen.uniform_mix(rng, n, count, 0)

    def warm_requests(self, n: int, hot: np.ndarray) -> Requests:
        """Set-up traffic: every hot row for the hot mix (a few uniform
        oracle sources for the cold mix), plus some sketch walks."""
        rng = np.random.default_rng([self.seed, 3])
        src = hot if self.wl.serve.mix == "hot" else rng.integers(0, n, 64)
        oracle = Requests(src, rng.integers(0, n, src.size), np.zeros(src.size, dtype=np.int64))
        return Requests.concat([oracle, loadgen.uniform_mix(rng, n, 32, 1)])

    def plan(self, n: int, serve_s: float) -> tuple[Requests, dict]:
        """Warm-up requests and the measured phases' traffic, from the seed."""
        s = self.wl.serve
        rng = np.random.default_rng([self.seed, 1])
        hot = rng.choice(n, size=min(s.hot_set, n), replace=False)
        warm = self.warm_requests(n, hot)
        open_s = serve_s * s.open_share
        closed_s = serve_s - open_s
        return warm, {
            "open": self.traffic(n, hot, max(1, int(round(s.rate * open_s))), rng),
            "rate": s.rate,
            # More than the closed loop can use at ~60k replies/s.
            "closed": self.traffic(n, hot, int(60000 * closed_s) + 1000, rng),
            "window": s.window,
            "closed_s": closed_s,
        }

    async def session(self, port: int, warm: Requests, plan: dict | None) -> dict:
        """Connect, warm up (timed), then run the measured phases if any."""
        clients = [await AsyncClient.connect("127.0.0.1", port) for _ in range(CONNECTIONS)]
        try:
            t0 = time.perf_counter()
            warm_d = await loadgen.waves(clients, warm)
            out = {"warm_s": time.perf_counter() - t0, "warm_d": warm_d}
            if plan is not None:
                out["server_mem"] = {"after_warm": self.server.call("mem")}
                if self.args.trace:
                    out["warm_spans"] = self.server.call("spans")
                gc.collect()
                out["stats_before"] = await clients[0].stats()
                # The generator keeps every reply for the checks; collector
                # passes over them would stall its send schedule.
                gc.disable()
                self.server.keep_awake(True)
                try:
                    out["open"] = await loadgen.open_loop(clients, plan["open"], plan["rate"])
                    out["server_mem"]["after_open"] = self.server.call("mem")
                    # Throughput is counted per second of server CPU time.
                    batches0 = (await clients[0].stats())["batches_flushed"]
                    cpu0 = self.server.call("cpu")["cpu_s"]
                    out["closed"] = await loadgen.closed_loop(
                        clients, plan["closed"], plan["window"], plan["closed_s"]
                    )
                    out["closed"]["server_cpu_s"] = self.server.call("cpu")["cpu_s"] - cpu0
                    out["closed"]["batches"] = (await clients[0].stats())["batches_flushed"] - batches0
                finally:
                    self.server.keep_awake(False)
                    gc.enable()
                out["server_mem"]["after_closed"] = self.server.call("mem")
                out["stats_after"] = await clients[0].stats()
                if self.args.trace:
                    out["measured_spans"] = self.server.call("spans")
            return out
        finally:
            for c in clients:
                await c.close()

    def serve_once(self, built: dict, warm: Requests, plan: dict | None) -> dict:
        """Load ``built`` into the server, warm it up, optionally measure,
        drain it, and check the reply accounting and every served answer."""
        loaded = self.server.call(
            "load", {"store": str(built["store"]), "key": built["key"], "cache_rows": self.wl.serve.cache_rows}
        )
        sess = asyncio.run(self.session(loaded["port"], warm, plan))
        sess["load_s"] = loaded["load_s"]
        reqs, d = [warm], [sess["warm_d"]]
        if plan is not None:
            cl = sess["closed"]
            reqs += [plan["open"], Requests(*(getattr(plan["closed"], f)[: cl["sent"]] for f in ("u", "v", "backend")))]
            d += [sess["open"]["d"], cl["d"]]
        reqs, d = Requests.concat(reqs), np.concatenate(d)
        ok = int(np.count_nonzero(~np.isnan(d)))
        stats = self.server.call("close")["stats"]
        sess["final_stats"] = stats
        self.check(
            "admitted_equals_replied",
            stats["pending"] == 0
            and stats["served"] == ok
            and stats["rejected"] + stats["protocol_errors"] == d.size - ok,
            {"served": stats["served"], "rejected": stats["rejected"],
             "protocol_errors": stats["protocol_errors"], "client_ok": ok,
             "client_errors": int(d.size - ok)},
        )
        if plan is not None:
            sess["server_peak"] = self.server.call("mem")["peak_rss_bytes"]
        mismatches = self.verify_replies(built["store"], built["key"], reqs, d, helper=plan is not None)
        self.check("replies_identical_offline", mismatches == 0, {"mismatches": mismatches, "replies": ok})
        self.attempted += int(d.size)
        self.failed += int(d.size - ok) + mismatches
        return sess

    def verify_replies(self, store_dir: Path, key: str, reqs: Requests, d: np.ndarray, *, helper: bool) -> int:
        """Compare served distances with offline ``query_many``; returns
        mismatches.  With ``helper`` the idle server process answers half
        the requests while this process answers the other half (only after
        the server's peak RSS has been read: the answers raise it)."""
        ok = np.flatnonzero(~np.isnan(d))
        if not helper:
            mine = {"u": reqs.u[ok], "v": reqs.v[ok], "backend": reqs.backend[ok]}
            want = offline_answers(str(store_dir), key, self.wl.serve.cache_rows, **mine)
            return int(np.count_nonzero(want != d[ok]))
        halves = ok[: ok.size // 2], ok[ok.size // 2 :]
        common = {"store": str(store_dir), "key": key, "cache_rows": self.wl.serve.cache_rows}
        theirs, mine = (
            {**common, "u": reqs.u[h], "v": reqs.v[h], "backend": reqs.backend[h]} for h in halves
        )
        self.server.submit("answer", theirs)
        want_mine = offline_answers(**mine)
        want_theirs = self.server.result("answer")["d"]
        return int(np.count_nonzero(want_theirs != d[halves[0]])) + int(
            np.count_nonzero(want_mine != d[halves[1]])
        )

    # -- the workload --------------------------------------------------
    def execute(self) -> dict:
        args, wl, s = self.args, self.wl, self.wl.serve
        if args.trace:
            self.instrument()
        self.warm_up_code_paths()
        t_run = time.perf_counter()

        # Each set-up repetition generates, builds, saves, loads and warms
        # a fresh server; the last one also carries the measured phases.
        gens: list[float] = []
        builds: list[dict] = []
        sessions: list[dict] = []
        for r in range(wl.setup_reps):
            g, dt = self.generate()
            gens.append(dt)
            k, t = apsp_parameters(g.n)
            builds.append(self.build(g, k, t, r))
            if r == 0:
                warm, plan = self.plan(g.n, args.seconds)
            last = r == wl.setup_reps - 1
            sessions.append(self.serve_once(builds[-1], warm, plan if last else None))
            if not last:
                shutil.rmtree(builds[-1]["store"])
        setup_split = {
            "generate_s": gens,
            "build_s": [b["build_s"] for b in builds],
            "load_s": [x["load_s"] for x in sessions],
            "warm_s": [x["warm_s"] for x in sessions],
        }
        setup_split["total_s"] = [sum(parts) for parts in zip(*setup_split.values())]
        self.attempted += len(builds)
        sess = sessions[-1]

        gc.collect()
        spanners = self.spanner_checks(g, builds, k, t)
        server_peak = sess["server_peak"]

        op, cl = sess["open"], sess["closed"]
        lat = op["latency_s"]
        lag_ms = op["lag_s"] * 1e3
        lag_p99 = float(percentile(lag_ms, 99))
        late_share = float(np.mean(lag_ms > loadgen.LATE_S * 1e3))
        valid = lag_p99 <= MAX_LAG_P99_MS and late_share <= MAX_LATE_SHARE
        if not valid:
            print(f"perfbench: INVALID run: the load generator fell behind (lag p99 "
                  f"{lag_p99:.3f} ms, late share {late_share:.3f})", file=sys.stderr)
        t_reply = cl["t_reply"][~np.isnan(cl["t_reply"])]
        res = builds[-1]["result"]
        metrics = {
            "setup_s": statistics.median(setup_split["total_s"]),
            "build_s": statistics.median(b["build_s"] for b in builds),
            "spanner_edge_ratio": statistics.fmean(x["edge_ratio"] for x in spanners),
            "stretch_max": statistics.fmean(x["stretch_max"] for x in spanners),
            "peak_rss_mb": server_peak / 2**20,
            "latency_p50_ms": best_window(lat, 50, s.latency_window) * 1e3,
            "throughput_qps": cl["replies"] / cl["server_cpu_s"],
            "success_share": None,  # main() adds the last checks first
        }
        self.record.update(
            {
                "config": {"graph": wl.graph, "k": k, "t": t, "serve": asdict(s),
                           "setup_reps": wl.setup_reps},
                "setup_split": setup_split,
                "builds": [dict(b["phases"], build_s=b["build_s"]) for b in builds],
                "spanners": spanners,
                "spanner_last": {"n": g.n, "m": g.m, "iterations": res.iterations,
                                 "phase2_added": res.phase2_added,
                                 "final_super_nodes": res.extra.get("final_super_nodes")},
                "open_loop": {"requests": int(lat.size), "rate": s.rate,
                              "failed": int(np.count_nonzero(np.isinf(lat))),
                              "p50_ms": float(percentile(lat, 50)) * 1e3,
                              "p99_ms": float(percentile(lat, 99)) * 1e3,
                              "samples_beyond_p99": int(np.count_nonzero(lat > percentile(lat, 99))),
                              "window": s.latency_window,
                              "window_p50_ms": [x * 1e3 for x in window_percentiles(lat, 50, s.latency_window)],
                              "lag_p99_ms": lag_p99, "late_share": late_share, "wall_s": op["wall_s"]},
                "closed_loop": {"sent": cl["sent"], "replies": cl["replies"], "wall_s": cl["wall_s"],
                                "qps_wall": cl["qps"], "server_cpu_s": cl["server_cpu_s"],
                                "server_busy_share": cl["server_cpu_s"] / cl["wall_s"],
                                "batch_size_mean": cl["replies"] / max(cl["batches"], 1), "window": RATE_WINDOW,
                                "window_qps": window_rates(t_reply, RATE_WINDOW),
                                "in_flight_per_connection": s.window, "connections": CONNECTIONS},
                "server_mem": sess["server_mem"],
                "valid": valid,
                "checks": self.checks,
            }
        )
        if args.trace:
            self.record["layers"] = self.layer_metrics(builds, sessions, res, time.perf_counter() - t_run)
        return metrics

    def layer_metrics(self, builds, sessions, res, run_wall: float) -> dict:
        """Per-layer metrics: build layers from this process's spans, serve
        layers from the server's spans and its ``stats`` replies."""
        nb = len(builds)
        here = summarize(self.tracer.take())
        sess = sessions[-1]
        measured = sess["measured_spans"]
        life: dict = {}
        for part in (sess["warm_spans"], measured):
            for name, row in part.items():
                acc = life.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for f in acc:
                    acc[f] += row[f]

        def get(table, name, field):
            return table.get(name, {}).get(field, 0.0)

        before, after = sess["stats_before"], sess["stats_after"]
        eng0, eng1 = before["engine"], after["engine"]
        cache0 = eng0["planner"]["backends"]["oracle"]["cache"]
        cache1 = eng1["planner"]["backends"]["oracle"]["cache"]
        hits = cache1["hits"] - cache0["hits"]
        lookups = hits + cache1["misses"] - cache0["misses"]
        batches = after["batches_flushed"] - before["batches_flushed"]
        served = after["served"] - before["served"]
        queries = eng1["queries_served"] - eng0["queries_served"]
        measured_wall = sess["open"]["wall_s"] + sess["closed"]["wall_s"]
        ends = [x["final_stats"]["engine"] for x in sessions]
        rows = sum(e["rows_solved"] for e in ends)
        served_by = {
            name: sum(e["planner"]["backends"][name]["queries_served"] for e in ends)
            for name in BACKENDS
        }
        open_loop = self.record["open_loop"]
        spans_recorded = sum(r["calls"] for r in here.values()) + sum(r["calls"] for r in life.values())
        cost = span_cost_s()
        return {
            "metrics": {
                "graphs.generate_s": get(here, "graphs.generate", "self_s") / max(get(here, "graphs.generate", "calls"), 1),
                "core.growth_s": get(here, "core.growth", "self_s") / nb,
                "core.growth_calls": get(here, "core.growth", "calls") / nb,
                "core.general_self_s": get(here, "core.general", "self_s") / nb,
                "graphs.quotient_s": get(here, "graphs.quotient", "self_s") / nb,
                "graphs.subgraph_s": get(here, "graphs.subgraph", "self_s") / nb,
                "distances.sketch_build_s": get(here, "distances.sketch_build", "self_s") / nb,
                "service.store.save_s": get(here, "service.store.save", "self_s") / nb,
                "service.store.bytes_written": builds[-1]["bytes_written"],
                "core.iterations": res.iterations,
                "core.final_super_nodes": res.extra.get("final_super_nodes"),
                "core.phase2_added": res.phase2_added,
                "service.store.load_s": get(life, "service.store.load", "total_s") / max(get(life, "service.store.load", "calls"), 1),
                "service.server.batches": batches,
                "service.server.batch_size_mean": served / max(batches, 1),
                "service.engine.busy_share": get(measured, "service.engine.query_many", "total_s") / measured_wall,
                "service.engine.us_per_query": get(measured, "service.engine.query_many", "total_s") / max(queries, 1) * 1e6,
                "service.provider.oracle_us_per_query": get(life, "service.provider.oracle", "total_s") / max(served_by["oracle"], 1) * 1e6,
                "service.provider.sketch_us_per_query": get(life, "service.provider.sketch", "total_s") / max(served_by["sketch"], 1) * 1e6,
                "core.cache.hit_ratio": hits / max(lookups, 1),
                "core.cache.evictions": cache1["evictions"] - cache0["evictions"],
                "graphs.sssp_rows": rows,
                "graphs.sssp_ms_per_row": get(life, "graphs.batched_sssp", "total_s") / max(rows, 1) * 1e3,
                "service.server.rejected": after["rejected"] - before["rejected"],
                "service.server.protocol_errors": after["protocol_errors"] - before["protocol_errors"],
                "loadgen.latency_p99_ms": open_loop["p99_ms"],
                "loadgen.lag_p99_ms": open_loop["lag_p99_ms"],
                "loadgen.late_share": open_loop["late_share"],
                "trace.span_cost_us": cost * 1e6,
                "trace.overhead_share": spans_recorded * cost / run_wall,
            },
            "spans_bench": here,
            "spans_server_measured": measured,
            "spans_server_all": life,
        }

    def warm_up_code_paths(self) -> None:
        """One untimed tiny build + save + query so no timed phase pays a
        first-call import or cache fill."""
        g = GraphSpec.parse("gnm:200:1200").build(weights="uniform", seed=0)
        k, t = apsp_parameters(g.n)
        built = self.build(g, k, t, rep=999)
        engine = QueryEngine.from_store(built["store"], built["key"], cache_rows=8)
        for name in BACKENDS:
            engine.query_many(np.array([[0, 1], [2, 3]]), backend=name)
        engine.close()
        shutil.rmtree(built["store"])
        self.tracer.take()


PER_LAYER_UNITS = {
    "graphs.generate_s": "s",
    "core.growth_s": "s",
    "core.growth_calls": "count",
    "core.general_self_s": "s",
    "graphs.quotient_s": "s",
    "graphs.subgraph_s": "s",
    "distances.sketch_build_s": "s",
    "service.store.save_s": "s",
    "service.store.bytes_written": "bytes",
    "core.iterations": "count",
    "core.final_super_nodes": "count",
    "core.phase2_added": "count",
    "service.store.load_s": "s",
    "service.server.batches": "count",
    "service.server.batch_size_mean": "count",
    "service.engine.busy_share": "share",
    "service.engine.us_per_query": "us",
    "service.provider.oracle_us_per_query": "us",
    "service.provider.sketch_us_per_query": "us",
    "core.cache.hit_ratio": "ratio",
    "core.cache.evictions": "count",
    "graphs.sssp_rows": "count",
    "graphs.sssp_ms_per_row": "ms",
    "service.server.rejected": "count",
    "service.server.protocol_errors": "count",
    "loadgen.latency_p99_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.late_share": "share",
    "trace.span_cost_us": "us",
    "trace.overhead_share": "share",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs (the benchmark's own tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = smoke(wl)
    # Fork the server before anything is built: its peak RSS then counts
    # only what it loads, and the fork copies no threads.
    # With two or more CPUs the server gets one and the benchmark process
    # (builds, load generator, checks) the rest, so they never contend.
    cpus = sorted(os.sched_getaffinity(0))
    placement = {"server": cpus[:1], "bench": cpus[1:]} if len(cpus) > 1 else None
    if placement:
        os.sched_setaffinity(0, placement["bench"])
    server = ServerProcess(bool(args.trace), placement and placement["server"])
    shm_before = {p.name for p in Path("/dev/shm").glob(SHM_PREFIX + "*")}
    work_root = Path.cwd() / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        run = Run(args, wl, server, work)
        metrics = run.execute()
    finally:
        server.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    shm_after = {p.name for p in Path("/dev/shm").glob(SHM_PREFIX + "*")}
    run.check("dev_shm_unchanged", shm_after == shm_before, sorted(shm_after - shm_before))
    metrics["success_share"] = (run.attempted - run.failed) / run.attempted
    run.record["env"] = dict(environment(ROOT, args.seed), cpu_placement=placement)
    run.record["metrics"] = {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()}
    correct = all(c["ok"] for c in run.checks)
    if args.trace:
        layer = run.record["layers"]["metrics"]
        out_metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        out_metrics = run.record["metrics"]
    print(json.dumps({"record": run.record}, default=float))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
