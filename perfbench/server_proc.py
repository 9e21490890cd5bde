"""The server side of the serve phases: a forked process running QueryServer.

The benchmark forks this process right after its imports, before anything
is built, so the server's peak RSS counts only what the server loads.  It
takes commands over a pipe (read by the event loop, so serving never
blocks on it):

``("load", {"store", "key", "cache_rows"})``
    close the current server (if any), load the bundle artifact into a
    :class:`QueryEngine`, start a :class:`QueryServer` with its default
    knobs on a free port; replies ``{"port", "load_s"}``.
``("answer", {"store", "key", "cache_rows", "u", "v", "backend"})``
    offline answers for the given requests (:func:`offline_answers`),
    so the benchmark can check replies on both CPUs at once.
``("mem", None)``
    the server's memory snapshot (``repro.service.mem.process_memory``).
``("cpu", None)``
    the server process's CPU seconds so far (all threads; the kernel
    leaves out time the host's hypervisor ran something else).
``("spans", None)``
    the per-layer span summary recorded since the last call (traced runs).
``("close", None)``
    drain and close the server; replies its final ``stats()``.
``("exit", None)``
    ends the process (no reply).

With tracing on, the launcher wraps the serving layers' public functions
where their callers look them up, so no library code changes.
"""

from __future__ import annotations

import asyncio
import gc
import os
import time
import traceback

import numpy as np

from repro.service import engine as engine_mod
from repro.service import provider as provider_mod
from repro.service import store as store_mod
from repro.service.engine import QueryEngine
from repro.service.mem import process_memory
from repro.service.server import QueryServer

from loadgen import BACKENDS
from spans import Tracer, summarize


def instrument(tracer: Tracer) -> None:
    tracer.wrap(store_mod.ArtifactStore, "load", "service.store.load")
    tracer.wrap(QueryEngine, "query_many", "service.engine.query_many")
    # Only the oracle is pinned among the row backends, so every
    # RowProvider call in a run is an oracle call.
    tracer.wrap(provider_mod.RowProvider, "query_many", "service.provider.oracle")
    tracer.wrap(provider_mod.SketchProvider, "query_many", "service.provider.sketch")
    tracer.wrap(engine_mod, "batched_sssp", "graphs.batched_sssp")


def offline_answers(store: str, key: str, cache_rows: int, u, v, backend) -> np.ndarray:
    """Answers of a fresh offline ``QueryEngine`` on the artifact, one
    ``query_many`` per backend over source-sorted chunks (the reference
    every served reply must equal bit for bit)."""
    engine = QueryEngine.from_store(store, key, cache_rows=cache_rows)
    out = np.empty(len(u))
    try:
        for code, name in enumerate(BACKENDS):
            idx = np.flatnonzero(backend == code)
            idx = idx[np.argsort(u[idx], kind="stable")]
            for lo in range(0, idx.size, 512):
                part = idx[lo : lo + 512]
                out[part] = engine.query_many(np.stack([u[part], v[part]], axis=1), backend=name)
    finally:
        engine.close()
    return out


def spin_idle(flag, cpus) -> None:
    """Process entry point: busy-loop on ``cpus`` at idle priority while
    ``flag`` is 1, sleep while it is 0, return once it is negative (or
    the benchmark process is gone).

    On a VM a halted vCPU wakes only when the host schedules it again, so
    each request that woke an idle server waited on the host's load.  A
    ``SCHED_IDLE`` loop keeps the server's vCPU running and gives way to
    the server the moment it is runnable; the server's own CPU time does
    not include it.
    """
    parent = os.getppid()
    os.sched_setaffinity(0, cpus)
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    while flag.value >= 0 and os.getppid() == parent:
        if flag.value:
            for _ in range(20000):
                pass
        else:
            time.sleep(0.005)


def serve_main(conn, trace: bool, cpus=None) -> None:
    """Process entry point: serve commands from ``conn`` until ``exit``.

    ``cpus`` pins the server (and the threads it starts) to those CPUs.
    """
    if cpus:
        os.sched_setaffinity(0, cpus)
    asyncio.run(_serve(conn, trace))


async def _serve(conn, trace: bool) -> None:
    tracer = Tracer()
    if trace:
        instrument(tracer)
    loop = asyncio.get_running_loop()
    inbox: asyncio.Queue = asyncio.Queue()
    loop.add_reader(conn.fileno(), lambda: inbox.put_nowait(conn.recv()))
    server: QueryServer | None = None
    try:
        while True:
            op, arg = await inbox.get()
            try:
                if op == "load":
                    if server is not None:
                        await server.aclose()
                        server = None
                    gc.collect()
                    t0 = time.perf_counter()
                    engine = QueryEngine.from_store(
                        arg["store"], arg["key"], cache_rows=arg["cache_rows"]
                    )
                    server = QueryServer(engine)
                    await server.start()
                    reply = {"port": server.port, "load_s": time.perf_counter() - t0}
                elif op == "answer":
                    reply = {"d": offline_answers(**arg)}
                elif op == "mem":
                    reply = process_memory()
                elif op == "cpu":
                    reply = {"cpu_s": time.process_time()}
                elif op == "spans":
                    reply = summarize(tracer.take())
                elif op == "close":
                    stats = server.stats()
                    await server.aclose()
                    server = None
                    reply = {"stats": stats}
                elif op == "exit":
                    return
                else:
                    reply = {"error": f"unknown command {op!r}"}
            except Exception:  # report to the benchmark, keep serving commands
                reply = {"error": traceback.format_exc()}
            conn.send(reply)
    finally:
        loop.remove_reader(conn.fileno())
        if server is not None:
            await server.aclose()
        tracer.restore()
