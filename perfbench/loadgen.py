"""Request mixes and the two traffic phases, driven from one asyncio loop.

Requests are ``(u, v, backend)`` triples held as arrays; ``backend`` is an
index into :data:`BACKENDS`.  Every phase returns the reply distance of
each request it sent (``nan`` where the request failed), so the benchmark
can check every served answer against the offline engine afterwards.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass

import numpy as np

BACKENDS = ("oracle", "sketch")
LATE_S = 1e-3  # a send this far past its due time counts as late
SPIN_S = 2e-3  # the open loop polls instead of sleeping this close to a send


@dataclass
class Requests:
    u: np.ndarray
    v: np.ndarray
    backend: np.ndarray

    def __len__(self) -> int:
        return int(self.u.size)

    def payload(self, i: int) -> dict:
        return {
            "op": "query",
            "u": int(self.u[i]),
            "v": int(self.v[i]),
            "backend": BACKENDS[self.backend[i]],
        }

    @staticmethod
    def concat(parts) -> "Requests":
        return Requests(*(np.concatenate([getattr(p, f) for p in parts]) for f in ("u", "v", "backend")))


def hot_mix(rng, n: int, hot: np.ndarray, count: int, *, oracle_share: float, zipf_s: float) -> Requests:
    """``oracle_share`` of requests pin ``oracle`` with sources drawn
    zipf(``zipf_s``) over the ``hot`` set; the rest pin ``sketch`` with
    uniform sources.  Targets are uniform."""
    weights = np.arange(1, hot.size + 1, dtype=np.float64) ** -zipf_s
    to_oracle = rng.random(count) < oracle_share
    hot_src = hot[rng.choice(hot.size, size=count, p=weights / weights.sum())]
    u = np.where(to_oracle, hot_src, rng.integers(0, n, count))
    v = rng.integers(0, n, count)
    return Requests(u, v, np.where(to_oracle, 0, 1))


def uniform_mix(rng, n: int, count: int, backend: int) -> Requests:
    """Uniform sources and targets, all pinned to one backend."""
    return Requests(rng.integers(0, n, count), rng.integers(0, n, count), np.full(count, backend))


def _reply_distance(msg: dict) -> float:
    if "error" in msg:
        return math.nan
    d = msg["d"]
    return math.inf if d is None else float(d)


async def waves(clients, reqs: Requests, size: int = 32) -> np.ndarray:
    """Send requests ``size`` at a time, each wave after the last one's
    replies (warm-up); returns the reply distances.  Small waves keep the
    server's batches, and so its transient memory, the same on every run."""
    out = np.full(len(reqs), math.nan)
    for lo in range(0, len(reqs), size):
        idx = range(lo, min(lo + size, len(reqs)))
        futs = [clients[i % len(clients)].send(reqs.payload(i)) for i in idx]
        for i, res in zip(idx, await asyncio.gather(*futs, return_exceptions=True)):
            if not isinstance(res, BaseException):
                out[i] = _reply_distance(res[0])
    return out


async def open_loop(clients, reqs: Requests, rate: float) -> dict:
    """Send request ``i`` at ``start + i / rate`` whatever the replies do.

    Latency runs from the *due* time to the reply, so a stall also counts
    against the requests queued behind it; a failed request's latency is
    ``inf``.  ``lag_s`` is how late each send actually left.
    """
    n = len(reqs)
    lag = np.empty(n)
    futs = []
    start = time.perf_counter() + 0.005
    i = 0
    while i < n:
        now = time.perf_counter()
        while i < n and start + i / rate <= now:
            futs.append(clients[i % len(clients)].send(reqs.payload(i)))
            lag[i] = time.perf_counter() - (start + i / rate)
            i += 1
        if i < n:
            # Timer wake-ups run up to a millisecond or two late, so sleep
            # to just before the due time and poll (serving replies) from
            # there; the load generator has a CPU of its own.
            wait = start + i / rate - time.perf_counter()
            await asyncio.sleep(wait - SPIN_S if wait > SPIN_S else 0)
    latency = np.full(n, math.inf)
    d = np.full(n, math.nan)
    for i, res in enumerate(await asyncio.gather(*futs, return_exceptions=True)):
        if isinstance(res, BaseException):
            continue
        msg, t_recv = res
        d[i] = _reply_distance(msg)
        if not math.isnan(d[i]):
            latency[i] = t_recv - (start + i / rate)
    return {"d": d, "latency_s": latency, "lag_s": lag, "wall_s": time.perf_counter() - start}


async def closed_loop(clients, reqs: Requests, window: int, seconds: float) -> dict:
    """Each client keeps ``window`` requests in flight for ``seconds``.

    Requests are taken in order from ``reqs``; ``sent`` says how many
    were used.  Throughput counts answered requests (errors are failures)
    over the time to the last answer; ``t_reply`` is each answer's time
    since the phase started.
    """
    n = len(reqs)
    d = np.full(n, math.nan)
    t_reply = np.full(n, math.nan)
    state = {"next": 0, "last": 0.0}
    start = time.perf_counter()
    deadline = start + seconds

    async def lane(client) -> None:
        while time.perf_counter() < deadline and state["next"] < n:
            i = state["next"]
            state["next"] += 1
            try:
                msg, t_recv = await client.send(reqs.payload(i))
            except ConnectionError:
                return
            d[i] = _reply_distance(msg)
            if not math.isnan(d[i]):
                t_reply[i] = t_recv - start
                state["last"] = max(state["last"], t_recv)

    await asyncio.gather(*(lane(c) for c in clients for _ in range(window)))
    sent = state["next"]
    replies = int(np.count_nonzero(~np.isnan(d[:sent])))
    wall = max(state["last"] - start, 1e-9)
    return {"d": d[:sent], "t_reply": t_reply[:sent], "sent": sent, "replies": replies, "wall_s": wall, "qps": replies / wall}
