"""Concurrent micro-batching query server over :class:`QueryEngine`.

``repro serve --socket HOST:PORT`` runs :class:`QueryServer`: an asyncio
socket server speaking a newline-delimited JSON protocol.  The perf
mechanism is **flush-on-idle micro-batching**: a ``query`` that reaches
an idle solver is solved at once, and requests that arrive while a solve
is running queue up and share the next batch, capped at ``max_batch``.
Each batch is one :meth:`QueryEngine.query_many` call per backend group,
so the batched ``batched_sssp`` planning, per-source dedup, and row
caching amortize across clients instead of degrading to one Dijkstra per
request.  Batch size follows the solver's busy time, not a timer: an
idle server adds no wait, and a loaded one coalesces whatever queued
during the previous solve (the adaptive batching discipline).

Where a batch runs: only a batch that may solve a Dijkstra row goes to
the dedicated solver thread.  The event loop keeps admitting, rejecting
and answering ``stats`` only while that thread waits on a pool-sharded
solve of >= 2 rows.  An in-process solve (an unsharded engine, or a
one-row miss, which :meth:`QueryEngine._solve_rows` solves in-process
even when sharded) freezes the loop until it returns, because scipy's
``csgraph.dijkstra`` holds the GIL for the whole call (ROADMAP.md, open
item 8).  A batch that cannot block — every oracle/exact source already
cached, or only sketch and tiered walks — is answered on the event loop
itself, which saves the loop -> thread -> loop round trip.  The engine
says which is which through ``needs_solve(sources, backend=...)``; an
engine whose class does not define it (a delegating wrapper, say), or
whose predicate raises, always hands off.  ``solver_handoffs`` counts
the batches sent to the thread.

Around the batcher:

* **Admission control** — at most ``max_pending`` requests may be queued;
  excess requests get an explicit ``{"error": "overloaded"}`` reply
  instead of unbounded queueing latency collapse.
* **Latency SLOs** — every request's queue+solve+reply latency is
  captured, and the most recent :data:`LATENCY_SAMPLES` are kept; the
  ``stats`` protocol verb (and :meth:`QueryServer.stats`) reports
  p50/p95/p99/mean/max milliseconds over those samples (its ``count`` is
  how many are kept, not the number served), qps, and the batch-size
  histogram (``batches_flushed`` and ``batch_size_hist`` count each
  flushed batch once, whatever its backend groups), alongside
  :meth:`QueryEngine.stats` as the single source of truth for
  rows/batch accounting.
* **Contained solve failures** — a ``query_many`` that raises fails
  only its own backend group: each of its requests gets
  ``{"error": "internal: <ExceptionType>"}``, ``solve_errors`` counts
  the failed solve, and the flush loop carries on with the rest.
* **Graceful drain** — :meth:`aclose` stops accepting, rejects new
  queries with ``{"error": "draining"}``, completes every in-flight
  batch, closes connections, and releases the engine (worker pool +
  shared-memory segments) via the existing ``close()`` lifecycle.

Protocol (one JSON object per line, ``id`` echoed back verbatim):

.. code-block:: text

    -> {"op": "query", "u": 3, "v": 9, "id": 1}
    <- {"id": 1, "d": 2.75}
    -> {"op": "query", "u": 3, "v": 9, "backend": "sketch", "id": 2}
    <- {"id": 2, "d": 3.5}
    -> {"op": "stats", "id": 3}
    <- {"id": 3, "stats": {...latency_ms, qps, solver_handoffs, engine...}}
    -> {"op": "ping", "id": 4}
    <- {"id": 4, "pong": true}

The optional ``"backend"`` field pins one query to a fixed answer path
(``exact``/``oracle``/``sketch``/``tiered``) when the engine serves a
bundle artifact; omitting it leaves routing to the engine's planner.
Requests naming a backend the engine does not serve are rejected with an
error reply.  The micro-batcher groups each flushed batch by backend —
one ``query_many`` per group, all of a batch's groups in one place (one
hand-off to the solver thread, or all on the event loop) — and the
``stats`` verb reports where the planner sent each query under
``engine.planner.routed``.

Disconnected pairs answer ``{"d": null}`` (JSON has no ``Infinity``).
Malformed lines never kill the connection: they get
``{"error": ..., "line": N}`` replies, with ``N`` the 1-based line number
on that connection.

Framing: lines end at ``\n`` (a ``\r`` before it is JSON whitespace), are
UTF-8 (a leading byte-order mark is skipped), and count toward ``N``
even when blank (a blank line gets no reply).  The server reads whatever bytes a connection has ready and
splits them into lines itself, so a burst of pipelined requests costs one
wake-up, and it drains the connection once per read, only when replies
are still buffered.  A line longer than :data:`MAX_LINE` bytes gets
``{"error": "line too long: ...", "line": N}``; the rest of it, up to its
newline, is discarded and the connection keeps serving.  When a client
closes its side, an unterminated last line is still served, and the
connection closes only after every request it sent has its reply.

The legacy ``repro serve`` stdin/stdout pipe mode shares
:func:`serve_pipe`, which applies the same malformed-line hardening.
"""

from __future__ import annotations

import asyncio
import codecs
import json
import math
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QueryServer",
    "AsyncClient",
    "run_server",
    "serve_pipe",
    "parse_hostport",
    "latency_summary",
]


#: How many of the most recent per-request latencies a server keeps for
#: its percentiles; older samples drop out, so memory and the cost of a
#: ``stats`` call stay bounded however long the server runs.
LATENCY_SAMPLES = 65536

#: Longest request line, in bytes without its newline: asyncio's default
#: stream limit, which bounded a line when the server read with
#: ``readline``.  Also the most one read takes from a connection.
MAX_LINE = 2**16


def latency_summary(latencies_s) -> dict:
    """p50/p95/p99/mean/max milliseconds over per-request latencies."""
    if not len(latencies_s):
        return {"count": 0}
    lat = np.asarray(latencies_s, dtype=np.float64) * 1e3
    p50, p95, p99 = np.percentile(lat, [50.0, 95.0, 99.0])
    return {
        "count": int(lat.size),
        "p50_ms": round(float(p50), 3),
        "p95_ms": round(float(p95), 3),
        "p99_ms": round(float(p99), 3),
        "mean_ms": round(float(lat.mean()), 3),
        "max_ms": round(float(lat.max()), 3),
    }


def parse_hostport(text: str, *, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """``HOST:PORT``, ``[V6]:PORT`` or bare ``PORT`` -> ``(host, port)``."""
    host, sep, port_s = text.rpartition(":")
    if not sep:
        host, port_s = default_host, text
    host = host or default_host
    # Bracketed IPv6 literals: the brackets are address syntax for the
    # HOST:PORT split only — asyncio.start_server wants the bare address
    # ("[::1]" is not a valid bind host).
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1] or default_host
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(f"bad --socket {text!r}: port {port_s!r} is not an integer")
    if not 0 <= port <= 65535:
        raise ValueError(f"bad --socket {text!r}: port out of range")
    return host, port


@dataclass(slots=True)
class _Request:
    """One admitted query, waiting for the next batch."""

    u: int
    v: int
    rid: object
    writer: asyncio.StreamWriter
    t0: float  # perf_counter at admission; latency runs to reply write
    backend: str | None = None  # pinned answer path, None = planner routes


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def _encode_answer(rid, d: float) -> bytes:
    """``_encode({"id": rid, "d": d})`` (``d: null`` unless finite), built
    directly from ``repr`` when ``rid`` is an ``int``: ``json.dumps``
    writes an ``int`` and a finite ``float`` exactly so."""
    if type(rid) is not int:
        return _encode({"id": rid, "d": d if math.isfinite(d) else None})
    if math.isfinite(d):
        return b'{"id":%d,"d":%a}\n' % (rid, d)
    return b'{"id":%d,"d":null}\n' % rid


def _settle(fut: asyncio.Future, result) -> None:
    if not fut.cancelled():  # its flush was cancelled mid-solve
        fut.set_result(result)


class QueryServer:
    """Asyncio socket server micro-batching queries into ``query_many``.

    A request that reaches an idle solver starts a flush at once;
    requests admitted while a solve runs share the next batch.

    Parameters
    ----------
    engine:
        The :class:`~repro.service.engine.QueryEngine` to serve.  The
        server owns its lifecycle from :meth:`start` on — :meth:`aclose`
        calls ``engine.close()``.
    host, port:
        Bind address; ``port=0`` picks a free port (read ``self.port``
        after :meth:`start`).
    max_batch:
        Largest batch one solve takes; a larger backlog is split into
        consecutive ``max_batch``-sized solves.
    max_pending:
        Admission bound on queued requests; beyond it queries are
        rejected with ``{"error": "overloaded"}``.
    """

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 256,
        max_pending: int = 8192,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.engine = engine
        self.host = host
        self.port = port
        self.max_batch = int(max_batch)
        self.max_pending = int(max_pending)
        # What admission checks every query against, read once.
        self._n = engine.n
        self._backends = frozenset(engine.backends() if hasattr(engine, "backends") else ())
        # Looked up on the class, not the instance: a wrapper that
        # forwards attribute access would forward its inner engine's
        # answer, while its own ``query_many`` may block or fail.
        self._needs_solve = (
            engine.needs_solve if hasattr(type(engine), "needs_solve") else None
        )

        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        # One solver thread for batches that may solve a row: the event
        # loop stays free to admit + coalesce the next batch while the
        # current one solves.  Batches still solve one at a time: the
        # flush loop awaits each hand-off before it looks at the next
        # batch.  A plain queue, not an executor: its futures and locks
        # doubled the cost per batch.
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._solver: threading.Thread | None = None
        self._pending: deque[_Request] = deque()
        self._flush_task: asyncio.Task | None = None
        self._drain_tasks: set[asyncio.Task] = set()
        self._handlers: set[asyncio.Task] = set()
        self._conns: set[asyncio.StreamWriter] = set()
        # Requests admitted and settled (answered or failed) so far, and
        # the closing connections waiting for a count of settled ones:
        # batches settle in admission order, so a connection's requests
        # all have replies once ``_settled`` reaches ``_admitted`` as it
        # was when the connection hit EOF.
        self._admitted = 0
        self._settled = 0
        self._eof_waits: deque[tuple[int, asyncio.Future]] = deque()
        self._draining = False
        self._closed = False
        self._t0 = time.perf_counter()

        # SLO accounting.  Counters only grow: diff two stats() snapshots
        # to measure an interval.
        self.served = 0
        self.rejected = 0
        self.protocol_errors = 0
        self.solve_errors = 0
        self.batches_flushed = 0
        self.solver_handoffs = 0
        self.latencies_s: deque[float] = deque(maxlen=LATENCY_SAMPLES)
        self.batch_size_hist: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._t0 = time.perf_counter()
        self._solver = threading.Thread(target=self._solver_main, name="qsolve", daemon=True)
        self._solver.start()

    async def aclose(self) -> None:
        """Graceful drain: finish in-flight batches, then release everything.

        Stops accepting, rejects queries arriving mid-drain with
        ``{"error": "draining"}``, awaits the flush loop over whatever is
        queued, closes client connections, shuts the solver thread down,
        and closes the engine (worker pool + shm segments).  Idempotent.
        """
        if self._closed:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._pending:
            self._arm()
        if self._flush_task is not None:
            await self._flush_task
        if self._drain_tasks:
            await asyncio.gather(*self._drain_tasks, return_exceptions=True)
        for writer in list(self._conns):
            writer.close()
        self._conns.clear()
        if self._handlers:
            # Closing the transports EOFs the read loops; wait for the
            # handler tasks so loop shutdown never cancels them mid-read.
            await asyncio.gather(*self._handlers, return_exceptions=True)
        if self._solver is not None:
            self._jobs.put(None)
            self._solver.join()
        self.engine.close()
        self._closed = True

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    def stats(self) -> dict:
        """Server SLO numbers + the engine's accounting (JSON-ready).

        ``latency_ms`` summarizes the most recent :data:`LATENCY_SAMPLES`
        requests; its ``count`` is the number of samples kept.
        """
        uptime = time.perf_counter() - self._t0
        return {
            "max_batch": self.max_batch,
            "max_pending": self.max_pending,
            "served": self.served,
            "rejected": self.rejected,
            "protocol_errors": self.protocol_errors,
            "solve_errors": self.solve_errors,
            "batches_flushed": self.batches_flushed,
            "solver_handoffs": self.solver_handoffs,
            "pending": len(self._pending),
            "uptime_s": round(uptime, 3),
            "qps": round(self.served / uptime, 1) if uptime > 0 else 0.0,
            "latency_ms": latency_summary(self.latencies_s),
            "batch_size_hist": [[k, v] for k, v in sorted(self.batch_size_hist.items())],
            "draining": self._draining,
            "engine": self.engine.stats(),
        }

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        self._conns.add(writer)
        lineno = 0
        # The current line's bytes from earlier reads: each read is split
        # on its own newlines only, so a line sent in many small pieces
        # costs time linear in its length.
        part = bytearray()
        skipping = False  # discarding an over-long line up to its newline
        try:
            while chunk := await reader.read(MAX_LINE):
                lines = chunk.split(b"\n")
                rest = lines.pop()  # after this read's last newline
                if lines:
                    if skipping:  # the over-long line's end, answered already
                        del lines[0]
                        skipping = False
                    elif part:
                        lines[0] = b"".join((part, lines[0]))
                        part.clear()
                    for raw in lines:
                        lineno += 1
                        self._dispatch(raw, lineno, writer)
                if not skipping:
                    part += rest
                    if len(part) > MAX_LINE:  # answered now, not at its newline
                        lineno += 1
                        self._dispatch(part, lineno, writer)
                        part.clear()
                        skipping = True
                if writer.transport.get_write_buffer_size():
                    await self._drain_writer(writer)
            if part:
                self._dispatch(bytes(part), lineno + 1, writer)
            if self._settled < self._admitted:
                done = self._loop.create_future()
                self._eof_waits.append((self._admitted, done))
                await done
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _dispatch(self, raw: bytes, lineno: int, writer) -> None:
        """Answer or admit one line (its newline stripped); blank lines
        get no reply."""
        if len(raw) > MAX_LINE:
            self._reply_error(writer, None, lineno, f"line too long: over {MAX_LINE} bytes")
            return
        if not raw.strip():
            return
        if raw.startswith(codecs.BOM_UTF8):  # as json.loads(bytes) allows
            raw = raw[len(codecs.BOM_UTF8) :]
        try:
            msg = json.loads(raw.decode("utf-8", "surrogatepass"))
            if not isinstance(msg, dict):
                raise ValueError(f"expected a JSON object, got {type(msg).__name__}")
        except (ValueError, RecursionError) as exc:  # deep nesting recurses
            self._reply_error(writer, None, lineno, f"bad JSON: {exc}")
            return
        rid = msg.get("id")
        op = msg.get("op", "query")
        if op == "query":
            err = self._admit(msg, rid, writer)
            if err is not None:
                self._reply_error(writer, rid, lineno, err)
        elif op == "stats":
            writer.write(_encode({"id": rid, "stats": self.stats()}))
        elif op == "ping":
            writer.write(_encode({"id": rid, "pong": True}))
        else:
            self._reply_error(writer, rid, lineno, f"unknown op {op!r}")

    def _admit(self, msg: dict, rid, writer) -> str | None:
        """Validate + enqueue one query; returns an error string to reject."""
        u, v = msg.get("u"), msg.get("v")
        # JSON gives ints and bools only; bools are not vertex ids.
        if type(u) is not int or type(v) is not int:
            return f"u and v must be integers, got u={u!r} v={v!r}"
        if not (0 <= u < self._n and 0 <= v < self._n):
            return f"vertex out of range for n={self._n}: u={u} v={v}"
        backend = msg.get("backend")
        if backend is not None:
            if not isinstance(backend, str):
                return f"backend must be a string, got {backend!r}"
            if backend not in self._backends:
                if not self._backends:
                    return (
                        "this server answers from a single fixed backend; "
                        "serve a 'bundle' artifact to route per-query backends"
                    )
                have = ", ".join(sorted(self._backends))
                return f"unknown backend {backend!r} (have: {have})"
        if self._draining:
            self.rejected += 1
            return "draining"
        if len(self._pending) >= self.max_pending:
            self.rejected += 1
            return "overloaded"
        self._pending.append(_Request(u, v, rid, writer, time.perf_counter(), backend))
        self._admitted += 1
        self._arm()
        return None

    def _reply_error(self, writer, rid, lineno: int, error: str) -> None:
        self.protocol_errors += 1
        payload = {"error": error, "line": lineno}
        if rid is not None:
            payload["id"] = rid
        writer.write(_encode(payload))

    @staticmethod
    async def _drain_writer(writer) -> None:
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------
    # Flush-on-idle batching
    # ------------------------------------------------------------------
    def _arm(self) -> None:
        """Start a flush unless one is running (it picks pending up)."""
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = asyncio.ensure_future(self._flush())

    async def _flush(self) -> None:
        """Drain the queue in ``max_batch``-sized solves.

        Requests arriving while the solver thread works are picked up
        by the next loop iteration, so batches track the backlog.  Batches
        mixing pinned backends split into one ``query_many`` per backend
        (planner-routed requests form their own group), so a pin never
        changes another client's answer path.  The groups of one batch are
        solved together: on the solver thread if any of them may solve a
        row, else right here on the event loop.
        """
        while self._pending:
            take = min(self.max_batch, len(self._pending))
            batch = [self._pending.popleft() for _ in range(take)]
            self.batches_flushed += 1
            self.batch_size_hist[take] = self.batch_size_hist.get(take, 0) + 1
            groups: dict[str | None, list[_Request]] = {}
            for req in batch:
                groups.setdefault(req.backend, []).append(req)
            if self._may_solve(groups):
                self.solver_handoffs += 1
                done = self._loop.create_future()
                self._jobs.put((groups, done))
                results = await done
            else:
                results = self._solve_groups(groups)
            for group, answers in zip(groups.values(), results):
                if isinstance(answers, Exception):
                    self._fail(group, answers)
                else:
                    self._deliver(group, answers)
            self._settled += take
            while self._eof_waits and self._eof_waits[0][0] <= self._settled:
                _settle(self._eof_waits.popleft()[1], None)
        self._flush_task = None

    def _may_solve(self, groups: dict) -> bool:
        """Whether a batch goes to the solver thread: unless the engine
        vouches that no group solves a row, it does."""
        if self._needs_solve is None:
            return True
        try:
            return any(
                self._needs_solve([r.u for r in group], backend=backend)
                for backend, group in groups.items()
            )
        except Exception:
            return True

    def _solve_groups(self, groups: dict) -> list:
        """One ``query_many`` per backend group, in order.  A group whose
        solve raises gets the exception in place of its answers (not an
        interrupt or a cancellation: this also runs on the event loop)."""
        results = []
        for backend, group in groups.items():
            pairs = np.array([(r.u, r.v) for r in group], dtype=np.int64)
            # Pass the backend kwarg only when pinned, so engine
            # wrappers unaware of multi-backend routing keep working.
            route = {} if backend is None else {"backend": backend}
            try:
                results.append(self.engine.query_many(pairs, **route))
            except Exception as exc:
                results.append(exc)
        return results

    def _solver_main(self) -> None:
        """The solver thread: solves each handed-off batch and settles it."""
        while (job := self._jobs.get()) is not None:
            groups, done = job
            self._loop.call_soon_threadsafe(_settle, done, self._solve_groups(groups))

    def _fail(self, group: list[_Request], exc: Exception) -> None:
        """A group's solve raised: every request in it gets an error reply,
        and the flush loop carries on with the remaining groups."""
        self.solve_errors += 1
        error = f"internal: {type(exc).__name__}"
        self._write_replies(
            (req.writer, _encode({"id": req.rid, "error": error})) for req in group
        )

    def _deliver(self, batch: list[_Request], answers) -> None:
        now = time.perf_counter()
        replies = []
        for req, d in zip(batch, np.asarray(answers, dtype=np.float64).tolist()):
            replies.append((req.writer, _encode_answer(req.rid, d)))
            self.latencies_s.append(now - req.t0)
        self.served += len(batch)
        self._write_replies(replies)

    def _write_replies(self, replies) -> None:
        """Write ``(writer, line)`` replies, one write per writer (and a
        drain where the write left bytes buffered)."""
        by_writer: dict[asyncio.StreamWriter, list[bytes]] = {}
        for writer, line in replies:
            by_writer.setdefault(writer, []).append(line)
        for writer, lines in by_writer.items():
            if not writer.is_closing():
                writer.write(b"".join(lines))
                # Only bytes the socket could not take at once need a drain.
                if writer.transport.get_write_buffer_size():
                    task = self._loop.create_task(self._drain_writer(writer))
                    self._drain_tasks.add(task)
                    task.add_done_callback(self._drain_tasks.discard)


class AsyncClient:
    """Pipelined NDJSON client for :class:`QueryServer` (tests + load gen).

    :meth:`send` writes a request without awaiting, returning a future
    that resolves to ``(reply_dict, t_recv)`` with ``t_recv`` stamped the
    moment the reader task parsed the reply — open-loop load generators
    fire sends on a schedule and measure latency from the *scheduled*
    time to ``t_recv``.  :meth:`request` is the await-one-reply wrapper.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._waiters: dict[object, asyncio.Future] = {}
        self.unmatched: list[dict] = []
        self._read_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                raw = await self._reader.readline()
                if not raw:
                    break
                t_recv = time.perf_counter()
                msg = json.loads(raw)
                fut = self._waiters.pop(msg.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result((msg, t_recv))
                else:
                    self.unmatched.append(msg)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            for fut in self._waiters.values():
                if not fut.done():
                    fut.set_exception(ConnectionError("server closed the connection"))
            self._waiters.clear()

    def send(self, payload: dict) -> asyncio.Future:
        """Fire one request (no drain await); future -> (reply, t_recv)."""
        rid = self._next_id
        self._next_id += 1
        fut = asyncio.get_running_loop().create_future()
        self._waiters[rid] = fut
        self._writer.write(_encode({"id": rid, **payload}))
        return fut

    def send_raw(self, line: bytes) -> None:
        """Write an arbitrary (possibly malformed) line — protocol tests."""
        self._writer.write(line)

    async def request(self, payload: dict) -> dict:
        fut = self.send(payload)
        await self._writer.drain()
        msg, _ = await fut
        return msg

    async def query(
        self, u: int, v: int, *, backend: str | None = None
    ) -> float | None:
        payload = {"op": "query", "u": u, "v": v}
        if backend is not None:
            payload["backend"] = backend
        reply = await self.request(payload)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply["d"]

    async def stats(self) -> dict:
        return (await self.request({"op": "stats"}))["stats"]

    async def close(self) -> None:
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def run_server(
    engine,
    *,
    host: str,
    port: int,
    max_batch: int = 256,
    max_pending: int = 8192,
    announce=None,
) -> dict:
    """Run a :class:`QueryServer` until SIGINT/SIGTERM; returns final stats.

    ``announce(host, port)`` is called once the socket is bound (the CLI
    prints the address to stderr; tests grab the ephemeral port).
    """
    import signal

    async def _main() -> dict:
        server = QueryServer(
            engine,
            host=host,
            port=port,
            max_batch=max_batch,
            max_pending=max_pending,
        )
        await server.start()
        if announce is not None:
            announce(server.host, server.port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        stats = server.stats()  # pre-drain snapshot keeps qps meaningful
        await server.aclose()
        stats["drained"] = True
        return stats

    return asyncio.run(_main())


def serve_pipe(engine, lines, out) -> dict:
    """The legacy ``repro serve`` pipe loop, hardened.

    Serves ``u v`` pairs from the ``lines`` iterable to ``out``: one
    distance per valid line.  Malformed lines — wrong arity, non-integer
    tokens, out-of-range vertex ids, anything else a line can throw — get
    a line-numbered JSON error reply (``{"line": N, "error": ...}``) on
    ``out`` and the loop keeps serving; nothing kills the server.
    Returns ``{"errors": N, "stats": engine.stats()}``.
    """
    errors = 0
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"non-integer vertex in {line!r}") from None
            d = engine.query(u, v)
        except Exception as exc:  # the pipe must survive any bad line
            errors += 1
            print(
                json.dumps({"line": lineno, "error": str(exc)}, sort_keys=True),
                file=out,
                flush=True,
            )
            continue
        print(d, file=out, flush=True)
    return {"errors": errors, "stats": engine.stats()}
