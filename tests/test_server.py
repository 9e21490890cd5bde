"""Tests for the concurrent micro-batching query server (repro.service.server).

Covers the flush-on-idle batching contract (a request reaching an idle
server is solved at once with no timer armed, arrivals during a solve
share the next batch, max-batch overflow splitting), bounded admission
control with explicit
overload rejections, graceful drain leaving /dev/shm clean, bit-identity
of served answers vs offline ``query_many``, where a batch runs (on the
event loop unless it may solve a row), the ``stats`` protocol verb,
line framing (requests cut at any byte, CRLF, blank lines, an
unterminated last line, over-long lines), byte parity of the direct
answer encoder with ``json.dumps``, malformed-line hardening on both the
socket protocol and the legacy pipe loop, and the ``repro serve
--socket`` CLI end to end.

No pytest-asyncio in the image: async tests run via ``asyncio.run``
inside sync test functions.
"""

from __future__ import annotations

import asyncio
import codecs
import io
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distances import SpannerDistanceOracle
from repro.graphs import WeightedGraph, erdos_renyi
from repro.service import AsyncClient, QueryEngine, QueryServer, serve_pipe
from repro.service import server as server_mod
from repro.service.server import latency_summary, parse_hostport
from repro.service.shm import shm_segments

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def g():
    return erdos_renyi(180, 0.08, weights="uniform", rng=12)


@pytest.fixture(scope="module")
def oracle(g):
    return SpannerDistanceOracle(g, k=4, t=2, rng=0)


class SlowEngine:
    """Delegating engine wrapper whose solves block long enough for the
    event loop to coalesce (or overflow) the next micro-batch."""

    def __init__(self, inner, delay: float = 0.05):
        self._inner = inner
        self.delay = delay
        self.batch_sizes: list[int] = []

    def query_many(self, pairs):
        time.sleep(self.delay)
        self.batch_sizes.append(len(pairs))
        return self._inner.query_many(pairs)

    def query(self, u, v):
        time.sleep(self.delay)
        return self._inner.query(u, v)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FailingEngine:
    """Delegating engine whose first ``fail`` solves raise ``exc`` (only
    those pinned to ``backend``, when one is given)."""

    def __init__(self, inner, *, fail: int = 1, exc=MemoryError, backend=None):
        self._inner = inner
        self.fail = fail
        self.exc = exc
        self.backend = backend

    def query_many(self, pairs, **kwargs):
        if self.fail and kwargs.get("backend") == self.backend:
            self.fail -= 1
            raise self.exc("solve failed")
        return self._inner.query_many(pairs, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Writer:
    """Stand-in stream writer: collects reply lines; ``buffered`` is what
    its transport reports as still waiting to be sent."""

    def __init__(self, buffered: int = 0):
        self.lines: list[bytes] = []
        self.buffered = buffered
        self.transport = self

    def is_closing(self):
        return False

    def write(self, data: bytes):
        self.lines.extend(data.splitlines())

    def get_write_buffer_size(self):
        return self.buffered

    async def drain(self):
        self.buffered = 0

    def close(self):
        pass

    async def wait_closed(self):
        pass


async def _converse(server, chunks, *, settle=True):
    """Feed ``chunks`` to a connection handler one read at a time, then
    EOF (with ``settle``, only once every admitted query is answered).
    Returns the decoded replies in the order they were written."""
    reader, writer = asyncio.StreamReader(), _Writer()
    handler = asyncio.ensure_future(server._handle(reader, writer))
    for chunk in chunks:
        reader.feed_data(chunk)
        for _ in range(3):  # the handler takes this chunk as one read
            await asyncio.sleep(0)
    while settle and (server._pending or server._flush_task is not None):
        await asyncio.sleep(0.001)
    reader.feed_eof()
    await asyncio.wait_for(handler, timeout=5)
    return [json.loads(line) for line in writer.lines]


async def _burst(server, payloads):
    """One connection, pipelined sends; returns replies in send order."""
    cli = await AsyncClient.connect(server.host, server.port)
    futs = [cli.send(p) for p in payloads]
    replies = [(await f)[0] for f in futs]
    await cli.close()
    return replies


class TestMicroBatchWindow:
    def test_admit_at_idle_server_starts_flush_without_a_timer(self, oracle):
        """The flush starts inside ``_admit`` itself: right after one
        request reaches an idle server its flush task exists, and no
        timer was armed to delay it."""

        class _ClosedWriter:  # replies are not under test here
            def is_closing(self):
                return True

        async def run():
            async with QueryServer(QueryEngine(oracle)) as server:
                loop = asyncio.get_running_loop()
                timers = []
                loop.call_later = lambda *args, **kw: timers.append(args)
                loop.call_at = lambda *args, **kw: timers.append(args)
                try:
                    err = server._admit({"u": 0, "v": 5}, 1, _ClosedWriter())
                    flush = server._flush_task
                finally:
                    del loop.call_later, loop.call_at
                assert err is None
                assert flush is not None and not flush.done()
                assert timers == []
                await flush
                return dict(server.batch_size_hist), server.served

        assert asyncio.run(run()) == ({1: 1}, 1)

    def test_idle_server_answers_a_lone_request_as_its_own_batch(self, oracle):
        """One lone request never waits for company: it is answered as a
        batch of exactly 1, however large max_batch is."""

        async def run():
            engine = QueryEngine(oracle)
            async with QueryServer(engine, max_batch=256) as server:
                cli = await AsyncClient.connect(server.host, server.port)
                d = await cli.query(0, 5)
                await cli.close()
                return d, dict(server.batch_size_hist)

        d, hist = asyncio.run(run())
        assert d == pytest.approx(oracle.query(0, 5))
        assert hist == {1: 1}

    def test_arrivals_during_a_solve_share_the_next_batch(self, oracle):
        """Requests admitted while a solve runs queue up and are solved
        together as the next batch once it returns."""

        async def run():
            engine = SlowEngine(QueryEngine(oracle), delay=0.1)
            async with QueryServer(engine, max_batch=256) as server:
                cli = await AsyncClient.connect(server.host, server.port)
                first = cli.send({"op": "query", "u": 0, "v": 1})
                # Wait until the flush has taken the first request.
                while server._flush_task is None or server._pending:
                    await asyncio.sleep(0.001)
                rest = [cli.send({"op": "query", "u": i, "v": 2 * i}) for i in range(1, 6)]
                replies = [(await f)[0] for f in [first, *rest]]
                await cli.close()
                return replies, engine.batch_sizes

        replies, batch_sizes = asyncio.run(asyncio.wait_for(run(), timeout=10))
        assert all("d" in r for r in replies)
        assert batch_sizes == [1, 5]

    def test_max_batch_overflow_splits(self, oracle):
        """A backlog larger than max_batch is split into consecutive
        solves, every one <= max_batch, nothing lost or reordered."""
        total, max_batch = 13, 4

        async def run():
            engine = SlowEngine(QueryEngine(oracle), delay=0.03)
            async with QueryServer(engine, max_batch=max_batch) as server:
                cli = await AsyncClient.connect(server.host, server.port)
                first = cli.send({"op": "query", "u": 0, "v": 1})
                await asyncio.sleep(0.01)  # first solve occupies the thread
                futs = [
                    cli.send({"op": "query", "u": i % engine.n, "v": (i * 7) % engine.n})
                    for i in range(1, total)
                ]
                replies = [(await first)[0]] + [(await f)[0] for f in futs]
                await cli.close()
                return replies, engine.batch_sizes, dict(server.batch_size_hist)

        replies, solver_batches, hist = asyncio.run(run())
        assert all("d" in r for r in replies)
        assert sum(solver_batches) == total
        assert max(solver_batches) <= max_batch
        assert len(solver_batches) >= 2  # the backlog really was split
        assert hist == {b: c for b, c in zip(*np.unique(solver_batches, return_counts=True))}
        expected = [float(oracle.query(0, 1))] + [
            float(oracle.query(i % oracle.spanner.n, (i * 7) % oracle.spanner.n))
            for i in range(1, total)
        ]
        assert [r["d"] for r in replies] == pytest.approx(expected)

    def test_overload_rejection(self, oracle):
        """Admission is bounded: beyond max_pending queued requests the
        server answers {"error": "overloaded"} instead of queueing."""
        max_pending, extra = 4, 6

        async def run():
            engine = SlowEngine(QueryEngine(oracle), delay=0.08)
            async with QueryServer(
                engine, max_batch=2, max_pending=max_pending
            ) as server:
                cli = await AsyncClient.connect(server.host, server.port)
                first = cli.send({"op": "query", "u": 0, "v": 1})
                await asyncio.sleep(0.02)  # solver busy; queue admits next
                futs = [
                    cli.send({"op": "query", "u": 2, "v": 3})
                    for _ in range(max_pending + extra)
                ]
                replies = [(await first)[0]] + [(await f)[0] for f in futs]
                rejected = server.rejected
                await cli.close()
                return replies, rejected

        replies, rejected = asyncio.run(run())
        errors = [r for r in replies if "error" in r]
        answered = [r for r in replies if "d" in r]
        assert len(errors) == extra and all(r["error"] == "overloaded" for r in errors)
        assert len(answered) == 1 + max_pending
        assert rejected == extra

    def test_bit_identity_vs_offline(self, oracle):
        """Every served answer equals offline query_many bit-for-bit."""
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, oracle.spanner.n, size=(300, 2))
        offline = QueryEngine(oracle).query_many(pairs)

        async def run():
            engine = QueryEngine(oracle, cache_rows=16)
            async with QueryServer(engine, max_batch=32) as server:
                replies = await _burst(
                    server,
                    [{"op": "query", "u": int(u), "v": int(v)} for u, v in pairs],
                )
                return [r["d"] for r in replies]

        got = np.array([np.inf if d is None else d for d in asyncio.run(run())])
        assert np.array_equal(got, offline)

    def test_disconnected_pair_is_null(self):
        """JSON has no Infinity: unreachable pairs answer d=null."""

        async def run():
            engine = QueryEngine(WeightedGraph.from_edges(4, []))
            async with QueryServer(engine) as server:
                (reply,) = await _burst(server, [{"op": "query", "u": 0, "v": 3}])
                return reply

        assert asyncio.run(run())["d"] is None


class TestProtocol:
    def test_stats_and_ping_verbs(self, oracle):
        async def run():
            engine = QueryEngine(oracle)
            async with QueryServer(engine) as server:
                cli = await AsyncClient.connect(server.host, server.port)
                await cli.query(0, 5)
                pong = await cli.request({"op": "ping"})
                stats = await cli.stats()
                await cli.close()
                return pong, stats

        pong, stats = asyncio.run(run())
        assert pong["pong"] is True
        assert stats["served"] == 1
        assert stats["batches_flushed"] == 1
        assert stats["latency_ms"]["count"] == 1
        assert stats["latency_ms"]["p99_ms"] >= 0
        assert stats["batch_size_hist"] == [[1, 1]]
        assert "cache" in stats["engine"]  # engine accounting rides along

    def test_latency_samples_stay_at_the_cap(self, oracle, monkeypatch):
        """Only the most recent LATENCY_SAMPLES latencies are kept, and
        ``latency_ms.count`` reports that window, not the number served."""
        monkeypatch.setattr(server_mod, "LATENCY_SAMPLES", 4)

        async def run():
            async with QueryServer(QueryEngine(oracle)) as server:
                cli = await AsyncClient.connect(server.host, server.port)
                for v in range(10):
                    await cli.query(0, v)
                stats = await cli.stats()
                stored = len(server.latencies_s)
                await cli.close()
                return stored, stats

        stored, stats = asyncio.run(run())
        assert stats["served"] == 10
        assert stored == 4
        assert stats["latency_ms"]["count"] == 4

    def test_malformed_lines_get_line_numbered_errors(self, oracle):
        """Bad JSON, bad types, bad ranges, unknown ops: every one gets
        an error reply and the connection keeps serving."""

        async def run():
            engine = QueryEngine(oracle)
            async with QueryServer(engine) as server:
                cli = await AsyncClient.connect(server.host, server.port)
                cli.send_raw(b"this is not json\n")
                cli.send_raw(b'[1, 2, 3]\n')
                bad = [
                    await cli.request({"op": "query", "u": "zero", "v": 1}),
                    await cli.request({"op": "query", "u": 0, "v": 10**6}),
                    await cli.request({"op": "query", "u": True, "v": 1}),
                    await cli.request({"op": "query", "u": 0}),
                    await cli.request({"op": "warp", "u": 0, "v": 1}),
                ]
                good = await cli.query(0, 5)
                await asyncio.sleep(0.01)  # let the raw-line errors land
                unmatched = list(cli.unmatched)
                perrs = server.protocol_errors
                await cli.close()
                return bad, good, unmatched, perrs

        bad, good, unmatched, perrs = asyncio.run(run())
        assert all("error" in r and r["line"] >= 1 for r in bad)
        assert "integers" in bad[0]["error"]
        assert "out of range" in bad[1]["error"]
        assert "integers" in bad[2]["error"]  # bools are not vertex ids
        assert "integers" in bad[3]["error"]  # missing v
        assert "unknown op" in bad[4]["error"]
        assert good >= 0  # the connection survived all of it
        assert len(unmatched) == 2  # the id-less raw-line error replies
        assert all("error" in m and "line" in m for m in unmatched)
        assert perrs == 7

    def test_parse_hostport(self):
        assert parse_hostport("127.0.0.1:8123") == ("127.0.0.1", 8123)
        assert parse_hostport("8123") == ("127.0.0.1", 8123)
        assert parse_hostport(":8123") == ("127.0.0.1", 8123)
        assert parse_hostport("0.0.0.0:0") == ("0.0.0.0", 0)
        with pytest.raises(ValueError):
            parse_hostport("host:notaport")
        with pytest.raises(ValueError):
            parse_hostport("host:70000")

    def test_parse_hostport_bracketed_ipv6(self):
        # rpartition-on-":" used to leave the brackets in the host, which
        # asyncio.start_server then fails to resolve.
        assert parse_hostport("[::1]:9000") == ("::1", 9000)
        assert parse_hostport("[2001:db8::1]:80") == ("2001:db8::1", 80)
        assert parse_hostport("[]:8000") == ("127.0.0.1", 8000)
        with pytest.raises(ValueError):
            parse_hostport("[::1]:nope")

    def test_latency_summary(self):
        assert latency_summary([]) == {"count": 0}
        out = latency_summary([0.001, 0.002, 0.003])
        assert out["count"] == 3
        assert out["p50_ms"] == pytest.approx(2.0)
        assert out["max_ms"] == pytest.approx(3.0)

    def test_drain_task_only_for_buffered_replies(self, oracle):
        """A reply the socket took whole needs no drain task; one that
        left bytes buffered gets one."""

        async def run():
            async with QueryServer(QueryEngine(oracle)) as server:
                sent, stuck = _Writer(), _Writer(buffered=64)
                server._write_replies([(sent, b'{"id": 0}\n'), (stuck, b'{"id": 1}\n')])
                return len(server._drain_tasks), sent, stuck

        drains, sent, stuck = asyncio.run(run())
        assert drains == 1
        assert sent.lines == [b'{"id": 0}'] and stuck.lines == [b'{"id": 1}']
        assert stuck.buffered == 0  # closing the server awaited the drain

    def test_solver_thread_runs_from_start_to_close(self, oracle):
        """Constructing a server starts no thread; ``start`` starts the
        solver thread and closing the server ends it."""
        server = QueryServer(QueryEngine(oracle))
        assert server._solver is None

        async def run():
            async with server:
                assert server._solver.is_alive()
                cli = await AsyncClient.connect(server.host, server.port)
                d = await cli.query(0, 5)
                await cli.close()
                return d

        assert asyncio.run(run()) == oracle.query(0, 5)
        assert not server._solver.is_alive()

    def test_constructor_validation(self, oracle):
        engine = QueryEngine(oracle)
        with pytest.raises(ValueError):
            QueryServer(engine, max_batch=0)
        with pytest.raises(ValueError):
            QueryServer(engine, max_pending=0)


class TestFraming:
    """How a connection's bytes become lines: the server splits what each
    read returns itself, so the same requests must get the same replies
    and line numbers however the bytes are cut."""

    QUERY = b'{"op": "query", "u": 3, "v": 9, "id": 7}\n'
    PING = b'{"op": "ping", "id": 8}\n'

    def _run(self, oracle, *conversations, **kwargs):
        async def run():
            async with QueryServer(QueryEngine(oracle)) as server:
                out = [await _converse(server, chunks, **kwargs) for chunks in conversations]
                return out, server.protocol_errors

        return asyncio.run(run())

    def test_request_split_at_every_byte_offset(self, oracle):
        data = self.QUERY + self.PING
        splits = [[data[:i], data[i:]] for i in range(1, len(data))]
        replies, perrs = self._run(oracle, *splits)
        want = [{"id": 7, "d": oracle.query(3, 9)}, {"id": 8, "pong": True}]
        # The pong is written at once, the answer after its solve.
        assert all(sorted(got, key=lambda r: r["id"]) == want for got in replies)
        assert perrs == 0

    def test_many_requests_in_one_write(self, oracle):
        pairs = [(i % 180, (i * 7) % 180) for i in range(500)]
        data = b"".join(
            b'{"op": "query", "u": %d, "v": %d, "id": %d}\n' % (u, v, i)
            for i, (u, v) in enumerate(pairs)
        )
        ((replies,), _) = self._run(oracle, [data])
        offline = QueryEngine(oracle).query_many(np.array(pairs))
        assert [r["id"] for r in replies] == list(range(500))
        assert np.array_equal([r["d"] for r in replies], offline)

    def test_crlf_line_endings(self, oracle):
        crlf = [
            self.QUERY.replace(b"\n", b"\r\n") + b"\r\n" + b"nope\r\n"
            + self.PING.replace(b"\n", b"\r\n")
        ]
        lf = [self.QUERY + b"\n" + b"nope\n" + self.PING]
        (got, want), perrs = self._run(oracle, crlf, lf)
        assert got == want
        assert {"error": "bad JSON: Expecting value: line 1 column 1 (char 0)", "line": 3} in got
        assert perrs == 2

    def test_blank_lines_advance_line_numbers(self, oracle):
        ((replies,), perrs) = self._run(oracle, [b"\n  \n\t\r\n[1]\n\n{}\n"])
        assert replies == [
            {"error": "bad JSON: expected a JSON object, got list", "line": 4},
            {"error": "u and v must be integers, got u=None v=None", "line": 6},
        ]
        assert perrs == 2

    def test_unterminated_last_line_answered_at_eof(self, oracle):
        ((ping, bad), perrs) = self._run(
            oracle, [self.PING + b'{"op": "ping", "id": 9}'], [self.PING + b"[oops"]
        )
        assert ping == [{"id": 8, "pong": True}, {"id": 9, "pong": True}]
        assert bad[0] == {"id": 8, "pong": True}
        assert bad[1]["line"] == 2 and bad[1]["error"].startswith("bad JSON")
        assert perrs == 1

    def test_queries_are_answered_after_the_client_closes_its_side(self, oracle):
        """A client that sends its last requests and then half-closes
        still gets every reply: the connection closes only once they are
        written."""
        data = self.QUERY + b'{"op": "query", "u": 0, "v": 5, "id": 2}'
        ((replies,), _) = self._run(oracle, [data], settle=False)
        assert replies == [
            {"id": 7, "d": oracle.query(3, 9)},
            {"id": 2, "d": oracle.query(0, 5)},
        ]

    @pytest.mark.parametrize("cut", [None, 1000, server_mod.MAX_LINE])
    def test_over_long_line_is_rejected_and_skipped(self, oracle, cut):
        """A line over MAX_LINE bytes gets one error reply, counted as a
        protocol error, however its bytes arrive; the rest of it is
        discarded and the requests after it are served."""
        long_line = b"x" * (server_mod.MAX_LINE + 4000) + b"\n"
        data = self.PING + long_line + self.QUERY
        chunks = [data] if cut is None else [data[i : i + cut] for i in range(0, len(data), cut)]
        ((replies,), perrs) = self._run(oracle, chunks)
        assert replies == [
            {"id": 8, "pong": True},
            {"error": f"line too long: over {server_mod.MAX_LINE} bytes", "line": 2},
            {"id": 7, "d": oracle.query(3, 9)},
        ]
        assert perrs == 1

    def test_line_length_bound(self, oracle):
        """MAX_LINE bytes (newline excluded) is still a line; one more
        byte is too long, also on a last line with no newline."""
        limit = server_mod.MAX_LINE
        ping = b'{"op": "ping", "id": 1}'
        convs = [[ping.ljust(limit) + b"\n"], [ping.ljust(limit + 1) + b"\n"], [b" " * (limit + 1)]]
        (at, over, tail), perrs = self._run(oracle, *convs)
        assert at == [{"id": 1, "pong": True}]
        assert over == tail == [{"error": f"line too long: over {limit} bytes", "line": 1}]
        assert perrs == 2

    def test_line_sent_one_byte_per_read(self, oracle):
        """A line of MAX_LINE bytes that arrives one byte per read is
        answered promptly: each read is searched for newlines on its own,
        not joined to the partial line and split again."""
        line = self.QUERY.rstrip(b"\n").ljust(server_mod.MAX_LINE) + b"\n" + self.PING

        class OneByteReader:
            def __init__(self):
                self.at = 0

            async def read(self, n):
                self.at += 1
                return line[self.at - 1 : self.at]

        async def run():
            async with QueryServer(QueryEngine(oracle)) as server:
                writer = _Writer()
                t0 = time.perf_counter()
                await asyncio.wait_for(server._handle(OneByteReader(), writer), timeout=10)
                return [json.loads(r) for r in writer.lines], time.perf_counter() - t0

        replies, elapsed = asyncio.run(run())
        assert sorted(replies, key=lambda r: r["id"]) == [
            {"id": 7, "d": oracle.query(3, 9)},
            {"id": 8, "pong": True},
        ]
        # About 0.02 s on a 2-vCPU host; joining and re-splitting the
        # partial line on every read took 0.6 s there.
        assert elapsed < 0.5

    def test_byte_order_mark_is_skipped(self, oracle):
        """A leading UTF-8 byte-order mark (as a file saved by some
        editors starts with) does not make the line bad JSON."""
        ((replies,), perrs) = self._run(oracle, [codecs.BOM_UTF8 + self.PING + self.PING])
        assert replies == [{"id": 8, "pong": True}] * 2
        assert perrs == 0

    def test_deeply_nested_json_is_a_bad_line(self, oracle):
        """Nesting deep enough to exhaust the decoder's recursion is an
        error reply like any other bad JSON, not a dead connection."""
        ((replies,), perrs) = self._run(oracle, [b"[" * 60000 + b"\n" + self.PING])
        assert replies[0]["line"] == 1 and "recursion" in replies[0]["error"]
        assert replies[1] == {"id": 8, "pong": True}
        assert perrs == 1

    def test_over_long_line_over_a_socket(self, oracle):
        """End to end: the long line's error reply arrives, it is counted,
        and the same connection keeps answering pipelined queries."""

        async def run():
            async with QueryServer(QueryEngine(oracle)) as server:
                cli = await AsyncClient.connect(server.host, server.port)
                cli.send_raw(b"[" * 70000 + b"\n")
                futs = [cli.send({"op": "query", "u": i, "v": 2 * i}) for i in range(50)]
                replies = [(await f)[0] for f in futs]
                unmatched = list(cli.unmatched)
                stats = await cli.stats()
                await cli.close()
                return replies, unmatched, stats

        replies, unmatched, stats = asyncio.run(asyncio.wait_for(run(), timeout=10))
        assert [r["d"] for r in replies] == [oracle.query(i, 2 * i) for i in range(50)]
        assert unmatched == [{"error": f"line too long: over {server_mod.MAX_LINE} bytes", "line": 1}]
        assert stats["protocol_errors"] == 1 and stats["served"] == 50


_IDS = st.one_of(
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63) + 2),
    st.booleans(),
    st.none(),
    st.text(),
    st.floats(),
    st.lists(st.integers(), max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(rid=_IDS, d=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(rid=1, d=-0.0)
@example(rid=1, d=5e-324)
@example(rid=-1, d=2.2250738585072009e-308)
@example(rid=2**64, d=math.inf)
@example(rid=True, d=1.0)
@example(rid=1, d=1e16)
@example(rid=1, d=0.1)
def test_answer_reply_bytes_equal_the_json_encoder(rid, d):
    """The direct answer encoder writes exactly what ``_encode`` writes."""
    want = server_mod._encode({"id": rid, "d": d if math.isfinite(d) else None})
    assert server_mod._encode_answer(rid, d) == want


class TestDrain:
    def test_drain_answers_in_flight_and_frees_shm(self, oracle, tmp_path):
        """aclose() mid-traffic: everything admitted is answered, late
        arrivals get {"error": "draining"}, and the sharded engine's
        /dev/shm segments are gone afterwards."""
        from repro.service import ArtifactStore

        before = shm_segments()
        store = ArtifactStore(tmp_path)
        key = store.save_oracle(oracle)

        async def run():
            engine = QueryEngine.from_store(store, key, cache_rows=32, shards=2)
            server = QueryServer(engine, max_batch=16)
            await server.start()
            cli = await AsyncClient.connect(server.host, server.port)
            futs = [cli.send({"op": "query", "u": i % 180, "v": (i * 3) % 180}) for i in range(64)]
            await asyncio.sleep(0.01)  # batches in flight
            await server.aclose()
            answered = rejected = lost = 0
            for f in futs:
                try:
                    msg, _ = await f
                except ConnectionError:
                    lost += 1
                    continue
                if "error" in msg:
                    assert msg["error"] == "draining"
                    rejected += 1
                else:
                    answered += 1
            late = await asyncio.gather(
                cli.send({"op": "query", "u": 0, "v": 1}), return_exceptions=True
            )
            await cli.close()
            await server.aclose()  # idempotent
            return answered, rejected, lost, late

        answered, rejected, lost, late = asyncio.run(run())
        assert lost == 0
        assert answered + rejected == 64 and answered > 0
        # Post-drain send either errors or is rejected; never answered.
        assert isinstance(late[0], (ConnectionError, Exception)) or "error" in late[0][0]
        assert shm_segments() == before


class TestServePipe:
    def test_malformed_lines_survive_with_json_errors(self, oracle):
        engine = QueryEngine(oracle)
        lines = [
            "0 5",          # 1: ok
            "bad",          # 2: arity
            "1 2 3",        # 3: arity
            "0 999999",     # 4: out of range
            "zero one",     # 5: non-integer
            "# comment",    # 6: skipped
            "",             # 7: skipped
            "3 9",          # 8: ok
        ]
        out = io.StringIO()
        result = serve_pipe(engine, lines, out)
        assert result["errors"] == 4
        assert result["stats"]["queries_served"] == 2
        got = out.getvalue().strip().splitlines()
        assert len(got) == 6
        assert float(got[0]) == pytest.approx(oracle.query(0, 5))
        assert float(got[5]) == pytest.approx(oracle.query(3, 9))
        errs = [json.loads(line) for line in got[1:5]]
        assert [e["line"] for e in errs] == [2, 3, 4, 5]
        assert "expected 'u v'" in errs[0]["error"]
        assert "non-integer" in errs[3]["error"]

    def test_clean_pipe_has_no_errors(self, oracle):
        engine = QueryEngine(oracle)
        out = io.StringIO()
        result = serve_pipe(engine, ["0 1", "2 3"], out)
        assert result["errors"] == 0
        assert len(out.getvalue().strip().splitlines()) == 2


class TestSocketCLI:
    def test_serve_socket_end_to_end(self, tmp_path):
        """repro serve --socket: build+serve, concurrent queries over a
        real socket, SIGTERM drain, stats on stderr, no shm leaks."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(tmp_path / "store"), "--build",
                "--graph", "er:64:0.1", "--algorithm", "general", "-k", "3",
                "--seed", "0", "--socket", "127.0.0.1:0",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stderr.readline()
            assert "serving artifact" in line
            port = int(line.split(" on ")[1].split()[0].rsplit(":", 1)[1])

            async def drive():
                clis = [await AsyncClient.connect("127.0.0.1", port) for _ in range(3)]
                futs = [
                    cli.send({"op": "query", "u": (i * 5) % 64, "v": (i * 11) % 64})
                    for i, cli in ((i, clis[i % 3]) for i in range(30))
                ]
                replies = [(await f)[0] for f in futs]
                stats = await clis[0].stats()
                for cli in clis:
                    await cli.close()
                return replies, stats

            replies, stats = asyncio.run(drive())
            assert all("d" in r for r in replies)
            assert stats["served"] >= 30
        finally:
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        assert proc.returncode == 0
        final = json.loads(err.strip().splitlines()[-1])
        assert final["drained"] is True and final["served"] >= 30


class TestBackendRouting:
    """The ``"backend"`` request field on a bundle-backed server: pinned
    queries split into per-backend micro-batches, answers stay
    bit-identical to the offline providers, the ``stats`` verb reports
    where the planner routed each query, and only a batch that may solve
    a row is handed to the solver thread."""

    @pytest.fixture()
    def bundle(self, g):
        from repro.distances.sketches import DistanceSketch
        from repro.service import ProviderBundle

        return ProviderBundle(
            graph=g,
            spanner=g,
            k=3,
            t=2,
            t_effective=2,
            sketch=DistanceSketch(g, 3, rng=0),
        )

    def test_pinned_backends_served_and_counted(self, g, bundle):
        from repro.service import build_providers

        engine = QueryEngine(bundle)
        pairs = [((i * 7) % g.n, (i * 13) % g.n) for i in range(24)]
        payloads = [
            {"op": "query", "u": u, "v": v, "backend": b}
            for (u, v), b in zip(
                pairs, ["exact", "oracle", "sketch", None] * 6
            )
        ]
        for p in payloads:
            if p["backend"] is None:
                del p["backend"]

        async def run():
            async with QueryServer(engine, max_batch=64) as server:
                replies = await _burst(server, payloads)
                stats = server.stats()
                return replies, stats

        replies, stats = asyncio.run(run())
        engine.close()
        assert all("d" in r for r in replies)
        # Where the planner sent them: 6 pinned each, plus the 6
        # unpinned ones wherever it routed them.
        routed = stats["engine"]["planner"]["routed"]
        assert sum(routed.values()) == stats["served"] == 24
        assert min(routed["exact"], routed["oracle"], routed["sketch"]) >= 6
        # Served answers bit-identical to the offline providers.
        offline = build_providers(bundle)
        for backend in ("exact", "oracle", "sketch"):
            want = offline[backend].query_many(
                np.array([p for p, pay in zip(pairs, payloads)
                          if pay.get("backend") == backend])
            )
            got = np.array([
                np.inf if r["d"] is None else r["d"]
                for r, pay in zip(replies, payloads)
                if pay.get("backend") == backend
            ])
            assert np.array_equal(got, want), backend

    def test_mixed_backend_batch_is_one_solver_handoff(self, bundle):
        """A batch mixing backends still makes one ``query_many`` per
        backend, but all of them in one hand-off to the solver thread:
        no reply of the batch is written before its last group solves."""
        writer = _Writer()
        solves = []

        class Recording:
            def __init__(self, inner):
                self._inner = inner

            def query_many(self, pairs, **kwargs):
                solves.append((kwargs.get("backend"), len(pairs), len(writer.lines)))
                return self._inner.query_many(pairs, **kwargs)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        async def run():
            async with QueryServer(Recording(QueryEngine(bundle))) as server:
                for i, backend in enumerate(["sketch", "exact"] * 4):
                    msg = {"u": i, "v": 2 * i + 1, "backend": backend}
                    assert server._admit(msg, i, writer) is None
                await server._flush_task
                return server.stats()

        stats = asyncio.run(run())
        assert solves == [("sketch", 4, 0), ("exact", 4, 0)]
        assert stats["batch_size_hist"] == [[4, 2]]
        assert stats["engine"]["planner"]["routed"] == {
            "exact": 4, "oracle": 0, "sketch": 4, "tiered": 0
        }
        assert sorted(json.loads(line)["id"] for line in writer.lines) == list(range(8))

    HOT = (3, 17, 42)  # sources whose oracle rows are cached up front

    def _hot_engine(self, bundle, cls=QueryEngine):
        engine = cls(bundle)
        engine.query_many(np.array([(s, 0) for s in self.HOT]), backend="oracle")
        return engine

    @staticmethod
    def _flush_one_batch(engine, requests):
        """Admit ``(u, v, backend)`` requests as one batch and flush it;
        returns the replies in admission order and the server's stats."""
        writer = _Writer()

        async def run():
            async with QueryServer(engine) as server:
                for i, (u, v, backend) in enumerate(requests):
                    msg = {"u": u, "v": v, "backend": backend}
                    assert server._admit(msg, i, writer) is None
                await server._flush_task
                return server.stats()

        stats = asyncio.run(run())
        replies = sorted((json.loads(line) for line in writer.lines), key=lambda r: r["id"])
        return replies, stats

    @staticmethod
    def _assert_offline_answers(bundle, requests, replies, backends):
        from repro.service import build_providers

        offline = build_providers(bundle)
        for name in backends:
            mine = [i for i, (_, _, b) in enumerate(requests) if b == name]
            want = offline[name].query_many(np.array([requests[i][:2] for i in mine]))
            got = [np.inf if replies[i]["d"] is None else replies[i]["d"] for i in mine]
            assert np.array_equal(got, want), name

    def test_cached_rows_and_walks_are_answered_on_the_event_loop(self, g, bundle):
        """Oracle requests whose rows are all cached, sketch walks, and
        tiered walks on sources with no cached row (so they equal the
        offline walk) make one batch that never reaches the solver thread,
        and its answers are bit-identical to the offline providers'."""
        engine = self._hot_engine(bundle)
        requests = [(self.HOT[i % 3], (i * 11) % g.n, "oracle") for i in range(9)]
        requests += [((i * 7) % g.n, (i * 5) % g.n, "sketch") for i in range(9)]
        requests += [(100 + i, (i * 3) % g.n, "tiered") for i in range(4)]
        replies, stats = self._flush_one_batch(engine, requests)
        assert stats["solver_handoffs"] == 0
        assert stats["batch_size_hist"] == [[4, 1], [9, 2]]
        assert stats["engine"]["rows_solved"] == len(self.HOT)
        self._assert_offline_answers(bundle, requests, replies, ("oracle", "sketch", "tiered"))

    def test_one_uncached_source_makes_one_handoff(self, g, bundle):
        """One oracle source without a cached row sends the whole batch,
        its other groups included, to the solver thread exactly once."""
        engine = self._hot_engine(bundle)
        requests = [(self.HOT[i % 3], (i * 11) % g.n, "oracle") for i in range(8)]
        requests += [(99, 5, "oracle")]
        requests += [((i * 7) % g.n, (i * 5) % g.n, "sketch") for i in range(6)]
        replies, stats = self._flush_one_batch(engine, requests)
        assert stats["solver_handoffs"] == 1
        assert stats["batches_flushed"] == 2
        assert stats["engine"]["rows_solved"] == len(self.HOT) + 1
        self._assert_offline_answers(bundle, requests, replies, ("oracle", "sketch"))

    @pytest.mark.parametrize("kind", ["delegating", "raising"])
    def test_engine_that_cannot_vouch_hands_off(self, g, bundle, kind):
        """A wrapper whose class does not define ``needs_solve`` (it could
        block in its own ``query_many``), or a predicate that raises,
        sends even a sketch-only batch to the solver thread."""

        class Raising(QueryEngine):
            def needs_solve(self, sources, *, backend=None):
                raise RuntimeError("cannot tell")

        if kind == "raising":
            engine = Raising(bundle)
        else:
            engine = FailingEngine(QueryEngine(bundle), fail=0)
        requests = [((i * 7) % g.n, (i * 5) % g.n, "sketch") for i in range(5)]
        replies, stats = self._flush_one_batch(engine, requests)
        assert stats["solver_handoffs"] == 1
        self._assert_offline_answers(bundle, requests, replies, ("sketch",))

    def test_failed_group_on_the_event_loop_is_contained(self, g, bundle):
        """A group that raises on the event loop fails only its own
        requests, as it would on the solver thread."""

        class BrokenSketch(QueryEngine):
            def query_many(self, pairs, **route):
                if route.get("backend") == "sketch":
                    raise MemoryError("solve failed")
                return super().query_many(pairs, **route)

        engine = self._hot_engine(bundle, BrokenSketch)
        requests = [(self.HOT[i % 3], (i * 11) % g.n, "oracle") for i in range(4)]
        requests += [((i * 7) % g.n, (i * 5) % g.n, "sketch") for i in range(4)]
        replies, stats = self._flush_one_batch(engine, requests)
        assert stats["solver_handoffs"] == 0
        assert stats["solve_errors"] == 1 and stats["served"] == 4
        assert [r.get("error") for r in replies[4:]] == ["internal: MemoryError"] * 4
        self._assert_offline_answers(bundle, requests[:4], replies[:4], ("oracle",))

    def test_unknown_backend_is_rejected(self, bundle):
        engine = QueryEngine(bundle)

        async def run():
            async with QueryServer(engine) as server:
                return await _burst(
                    server,
                    [
                        {"op": "query", "u": 0, "v": 1, "backend": "bogus"},
                        {"op": "query", "u": 0, "v": 1, "backend": 7},
                        {"op": "query", "u": 0, "v": 1, "backend": "exact"},
                    ],
                )

        bogus, nonstr, ok = asyncio.run(run())
        engine.close()
        assert "unknown backend 'bogus'" in bogus["error"]
        assert "must be a string" in nonstr["error"]
        assert "d" in ok

    def test_single_backend_server_rejects_backend(self, oracle):
        engine = QueryEngine(oracle)

        async def run():
            async with QueryServer(engine) as server:
                return await _burst(
                    server,
                    [{"op": "query", "u": 0, "v": 1, "backend": "sketch"}],
                )

        (reply,) = asyncio.run(run())
        engine.close()
        assert "single fixed backend" in reply["error"]


class TestSolveFailure:
    """A solve that raises fails only its own requests: each gets an
    error reply, the failure is counted, and serving carries on."""

    def test_failed_solve_replies_and_server_recovers(self, oracle):
        async def run():
            engine = FailingEngine(QueryEngine(oracle))
            async with QueryServer(engine) as server:
                cli = await AsyncClient.connect(server.host, server.port)
                failed = await asyncio.wait_for(
                    cli.request({"op": "query", "u": 0, "v": 5}), timeout=1.0
                )
                d = await asyncio.wait_for(cli.query(0, 5), timeout=1.0)
                stats = await cli.stats()
                await cli.close()
                return failed, d, stats

        failed, d, stats = asyncio.run(run())
        assert failed == {"id": 0, "error": "internal: MemoryError"}
        assert d == oracle.query(0, 5)
        assert stats["solve_errors"] == 1
        assert stats["served"] == 1
        assert stats["batches_flushed"] == 1

    def test_other_backend_groups_in_the_window_are_answered(self, g):
        from repro.distances.sketches import DistanceSketch
        from repro.service import ProviderBundle, build_providers

        bundle = ProviderBundle(
            graph=g, spanner=g, k=3, t=2, t_effective=2,
            sketch=DistanceSketch(g, 3, rng=0),
        )
        pairs = [(i, (i * 13) % g.n) for i in range(8)]
        backends = ["sketch", "exact"] * 4
        payloads = [
            {"op": "query", "u": u, "v": v, "backend": b}
            for (u, v), b in zip(pairs, backends)
        ]

        async def run():
            engine = FailingEngine(QueryEngine(bundle), backend="sketch")
            async with QueryServer(engine, max_batch=64) as server:
                replies = await asyncio.wait_for(_burst(server, payloads), timeout=2.0)
                return replies, server.stats()

        replies, stats = asyncio.run(run())
        exact = build_providers(bundle)["exact"]
        for (u, v), b, reply in zip(pairs, backends, replies):
            if b == "sketch":
                assert reply["error"] == "internal: MemoryError"
            else:
                assert reply["d"] == exact.query(u, v)
        assert stats["solve_errors"] == 1
        assert stats["engine"]["planner"]["routed"] == {
            "exact": 4, "oracle": 0, "sketch": 0, "tiered": 0
        }
