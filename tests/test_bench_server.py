"""Tier-1 smoke wiring for the open-loop server benchmark.

Runs ``benchmarks/bench_server.py`` in smoke mode on every test run: the
bench asserts the server's correctness invariants (every served answer
bit-identical to offline ``query_many``, graceful drain losing nothing
and leaving /dev/shm clean) at tiny scale, so a protocol or batching
regression fails the suite before anyone reads throughput numbers.

The >= 5x micro-vs-naive speedup gate is timing-dependent and full-scale
only (``scripts/bench_snapshot.py --suite server``); here it is exercised
as pure logic on synthetic records, including the explicit smoke skip and
the scale-mismatch skip of the baseline gate.
"""

from __future__ import annotations

from bench_server import (
    SPEEDUP_GATE,
    baseline_gate,
    drain_gate,
    format_table,
    identity_gate,
    run,
    speedup_gate,
)


def test_server_bench_smoke():
    record = run(smoke=True)
    ok, reasons = identity_gate(record)
    assert ok, reasons
    ok, reasons = drain_gate(record)
    assert ok, reasons
    # Structure: one sweep point per configured rate, duel both modes.
    assert len(record["sweep"]) == len(record["config"]["rates"])
    for point in record["sweep"]:
        assert point["completed"] > 0 and point["errors"] == 0
        assert point["latency_ms"]["p50_ms"] <= point["latency_ms"]["p99_ms"]
        assert "answers" not in point  # stripped before the record returns
    assert record["duel"]["micro_qps"] > 0 and record["duel"]["naive_qps"] > 0
    # Smoke-scale timings never gate; the skip reason is explicit.
    ok, (reason,) = speedup_gate(record)
    assert ok and "skipped" in reason
    assert "server bench" in format_table(record)


def test_speedup_gate_logic():
    passing = {
        "smoke": False,
        "duel": {"speedup": SPEEDUP_GATE + 1, "micro_qps": 12.0, "naive_qps": 2.0},
    }
    ok, (reason,) = speedup_gate(passing)
    assert ok and "meets" in reason
    failing = {"smoke": False, "duel": {"speedup": SPEEDUP_GATE - 1}}
    ok, (reason,) = speedup_gate(failing)
    assert not ok and "below" in reason


def test_drain_gate_logic():
    ok, reasons = drain_gate(
        {"drain": {"shm_clean": True, "lost": 0, "answered": 9, "rejected_during_drain": 1}}
    )
    assert ok
    ok, reasons = drain_gate({"drain": {"shm_clean": False, "lost": 2}})
    assert not ok
    assert any("LOST" in r for r in reasons)
    assert any("leaked" in r for r in reasons)


def test_identity_gate_logic():
    ok, reasons = identity_gate({"identity": {"rate_1000": True, "duel_micro": False}})
    assert not ok
    assert any("duel_micro: FAILED" in r for r in reasons)
    ok, _ = identity_gate({})
    assert not ok  # no checks recorded is a failure, not a pass


def test_baseline_gate_logic():
    full = {"smoke": False, "sweep": [{"achieved_qps": 1000.0}]}
    # Scale mismatch (CI smoke vs committed full record) skips explicitly.
    ok, (reason,) = baseline_gate({"smoke": True, "sweep": []}, full)
    assert ok and "scale mismatch" in reason
    # Full vs full: a big regression fails, parity passes.
    slow = {"smoke": False, "sweep": [{"achieved_qps": 100.0}]}
    ok, (reason,) = baseline_gate(slow, full)
    assert not ok and "regressed" in reason
    ok, _ = baseline_gate(full, slow)  # faster than baseline is fine
    assert ok
