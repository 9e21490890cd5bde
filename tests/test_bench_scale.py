"""Tier-1 smoke wiring for the scale (memory-footprint) benchmark.

Runs ``benchmarks/bench_scale.py`` in smoke mode on every test run: the
bench asserts the zero-copy serving invariants — sharded == serial,
mmap == eager loads, loaded == freshly built — *and* the worker
shared-memory gate (combined worker private bytes beyond the baseline
heap stay under ``SCALE_GATE`` x one graph footprint after the fixed
per-worker allowance), so a memory regression fails the suite before
anyone reads BENCH_scale.json.  Gate logic is also exercised as pure
functions on synthetic records.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_scale import (
    SCALE_GATE,
    THROUGHPUT_GATE,
    budget_gate,
    format_table,
    graph_footprint,
    identity_gate,
    probe_pairs,
    run,
    scale_gate,
    throughput_gate,
)


def test_scale_bench_smoke():
    # Just the pool-protocol point: the budget-gated million cell builds a
    # real n=10^6 graph (~30s) and runs in the CI scale job instead.
    record = run(smoke=True, points=["scale"])
    ok, reasons = identity_gate(record)
    assert ok, reasons
    # The memory gate is not timing-based, so it holds at smoke scale too
    # (it skips itself with a reason where smaps_rollup is unavailable).
    ok, reasons = scale_gate(record)
    assert ok, reasons
    point = record["points"]["scale"]
    assert point["graph"]["endpoint_dtype"] == "int32"  # store downcast
    assert point["save"]["store_bytes"] > 0
    assert point["build"]["peak_rss_bytes"] > 0
    assert "scale bench" in format_table(record)


def test_scale_gate_logic():
    def rec(ratio, legacy=None):
        return {
            "points": {
                "p": {"memory": {"overhead_ratio": ratio, "legacy_overhead_ratio": legacy}}
            }
        }

    ok, reasons = scale_gate(rec(SCALE_GATE / 2, legacy=4.0))
    assert ok and "meets" in reasons[0] and "legacy" in reasons[0]
    ok, reasons = scale_gate(rec(SCALE_GATE * 2))
    assert not ok and "EXCEEDS" in reasons[0]
    ok, reasons = scale_gate(rec(None))  # non-Linux: no private-bytes accounting
    assert ok and "skipped" in reasons[0]


def test_identity_gate_logic():
    bad = {
        "points": {
            "p": {
                "serve": {"sharded_identical": True},
                "load": {"mmap_eager_identical": False, "loaded_matches_built": True},
            }
        }
    }
    ok, reasons = identity_gate(bad)
    assert not ok
    assert any("p.mmap_eager_identical: FAILED" in r for r in reasons)


def test_identity_gate_budget_point_checks():
    ok, reasons = identity_gate(
        {"points": {"million": {"identity": {"chunked_matches_unchunked": True}}}}
    )
    assert ok and "million.chunked_matches_unchunked: ok" in reasons
    ok, _ = identity_gate(
        {"points": {"million": {"identity": {"chunked_matches_unchunked": False}}}}
    )
    assert not ok
    # A point that recorded no checks at all is a failure, not a skip.
    ok, reasons = identity_gate({"points": {"empty": {}}})
    assert not ok and any("no identity checks" in r for r in reasons)


def test_budget_gate_logic():
    def rec(peak, budget):
        return {"points": {"million": {"build": {
            "peak_rss_bytes": peak, "budget_bytes": budget}}}}

    ok, reasons = budget_gate(rec(2**30, 4 * 2**30))
    assert ok and "under budget" in reasons[0]
    ok, reasons = budget_gate(rec(5 * 2**30, 4 * 2**30))
    assert not ok and "OVER BUDGET" in reasons[0]
    # Points without a declared budget are skipped entirely.
    ok, reasons = budget_gate({"points": {"scale": {"build": {"oracle_s": 1.0}}}})
    assert ok and "skipped" in reasons[0]


def test_throughput_gate_logic():
    def rec(ref, big, smoke=False):
        return {
            "smoke": smoke,
            "points": {
                "scale": {"build": {"edges_per_s": ref}},
                "million": {"build": {"edges_per_s": big}},
            },
        }

    ok, reasons = throughput_gate(rec(100_000, 60_000))
    assert ok and "ok" in reasons[0]
    ok, reasons = throughput_gate(rec(100_000, 100_000 * THROUGHPUT_GATE - 1))
    assert not ok and "BELOW GATE" in reasons[0]
    # Smoke runs record the ratio without enforcing it.
    ok, reasons = throughput_gate(rec(100_000, 1_000, smoke=True))
    assert ok and "not enforced in smoke" in reasons[0]
    # Missing either point: skip.
    ok, reasons = throughput_gate({"points": {}})
    assert ok and "skipped" in reasons[0]


def test_point_selector_rejects_unknown():
    with pytest.raises(ValueError, match="unknown point"):
        run(smoke=True, points=["nope"])


def test_probe_pairs_bounded_sources_and_deterministic():
    pairs = probe_pairs(10_000, 500, 8, 3)
    assert pairs.shape == (500, 2)
    assert np.unique(pairs[:, 0]).size <= 8  # bounded row volume
    assert np.array_equal(pairs, probe_pairs(10_000, 500, 8, 3))


def test_graph_footprint_matches_shared_segment():
    from repro.graphs import erdos_renyi
    from repro.service import SharedGraphBuffers

    g = erdos_renyi(120, 0.1, weights="uniform", rng=0)
    buf = SharedGraphBuffers.create(g)
    try:
        assert graph_footprint(g) == buf.nbytes
    finally:
        buf.destroy()
