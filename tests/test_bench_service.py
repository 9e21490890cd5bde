"""Tier-1 smoke wiring for the service (query-throughput) benchmark.

Runs ``benchmarks/bench_service.py`` in smoke mode on every test run: the
bench asserts the subsystem's bit-identity invariants (sharded == serial,
loaded-from-disk == freshly built) at tiny scale, so a serialization or
sharding regression fails the suite before anyone reads timing numbers.

The >= 5x thrash gate itself is timing-dependent and full-scale only
(``scripts/bench_snapshot.py --suite service``); here it is exercised as
pure logic on synthetic records, including the explicit smoke skip.
"""

from __future__ import annotations

from bench_service import (
    THRASH_GATE,
    format_table,
    identity_gate,
    run,
    thrash_gate,
    zipf_sources,
)


def test_service_bench_smoke():
    record = run(smoke=True)
    ok, reasons = identity_gate(record)
    assert ok, reasons
    assert record["thrash"]["lru_rows"] <= record["thrash"]["clear_evict_rows"]
    assert record["batched"]["matches_single"]
    # Smoke-scale timings never gate; the skip reason is explicit.
    ok, (reason,) = thrash_gate(record)
    assert ok and "skipped" in reason
    assert "service bench" in format_table(record)


def test_thrash_gate_logic():
    passing = {"smoke": False, "thrash": {"speedup": THRASH_GATE + 1}}
    ok, (reason,) = thrash_gate(passing)
    assert ok and "meets" in reason
    failing = {"smoke": False, "thrash": {"speedup": THRASH_GATE - 1}}
    ok, (reason,) = thrash_gate(failing)
    assert not ok and "below" in reason


def test_identity_gate_logic():
    bad = {
        "equivalence": {
            "sharded_identical": True,
            "oracle_roundtrip_identical": False,
            "sketch_roundtrip_identical": True,
        }
    }
    ok, reasons = identity_gate(bad)
    assert not ok
    assert any("oracle_roundtrip_identical: FAILED" in r for r in reasons)


def test_zipf_sources_shape_and_mix():
    import numpy as np

    src = zipf_sources(100, 5000, 1.05, 0, hot_ranks=10, uniform_mix=0.0)
    assert src.shape == (5000,)
    assert np.unique(src).size <= 10  # folded onto the hot window
    mixed = zipf_sources(100, 5000, 1.05, 0, hot_ranks=10, uniform_mix=0.5)
    assert np.unique(mixed).size > 10  # cold traffic escapes the window
    again = zipf_sources(100, 5000, 1.05, 0, hot_ranks=10, uniform_mix=0.5)
    assert np.array_equal(mixed, again)  # seed-deterministic
