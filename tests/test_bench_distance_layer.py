"""Tier-1 smoke wiring for the distance-layer benchmark.

Runs ``benchmarks/bench_distance_layer.py`` in smoke mode (tiny n) on every
test run: the bench asserts that batched ``pairwise_distances`` is
bit-identical to the retained seed implementation, and its identity gate
that the vectorized sketch answers are, so a regression in either path
fails the suite long before anyone looks at timing numbers.
"""

from __future__ import annotations

from bench_distance_layer import format_table, identity_gate, run


def test_smoke_mode_runs_and_matches_seed():
    record = run(smoke=True, num_query_pairs=300)
    assert record["config"]["smoke"] is True
    ok, reasons = identity_gate(record)
    assert ok, reasons
    # Timing at smoke scale is noisy; only sanity-check the record shape.
    assert record["sketch_preprocess"]["vectorized_seconds"] > 0
    assert record["pairwise_distances"]["vectorized_seconds"] > 0
    assert record["graph"]["n"] == record["config"]["n"]


def test_format_table_renders():
    record = run(smoke=True, num_query_pairs=100)
    table = format_table(record)
    assert "sketch preprocess" in table
    assert "bit-identical: True" in table
