"""The cross-algorithm benchmark suite: record shape and gates.

Runs :func:`repro.bench.run` in smoke mode once (module fixture) and
checks that every registered algorithm is measured, that the hot-loop
harness certifies bit-identical vectorized outputs, and that both gates —
the per-algorithm slowdown gate and the hot-loop speedup floors — behave:
catch real regressions, skip gracefully on timer noise, mode mismatches,
and uniform machine-speed shifts.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    hot_loop_gates,
    run,
    slowdown_gate,
)
from repro.registry import algorithm_names


@pytest.fixture(scope="module")
def record():
    return run(smoke=True)


class TestSuiteRecord:
    def test_every_registered_algorithm_measured(self, record):
        assert set(record["algorithms"]) == set(algorithm_names())
        assert len(record["algorithms"]) == 12

    def test_per_algorithm_fields(self, record):
        for name, rec in record["algorithms"].items():
            assert rec["wall_s"] >= 0, name
            assert rec["edges_per_s"] > 0, name
            assert rec["spanner_edges"] > 0, name
            assert rec["n"] > 0 and rec["m"] > 0, name
            assert rec["kind"] in ("spanner", "apsp"), name
        for rec in record["algorithms"].values():
            if rec["kind"] == "apsp":
                assert rec["rounds"] > 0

    def test_hot_loops_bit_identical(self, record):
        hot = record["hot_loops"]
        assert hot["streaming_pass"]["identical"]
        assert hot["unweighted_balls"]["identical"]
        assert hot["streaming_pass"]["speedup"] > 0
        assert hot["unweighted_balls"]["speedup"] > 0

    def test_smoke_record_has_no_smoke_ref(self, record):
        assert record["smoke"] is True
        assert "smoke_ref" not in record

    def test_json_round_trip(self, record):
        assert json.loads(json.dumps(record)) == record


class TestSlowdownGate:
    def test_self_comparison_passes(self, record):
        ok, reasons = slowdown_gate(record, record)
        assert ok
        assert any("machine-speed factor" in r for r in reasons)

    def test_detects_single_algorithm_regression(self, record):
        baseline = copy.deepcopy(record)
        # One algorithm got 5x faster in the baseline == 5x slower now.
        victim = max(
            record["algorithms"], key=lambda a: record["algorithms"][a]["wall_s"]
        )
        baseline["algorithms"][victim]["wall_s"] = (
            record["algorithms"][victim]["wall_s"] / 5.0
        )
        ok, reasons = slowdown_gate(record, baseline, noise_floor_s=0.0)
        assert not ok
        assert any(victim in r and "exceeds" in r for r in reasons)

    def test_uniform_slowdown_is_machine_speed_not_regression(self, record):
        baseline = copy.deepcopy(record)
        for rec in baseline["algorithms"].values():
            rec["wall_s"] = rec["wall_s"] / 3.0  # everything "3x slower" now
        ok, reasons = slowdown_gate(record, baseline, noise_floor_s=0.0)
        assert ok, reasons

    def test_noise_floor_skips(self, record):
        baseline = copy.deepcopy(record)
        ok, reasons = slowdown_gate(record, baseline, noise_floor_s=10.0)
        assert ok
        assert any("too few" in r for r in reasons)
        assert any("noise floor" in r for r in reasons)

    def test_mode_mismatch_skips(self, record):
        baseline = {"smoke": False, "algorithms": {}}
        ok, reasons = slowdown_gate(record, baseline)
        assert ok
        assert any("no comparable-mode" in r for r in reasons)

    def test_smoke_gates_against_full_snapshots_smoke_ref(self, record):
        baseline = {
            "smoke": False,
            "algorithms": {},
            "smoke_ref": {"algorithms": copy.deepcopy(record["algorithms"])},
        }
        ok, reasons = slowdown_gate(record, baseline)
        assert ok
        assert any("ok" in r or "machine-speed" in r for r in reasons)

    def test_protocol_change_skips(self, record):
        baseline = copy.deepcopy(record)
        some = next(iter(baseline["algorithms"]))
        baseline["algorithms"][some]["graph"] = "er:9999:0.5"
        ok, reasons = slowdown_gate(record, baseline, noise_floor_s=0.0)
        assert ok
        assert any(some in r and "protocol changed" in r for r in reasons)


class TestHotLoopGates:
    def test_smoke_skips(self, record):
        ok, reasons = hot_loop_gates(record)
        assert ok
        assert any("skipped" in r for r in reasons)

    def test_full_record_floors(self, record):
        full = copy.deepcopy(record)
        full["smoke"] = False
        full["hot_loops"]["streaming_pass"]["speedup"] = 6.0
        full["hot_loops"]["unweighted_balls"]["speedup"] = 4.0
        ok, reasons = hot_loop_gates(full)
        assert ok, reasons

        full["hot_loops"]["streaming_pass"]["speedup"] = 1.2
        ok, reasons = hot_loop_gates(full)
        assert not ok
        assert any("below the 5x floor" in r for r in reasons)

    def test_non_identical_output_fails(self, record):
        full = copy.deepcopy(record)
        full["smoke"] = False
        full["hot_loops"]["streaming_pass"]["speedup"] = 100.0
        full["hot_loops"]["streaming_pass"]["identical"] = False
        ok, reasons = hot_loop_gates(full)
        assert not ok
        assert any("NOT bit-identical" in r for r in reasons)


def test_committed_snapshot_matches_protocol():
    """BENCH_suite.json at the repo root stays regenerable: it must cover
    every registered algorithm and carry the smoke_ref section the CI gate
    compares against."""
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCH_suite.json")
    with open(path) as fh:
        snap = json.load(fh)
    assert snap["smoke"] is False
    assert set(snap["algorithms"]) == set(algorithm_names())
    assert set(snap["smoke_ref"]["algorithms"]) == set(algorithm_names())
    hot = snap["hot_loops"]
    assert hot["streaming_pass"]["identical"]
    assert hot["unweighted_balls"]["identical"]
