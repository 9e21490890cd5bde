"""The benchmark's own tests: helpers, plus a smoke size of each workload."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import best_window, percentile, spread, window_rates
from spans import Span, Tracer, covered, self_times, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# percentile: nearest rank, failures as infinite latency
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 75) == 3.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 100) == 4.0
    assert percentile([7.0], 1) == 7.0
    assert percentile(range(1, 101), 99) == 99


def test_percentile_counts_failures_as_infinite():
    lat = [1.0] * 98 + [math.inf] * 2
    assert percentile(lat, 50) == 1.0
    assert percentile(lat, 99) == math.inf
    assert percentile([1.0] * 99 + [math.inf], 99) == 1.0
    assert not math.isnan(percentile([math.inf, math.inf], 50))


@pytest.mark.parametrize("bad", [0, -1, 101])
def test_percentile_rejects_bad_q(bad):
    with pytest.raises(ValueError):
        percentile([1.0], bad)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_best_window_skips_disturbed_windows():
    steady = [1.0] * 1000
    stalled = [1.0] * 200 + [50.0] * 800
    assert best_window(stalled + steady + stalled, 50, 1000) == 1.0
    assert percentile(stalled + steady + stalled, 50) == 50.0
    # A shift of every window moves it fully.
    assert best_window([2.0] * 3000, 50, 1000) == 2.0
    # Fewer than two windows' worth: one window, the plain percentile.
    assert best_window(stalled, 50, 1000) == percentile(stalled, 50)
    assert best_window([1.0, math.inf, math.inf], 50, 1000) == math.inf


def test_window_rates():
    times = [0.001 * (i + 1) for i in range(4000)]  # 1,000 events/s
    assert window_rates(times, 1000) == pytest.approx([1000.0] * 4)
    assert window_rates([0.5, 1.0], 1000) == pytest.approx([2.0])


def test_spread_matches_statistics_quantiles():
    s = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0
    assert (s["q1"], s["q3"]) == (1.5, 4.5)
    assert s["iqr_share"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# self time: duration minus the union of the children's intervals
# ----------------------------------------------------------------------
def test_covered_merges_and_clips():
    assert covered([(1, 3), (2, 4)], 0, 10) == 3
    assert covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered([], 0, 10) == 0


def test_self_times_subtract_children_once():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),  # overlaps a (another thread)
        Span(3, 1, "leaf", 1.5, 2.5),  # grandchild: a's business only
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    rows = summarize(spans)
    assert rows["root"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(5.0)}


class _Layer:
    def outer(self, inner):
        return inner() + 1


def _inner():
    return 41


def test_tracer_wraps_where_callers_look_and_restores():
    tracer = Tracer()
    original = _Layer.outer
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(sys.modules[__name__], "_inner", "layer.inner")
    try:
        assert _Layer().outer(sys.modules[__name__]._inner) == 42
    finally:
        tracer.restore()
    assert _Layer.outer is original
    spans = {s.name: s for s in tracer.take()}
    assert spans["layer.inner"].parent == spans["layer.outer"].sid
    assert spans["layer.outer"].parent is None
    assert tracer.take() == []


# ----------------------------------------------------------------------
# Smoke size of each workload, through the benchmark's command
# ----------------------------------------------------------------------
def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_workload_traced(workload):
    out = _run(ROOT, workload, 1)
    assert out.returncode == 0, out.stderr
    *_, record_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    record = json.loads(record_line)["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert {k: v["unit"] for k, v in record["metrics"].items()} == _units("end_to_end")
    assert all(c["ok"] for c in record["checks"])
    names = {c["name"] for c in record["checks"]}
    assert {"replies_identical_offline", "admitted_equals_replied", "spanner_edge_subset",
            "spanner_same_components", "stretch_within_claim", "dev_shm_unchanged"} <= names
    assert set(record["env"]) >= {"git_sha", "python", "numpy", "scipy", "nproc",
                                  "mem_budget_bytes", "seed"}


def test_smoke_untraced_prints_end_to_end_metrics():
    out = _run(ROOT, "serve-cold", 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "serve-hot", 0)
    assert out.returncode != 0
    assert out.stdout == ""
