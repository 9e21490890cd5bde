"""Tier-1 smoke wiring for the runner benchmark.

Runs ``benchmarks/bench_runner.py`` in smoke mode (tiny graphs) on every
test run: the bench itself asserts that the resume path executes zero
trials, so a regression in content-hash keying or artifact handling fails
the suite long before anyone looks at the timing numbers.

The parallel-speedup gate lives in :func:`bench_runner.speedup_gate` and is
tested twice: pure-logic on synthetic records (both verdicts plus the
single-CPU skip reason), and observably on real hardware — where the
observable test *skips with an explicit reason* on single-CPU machines
instead of burying the condition inside the bench script.
"""

from __future__ import annotations

import functools

import pytest

from bench_runner import (
    format_table,
    multi_core_available,
    reference_plan,
    run,
    speedup_gate,
)


@functools.lru_cache(maxsize=1)
def smoke_record() -> dict:
    """One shared smoke-bench execution for every test in this module."""
    return run(smoke=True, jobs=2)


def test_reference_plan_shape():
    plan = reference_plan(smoke=True)
    trials = plan.trials()
    # 3 algorithms x 3 graph families x 2 seeds = the 18-trial protocol.
    assert len(trials) == 18
    assert len({t.algorithm for t in trials}) == 3
    assert len({t.graph for t in trials}) == 3
    assert len({t.seed for t in trials}) == 2


def test_smoke_mode_runs_and_resumes():
    record = smoke_record()
    assert record["num_trials"] == 18
    assert record["jobs1"]["executed"] == 18
    assert record["jobs4"]["executed"] == 18
    assert record["resume"]["executed"] == 0
    assert record["resume"]["skipped"] == 18
    table = format_table(record)
    assert "resume" in table and "18 trials" in table


def test_speedup_gate_skips_on_single_cpu_with_reason():
    record = {"cpu_count": 1, "speedup": 0.64, "config": {"jobs": 4}}
    ok, (reason,) = speedup_gate(record)
    assert ok
    assert "single-CPU" in reason
    assert "not a regression" in reason


def test_speedup_gate_verdicts_on_multicore_records():
    passing = {"cpu_count": 4, "speedup": 2.1, "config": {"jobs": 4}}
    failing = {"cpu_count": 4, "speedup": 1.05, "config": {"jobs": 4}}
    ok, (reason,) = speedup_gate(passing)
    assert ok and "meets" in reason
    ok, (reason,) = speedup_gate(failing)
    assert not ok and "below" in reason


@pytest.mark.skipif(
    not multi_core_available(),
    reason="parallel speedup needs >=2 CPUs; on a single-CPU machine the gate "
    "is skipped explicitly (see speedup_gate) rather than asserted",
)
def test_parallel_not_pathological_on_multicore():
    # Smoke-scale trials are tiny, so we assert "parallel is not absurdly
    # slower", not the full 1.2x production gate (that one runs against the
    # full config in scripts/bench_snapshot.py --suite runner).
    record = smoke_record()
    ok, reasons = speedup_gate(record, minimum=0.5)
    assert ok, reasons
