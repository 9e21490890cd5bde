"""Benchmark the experiment runner: parallel speedup + resume correctness.

Protocol (see EXPERIMENTS.md):

1. Build the reference plan — 3 algorithms x 3 graph families x 2 seeds =
   18 trials, each with sampled stretch verification so a trial is a
   realistic unit of work (build + construct + verify).
2. Run it cold at ``--jobs 1`` and (into a fresh directory) at ``--jobs 4``;
   record both wall clocks.
3. Re-run the ``--jobs 4`` plan against its existing artifacts and assert
   the resume path executes **0** trials.

The speedup number is only meaningful on multi-core hardware; the record
carries ``cpu_count`` so a single-core container's ~1x does not read as a
regression.  Run it with
``python scripts/bench_snapshot.py --suite runner [--smoke]``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from repro.runner import ExperimentPlan, run_plan

__all__ = [
    "reference_plan",
    "run",
    "format_table",
    "gates",
    "headline",
    "speedup_gate",
    "resume_gate",
    "multi_core_available",
]

#: Minimum jobs>1 speedup the full-config bench must defend (only
#: meaningful on multi-core hardware — see :func:`speedup_gate`).
SPEEDUP_GATE = 1.2


def multi_core_available() -> bool:
    """Whether this machine can exhibit a parallel speedup at all."""
    return (os.cpu_count() or 1) >= 2


def speedup_gate(record: dict, *, minimum: float = SPEEDUP_GATE):
    """Evaluate the parallel-speedup gate on a bench record.

    Returns ``(ok, reasons)`` where the reasons always state *why* —
    including the explicit single-CPU skip, so a 0.6x number recorded on a
    1-core container never reads as a regression.
    """
    cpus = record.get("cpu_count") or 1
    speedup = record.get("speedup", 0.0)
    jobs = record.get("config", {}).get("jobs", "?")
    if cpus < 2:
        return True, [
            f"skipped: single-CPU machine (cpu_count={cpus}) cannot exhibit a "
            f"jobs={jobs} speedup; recorded {speedup:.2f}x is not a regression"
        ]
    if speedup >= minimum:
        return True, [f"speedup {speedup:.2f}x meets the {minimum:.1f}x gate"]
    return False, [
        f"speedup {speedup:.2f}x below the {minimum:.1f}x gate "
        f"(cpu_count={cpus}, jobs={jobs})"
    ]


def resume_gate(record: dict):
    """Re-running a finished plan must execute zero trials (every scale)."""
    executed = record["resume"]["executed"]
    if executed == 0:
        return True, [f"resume executed 0 trials ({record['resume']['skipped']} skipped)"]
    return False, [f"resume re-executed {executed} trials"]


FULL_CONFIG = {
    "graphs": ["er:2048:0.01", "geo:2048:0.06", "cliques:64:16"],
    "ks": [6],
    "verify_pairs": 256,
}
SMOKE_CONFIG = {
    "graphs": ["er:128:0.1", "geo:128:0.3", "cliques:8:8"],
    "ks": [4],
    "verify_pairs": 16,
}
ALGORITHMS = ["general", "mpc", "streaming"]
SEEDS = [0, 1]


def reference_plan(*, smoke: bool = False) -> ExperimentPlan:
    """The 3 algorithms x 3 graph families x 2 seeds benchmark plan."""
    cfg = SMOKE_CONFIG if smoke else FULL_CONFIG
    return ExperimentPlan(
        algorithms=list(ALGORITHMS),
        graphs=list(cfg["graphs"]),
        ks=list(cfg["ks"]),
        seeds=list(SEEDS),
        verify_pairs=cfg["verify_pairs"],
        name="runner-bench",
    )


def _timed_run(plan: ExperimentPlan, *, jobs: int, out_dir: str):
    start = time.perf_counter()
    result = run_plan(plan, jobs=jobs, out_dir=out_dir)
    return time.perf_counter() - start, result


def run(*, smoke: bool = False, jobs: int = 4) -> dict:
    """Execute the protocol; returns the JSON-ready record."""
    plan = reference_plan(smoke=smoke)
    num_trials = len(plan.trials())

    work = tempfile.mkdtemp(prefix="bench_runner_")
    try:
        serial_dir = os.path.join(work, "serial")
        parallel_dir = os.path.join(work, "parallel")

        serial_s, serial_res = _timed_run(plan, jobs=1, out_dir=serial_dir)
        parallel_s, parallel_res = _timed_run(plan, jobs=jobs, out_dir=parallel_dir)
        resume_s, resume_res = _timed_run(plan, jobs=jobs, out_dir=parallel_dir)

        errors = sum(1 for r in serial_res.records if "error" in r)
        if errors:
            raise RuntimeError(f"{errors} trials errored in the serial run")
        if serial_res.executed != num_trials or parallel_res.executed != num_trials:
            raise RuntimeError("cold runs did not execute every trial")
        # A resume regression (executed != 0) is recorded, not raised:
        # resume_gate fails on it while the artifact is still written.
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {
        "config": {
            "smoke": smoke,
            "jobs": jobs,
            "algorithms": ALGORITHMS,
            "graphs": plan.graphs,
            "ks": plan.ks,
            "seeds": SEEDS,
            "verify_pairs": plan.verify_pairs,
        },
        "cpu_count": os.cpu_count(),
        "num_trials": num_trials,
        "jobs1": {"wall_s": round(serial_s, 4), "executed": serial_res.executed},
        "jobs4": {"wall_s": round(parallel_s, 4), "executed": parallel_res.executed},
        "speedup": round(serial_s / max(parallel_s, 1e-9), 3),
        "resume": {
            "wall_s": round(resume_s, 4),
            "executed": resume_res.executed,
            "skipped": resume_res.skipped,
        },
    }


def format_table(record: dict) -> str:
    lines = [
        f"runner bench: {record['num_trials']} trials "
        f"({record['config']['jobs']} workers, cpu_count={record['cpu_count']}, "
        f"smoke={record['config']['smoke']})",
        f"  jobs=1 : {record['jobs1']['wall_s']:8.3f}s "
        f"({record['jobs1']['executed']} executed)",
        f"  jobs={record['config']['jobs']} : {record['jobs4']['wall_s']:8.3f}s "
        f"({record['jobs4']['executed']} executed)  "
        f"speedup {record['speedup']:.2f}x",
        f"  resume : {record['resume']['wall_s']:8.3f}s "
        f"({record['resume']['executed']} executed, "
        f"{record['resume']['skipped']} skipped)",
    ]
    return "\n".join(lines)


def gates(record: dict, committed: dict | None = None) -> list[tuple[str, bool, list[str]]]:
    if record["config"]["smoke"]:
        speedup = (True, ["skipped: smoke-scale trials are too small to time a speedup"])
    else:
        speedup = speedup_gate(record)
    return [("speedup gate", *speedup), ("resume gate", *resume_gate(record))]


def headline(record: dict) -> dict[str, float | None]:
    return {"jobs speedup": record["speedup"], "resume executed": record["resume"]["executed"]}
