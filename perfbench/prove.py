"""Steadiness record: run workloads over several seeds and report spreads.

Usage (from the repository root)::

    python3 perfbench/prove.py --workloads serve-hot serve-cold \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/results/steadiness.json

For every end-to-end metric it gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.
It also gives ``setup_s`` split by phase, so a set-up drift can be pinned
to one phase.  ``--traced-seed`` adds one traced run per workload and
reports the traced run's end-to-end numbers against the untraced run of
the same seed (the tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--compare", type=Path, default=None,
                   help="an earlier report: give each median's shift against it")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            record, result = run_once(wl, seed, args.seconds, 0)
            record["run_wall_s"] = time.perf_counter() - t0
            runs.append((record, result))
            print(f"{wl} seed {seed}: {record['run_wall_s']:.0f}s correct={result['correct']} valid={record['valid']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        metrics = {}
        for name in bounds:
            s = spread([r[1]["metrics"][name]["value"] for r in runs])
            s["bound"] = bounds[name]
            s["within_third_of_bound"] = s["iqr_share"] < bounds[name] / 3
            metrics[name] = s
        phases = {}
        for phase in runs[0][0]["setup_split"]:
            phases[phase] = spread([statistics.median(r[0]["setup_split"][phase]) for r in runs])
        entry = {
            "metrics": metrics,
            "setup_phases": phases,
            "all_correct": all(r[1]["correct"] for r in runs),
            "all_valid": all(r[0]["valid"] for r in runs),
            "lag_p99_ms": [r[0]["open_loop"]["lag_p99_ms"] for r in runs],
            "runs": [
                {
                    "seed": seed,
                    "metrics": {name: r[1]["metrics"][name]["value"] for name in bounds},
                    "setup_split": r[0]["setup_split"],
                    "open_loop_p50_ms": r[0]["open_loop"]["p50_ms"],
                    "closed_loop_qps_wall": r[0]["closed_loop"]["qps_wall"],
                    "closed_loop_server_busy_share": r[0]["closed_loop"]["server_busy_share"],
                }
                for seed, r in zip(args.seeds, runs)
            ],
            "run_wall_s": [r[0]["run_wall_s"] for r in runs],
        }
        if args.traced_seed is not None:
            plain = next((r for s_, r in zip(args.seeds, runs) if s_ == args.traced_seed), None)
            plain = plain or run_once(wl, args.traced_seed, args.seconds, 0)
            traced, _ = run_once(wl, args.traced_seed, args.seconds, 1)
            entry["tracing_overhead"] = {
                name: traced["metrics"][name]["value"] / plain[1]["metrics"][name]["value"] - 1
                for name in bounds
            }
            entry["traced_layers"] = traced["layers"]["metrics"]
        report["workloads"][wl] = entry
    if args.compare:
        # A second set of runs of the same code must not read worse than
        # the first by more than the bound, setup_s included.
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        earlier = json.loads(args.compare.read_text())["workloads"]
        for wl, entry in report["workloads"].items():
            for name, s in entry["metrics"].items():
                before = earlier[wl]["metrics"][name]["median"]
                shift = s["median"] / before - 1 if before else 0.0
                worse = shift if better[name] == "lower" else -shift
                s["median_shift_vs_compare"] = shift
                s["within_bound_vs_compare"] = worse <= s["bound"]
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
