#!/usr/bin/env python
"""Dump benchmark timings to the ``BENCH_*.json`` trajectory snapshots.

A full-scale run overwrites the JSON snapshot(s) at the repo root, so the
perf numbers future changes must defend are always one command away; a
``--smoke`` run writes under ``bench/`` instead, so it never replaces a
committed full-scale record::

    python scripts/bench_snapshot.py                    # distance-layer suite
    python scripts/bench_snapshot.py --suite runner     # one named suite
    python scripts/bench_snapshot.py --suite full       # every suite + trajectory diff
    python scripts/bench_snapshot.py --smoke            # tiny-n sanity run
    python scripts/bench_snapshot.py --suite suite --smoke   # CI slowdown gate

Every suite module (the ``SUITES`` table below; protocols in
EXPERIMENTS.md) exports ``run(smoke=...)``, ``format_table(record)``,
``gates(record, committed)`` and ``headline(record)``, and this script is
one loop over them: run, print the table, write the record, evaluate the
gates, and, for ``--suite full``, print each headline number as old ->
new.  Baseline gates and the diff compare against the committed record at
the repo root, read before the run, whatever ``--out`` says; a smoke run
is held to a full record's smoke-scale reference where it has one.

No PYTHONPATH fiddling needed — the script wires up ``src`` and
``benchmarks`` itself.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

#: suite name -> (module, committed snapshot file at the repo root)
SUITES = {
    "distance": ("bench_distance_layer", "BENCH_distance_layer.json"),
    "runner": ("bench_runner", "BENCH_runner.json"),
    "suite": ("bench_suite", "BENCH_suite.json"),
    "service": ("bench_service", "BENCH_service.json"),
    "scale": ("bench_scale", "BENCH_scale.json"),
    "server": ("bench_server", "BENCH_server.json"),
    "provider": ("bench_provider", "BENCH_provider.json"),
}


def _load_existing(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _write(record: dict, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _lint_gate() -> int:
    """Refuse to snapshot from a tree that fails ``repro lint`` on the
    paths CI lints (``src`` and ``benchmarks/bench_suite.py``).

    A committed BENCH_*.json is a perf claim about the tree it was built
    from; building one on top of an invariant violation (e.g. a memmap
    materialization that changes the memory numbers) would bake the bug
    into the baseline future PRs defend.
    """
    from repro.analysis import lint_paths

    findings = lint_paths(
        [
            os.path.join(REPO_ROOT, "src"),
            os.path.join(REPO_ROOT, "benchmarks", "bench_suite.py"),
        ]
    )
    for finding in findings:
        print(finding.format(), file=sys.stderr)
    if findings:
        print(
            f"bench_snapshot: refusing to snapshot — {len(findings)} lint "
            "finding(s); fix them (or rerun with --skip-lint to diagnose)",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="tiny-n smoke run")
    ap.add_argument(
        "--skip-lint",
        action="store_true",
        help="skip the repro-lint precondition (diagnosis only; committed "
        "snapshots must come from a lint-clean tree)",
    )
    ap.add_argument(
        "--suite",
        choices=[*SUITES, "all", "full"],
        default="distance",
        help="which benchmark suite to run; 'full' (or 'all') regenerates "
        "every BENCH file and prints a trajectory diff (default: distance)",
    )
    ap.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_<suite>.json at the repo root, "
        "or under bench/ for --smoke; only valid with a single suite)",
    )
    args = ap.parse_args(argv)

    names = list(SUITES) if args.suite in ("all", "full") else [args.suite]
    if args.out and len(names) > 1:
        ap.error("--out requires a single --suite")
    if not args.skip_lint and _lint_gate():
        return 1
    rc = 0
    diffs: list[str] = []
    for name in names:
        module_name, snapshot = SUITES[name]
        suite = importlib.import_module(module_name)
        committed_path = os.path.join(REPO_ROOT, snapshot)
        old = _load_existing(committed_path)
        out_path = args.out or (
            os.path.join(REPO_ROOT, "bench", snapshot) if args.smoke else committed_path
        )
        record = suite.run(smoke=args.smoke)
        print(suite.format_table(record))
        _write(record, out_path)
        for gate, ok, reasons in suite.gates(record, old):
            for reason in reasons:
                print(f"{gate}: {reason}", file=sys.stdout if ok else sys.stderr)
            rc |= 0 if ok else 1
        try:
            before = suite.headline(old) if old else {}
        except (KeyError, TypeError):  # a record from an older protocol
            before = {}
        for key, value in suite.headline(record).items():
            diffs.append(f"  {name} {key}: {_fmt(before.get(key))} -> {_fmt(value)}")
    if len(names) > 1:
        print("trajectory diff (committed -> this run):")
        for line in diffs:
            print(line)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
