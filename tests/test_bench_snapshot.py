"""The snapshot-suite contract, checked on the committed records.

``scripts/bench_snapshot.py`` is one loop over a table of suite modules,
each exporting ``run``, ``format_table``, ``gates`` and ``headline``.
These tests hold every suite to that contract without running a
benchmark: the committed ``BENCH_*.json`` files pass their own gates,
a record altered to break a gate fails exactly that gate, and every
headline number the trajectory diff prints is present.
"""

from __future__ import annotations

import copy
import importlib
import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "bench_snapshot", os.path.join(REPO_ROOT, "scripts", "bench_snapshot.py")
)
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)  # puts src/ and benchmarks/ on sys.path

SUITES = sorted(bench_snapshot.SUITES)


def _suite(name: str):
    return importlib.import_module(bench_snapshot.SUITES[name][0])


def _committed(name: str) -> dict:
    with open(os.path.join(REPO_ROOT, bench_snapshot.SUITES[name][1])) as fh:
        return json.load(fh)


def _verdicts(name: str, record: dict, committed: dict | None = None) -> dict[str, bool]:
    return {gate: ok for gate, ok, _ in _suite(name).gates(record, committed)}


def test_suite_table_covers_seven_suites():
    assert SUITES == ["distance", "provider", "runner", "scale", "server", "service", "suite"]


@pytest.mark.parametrize("name", SUITES)
def test_suite_exports_the_contract(name):
    module = _suite(name)
    for attr in ("run", "format_table", "gates", "headline"):
        assert callable(getattr(module, attr)), f"{name} lacks {attr}"


@pytest.mark.parametrize("name", SUITES)
def test_committed_record_passes_its_gates(name):
    record = _committed(name)
    # Baseline gates run against the record itself: a self-comparison passes.
    for committed in (None, record):
        results = _suite(name).gates(record, committed)
        assert results
        for gate, ok, reasons in results:
            assert ok, (gate, reasons)
            assert isinstance(reasons, list) and reasons, gate
            assert all(isinstance(r, str) for r in reasons), gate


@pytest.mark.parametrize("name", SUITES)
def test_committed_headline_is_complete(name):
    values = _suite(name).headline(_committed(name))
    assert values
    assert all(v is not None for v in values.values()), values


def _set(record: dict, path: str, value) -> dict:
    out = copy.deepcopy(record)
    *parents, leaf = path.split(".")
    node = out
    for key in parents:
        node = node[key]
    node[leaf] = value
    return out


@pytest.mark.parametrize(
    "name,path,value,gate",
    [
        ("distance", "sketch_preprocess.queries_bit_identical", False, "identity gate"),
        ("suite", "hot_loops.streaming_pass.identical", False, "hot-loop gate"),
        ("service", "equivalence.sharded_identical", False, "identity gate"),
        ("scale", "points.service.serve.sharded_identical", False, "identity gate"),
        ("provider", "identity.sketch_tier_identical", False, "identity gate"),
        ("distance", "sketch_preprocess.speedup", 4.9, "speedup gate"),
        ("runner", "resume.executed", 1, "resume gate"),
        ("server", "drain.lost", 1, "drain gate"),
    ],
)
def test_altered_record_fails_its_gate(name, path, value, gate):
    record = _committed(name)
    assert _verdicts(name, record)[gate]
    verdicts = _verdicts(name, _set(record, path, value))
    assert verdicts.pop(gate) is False
    assert all(verdicts.values()), verdicts  # only the altered gate fails


def test_server_identity_flag_fails_identity_gate():
    record = _committed("server")
    flag = next(iter(record["identity"]))
    assert _verdicts("server", _set(record, f"identity.{flag}", False))["identity gate"] is False


def test_baseline_gates_run_only_with_a_committed_record():
    for name, gate in (("suite", "slowdown gate"), ("server", "baseline gate")):
        record = _committed(name)
        assert gate not in _verdicts(name, record)
        assert _verdicts(name, record, record)[gate]
