"""The snapshot-suite contract, checked on the committed records.

``scripts/bench_snapshot.py`` is one loop over a table of suite modules,
each exporting ``run``, ``format_table``, ``gates`` and ``headline``.
These tests hold every suite to that contract without running a
benchmark: the committed ``BENCH_*.json`` files pass their own gates,
a record altered to break a gate fails exactly that gate, and every
headline number the trajectory diff prints is present.  The script itself
runs once on a stubbed suite: a smoke run leaves the committed record
alone and is gated against it.
"""

from __future__ import annotations

import copy
import importlib
import importlib.util
import json
import os
import shutil

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
    assert os.path.dirname(os.path.abspath(module.__file__)) == os.path.join(
        REPO_ROOT, "benchmarks"
    ), f"{name} lives outside benchmarks/"


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


@pytest.fixture(scope="module")
def suite_smoke_record() -> dict:
    """A smoke-scale cross-algorithm record, cut from the committed full
    record's ``smoke_ref`` so no benchmark has to run."""
    full = _committed("suite")
    record = {k: v for k, v in full.items() if k != "smoke_ref"}
    return {**record, **full["smoke_ref"], "smoke": True}


def test_smoke_run_keeps_the_committed_record(
    tmp_path, monkeypatch, capsys, suite_smoke_record
):
    committed = tmp_path / "BENCH_suite.json"
    shutil.copy(os.path.join(REPO_ROOT, "BENCH_suite.json"), committed)
    before = committed.read_bytes()
    monkeypatch.setattr(bench_snapshot, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(_suite("suite"), "run", lambda *, smoke: suite_smoke_record)

    assert bench_snapshot.main(["--suite", "suite", "--smoke", "--skip-lint"]) == 0
    assert committed.read_bytes() == before
    smoke_out = tmp_path / "bench" / "BENCH_suite.json"
    assert json.loads(smoke_out.read_text()) == suite_smoke_record
    # Gated against the committed record's smoke_ref, which it matches.
    assert "slowdown gate: machine-speed factor (median ratio): 1.00x" in capsys.readouterr().out


def test_baseline_is_the_committed_record_whatever_out_says(
    tmp_path, monkeypatch, suite_smoke_record
):
    shutil.copy(os.path.join(REPO_ROOT, "BENCH_suite.json"), tmp_path / "BENCH_suite.json")
    # A decoy at --out that the smoke record would fail the slowdown gate against.
    decoy = copy.deepcopy(suite_smoke_record)
    slowest = max(decoy["algorithms"], key=lambda a: decoy["algorithms"][a]["wall_s"])
    decoy["algorithms"][slowest]["wall_s"] /= 10
    out = tmp_path / "elsewhere" / "suite.json"
    out.parent.mkdir()
    out.write_text(json.dumps(decoy))
    monkeypatch.setattr(bench_snapshot, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(_suite("suite"), "run", lambda *, smoke: suite_smoke_record)

    assert bench_snapshot.main(
        ["--suite", "suite", "--smoke", "--skip-lint", "--out", str(out)]
    ) == 0
    assert json.loads(out.read_text()) == suite_smoke_record
    assert not (tmp_path / "bench").exists()
