"""Tests for the static-analysis subsystem (``repro.analysis``).

Per-rule coverage comes from ``tests/analysis_fixtures/``: each rule has
a violating snippet (the rule must fire), a clean twin (it must not), and
the violating snippet with ``# repro: allow(...)`` appended to every
flagged line (it must go quiet).  The acceptance tests assert the real
tree is lint-clean and that reverting a baseline fix re-fails the gate.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.analysis import (
    FROZEN_HASHES,
    all_rules,
    check_source,
    compute_frozen_hashes,
    lint_paths,
    module_relpath,
)
from repro.analysis.framework import parse_suppressions

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"

# (rule id, fixture stem, virtual package path the snippet is checked under)
CASES = [
    ("memmap-copy", "memmap", "service/fixture.py"),
    ("rng-discipline", "rng", "streaming/fixture.py"),
    ("int32-widening", "int32", "graphs/fixture.py"),
    ("shm-lifecycle", "shm", "service/fixture.py"),
    ("async-blocking", "async", "service/fixture.py"),
    ("json-safety", "json", "cli.py"),
    ("frozen-reference", "frozen", "fixture.py"),
    ("dijkstra-kernel", "dijkstra", "distances/fixture.py"),
]


def _rule(rule_id: str):
    return [r for r in all_rules() if r.id == rule_id]


def _with_allow(source: str, findings, rule_id: str) -> str:
    lines = source.splitlines()
    for f in findings:
        lines[f.line - 1] += f"  # repro: allow({rule_id})"
    return "\n".join(lines) + "\n"


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id,stem,rel", CASES, ids=[c[0] for c in CASES])
    def test_fires_on_violation(self, rule_id, stem, rel):
        source = (FIXTURES / f"{stem}_bad.py").read_text()
        findings = check_source(source, _rule(rule_id), rel=rel)
        assert findings, f"{rule_id} did not fire on {stem}_bad.py"
        assert all(f.rule == rule_id for f in findings)
        assert all(f.line >= 1 and f.message and f.hint for f in findings)

    @pytest.mark.parametrize("rule_id,stem,rel", CASES, ids=[c[0] for c in CASES])
    def test_quiet_on_clean_twin(self, rule_id, stem, rel):
        source = (FIXTURES / f"{stem}_clean.py").read_text()
        assert check_source(source, _rule(rule_id), rel=rel) == []

    @pytest.mark.parametrize("rule_id,stem,rel", CASES, ids=[c[0] for c in CASES])
    def test_inline_allow_suppresses(self, rule_id, stem, rel):
        source = (FIXTURES / f"{stem}_bad.py").read_text()
        findings = check_source(source, _rule(rule_id), rel=rel)
        suppressed = _with_allow(source, findings, rule_id)
        assert check_source(suppressed, _rule(rule_id), rel=rel) == []

    def test_async_bad_flags_both_sleep_and_solve(self):
        source = (FIXTURES / "async_bad.py").read_text()
        messages = [
            f.message
            for f in check_source(source, _rule("async-blocking"), rel="service/f.py")
        ]
        assert any("time.sleep" in m for m in messages)
        assert any("query_many" in m for m in messages)


class TestPathScoping:
    def test_memmap_rule_only_on_memmap_visible_paths(self):
        source = (FIXTURES / "memmap_bad.py").read_text()
        assert check_source(source, _rule("memmap-copy"), rel="core/unweighted.py") == []
        assert check_source(source, _rule("memmap-copy"), rel="service/store.py")

    def test_rng_rule_excluded_in_its_own_definition_module(self):
        source = (FIXTURES / "rng_bad.py").read_text()
        assert check_source(source, _rule("rng-discipline"), rel="core/params.py") == []

    def test_json_rule_scoped_to_cli(self):
        source = (FIXTURES / "json_bad.py").read_text()
        assert check_source(source, _rule("json-safety"), rel="runner/plan.py") == []
        assert check_source(source, _rule("json-safety"), rel="cli.py")

    def test_dijkstra_rule_quiet_in_the_kernel_module(self):
        source = (FIXTURES / "dijkstra_bad.py").read_text()
        rule = _rule("dijkstra-kernel")
        assert check_source(source, rule, rel="graphs/distances.py") == []
        assert check_source(source, rule, rel="graphs/quotient.py")


class TestFramework:
    def test_module_relpath(self):
        assert module_relpath("src/repro/service/server.py") == "service/server.py"
        assert module_relpath("src/repro/cli.py") == "cli.py"
        assert module_relpath("elsewhere/thing.py") == "thing.py"
        assert module_relpath("a/repro/b/repro/c.py") == "c.py"

    def test_parse_suppressions_multiple_ids(self):
        sup = parse_suppressions("x = 1  # repro: allow(a, b)\ny = 2\n")
        assert sup == {1: {"a", "b"}}

    def test_finding_format_and_json_round_trip(self):
        source = (FIXTURES / "rng_bad.py").read_text()
        (finding,) = check_source(source, _rule("rng-discipline"), rel="x.py")
        assert finding.format().startswith(f"x.py:{finding.line}:{finding.col}:")
        assert "[rng-discipline]" in finding.format()
        assert json.loads(json.dumps(finding.to_json()))["rule"] == "rng-discipline"

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError, match="no-such-rule"):
            lint_paths([str(FIXTURES / "rng_bad.py")], rule_ids=["no-such-rule"])

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["tests/definitely/not/here"])

    def test_syntax_error_becomes_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        findings = lint_paths([str(broken)])
        assert [f.rule for f in findings] == ["syntax-error"]

    def test_rule_metadata_complete(self):
        rules = all_rules()
        assert len({r.id for r in rules}) == len(rules) == 8
        for rule in rules:
            assert rule.id and rule.description and rule.hint


class TestFrozenReferences:
    def test_manifest_matches_tree(self):
        root = Path(repro.__file__).resolve().parent
        assert compute_frozen_hashes(root) == FROZEN_HASHES

    def test_detects_drift_in_pinned_reference(self):
        source = (SRC / "repro/graphs/distances.py").read_text()
        rel = "graphs/distances.py"
        assert check_source(source, _rule("frozen-reference"), rel=rel) == []
        drifted = source.replace("dist[source] = 0.0", "dist[source] = -0.0")
        assert drifted != source
        findings = check_source(drifted, _rule("frozen-reference"), rel=rel)
        assert any("drifted" in f.message for f in findings)

    def test_detects_removed_reference(self):
        source = (SRC / "repro/graphs/distances.py").read_text()
        rel = "graphs/distances.py"
        renamed = source.replace("sssp_reference", "sssp_reference2")
        findings = check_source(renamed, _rule("frozen-reference"), rel=rel)
        assert any("missing" in f.message for f in findings)


class TestBaselineRegression:
    """Reverting a baseline fix must re-fail the lint gate."""

    def test_reverting_stream_rng_fix_fails_lint(self):
        source = (SRC / "repro/streaming/stream.py").read_text()
        rel = "streaming/stream.py"
        assert "coerce_rng(order_seed)" in source
        assert check_source(source, _rule("rng-discipline"), rel=rel) == []
        reverted = source.replace(
            "rng = coerce_rng(order_seed)",
            "rng = np.random.default_rng(order_seed)",
        )
        assert reverted != source
        findings = check_source(reverted, _rule("rng-discipline"), rel=rel)
        assert [f.rule for f in findings] == ["rng-discipline"]

    def test_adding_astype_copy_in_service_fails_lint(self):
        source = (SRC / "repro/service/store.py").read_text()
        rel = "service/store.py"
        assert check_source(source, _rule("memmap-copy"), rel=rel) == []
        reverted = source.replace(
            ".astype(np.int32, copy=False)", ".astype(np.int32)"
        )
        assert reverted != source
        findings = check_source(reverted, _rule("memmap-copy"), rel=rel)
        assert findings and all(f.rule == "memmap-copy" for f in findings)

    def test_reverting_sketch_pivot_kernel_fails_lint(self):
        source = (SRC / "repro/distances/sketches.py").read_text()
        rel = "distances/sketches.py"
        assert check_source(source, _rule("dijkstra-kernel"), rel=rel) == []
        reverted = source.replace(
            "dist, _, sources = symmetric_dijkstra(\n                g, ai,",
            "dist, _, sources = csgraph.dijkstra(\n                "
            "g.to_scipy(), directed=False, indices=ai,",
        )
        assert reverted != source
        findings = check_source(reverted, _rule("dijkstra-kernel"), rel=rel)
        assert [f.rule for f in findings] == ["dijkstra-kernel"]


class TestAcceptance:
    def test_repo_src_is_lint_clean(self):
        assert lint_paths([str(SRC)]) == []

    def test_cli_lint_strict_exits_zero_on_repo(self, capsys):
        assert cli.main(["lint", str(SRC), "--strict"]) == 0
        assert "clean" in capsys.readouterr().out


class TestCli:
    def test_strict_flips_exit_code_on_findings(self, capsys):
        bad = str(FIXTURES / "rng_bad.py")
        assert cli.main(["lint", bad]) == 0
        capsys.readouterr()
        assert cli.main(["lint", bad, "--strict"]) == 1

    def test_json_output_parses(self, capsys):
        bad = str(FIXTURES / "rng_bad.py")
        assert cli.main(["lint", bad, "--strict", "--json"]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in findings] == ["rng-discipline"]
        assert findings[0]["hint"]

    def test_rule_filter(self, capsys):
        bad = str(FIXTURES / "rng_bad.py")
        assert cli.main(["lint", bad, "--strict", "--rule", "json-safety"]) == 0
        assert (
            cli.main(["lint", bad, "--strict", "--rule", "rng-discipline"]) == 1
        )

    def test_unknown_rule_exits_with_message(self):
        with pytest.raises(SystemExit, match="unknown rule"):
            cli.main(["lint", str(FIXTURES), "--rule", "nope"])

    def test_list_rules_names_every_rule(self, capsys):
        assert cli.main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out
