"""Repo-specific static analysis: machine-enforced correctness invariants.

``repro lint`` walks the repo's own source with :mod:`ast` and enforces
the invariants nine PRs of this reproduction installed to fix real bugs —
zero-copy memmap discipline, the ``coerce_rng`` seed contract, int64
widening of index-key arithmetic, shared-memory lifecycles, non-blocking
async serving, ``_json_safe`` CLI output, content-pinned frozen
reference baselines, and one shortest-path kernel.  See :mod:`repro.analysis.framework` for the checker
machinery and :mod:`repro.analysis.rules` for the rule battery.
"""

from .framework import (
    Finding,
    Rule,
    check_source,
    iter_python_files,
    lint_paths,
    module_relpath,
)
from .frozen import FROZEN_HASHES, compute_frozen_hashes, format_manifest
from .rules import all_rules

__all__ = [
    "Finding",
    "Rule",
    "check_source",
    "lint_paths",
    "iter_python_files",
    "module_relpath",
    "all_rules",
    "FROZEN_HASHES",
    "compute_frozen_hashes",
    "format_manifest",
]
