"""Content-hash pinning of the frozen scalar reference implementations.

The repo keeps pre-vectorization scalar implementations in-tree
(``sssp_reference``, ``streaming_spanner_reference``,
``grow_balls_mpc_reference``, ...) as the bit-identity baselines the hot
paths are tested against.  Their whole value is that they *don't change*:
an accidental edit silently moves the baseline and the identity tests
start certifying the wrong thing.  :data:`FROZEN_HASHES` pins each
``*_reference`` function to a hash of its source text; the
``frozen-reference`` lint rule fails when a pinned function drifts, when
a new ``*_reference`` function appears unpinned, or when a pinned one
disappears.

Deliberate changes re-pin explicitly::

    PYTHONPATH=src python -m repro.analysis.frozen

prints the manifest computed from the current tree — after re-validating
bit-identity (the hot-loop equivalence tests), paste it over
:data:`FROZEN_HASHES` in the same PR that changes the reference.

Hashes cover the exact source segment of the function (comments and
formatting included): pinning the text, not the semantics, is the point —
any edit to a frozen baseline must be visible and deliberate.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

__all__ = ["FROZEN_HASHES", "hash_function", "compute_frozen_hashes", "format_manifest"]

#: ``"<package-relative path>::<function name>" -> sha256(source)[:16]``.
#: Regenerate with ``python -m repro.analysis.frozen`` (see module docs).
FROZEN_HASHES: dict[str, str] = {
    "core/unweighted.py::unweighted_spanner_reference": "62608f7f615173a8",
    "distances/sketches.py::build_bunches_reference": "dc47e6b49ed185de",
    "distances/sketches.py::query_reference": "e57be4320b8db112",
    "graphs/distances.py::sssp_reference": "5c296686cbb98f36",
    "mpc_impl/ball_growing.py::grow_balls_mpc_reference": "013e180a01ae7bb4",
    "streaming/spanner_stream.py::_pass_group_minima_reference": "9d9898602b56b584",
    "streaming/spanner_stream.py::streaming_spanner_reference": "94c39be551729412",
}


def hash_function(node: ast.FunctionDef, source: str) -> str:
    """Hash of a function's exact source segment (16 hex chars)."""
    segment = ast.get_source_segment(source, node) or ast.unparse(node)
    return hashlib.sha256(segment.encode()).hexdigest()[:16]


def reference_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """Every ``*_reference`` function def in a module, any nesting level."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_reference")
    ]


def compute_frozen_hashes(root: str | Path) -> dict[str, str]:
    """The manifest the current tree under ``root`` would pin."""
    from .framework import iter_python_files, module_relpath

    manifest: dict[str, str] = {}
    for file in iter_python_files([str(root)]):
        source = file.read_text()
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        rel = module_relpath(file)
        for node in reference_functions(tree):
            manifest[f"{rel}::{node.name}"] = hash_function(node, source)
    return manifest


def format_manifest(manifest: dict[str, str]) -> str:
    """The manifest as a paste-ready ``FROZEN_HASHES`` dict literal."""
    lines = ["FROZEN_HASHES: dict[str, str] = {"]
    for key in sorted(manifest):
        lines.append(f'    "{key}": "{manifest[key]}",')
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    src_root = Path(__file__).resolve().parents[1]
    print(format_manifest(compute_frozen_hashes(src_root)))
