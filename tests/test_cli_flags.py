"""Pin every ``repro`` subcommand's flag set.

Each option is recorded by its option strings with its ``dest``,
``default``, ``type`` (by name), ``choices`` and ``required``, so a
refactor of how the parser is assembled (shared parent parsers,
per-command ``set_defaults``) cannot add, drop or silently re-default a
flag.  Help text is free to change.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import make_parser

#: Spanner registry names, then their aliases (``--algorithm`` choices).
SPANNER = [
    "baswana-sen", "cc", "cluster-merging", "general", "mpc", "mpc-nearlinear",
    "pram", "streaming", "two-phase", "unweighted", "bs", "congested-clique",
    "general-tradeoff", "mpc-sublinear", "spanner-cc", "spanner-mpc",
    "spanner-mpc-nearlinear", "spanner-pram", "streaming-spanner",
    "two-phase-contraction", "unweighted-py18",
]
KINDS = ["oracle", "sketch", "bundle"]
BACKENDS = ["auto", "exact", "oracle", "sketch", "tiered"]

GRAPH = {
    "--graph": ("graph", "er:512:0.06", None, None, False),
    "--weights": ("weights", "uniform", None, None, False),
    "--seed": ("seed", 0, "int", None, False),
}
JSON = {"--json": ("json", False, None, None, False)}
SERVICE = {
    "--store": ("store", None, None, None, True),
    "--key": ("key", None, None, None, False),
    **GRAPH,
    "--algorithm": ("algorithm", "general", None, SPANNER, False),
    "-k": ("k", 8, "int>=1", None, False),
    "-t": ("t", 2, "int", None, False),
    "--kind": ("kind", "oracle", None, KINDS, False),
    "--backend": ("backend", "auto", None, BACKENDS, False),
    "--stretch": ("stretch", None, "float", None, False),
    "--latency-target": ("latency_target", None, "float", None, False),
    "--build": ("build", False, None, None, False),
    "--cache-rows": ("cache_rows", 4096, "int>=1", None, False),
    "--shards": ("shards", 0, "int>=0", None, False),
    "--eager": ("eager", False, None, None, False),
}

#: subcommand -> {option strings (or positional dest): (dest, default,
#: type name, choices, required)}
FLAGS = {
    "spanner": {
        **GRAPH,
        "--algorithm": ("algorithm", "general", None, SPANNER, False),
        "-k": ("k", 8, "int>=1", None, False),
        "-t": ("t", 2, "int", None, False),
        **JSON,
    },
    "apsp": {**GRAPH, "--model": ("model", "mpc", None, ["mpc", "cc"], False), **JSON},
    "tradeoff": {"-k": ("k", 16, "int>=1", None, False)},
    "mpc": {
        **GRAPH,
        "-k": ("k", 8, "int>=1", None, False),
        "-t": ("t", 3, "int", None, False),
        "--gamma": ("gamma", 0.5, "float", None, False),
    },
    "list": {**JSON},
    "lint": {
        "paths": ("paths", ["src"], None, None, False),
        "--strict": ("strict", False, None, None, False),
        "--rule": ("rule", None, None, None, False),
        "--list-rules": ("list_rules", False, None, None, False),
        **JSON,
    },
    "sweep": {
        "--plan": ("plan", None, None, None, True),
        "--jobs": ("jobs", 1, "int", None, False),
        "--out": ("out", None, None, None, False),
        "--no-resume": ("no_resume", False, None, None, False),
        "--persist": ("persist", False, None, None, False),
        "--dry-run": ("dry_run", False, None, None, False),
        **JSON,
    },
    "ingest": {
        "path": ("path", None, None, None, True),
        "--store": ("store", None, None, None, True),
        "--key": ("key", None, None, None, False),
        "--num-nodes": ("num_nodes", None, "int", None, False),
        "--relabel": ("relabel", False, None, None, False),
        "--chunk-lines": ("chunk_lines", None, "int", None, False),
        **JSON,
    },
    "query": {
        **SERVICE,
        "--pairs": ("pairs", None, None, None, False),
        "--num-pairs": ("num_pairs", 16, "int>=0", None, False),
        "--pair-seed": ("pair_seed", 0, "int", None, False),
        "--zipf": ("zipf", 0.0, "float", None, False),
        "--batch": ("batch", 1024, "int>=1", None, False),
        **JSON,
    },
    "serve": {
        **SERVICE,
        "--socket": ("socket", None, None, None, False),
        "--max-batch": ("max_batch", 256, "int>=1", None, False),
        "--max-pending": ("max_pending", 8192, "int>=1", None, False),
    },
    "verify": {
        "--graph": ("graph", None, None, None, False),
        "--weights": ("weights", None, None, None, False),
        "--seed": ("seed", None, "int", None, False),
        "--algorithm": ("algorithm", None, None, None, False),
        "-k": ("k", None, "int>=1", None, False),
        "-t": ("t", None, "int", None, False),
        "--slack": ("slack", 1.0, "float", None, False),
        "--matrix": ("matrix", False, None, None, False),
        "--algorithms": ("algorithms", None, None, None, False),
        "--graphs": ("graphs", None, None, None, False),
        "--ks": ("ks", None, None, None, False),
        "--seeds": ("seeds", None, None, None, False),
        "--jobs": ("jobs", 1, "int", None, False),
        "--out": ("out", None, None, None, False),
        "--resume": ("resume", False, None, None, False),
        **JSON,
    },
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = make_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(sub.choices)


def _flag_set(sp: argparse.ArgumentParser) -> dict:
    return {
        " ".join(a.option_strings) or a.dest: (
            a.dest,
            a.default,
            None if a.type is None else a.type.__name__,
            None if a.choices is None else list(a.choices),
            a.required,
        )
        for a in sp._actions
        if not isinstance(a, argparse._HelpAction)
    }


def test_subcommand_set_is_pinned():
    assert sorted(_subparsers()) == sorted(FLAGS)


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_flag_set_is_pinned(command):
    assert _flag_set(_subparsers()[command]) == FLAGS[command]
