"""Command-line interface: ``repro <command> ...`` (or ``python -m repro``).

Commands
--------
``spanner``
    Build a spanner with any registered algorithm and report
    size/stretch/iterations.
``apsp``
    Run the Corollary 1.4 (MPC) or Corollary 1.5 (Congested Clique)
    APSP pipeline and report rounds + approximation quality.
``tradeoff``
    Print the closed-form Theorem 1.1 tradeoff table for a given ``k``.
``mpc``
    Run the Section 6 machine-level implementation and report the
    simulated cluster accounting.
``list``
    Show every registered algorithm and graph-spec family.
``lint``
    Run the repo-invariant static analysis checks (:mod:`repro.analysis`)
    over source trees: ``repro lint src/ --strict`` exits nonzero on any
    finding, ``--json`` emits machine-readable findings, ``--rule ID``
    restricts to one rule, ``--list-rules`` prints the rule table.
``sweep``
    Execute an :class:`~repro.runner.plan.ExperimentPlan` (JSON file) on a
    process pool, with content-hash resume and JSON/CSV artifacts.
``verify``
    Certify algorithms against their declared paper bounds — one run
    (``repro verify --algorithm ... --graph ...``) or a full conformance
    matrix over algorithms x graph families x seeds (``repro verify
    --matrix``).
``query``
    Answer distance queries from a persisted artifact store
    (:mod:`repro.service`): resolve the artifact for a build
    configuration (``--build`` constructs + persists it when missing, so
    ``build -> persist -> load -> query`` is one command), then run a
    pair workload through the batched/cached/sharded query engine.
``ingest``
    Convert a real SNAP/whitespace edge list (road networks, social
    graphs; ``.gz`` accepted) into a ``graph`` artifact via the
    streaming chunked parser — the artifact then serves exact rows
    through ``repro query --key ...`` (shared-memory sharding included)
    without ever materializing the text file.
``serve``
    Same artifact resolution, then serve queries.  ``--socket HOST:PORT``
    runs the concurrent micro-batching asyncio server (newline-delimited
    JSON protocol, latency SLO stats, graceful drain on SIGINT/SIGTERM —
    see :mod:`repro.service.server`); without it, the legacy pipe mode
    answers ``u v`` pairs line-by-line from stdin to stdout, replying to
    malformed lines with line-numbered JSON errors.

Algorithms come from :mod:`repro.registry`; graphs are generated on the fly
from ``--graph`` specs like ``er:512:0.06`` or loaded from disk with
``file:<path>`` (see :mod:`repro.graphs.specs`; ``repro list`` shows every
family).  ``spanner`` and ``apsp`` take ``--json`` for machine-readable
output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .registry import algorithm_names, get_algorithm, iter_algorithms, ALIASES

__all__ = ["main"]


def _json_safe(obj):
    """Recursively map non-finite floats to ``None`` for JSON output.

    ``json.dumps`` emits the spec-invalid bare ``Infinity``/``NaN`` tokens
    for non-finite floats; every CLI JSON path routes through this so
    unreachable distances and unbounded stretches serialize as ``null``,
    matching the socket protocol's ``{"d": null}`` contract.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit(payload, *, file=None, indent: int | None = 2) -> None:
    """Print ``payload`` as JSON, the CLI's one emission site (default
    stdout; ``indent=None`` prints a single line)."""
    text = json.dumps(_json_safe(payload), indent=indent, sort_keys=True)
    print(text, file=file or sys.stdout)


def _at_least(lo: int):
    """An argparse ``type=`` for integers ``>= lo``: an out-of-range value
    is a usage error (exit 2) instead of a library traceback."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = f"int>={lo}"  # argparse names the type in its errors
    return parse


def _spanner_algorithm_choices() -> list[str]:
    """Canonical spanner names plus their aliases (old names keep working)."""
    names = algorithm_names("spanner")
    aliases = sorted(
        a for a, target in ALIASES.items() if get_algorithm(target).kind == "spanner"
    )
    return names + aliases


def _cmd_spanner(args) -> int:
    from .graphs.specs import build_graph_from_spec

    algo = get_algorithm(args.algorithm)
    weights = args.weights if algo.weighted else "unit"
    g = build_graph_from_spec(args.graph, weights=weights, seed=args.seed)
    res = algo.run(g, k=args.k, t=args.t, rng=args.seed)
    h = res.subgraph(g)

    from .graphs import edge_stretch

    rep = edge_stretch(g, h)
    if args.json:
        record = res.to_record()
        record.update(
            {
                "algorithm": algo.name,
                "graph": args.graph,
                "graph_n": g.n,
                "graph_m": g.m,
                "seed": args.seed,
                "weights": weights,
                "max_stretch": float(rep.max_stretch),
                "mean_stretch": float(rep.mean_stretch),
            }
        )
        _emit(record)
        return 0

    print(f"graph: n={g.n} m={g.m}")
    print(f"algorithm: {res.algorithm}  k={args.k}  t={res.t}")
    print(f"spanner: {h.m} edges ({100 * h.m / max(g.m, 1):.1f}% kept)")
    print(f"iterations: {res.iterations}")
    print(f"stretch: max {rep.max_stretch:.3f}  mean {rep.mean_stretch:.4f}")
    if algo.name == "general":
        from .core import stretch_bound

        print(f"guarantee: {stretch_bound(args.k, args.t):.1f}")
    stream = res.stream_stats
    if stream is not None:
        print(f"stream passes: {stream.passes}")
    mpc = res.mpc_stats
    if mpc is not None:
        print(f"simulated rounds: {mpc.rounds}  peak load: {mpc.peak_machine_load}")
    return 0


def _cmd_apsp(args) -> int:
    import numpy as np

    from .graphs.specs import build_graph_from_spec

    g = build_graph_from_spec(args.graph, weights=args.weights, seed=args.seed)
    pipeline = get_algorithm("apsp-mpc" if args.model == "mpc" else "apsp-cc")
    res = pipeline.run(g, rng=args.seed)

    from .graphs import apsp as exact_apsp

    d = exact_apsp(g)
    a = res.all_pairs()
    iu = np.triu_indices(g.n, k=1)
    base = d[iu]
    mask = np.isfinite(base) & (base > 0)
    ratios = a[iu][mask] / base[mask]
    if args.json:
        record = {
            "model": args.model,
            "graph": args.graph,
            "graph_n": g.n,
            "graph_m": g.m,
            "seed": args.seed,
            "k": res.k,
            "t": res.t,
            "rounds": res.rounds,
            "collection_rounds": res.collection_rounds,
            "spanner_edges": res.spanner.m,
            "guaranteed_stretch": float(res.guaranteed_stretch),
        }
        if mask.any():
            record["max_approximation"] = float(ratios.max())
            record["mean_approximation"] = float(ratios.mean())
        _emit(record)
        return 0

    print(f"graph: n={g.n} m={g.m}  model={args.model}")
    print(f"parameters: k={res.k} t={res.t}")
    print(f"rounds: {res.rounds} (collection {res.collection_rounds})")
    print(f"spanner size: {res.spanner.m}")
    if mask.any():
        print(
            f"approximation: max x{ratios.max():.3f} mean x{ratios.mean():.4f} "
            f"(guarantee x{res.guaranteed_stretch:.1f})"
        )
    return 0


def _cmd_tradeoff(args) -> int:
    from .core import tradeoff_table

    print(f"Theorem 1.1 tradeoff for k={args.k}:")
    for row in tradeoff_table(args.k):
        print(
            f"  t={row.t:<4} epochs={row.epochs:<3} iterations={row.iterations:<5} "
            f"stretch<=2k^{row.stretch_exponent:.3f}={row.stretch:9.1f}  "
            f"size~n^(1+1/k)*{row.size_factor:.1f}  [{row.label}]"
        )
    return 0


def _cmd_mpc(args) -> int:
    from .graphs.specs import build_graph_from_spec
    from .mpc_impl import spanner_mpc

    g = build_graph_from_spec(args.graph, weights=args.weights, seed=args.seed)
    res = spanner_mpc(g, args.k, args.t, gamma=args.gamma, rng=args.seed)
    mpc = res.mpc_stats
    print(f"graph: n={g.n} m={g.m}   gamma={args.gamma}")
    print(f"machines: {mpc.num_machines}  local memory: {mpc.machine_memory} words")
    print(f"peak machine load: {mpc.peak_machine_load} words")
    print(f"simulated rounds: {mpc.rounds}  messages: {mpc.total_messages}")
    print(f"spanner: {res.num_edges} edges in {res.iterations} iterations")
    return 0


def _cmd_list(args) -> int:
    from .graphs.specs import GRAPH_FAMILIES

    if args.json:
        payload = {
            "algorithms": [
                {
                    "name": s.name,
                    "model": s.model,
                    "kind": s.kind,
                    "requires_t": s.requires_t,
                    "weighted": s.weighted,
                    "description": s.description,
                }
                for s in iter_algorithms()
            ],
            "aliases": dict(sorted(ALIASES.items())),
            "graph_families": [
                {
                    "name": f.name,
                    "signature": f.signature,
                    "example": f.example,
                    "description": f.description,
                }
                for _, f in sorted(GRAPH_FAMILIES.items())
            ],
        }
        _emit(payload)
        return 0

    print("algorithms:")
    for spec in iter_algorithms():
        flags = [spec.model, spec.kind]
        if spec.requires_t:
            flags.append("uses-t")
        if not spec.weighted:
            flags.append("unweighted-only")
        print(f"  {spec.name:<16} [{', '.join(flags)}] {spec.description}")
    print("aliases:")
    for alias, target in sorted(ALIASES.items()):
        print(f"  {alias:<24} -> {target}")
    print("graph families:")
    for _, fam in sorted(GRAPH_FAMILIES.items()):
        print(f"  {fam.signature:<28} e.g. {fam.example:<18} {fam.description}")
    return 0


def _cmd_sweep(args) -> int:
    from .runner import ExperimentPlan, run_plan

    try:
        plan = ExperimentPlan.load(args.plan)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot load plan {args.plan!r}: {exc}") from exc
    try:
        trials = plan.trials()
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"bad plan {args.plan!r}: {exc}") from exc

    if args.dry_run:
        print(f"plan {plan.name!r}: {len(trials)} trials")
        for trial in trials:
            print(
                f"  {trial.trial_id}  {trial.algorithm:<16} {trial.graph:<20} "
                f"k={trial.k} t={trial.t} seed={trial.seed} weights={trial.weights}"
            )
        return 0

    def progress(record, done, total):
        status = record.get("error") or (
            f"{record.get('num_edges', '?')} edges in {record.get('elapsed_s', 0):.3f}s"
        )
        print(f"[{done}/{total}] {record['algorithm']} {record['graph']} "
              f"seed={record['seed']}: {status}")

    if args.persist and not args.out:
        raise SystemExit("sweep: --persist requires --out")
    result = run_plan(
        plan,
        jobs=args.jobs,
        out_dir=args.out,
        resume=not args.no_resume,
        progress=None if args.json else progress,
        persist=args.persist,
    )
    errors = sum(1 for r in result.records if "error" in r)
    if args.json:
        _emit(
            {
                "plan": plan.name,
                "trials": result.total,
                "executed": result.executed,
                "skipped": result.skipped,
                "errors": errors,
                "wall_seconds": round(result.wall_seconds, 3),
                "out_dir": result.out_dir,
            }
        )
    else:
        print(
            f"sweep {plan.name!r}: {result.total} trials "
            f"({result.executed} executed, {result.skipped} resumed, "
            f"{errors} errors) in {result.wall_seconds:.2f}s"
        )
        if result.out_dir:
            print(f"artifacts: {result.out_dir}/results.json, {result.out_dir}/results.csv")
    return 1 if errors else 0


def _cmd_verify(args) -> int:
    from .verify import certify, conformance_plan, format_matrix_markdown, run_matrix

    if not args.matrix:
        if not args.algorithm:
            raise SystemExit("verify: --algorithm is required without --matrix")
        try:
            cert = certify(
                args.algorithm,
                args.graph or "er:512:0.06",
                k=args.k,
                t=args.t,
                seed=args.seed or 0,
                weights=args.weights or "uniform",
                slack=args.slack,
            )
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"verify: {exc}") from exc
        if args.out:
            from pathlib import Path

            out = Path(args.out)
            if out.is_dir():  # accept the --matrix directory form too
                out = out / "certificate.json"
            cert.save(out)
        if args.json:
            _emit(cert.to_json())
        else:
            print(
                f"{cert.algorithm} on {cert.graph} "
                f"(n={cert.n} m={cert.m} k={cert.k} t={cert.t} seed={cert.seed}): "
                f"{cert.summary()}"
            )
            for c in cert.checks:
                mark = "ok  " if c.passed else "FAIL"
                bound = "" if c.bound is None else f"  <=  {c.bound:.3f}"
                print(f"  [{mark}] {c.name:<18} {c.measured:.3f}{bound}  ({c.detail})")
            if cert.source:
                print(f"  claims: {cert.source}")
        return 0 if cert.ok else 1

    def split(text, conv=str):
        return [conv(tok) for tok in text.split(",") if tok] if text else None

    # The singular flags narrow the matrix too, so `--matrix --graph g`
    # certifies g rather than silently reverting to the default families.
    plan = conformance_plan(
        algorithms=split(args.algorithms),
        graphs=split(args.graphs) or ([args.graph] if args.graph else None),
        ks=split(args.ks, int) or ([args.k] if args.k is not None else None),
        ts=[args.t] if args.t is not None else None,
        seeds=split(args.seeds, int)
        or ([args.seed] if args.seed is not None else None),
        weights=[args.weights] if args.weights else None,
        slack=args.slack,
    )
    try:
        plan.trials()
    except (KeyError, ValueError) as exc:  # GraphSpecError is a ValueError
        raise SystemExit(f"verify: bad matrix plan: {exc}") from exc

    def progress(record, done, total):
        status = record.get("error") or (
            "certified" if record.get("cert_ok") else
            f"VIOLATED: {record.get('cert_violations', '?')}"
        )
        print(f"[{done}/{total}] {record['algorithm']} {record['graph']} "
              f"k={record.get('k')} seed={record['seed']}: {status}")

    # Unlike `repro sweep`, certification defaults to a fresh run: a resumed
    # cell re-reports a certificate computed against whatever bounds were
    # registered when it was first written, which is stale evidence after a
    # registry claim changes.  --resume opts back in for interrupted sweeps.
    result = run_matrix(
        plan,
        jobs=args.jobs,
        out_dir=args.out,
        resume=args.resume,
        progress=None if args.json else progress,
    )
    if args.json:
        _emit(result.to_json())
    else:
        print(format_matrix_markdown(result))
        if result.out_dir:
            print(f"artifacts: {result.out_dir}/matrix.json, {result.out_dir}/matrix.md")
    return 0 if result.ok else 1


def _service_config(args) -> dict:
    """The canonical build configuration a service artifact is keyed by."""
    from .graphs.specs import GraphSpec
    from .registry import resolve_name

    graph = GraphSpec.parse(args.graph).format()
    algorithm = resolve_name(args.algorithm)  # --algorithm choices are spanners
    # Unweighted-only algorithms always build with unit weights; normalize
    # before hashing so the weight model cannot split identical artifacts
    # into distinct keys (mirrors the runner's trial normalization).
    weights = args.weights if get_algorithm(algorithm).weighted else "unit"
    return {
        "algorithm": algorithm,
        "graph": graph,
        "k": args.k,
        "t": args.t,
        "seed": args.seed,
        "weights": weights,
        "kind": args.kind,
    }


def _build_service_artifact(store, key: str, config: dict) -> None:
    """Build the configured structure and persist it under ``key``."""
    from .graphs.specs import build_graph_from_spec

    algo = get_algorithm(config["algorithm"])
    g = build_graph_from_spec(
        config["graph"], weights=config["weights"], seed=config["seed"]
    )
    res = algo.run(g, k=config["k"], t=config["t"], rng=config["seed"])
    meta = {**config, "graph_n": g.n, "graph_m": g.m}
    if config["kind"] == "sketch":
        from .distances.sketches import sketch_on_spanner

        sk, accounting = sketch_on_spanner(g, res, config["k"], rng=config["seed"])
        store.save_sketch(sk, key=key, meta={**meta, **accounting})
        return
    spanner = {
        "k": res.k,
        "t": res.t,
        "t_effective": res.extra.get("t_effective", res.t),
        "key": key,
        "meta": meta,
    }
    if config["kind"] == "bundle":
        # Graph + spanner + sketch side by side under one key: the
        # multi-backend artifact the provider planner serves.  The sketch
        # is preprocessed on the *input* graph, so its declared stretch
        # stays the clean 2k-1.
        from .distances.sketches import DistanceSketch

        sk = DistanceSketch(g, config["k"], rng=config["seed"])
        store.save_bundle(g, res.subgraph(g), sk, **spanner)
    else:
        store.save_spanner(res.subgraph(g), **spanner)


def _plan_target(args):
    """The :class:`~repro.service.provider.PlanTarget` the planner flags
    declare, or ``None`` when every flag is at its default."""
    if args.backend == "auto" and args.stretch is None and args.latency_target is None:
        return None
    from .service.provider import PlanTarget

    try:
        return PlanTarget(
            backend=args.backend, max_stretch=args.stretch, p99_ms=args.latency_target
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _resolve_engine(args):
    """Resolve (and optionally build) the artifact; return (key, built, engine)."""
    from .service import ArtifactStore, QueryEngine, config_key

    target = _plan_target(args)
    store = ArtifactStore(args.store)
    built = False
    if args.key:
        key = args.key
        if key not in store:
            known = ", ".join(store.keys()) or "<empty>"
            raise SystemExit(f"no artifact {key!r} in {args.store} (have: {known})")
    else:
        config = _service_config(args)
        key = config_key(config)
        if key not in store:
            if not args.build:
                raise SystemExit(
                    f"no artifact {key!r} for this configuration in {args.store}; "
                    "pass --build to construct and persist it"
                )
            _build_service_artifact(store, key, config)
            built = True
    if target is not None and store.info(key).kind != "bundle":
        raise SystemExit(
            f"--backend/--stretch/--latency-target route between backends, but "
            f"artifact {key!r} is kind {store.info(key).kind!r}; build with "
            f"--kind bundle to serve all of them"
        )
    engine = QueryEngine.from_store(
        store,
        key,
        cache_rows=args.cache_rows,
        shards=args.shards,
        mmap=not args.eager,
        target=target,
    )
    return key, built, engine


def _workload_pairs(args, n: int):
    """The query workload: explicit ``--pairs`` or a generated mix."""
    import numpy as np

    if args.pairs:
        try:
            flat = [
                (int(a), int(b))
                for a, b in (tok.split(":") for tok in args.pairs.split(",") if tok)
            ]
        except ValueError as exc:
            raise SystemExit(f"bad --pairs (expected 'u:v,u:v,...'): {exc}") from exc
        return np.asarray(flat, dtype=np.int64).reshape(-1, 2)
    from .core.params import coerce_rng

    rng = coerce_rng(args.pair_seed)
    r = args.num_pairs
    if args.zipf and args.zipf <= 1.0:
        raise SystemExit(f"--zipf must be > 1 (got {args.zipf}); use 0 for uniform")
    if args.zipf:
        # Zipf-ranked sources over a fixed permutation of the vertex ids —
        # the skewed "hot sources" traffic the row cache is for.
        perm = rng.permutation(n)
        sources = perm[(rng.zipf(args.zipf, size=r) - 1) % n]
    else:
        sources = rng.integers(0, n, size=r)
    targets = rng.integers(0, n, size=r)
    return np.stack([sources, targets], axis=1)


def _cmd_query(args) -> int:
    import numpy as np

    key, built, engine = _resolve_engine(args)
    with engine:
        pairs = _workload_pairs(args, engine.n)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= engine.n):
            raise SystemExit(f"pair vertex out of range for n={engine.n}")
        answers = np.concatenate(
            [
                engine.query_many(pairs[lo : lo + args.batch])
                for lo in range(0, pairs.shape[0], args.batch)
            ]
        ) if pairs.size else np.zeros(0)
        stats = engine.stats()

    finite = np.isfinite(answers)
    if args.json:
        # Disconnected answers (float inf) emit as null — the socket
        # protocol's {"d": null} contract.
        _emit(
            {
                "store": args.store,
                "key": key,
                "built": built,
                "num_pairs": int(pairs.shape[0]),
                "finite": int(finite.sum()),
                "mean_distance": (
                    float(answers[finite].mean()) if finite.any() else None
                ),
                "answers": answers.tolist(),
                "stats": stats,
            }
        )
        return 0
    status = "built + persisted" if built else "loaded"
    print(f"artifact {key} ({status}) from {args.store}")
    for (u, v), d in zip(pairs.tolist(), answers.tolist()):
        print(f"{u} {v} {d}")
    cache = stats["cache"]
    print(
        f"served {stats['queries_served']} queries in {stats['batches']} batches: "
        f"{stats['rows_solved']} rows solved, cache hit rate {cache['hit_rate']:.2%}"
    )
    if "planner" in stats:
        planner = stats["planner"]
        routed = ", ".join(
            f"{name}={count}" for name, count in sorted(planner["routed"].items())
        )
        print(f"planner [{planner['target']}] routed: {routed}")
    return 0


def _cmd_serve(args) -> int:
    key, built, engine = _resolve_engine(args)
    status = "built + persisted" if built else "loaded"

    if args.socket:
        from .service.server import parse_hostport, run_server

        try:
            host, port = parse_hostport(args.socket)
        except ValueError as exc:
            engine.close()
            raise SystemExit(str(exc)) from exc
        stats = run_server(
            engine,
            host=host,
            port=port,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            announce=lambda h, p: print(
                f"serving artifact {key} ({status}) on {h}:{p} "
                f"(flush on idle, max batch {args.max_batch}, "
                f"max pending {args.max_pending}); "
                f"SIGINT/SIGTERM drains",
                file=sys.stderr,
                flush=True,
            ),
        )
        errors = 0
    else:
        from .service.server import serve_pipe

        print(
            f"serving artifact {key} ({status}); one 'u v' pair per line on stdin",
            file=sys.stderr,
        )
        with engine:
            result = serve_pipe(engine, sys.stdin, sys.stdout)
        stats, errors = result["stats"], result["errors"]
    _emit(stats, file=sys.stderr, indent=None)  # one line: the last on stderr
    return 1 if errors else 0


def _cmd_ingest(args) -> int:
    import time

    from .graphs.io import read_edgelist_streaming
    from .service import ArtifactStore
    from .service.mem import peak_rss_bytes

    t0 = time.perf_counter()
    try:
        g, report = read_edgelist_streaming(
            args.path,
            num_nodes=args.num_nodes,
            relabel=args.relabel,
            chunk_lines=args.chunk_lines,
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"ingest: {exc}") from exc
    parse_s = time.perf_counter() - t0
    store = ArtifactStore(args.store)
    meta = {"source": report.pop("path"), **report}
    key = store.save_graph(g, key=args.key, meta=meta)
    total_s = time.perf_counter() - t0
    record = {
        "store": args.store,
        "key": key,
        "n": g.n,
        "edges": g.m,
        "self_loops_dropped": report["self_loops_dropped"],
        "duplicates_merged": report["duplicates_merged"],
        "parse_s": round(parse_s, 3),
        "total_s": round(total_s, 3),
        "edges_per_s": round(report["lines"] / parse_s, 1) if parse_s > 0 else None,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if args.json:
        _emit(record)
        return 0
    print(f"ingested {args.path}: n={g.n} m={g.m} -> artifact {key} in {args.store}")
    print(
        f"  {report['lines']} lines in {parse_s:.2f}s "
        f"({record['edges_per_s'] or 0:.0f} lines/s), "
        f"{report['self_loops_dropped']} self loops dropped, "
        f"{report['duplicates_merged']} duplicates merged"
    )
    print(f"  query it: repro query --store {args.store} --key {key}")
    return 0


def _cmd_lint(args) -> int:
    from .analysis import all_rules, lint_paths

    rules = all_rules()
    if args.list_rules:
        width = max(len(r.id) for r in rules)
        for rule in rules:
            print(f"{rule.id:<{width}}  {rule.description}")
        return 0

    try:
        findings = lint_paths(args.paths, rule_ids=args.rule or None)
    except KeyError as exc:
        raise SystemExit(f"lint: {exc.args[0]}")
    except FileNotFoundError as exc:
        raise SystemExit(f"lint: {exc}")

    if args.json:
        _emit([f.to_json() for f in findings])
    else:
        for finding in findings:
            print(finding.format())
            if finding.hint:
                print(f"    hint: {finding.hint}")
        n = len(findings)
        print(f"lint: {n} finding{'s' if n != 1 else ''}" if n else "lint: clean")
    return 1 if findings and args.strict else 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Spanners and distance approximation (SPAA 2021 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # Every flag that more than one subcommand takes, declared once.  A
    # subcommand that needs another default overrides it with set_defaults.
    shared = {
        "--graph": dict(default="er:512:0.06", help="family:args spec"),
        "--weights": dict(default="uniform", help="weight model"),
        "--seed": dict(type=int, default=0, help="rng seed"),
        "--algorithm": dict(
            choices=_spanner_algorithm_choices(),
            default="general",
            metavar="ALGO",
            help="spanner registry name or alias (see `repro list`)",
        ),
        "-k": dict(type=_at_least(1), default=8, help="stretch parameter"),
        "-t": dict(type=int, default=2, help="growth parameter"),
        "--json": dict(action="store_true", help="machine-readable output"),
        "--jobs": dict(type=int, default=1, help="worker processes"),
        "--store": dict(required=True, help="artifact store directory"),
        "--key": dict(
            default=None,
            help="artifact key: names the ingested graph (default: content "
            "hash of the meta), or selects one to serve (e.g. a sweep trial "
            "id), skipping the configuration-hash resolution",
        ),
        "--kind": dict(
            choices=["oracle", "sketch", "bundle"],
            default="oracle",
            help="artifact kind: spanner oracle rows, a Thorup-Zwick sketch, "
            "or a bundle (graph + spanner + sketch) serving every backend",
        ),
        "--backend": dict(
            choices=["auto", "exact", "oracle", "sketch", "tiered"],
            default="auto",
            help="answer path for bundle artifacts: a fixed backend, 'tiered' "
            "(sketch answer refined by hot oracle rows), or 'auto' planner "
            "routing on observed latency",
        ),
        "--stretch": dict(
            type=float,
            default=None,
            metavar="S",
            help="auto planner accuracy target: only backends whose declared "
            "stretch bound is <= S are eligible",
        ),
        "--latency-target": dict(
            type=float,
            default=None,
            metavar="MS",
            help="auto planner latency SLO: route to the most accurate backend "
            "whose observed p99 per query is under MS milliseconds",
        ),
        "--build": dict(
            action="store_true",
            help="build + persist the artifact when the store lacks it",
        ),
        "--cache-rows": dict(
            type=_at_least(1),
            default=4096,
            help="LRU bound on cached per-source distance rows",
        ),
        "--shards": dict(
            type=_at_least(0),
            default=0,
            help=">=2 partitions row solves across that many worker processes "
            "(all attached to one shared-memory copy of the spanner)",
        ),
        "--eager": dict(
            action="store_true",
            help="materialize artifact arrays instead of memmapping them",
        ),
    }
    graph = ("--graph", "--weights", "--seed")
    spanner = ("--algorithm", "-k", "-t")
    service = (
        "--store", "--key", *graph, *spanner, "--kind", "--backend", "--stretch",
        "--latency-target", "--build", "--cache-rows", "--shards", "--eager",
    )

    def command(name: str, fn, *flags: str, **kwargs) -> argparse.ArgumentParser:
        # A fresh parent per subcommand: argparse hands a parent's action
        # objects to every child, so one child's set_defaults would
        # otherwise change the default for all of them.
        parent = argparse.ArgumentParser(add_help=False)
        for flag in flags:
            parent.add_argument(flag, **shared[flag])
        sp = sub.add_parser(name, parents=[parent], **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    command(
        "spanner", _cmd_spanner, *graph, *spanner, "--json", help="build one spanner"
    )

    sp = command("apsp", _cmd_apsp, *graph, "--json", help="run an APSP pipeline")
    sp.add_argument("--model", choices=["mpc", "cc"], default="mpc")

    sp = command(
        "tradeoff", _cmd_tradeoff, "-k", help="print the closed-form tradeoff table"
    )
    sp.set_defaults(k=16)

    sp = command("mpc", _cmd_mpc, *graph, "-k", "-t", help="machine-level MPC run")
    sp.add_argument("--gamma", type=float, default=0.5)
    sp.set_defaults(t=3)

    command(
        "list", _cmd_list, "--json", help="show registered algorithms + graph families"
    )

    sp = command(
        "lint", _cmd_lint, "--json",
        help="run the repo-invariant static analysis checks",
        description=(
            "AST-based checks for repo-specific correctness invariants "
            "(memmap copy discipline, rng seeding, int64 index widening, "
            "shared-memory lifecycles, async blocking calls, JSON safety, "
            "frozen reference baselines).  See repro.analysis."
        ),
    )
    sp.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    sp.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any finding is reported",
    )
    sp.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="run only this rule (repeatable; default: all rules)",
    )
    sp.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )

    sp = command(
        "sweep", _cmd_sweep, "--jobs", "--json",
        help="run an experiment plan (JSON) in parallel",
    )
    sp.add_argument("--plan", required=True, help="path to an ExperimentPlan JSON file")
    sp.add_argument("--out", default=None, help="artifact directory (enables resume)")
    sp.add_argument(
        "--no-resume", action="store_true", help="re-run trials even if artifacts exist"
    )
    sp.add_argument(
        "--persist",
        action="store_true",
        help="save every trial's built spanner under OUT/store as a serving "
        "artifact keyed by the trial id (see `repro query --store OUT/store`)",
    )
    sp.add_argument("--dry-run", action="store_true", help="list trials, run nothing")

    sp = command(
        "ingest", _cmd_ingest, "--store", "--key", "--json",
        help="convert a SNAP/whitespace edge list into a graph artifact "
        "(streaming parse, bounded memory)",
    )
    sp.add_argument(
        "path", help="edge-list file: 'u v [w]' per line, '#' comments, .gz ok"
    )
    sp.add_argument(
        "--num-nodes",
        type=int,
        default=None,
        help="declared vertex count (default max endpoint + 1)",
    )
    sp.add_argument(
        "--relabel",
        action="store_true",
        help="compress sparse/non-contiguous node ids to 0..n-1",
    )
    sp.add_argument(
        "--chunk-lines",
        type=int,
        default=None,
        help="data lines parsed per chunk (default: memory-budget autotuned)",
    )

    sp = command(
        "query", _cmd_query, *service, "--json",
        help="answer distance queries from a persisted artifact store",
    )
    sp.add_argument(
        "--pairs", default=None, help="explicit workload: 'u:v,u:v,...'"
    )
    sp.add_argument(
        "--num-pairs", type=_at_least(0), default=16, help="generated workload size"
    )
    sp.add_argument("--pair-seed", type=int, default=0, help="workload rng seed")
    sp.add_argument(
        "--zipf",
        type=float,
        default=0.0,
        help="draw sources zipf(a)-ranked over a vertex permutation "
        "(hot-source traffic); 0 = uniform",
    )
    sp.add_argument(
        "--batch",
        type=_at_least(1),
        default=1024,
        help="queries dispatched per engine batch",
    )

    sp = command(
        "serve", _cmd_serve, *service,
        help="serve distance queries: --socket HOST:PORT runs the "
        "micro-batching asyncio server, default is the stdin/stdout pipe",
    )
    sp.add_argument(
        "--socket",
        default=None,
        metavar="HOST:PORT",
        help="run the concurrent NDJSON socket server instead of the pipe "
        "(port 0 picks a free port, announced on stderr)",
    )
    sp.add_argument(
        "--max-batch",
        type=_at_least(1),
        default=256,
        help="largest batch one solve takes: a request reaching an idle "
        "server is solved at once, and those queued during a solve share "
        "the next batch, up to this many",
    )
    sp.add_argument(
        "--max-pending",
        type=_at_least(1),
        default=8192,
        help="admission bound: queued requests beyond this are rejected "
        "with an explicit 'overloaded' error",
    )

    sp = command(
        "verify", _cmd_verify, *graph, "-k", "-t", "--jobs", "--json",
        help="certify algorithms against their declared paper bounds",
    )
    sp.add_argument(
        "--algorithm",
        default=None,
        metavar="ALGO",
        help="registry name or alias to certify (single-run mode)",
    )
    sp.add_argument(
        "--slack",
        type=float,
        default=1.0,
        help="constant-factor slack on the expected-size bound (default 1.0)",
    )
    sp.add_argument(
        "--matrix",
        action="store_true",
        help="sweep a conformance matrix instead of certifying one run; the "
        "singular --graph/--weights/--seed/-k/-t narrow it when given",
    )
    for flag, values in (
        ("--algorithms", "registry names (default: all)"),
        ("--graphs", "graph specs (default: representative set)"),
        ("--ks", "k values"),
        ("--seeds", "seeds"),
    ):
        sp.add_argument(flag, default=None, help=f"comma-separated {values} for --matrix")
    sp.add_argument(
        "--out",
        default=None,
        help="certificate JSON path (single run) or artifact directory (--matrix)",
    )
    sp.add_argument(
        "--resume",
        action="store_true",
        help="reuse finished cell artifacts under --out (for interrupted "
        "sweeps; default recertifies, so verdicts always reflect the "
        "currently registered claims)",
    )
    # None defaults let --matrix tell whether a singular flag was given;
    # single-run mode fills in er:512:0.06, uniform weights and seed 0.
    sp.set_defaults(graph=None, weights=None, seed=None, k=None, t=None)
    return p


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        from .graphs.specs import GraphSpecError

        if isinstance(exc, GraphSpecError):  # the one bad-spec boundary
            raise SystemExit(f"bad graph spec: {exc}") from exc
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
