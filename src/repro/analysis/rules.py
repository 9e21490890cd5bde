"""The invariant battery: one rule per hard-won correctness discipline.

Each rule names the PR that installed the invariant it enforces; the
README's "Static analysis" table is generated from these docstrings'
first lines.  Rules are deliberately *narrow* — they encode exactly the
bug class that was fixed, scoped to the paths where it bites, so a
finding is a regression signal rather than style noise.  False positives
take a visible ``# repro: allow(rule-id)`` with the justification living
in review history.
"""

from __future__ import annotations

import ast

from .framework import FileContext, Rule, dotted_name

__all__ = [
    "MemmapCopyRule",
    "RngDisciplineRule",
    "Int32WideningRule",
    "ShmLifecycleRule",
    "AsyncBlockingRule",
    "JsonSafetyRule",
    "FrozenReferenceRule",
    "DijkstraKernelRule",
    "all_rules",
]


class MemmapCopyRule(Rule):
    """``.astype(...)`` without an explicit ``copy=`` on memmap-visible paths.

    Origin: PR 6's zero-copy serving discipline.  ``arr.astype(dt)``
    defaults to ``copy=True`` — on a served ``np.memmap`` view that
    silently materializes the whole artifact into private RSS, exactly
    the O(shards x graph) blowup the shared-memory layer removed.  Every
    dtype normalization on a path that can see memmap/shared views must
    say ``copy=False`` (same-dtype passthrough) or justify the copy with
    an explicit ``copy=True``.
    """

    id = "memmap-copy"
    description = (
        "astype() without copy= on memmap-visible paths silently materializes views"
    )
    hint = (
        "pass copy=False (no-op when the dtype already matches; a dtype "
        "change still copies) or an explicit copy=True if the copy is the point"
    )
    include = (
        "service/*",
        "distances/*",
        "graphs/graph.py",
        "graphs/io.py",
        "graphs/distances.py",
        "mpc_impl/ball_growing.py",
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            if not any(kw.arg == "copy" for kw in node.keywords):
                yield node, (
                    ".astype(...) without copy= defaults to copying — on a "
                    "memmap view this materializes the whole array"
                )


class RngDisciplineRule(Rule):
    """Bare ``np.random.default_rng(...)`` outside the one blessed definition.

    Origin: PR 5 deduplicated the 13-site ``default_rng(rng) if not
    isinstance(...)`` idiom into :func:`repro.core.params.coerce_rng` —
    the single definition of the seed-or-generator contract (None, int,
    SeedSequence, or Generator passed through).  A bare ``default_rng``
    re-forks that contract: it silently *reseeds* when handed a
    Generator-threading caller's int, breaking cross-construction seed
    threading.  Algorithm entry points must route seeds through
    ``coerce_rng``.
    """

    id = "rng-discipline"
    description = "bare np.random.default_rng() bypasses the coerce_rng seed contract"
    hint = "route the seed through repro.core.params.coerce_rng instead"
    exclude = ("core/params.py",)

    _NAMES = {
        "np.random.default_rng",
        "numpy.random.default_rng",
        "random.default_rng",
        "default_rng",
    }

    def visit_Call(self, node: ast.Call, ctx: FileContext):
        if dotted_name(node.func) in self._NAMES:
            yield node, (
                "bare default_rng(...) call — seeds must go through coerce_rng "
                "so generator threading and the None/int/Generator contract hold"
            )


class Int32WideningRule(Rule):
    """Multiply-add key encodings used as indices without an explicit int64.

    Origin: the ``c*n + b`` overflow class removed in PRs 4/6 — flat
    ``(slot, vertex) -> slot*n + vertex`` key encodings overflow int32
    whenever ``n**2 >= 2**31``, which int32-indexed graphs (``n < 2**31``)
    routinely hit.  Any ``a*b + c`` expression used as a subscript index
    must carry an explicit widening (``np.int64(n)`` as the multiplier,
    or an ``.astype(np.int64, ...)`` inside the product) so the promotion
    to int64 is visible and dtype-mode independent.
    """

    id = "int32-widening"
    description = "a*b+c subscript key encoding without an explicit int64 widening"
    hint = (
        "multiply by np.int64(n) (or .astype(np.int64, copy=False) a factor) "
        "so the key arithmetic is int64 in every index mode"
    )

    @staticmethod
    def _has_int64(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name in {"np.int64", "numpy.int64", "int64"}:
                    return True
                if isinstance(sub.func, ast.Attribute) and sub.func.attr == "astype":
                    if any(
                        (dotted_name(a) or "").endswith("int64")
                        or (isinstance(a, ast.Constant) and a.value == "int64")
                        for a in sub.args
                    ):
                        return True
        return False

    def visit_Subscript(self, node: ast.Subscript, ctx: FileContext):
        for sub in ast.walk(node.slice):
            if not (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add)):
                continue
            mult = next(
                (
                    side
                    for side in (sub.left, sub.right)
                    if isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                ),
                None,
            )
            if mult is None or self._has_int64(mult):
                continue
            yield sub, (
                "multiply-add index key without an explicit int64 widening — "
                "overflows int32 once n**2 >= 2**31"
            )


class ShmLifecycleRule(Rule):
    """``SharedMemory(...)`` with no paired close/unlink cleanup path.

    Origin: PR 6's shared-memory lifecycle — every segment needs an
    owner that ``unlink``s and attachers that ``close``, or /dev/shm
    leaks survive the process (the resource-tracker warnings and leaked-
    segment sweeps in test_shm_lifecycle exist because this happened).
    A function constructing ``SharedMemory`` must either sit in a module
    that registers an ``atexit`` cleanup or pair the construction with
    ``close``/``unlink``/``destroy`` in a ``finally`` block.
    """

    id = "shm-lifecycle"
    description = "SharedMemory creation without a finally/atexit close+unlink path"
    hint = (
        "pair the segment with close()/unlink() in a finally block, or "
        "register an atexit teardown like service.shm.SharedGraphBuffers"
    )

    _CLEANUP_ATTRS = {"close", "unlink", "destroy"}

    def _has_finally_cleanup(self, scope: ast.AST) -> bool:
        for node in ast.walk(scope):
            if isinstance(node, ast.Try) and node.finalbody:
                for inner in node.finalbody:
                    for call in ast.walk(inner):
                        if (
                            isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr in self._CLEANUP_ATTRS
                        ):
                            return True
        return False

    def check(self, ctx: FileContext):
        creations = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call)
            and (
                (dotted_name(node.func) or "").split(".")[-1] == "SharedMemory"
            )
        ]
        if not creations:
            return
        module_has_atexit = any(
            isinstance(node, ast.Call)
            and (dotted_name(node.func) or "").startswith("atexit.")
            for node in ast.walk(ctx.tree)
        )
        for call in creations:
            scope = ctx.enclosing_function(call) or ctx.tree
            if module_has_atexit or self._has_finally_cleanup(scope):
                continue
            yield call, (
                "SharedMemory segment created with no close()/unlink() in a "
                "finally block and no atexit teardown in this module — "
                "/dev/shm leaks survive the process"
            )


class AsyncBlockingRule(Rule):
    """Blocking calls inside ``async def`` in the serving layer.

    Origin: PR 7's micro-batching server — the event loop must keep
    admitting and coalescing requests while a batch solves, so every
    blocking operation (sleeps, subprocesses, and above all direct
    engine solves) belongs in the dedicated solver thread via
    ``run_in_executor``.  One synchronous ``engine.query_many`` on the
    loop stalls every connected client for the whole solve.
    """

    id = "async-blocking"
    description = "blocking call (sleep/subprocess/engine solve) inside async def"
    hint = (
        "await asyncio.sleep(...) for sleeps; dispatch engine solves through "
        "loop.run_in_executor(executor, partial(engine.query_many, ...))"
    )
    include = ("service/*",)

    _BLOCKING = {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "os.waitpid",
    }
    _SOLVES = {"query", "query_many", "solve_rows", "batched_sssp"}

    def check(self, ctx: FileContext):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._scan(node, ctx)

    def _scan(self, fn: ast.AsyncFunctionDef, ctx: FileContext):
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                # A nested sync def/lambda may legitimately run in an
                # executor; only the async bodies themselves are policed
                # (nested async defs are visited by check()).
                continue
            if isinstance(node, ast.AsyncFunctionDef):
                continue
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in self._BLOCKING:
                    yield node, (
                        f"blocking {name}(...) inside async def {fn.name} "
                        "stalls the event loop"
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._SOLVES
                    and self._is_engine(node.func.value)
                ):
                    yield node, (
                        f"direct engine .{node.func.attr}(...) inside async "
                        f"def {fn.name} — solves must go through the solver "
                        "thread/executor"
                    )
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _is_engine(node: ast.AST) -> bool:
        name = dotted_name(node) or ""
        last = name.split(".")[-1] if name else ""
        return last == "engine" or last.endswith("_engine")


class JsonSafetyRule(Rule):
    """CLI JSON emission not routed through ``_json_safe``.

    Origin: PR 8 — ``json.dumps`` serializes non-finite floats as the
    spec-invalid bare ``Infinity``/``NaN`` tokens, which broke consumers
    of ``repro query --json`` on disconnected pairs.  Every ``json.dumps``
    / ``json.dump`` in the CLI must wrap its payload in ``_json_safe`` so
    unreachable distances serialize as ``null`` (the socket protocol's
    ``{"d": null}`` contract).
    """

    id = "json-safety"
    description = "json.dumps in the CLI without the _json_safe non-finite guard"
    hint = "wrap the payload: json.dumps(_json_safe(payload), ...)"
    include = ("cli.py",)

    def visit_Call(self, node: ast.Call, ctx: FileContext):
        if dotted_name(node.func) not in {"json.dumps", "json.dump"}:
            return
        if node.args:
            payload = node.args[0]
            if isinstance(payload, ast.Call):
                name = dotted_name(payload.func) or ""
                if name.split(".")[-1] == "_json_safe":
                    return
        yield node, (
            "json.dumps/json.dump payload not wrapped in _json_safe — "
            "non-finite floats serialize as spec-invalid bare Infinity/NaN"
        )


class FrozenReferenceRule(Rule):
    """Drift in the pinned ``*_reference`` scalar baselines.

    Origin: PRs 1/4 kept pre-vectorization scalar implementations
    in-tree as frozen bit-identity baselines.  Their hashes are pinned in
    :data:`repro.analysis.frozen.FROZEN_HASHES`; an edited, added, or
    deleted reference function must re-pin explicitly (see that module's
    docs) in the same PR, after re-validating bit-identity.
    """

    id = "frozen-reference"
    description = "*_reference baseline changed/added/removed without re-pinning"
    hint = (
        "re-validate bit-identity, then regenerate the manifest with "
        "`python -m repro.analysis.frozen` and update FROZEN_HASHES"
    )

    def check(self, ctx: FileContext):
        from .frozen import FROZEN_HASHES, hash_function, reference_functions

        seen: dict[str, ast.FunctionDef] = {}
        for node in reference_functions(ctx.tree):
            seen[f"{ctx.rel}::{node.name}"] = node
        for key, node in seen.items():
            pinned = FROZEN_HASHES.get(key)
            current = hash_function(node, ctx.source)
            if pinned is None:
                yield node, (
                    f"reference implementation {key} is not pinned in "
                    "FROZEN_HASHES — frozen baselines must be content-hashed"
                )
            elif pinned != current:
                yield node, (
                    f"pinned reference {key} drifted: manifest has {pinned}, "
                    f"source hashes to {current}"
                )
        prefix = ctx.rel + "::"
        for key in FROZEN_HASHES:
            if key.startswith(prefix) and key not in seen:
                yield None, (
                    f"pinned reference {key} is missing from this module — "
                    "remove the pin deliberately if the baseline moved"
                )


class DijkstraKernelRule(Rule):
    """scipy shortest-path calls outside the one Dijkstra kernel.

    Origin: the directed-kernel change.  Every exact distance goes
    through :func:`repro.graphs.distances.symmetric_dijkstra`, which runs
    a directed solve over the graph's stored symmetric CSR.  A direct
    ``csgraph.dijkstra(..., directed=False)`` elsewhere brings back the
    per-call transpose and double arc scan the kernel removed from every
    row solve, and a direct call of any kind re-forks the one place that
    states the symmetric-CSR invariant the directed solve depends on.
    """

    id = "dijkstra-kernel"
    description = (
        "csgraph.dijkstra/shortest_path called outside graphs/distances.py"
    )
    hint = (
        "call repro.graphs.distances.symmetric_dijkstra (or sssp / "
        "batched_sssp / iter_sssp_chunks / apsp) instead"
    )
    exclude = ("graphs/distances.py",)

    _SOLVERS = {"dijkstra", "shortest_path"}

    def visit_Call(self, node: ast.Call, ctx: FileContext):
        parts = (dotted_name(node.func) or "").split(".")
        if len(parts) >= 2 and parts[-2] == "csgraph" and parts[-1] in self._SOLVERS:
            yield node, (
                f"direct csgraph.{parts[-1]}(...) call — exact distances "
                "must go through the symmetric-CSR Dijkstra kernel"
            )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: FileContext):
        if (node.module or "").split(".")[-1] != "csgraph":
            return
        for alias in node.names:
            if alias.name in self._SOLVERS:
                yield node, (
                    f"imports csgraph.{alias.name} — exact distances must "
                    "go through the symmetric-CSR Dijkstra kernel"
                )


def all_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, stable order."""
    return [
        MemmapCopyRule(),
        RngDisciplineRule(),
        Int32WideningRule(),
        ShmLifecycleRule(),
        AsyncBlockingRule(),
        JsonSafetyRule(),
        FrozenReferenceRule(),
        DijkstraKernelRule(),
    ]
