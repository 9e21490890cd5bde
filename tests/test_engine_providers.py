"""The serving engine is one provider over every artifact kind.

Pins the invariants of the single cached-row layout: every loaded kind
(``graph``, ``oracle``, ``sketch``, ``bundle`` with each fixed backend)
answers through :meth:`QueryEngine.query` and :meth:`QueryEngine.query_many`
bit-identically to the loaded object's own answers, serial and sharded;
and the engine's row accounting is the sum over its row providers in
every mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import DistanceSketch, SpannerDistanceOracle
from repro.graphs import erdos_renyi
from repro.graphs.distances import pairwise_distances
from repro.service import BACKENDS, ArtifactStore, ProviderBundle, QueryEngine

KINDS = ["graph", "oracle", "sketch"] + [f"bundle-{b}" for b in BACKENDS]


@pytest.fixture(scope="module")
def g():
    return erdos_renyi(120, 0.08, weights="uniform", rng=5)


@pytest.fixture(scope="module")
def oracle(g):
    return SpannerDistanceOracle(g, k=3, t=2, rng=5)


@pytest.fixture(scope="module")
def sketch(g):
    return DistanceSketch(g, 3, rng=5)


@pytest.fixture(scope="module")
def bundle(g, oracle, sketch):
    return ProviderBundle(
        graph=g,
        spanner=oracle.spanner,
        k=oracle.k,
        t=oracle.t,
        t_effective=oracle.t_effective,
        sketch=sketch,
    )


@pytest.fixture(scope="module")
def pairs(g):
    return np.random.default_rng(9).integers(0, g.n, size=(150, 2))


@pytest.fixture(scope="module")
def store(tmp_path_factory, g, oracle, sketch):
    store = ArtifactStore(tmp_path_factory.mktemp("kinds"))
    keys = {
        "graph": store.save_graph(g),
        "oracle": store.save_oracle(oracle),
        "sketch": store.save_sketch(sketch),
        "bundle": store.save_bundle(
            g, oracle.spanner, sketch, k=oracle.k, t=oracle.t
        ),
    }
    return store, keys


def _own_answers(loaded, backend: str, pairs: np.ndarray) -> np.ndarray:
    """What the loaded artifact itself answers, without any engine."""
    if isinstance(loaded, ProviderBundle):
        if backend == "sketch":
            return loaded.sketch.query_many(pairs)
        graph = loaded.graph if backend == "exact" else loaded.spanner
        return pairwise_distances(graph, pairs)
    if hasattr(loaded, "query_many"):
        return loaded.query_many(pairs)
    return pairwise_distances(loaded, pairs)


@pytest.mark.parametrize("shards", [0, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_serves_its_own_answers(store, pairs, kind, shards):
    store, keys = store
    artifact, _, backend = kind.partition("-")
    loaded = store.load(keys[artifact])
    expected = _own_answers(loaded, backend, pairs)
    if hasattr(loaded, "query"):
        own = [loaded.query(int(u), int(v)) for u, v in pairs[:30]]
        assert np.array_equal(own, expected[:30])
    route = {"backend": backend} if backend else {}
    with QueryEngine.from_store(store, keys[artifact], shards=shards) as engine:
        many = engine.query_many(pairs, **route)
        single = [engine.query(int(u), int(v), **route) for u, v in pairs]
    assert np.array_equal(many, expected)
    assert np.array_equal(single, expected)


def _row_providers(engine: QueryEngine) -> list:
    providers = (
        engine.planner.providers.values() if engine.planner else [engine.provider]
    )
    return [p for p in providers if hasattr(p, "rows")]


def _provider_rows(engine: QueryEngine) -> int:
    return sum(p.stats()["rows_solved"] for p in _row_providers(engine))


def _provider_solve_s(engine: QueryEngine) -> float:
    return sum(p.rows.solve_wall_s for p in _row_providers(engine))


@pytest.mark.parametrize("kind", KINDS + ["bundle-tiered"])
def test_rows_solved_is_the_sum_over_row_providers(
    g, oracle, sketch, bundle, pairs, kind
):
    artifact, _, backend = kind.partition("-")
    backend_obj = {"graph": g, "oracle": oracle, "sketch": sketch, "bundle": bundle}
    engine = QueryEngine(backend_obj[artifact], cache_rows=16)
    route = {"backend": backend} if backend else {}
    engine.query_many(pairs[:50], **route)
    engine.query_many(pairs[50:], **route)
    stats = engine.stats()
    assert (stats["queries_served"], stats["batches"]) == (len(pairs), 2)
    rows = stats["rows_solved"]
    assert rows == _provider_rows(engine)
    assert stats["solve_wall_s"] == pytest.approx(_provider_solve_s(engine), abs=1e-6)
    if kind in ("graph", "oracle", "bundle-exact", "bundle-oracle"):
        assert rows > 0 and stats["solve_wall_s"] > 0
    else:
        assert rows == 0 and stats["solve_wall_s"] == 0
    engine.query(1, 2, **route)  # single queries count too
    assert engine.stats()["rows_solved"] == _provider_rows(engine)
    engine.close()


def test_exact_backend_rows_reach_engine_stats(bundle, pairs):
    engine = QueryEngine(bundle)
    engine.query_many(pairs[:50], backend="exact")
    stats = engine.stats()
    exact_rows = stats["planner"]["backends"]["exact"]["rows_solved"]
    assert exact_rows == np.unique(pairs[:50, 0]).size
    assert stats["rows_solved"] == exact_rows
    assert stats["solve_wall_s"] > 0
    engine.close()


def test_sketch_engine_reports_no_row_cache(sketch, pairs):
    engine = QueryEngine(sketch, cache_rows=64)
    engine.query_many(pairs)
    cache = engine.stats()["cache"]
    assert cache["capacity"] == 0 and cache["entries"] == 0
    assert cache["hits"] == cache["misses"] == cache["evictions"] == 0


def test_cache_is_the_aggregate_over_row_providers(g, bundle, pairs):
    single = QueryEngine(g, cache_rows=16)
    planned = QueryEngine(bundle, cache_rows=16)
    assert single.stats()["cache"]["capacity"] == 16
    assert planned.stats()["cache"]["capacity"] == 32  # exact + oracle
    planned.query_many(pairs, backend="oracle")
    planned.query_many(pairs, backend="exact")
    backends = planned.stats()["planner"]["backends"]
    cache = planned.stats()["cache"]
    for key in ("entries", "hits", "misses", "evictions"):
        per_backend = [backends[name]["cache"][key] for name in ("exact", "oracle")]
        assert cache[key] == sum(per_backend)


@pytest.mark.parametrize("kind", KINDS + ["bundle-tiered", "bundle-auto"])
def test_needs_solve_is_whether_query_many_solves(
    g, oracle, sketch, bundle, pairs, kind
):
    """``needs_solve`` predicts whether ``query_many`` solves a row, for
    every provider it may resolve to, and asking changes nothing: the
    engine's stats and the cache's recency order stay as they were."""
    artifact, _, backend = kind.partition("-")
    backend_obj = {"graph": g, "oracle": oracle, "sketch": sketch, "bundle": bundle}
    engine = QueryEngine(backend_obj[artifact], cache_rows=16)
    route = {"backend": backend} if backend not in ("", "auto") else {}
    for lo in range(0, len(pairs), 10):
        chunk = pairs[lo : lo + 10]
        before = engine.stats()
        orders = [p.rows.cache.keys() for p in _row_providers(engine)]
        predicted = engine.needs_solve(chunk[:, 0].tolist(), **route)
        assert engine.stats() == before
        assert [p.rows.cache.keys() for p in _row_providers(engine)] == orders
        rows = before["rows_solved"]
        engine.query_many(chunk, **route)
        assert predicted == (engine.stats()["rows_solved"] > rows), lo
        if backend != "auto":  # auto may route the next call elsewhere
            # The batch's rows are cached now (16 fit): asking again says no.
            assert not engine.needs_solve(chunk[:, 0].tolist(), **route)
    assert engine.needs_solve([], **route) is False
    engine.close()


def test_needs_solve_validates_the_backend(oracle, bundle):
    with pytest.raises(ValueError, match="single fixed backend"):
        QueryEngine(oracle).needs_solve([0], backend="sketch")
    with pytest.raises(ValueError, match="unknown backend"):
        QueryEngine(bundle).needs_solve([0], backend="bogus")
