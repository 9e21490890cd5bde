"""Tests for the unified DistanceProvider layer (repro.service.provider).

Covers the ISSUE 8 acceptance invariants: the provider protocol and its
three adapters, the ``query`` vs ``query_many`` bit-identity property
(hypothesis, including unreachable pairs, dead-pivot sketch walks, and
int32/int64 artifacts), the tiered sketch+hot-row refinement, the
``PlanTarget``/``PlannedProvider`` routing rules, the ``bundle`` artifact
kind, and the planner-mode :class:`QueryEngine`.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import stretch_bound as general_stretch_bound
from repro.distances.sketches import DistanceSketch
from repro.graphs import erdos_renyi
from repro.graphs.distances import batched_sssp
from repro.service import (
    BACKENDS,
    ArtifactStore,
    DistanceProvider,
    PlanTarget,
    PlannedProvider,
    ProviderBundle,
    QueryEngine,
    RowProvider,
    SketchProvider,
    TieredProvider,
    build_providers,
)

from tests.strategies import random_graph


def _bundle(g, *, k=3, t=2, seed=0, spanner=None):
    """A ProviderBundle over ``g`` (spanner defaults to ``g`` itself —
    a valid spanner of any graph, so no build is needed)."""
    return ProviderBundle(
        graph=g,
        spanner=g if spanner is None else spanner,
        k=k,
        t=t,
        t_effective=t,
        sketch=DistanceSketch(g, k, rng=seed),
    )


@pytest.fixture(scope="module")
def g():
    return erdos_renyi(140, 0.07, weights="uniform", rng=7)


@pytest.fixture(scope="module")
def bundle(g):
    return _bundle(g, k=3, seed=0)


@pytest.fixture()
def providers(bundle):
    return build_providers(bundle, cache_rows=64)


class TestProtocol:
    def test_adapters_satisfy_the_protocol(self, providers):
        for p in providers.values():
            assert isinstance(p, DistanceProvider)

    def test_names_and_stretch_bounds(self, bundle, providers):
        assert set(providers) == {"exact", "oracle", "sketch", "tiered"}
        assert providers["exact"].stretch_bound == 1.0
        assert providers["oracle"].stretch_bound == pytest.approx(
            general_stretch_bound(bundle.k, bundle.t_effective)
        )
        assert providers["sketch"].stretch_bound == 2.0 * bundle.k - 1.0
        # Tiered only ever improves on the sketch answer.
        assert providers["tiered"].stretch_bound == providers["sketch"].stretch_bound

    def test_cost_models_are_json_ready(self, providers):
        import json

        for p in providers.values():
            model = p.cost_model()
            assert model["kind"] in {"rows", "sketch", "tiered"}
            json.dumps(model)
        json.dumps(PlannedProvider(providers).cost_model())

    def test_stats_count_and_time(self, providers):
        p = providers["sketch"]
        p.query_many(np.array([[0, 1], [2, 3]]))
        p.query(0, 1)
        s = p.stats()
        assert s["queries_served"] == 3 and s["batches"] == 2
        assert s["ewma_us_per_query"] is not None
        assert s["observed_p99_us"] is not None


class TestUpperBoundContract:
    def test_answers_bounded_by_declared_stretch(self, g, bundle, providers):
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, g.n, size=(256, 2))
        truth_rows = batched_sssp(g, np.unique(pairs[:, 0]))
        row_of = {int(s): truth_rows[i] for i, s in enumerate(np.unique(pairs[:, 0]))}
        truth = np.array([row_of[int(u)][v] for u, v in pairs])
        for name, p in providers.items():
            out = p.query_many(pairs)
            mask = np.isfinite(truth) & (truth > 0)
            assert np.all(out[mask] >= truth[mask] - 1e-9), name
            assert np.all(
                out[mask] <= p.stretch_bound * truth[mask] + 1e-6
            ), name
            # inf exactly when disconnected
            assert np.array_equal(np.isfinite(out), np.isfinite(truth)), name


class TestQueryVsQueryMany:
    """The satellite property: single and batched answering bit-identical
    for every provider, including unreachable pairs and dead-pivot sketch
    walks (sparse random graphs disconnect, leaving levels unreachable),
    across int32 (store-loaded) and int64 (fresh) artifacts."""

    @given(g=random_graph(max_n=24, max_m=40), k=st.integers(2, 4), data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_bit_identity_fresh_and_roundtripped(self, g, k, data):
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, g.n, size=(10, 2))
        pairs[0, 1] = pairs[0, 0]  # self-pair

        fresh = _bundle(g, k=k, seed=seed)
        with tempfile.TemporaryDirectory() as work:
            store = ArtifactStore(work)
            key = store.save_bundle(
                g, fresh.spanner, fresh.sketch, k=k, t=fresh.t
            )
            loaded = store.load_bundle(key)
            # The store downcasts index arrays to int32 at these sizes.
            assert loaded.sketch.pivot.dtype != fresh.sketch.pivot.dtype or (
                fresh.sketch.pivot.dtype == np.int32
            )
            for bundle in (fresh, loaded):
                providers = build_providers(bundle, cache_rows=8)
                # Warm a couple of oracle rows so the tiered peek path has
                # hot rows to refine from (its answers depend on cache
                # state, which is fixed between the two calls below).
                providers["oracle"].query_many(pairs[:4])
                for name, p in providers.items():
                    batched = p.query_many(pairs)
                    singles = np.array([p.query(int(u), int(v)) for u, v in pairs])
                    assert np.array_equal(batched, singles), name
            # And the two artifact dtypes answer identically.
            for name in ("exact", "oracle", "sketch"):
                a = build_providers(fresh)[name].query_many(pairs)
                b = build_providers(loaded)[name].query_many(pairs)
                assert np.array_equal(a, b), name

    def test_dead_pivot_walks_hit_inf(self, disconnected):
        """Vertices with no reachable level-1 pivot must answer inf, and
        query/query_many must agree bit-for-bit on them."""
        sk = DistanceSketch(disconnected, 3, rng=0)
        assert not np.isfinite(sk.pivot_dist[1]).all()  # dead pivots exist
        p = SketchProvider(sk)
        # Cross-component + isolated-vertex pairs are unreachable.
        pairs = np.array([[0, 50], [82, 3], [84, 83], [0, 1]])
        batched = p.query_many(pairs)
        singles = np.array([p.query(int(u), int(v)) for u, v in pairs])
        assert np.array_equal(batched, singles)
        assert not np.isfinite(batched[:3]).any()


class TestTiered:
    def test_refines_from_hot_rows_only(self, g, bundle):
        providers = build_providers(bundle, cache_rows=64)
        tiered, oracle, sketch = (
            providers["tiered"],
            providers["oracle"],
            providers["sketch"],
        )
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, g.n, size=(64, 2))

        # Cold caches: tiered == sketch, and no rows were solved for it.
        before = oracle.rows_solved
        cold = tiered.query_many(pairs)
        assert oracle.rows_solved == before
        assert np.array_equal(cold, sketch.sketch.query_many(pairs))

        # Warm the rows for these sources; now tiered answers the
        # elementwise minimum of sketch and the hot row.
        oracle.query_many(pairs)
        hot = tiered.query_many(pairs)
        rows = {int(s): oracle.peek_row(int(s)) for s in np.unique(pairs[:, 0])}
        expected = np.minimum(
            sketch.sketch.query_many(pairs),
            np.array([rows[int(u)][v] for u, v in pairs]),
        )
        assert np.array_equal(hot, expected)
        assert np.all(hot <= cold + 1e-12)
        assert tiered.refined > 0


class TestPlanTarget:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlanTarget(max_stretch=0.5)
        with pytest.raises(ValueError):
            PlanTarget(p99_ms=0.0)
        assert PlanTarget().describe() == "backend=auto"
        assert "stretch<=3" in PlanTarget(max_stretch=3.0).describe()
        assert "p99<1" in PlanTarget(p99_ms=1.0).describe()

    def test_unknown_fixed_backend_rejected(self, providers):
        with pytest.raises(ValueError, match="unknown backend"):
            PlannedProvider(providers, PlanTarget(backend="bogus"))
        with pytest.raises(ValueError):
            PlannedProvider({})


class TestPlannedRouting:
    def test_fixed_backend_always_routes_there(self, providers):
        planner = PlannedProvider(providers, PlanTarget(backend="tiered"))
        pairs = np.array([[0, 1], [2, 3]])
        planner.route().query_many(pairs)
        planner.route().query(4, 5)
        routed = planner.stats()["routed"]
        assert routed["tiered"] == 3
        assert sum(routed.values()) == 3

    def test_explicit_override_beats_the_target(self, providers):
        planner = PlannedProvider(providers, PlanTarget(backend="sketch"))
        planner.route("exact").query_many(np.array([[0, 1]]))
        planner.route("exact").query(0, 1)
        routed = planner.stats()["routed"]
        assert routed["exact"] == 2 and routed["sketch"] == 0
        with pytest.raises(ValueError, match="unknown backend"):
            planner.route("bogus").query_many(np.array([[0, 1]]))

    def test_stretch_cap_narrows_eligibility(self, providers):
        planner = PlannedProvider(providers, PlanTarget(max_stretch=1.0))
        assert planner.choose() == "exact"
        assert planner.stretch_bound == 1.0

    def test_stretch_cap_unmeetable_falls_back_to_most_accurate(self, bundle):
        subset = {
            n: p for n, p in build_providers(bundle).items() if n != "exact"
        }
        planner = PlannedProvider(subset, PlanTarget(max_stretch=1.0))
        # Nothing declares <= 1.0; the most accurate remaining backend wins.
        best = min(
            (p for n, p in subset.items() if n != "tiered"),
            key=lambda p: p.stretch_bound,
        )
        assert planner.choose() == best.name

    def test_probe_order_then_fastest_ewma(self, providers):
        planner = PlannedProvider(providers)
        pairs = np.array([[0, 1], [2, 3]])
        seen = [planner.choose() for _ in range(1)]
        # Unsampled backends are probed cheapest-declared-first.
        assert seen == ["sketch"]
        for _ in range(3):  # one probe batch each
            planner.route().query_many(pairs)
        routed = planner.stats()["routed"]
        assert {n for n, c in routed.items() if c} == set(BACKENDS)
        # All sampled: route to the fastest observed EWMA.
        fastest = min(
            (planner.providers[n] for n in BACKENDS), key=lambda p: p.ewma_s
        )
        assert planner.choose() == fastest.name

    def test_p99_budget_picks_most_accurate_within_it(self, providers):
        # Accuracy order here is exact (1.0) < sketch (2k-1=5) < oracle
        # (~10 for k=3, t=2) — the planner must walk it, not BACKENDS
        # order.  exact busts the 1ms budget; sketch is next-most-accurate
        # but also busts; oracle fits.
        planner = PlannedProvider(providers, PlanTarget(p99_ms=1.0))
        lat = {"exact": 5e-3, "sketch": 5e-3, "oracle": 5e-4}
        for name, per_query in lat.items():
            p = planner.providers[name]
            p.ewma_s = per_query
            p._lat_ring.append(per_query)
        assert planner.choose() == "oracle"
        # Loosen only sketch: now it is the most accurate within budget.
        planner.providers["sketch"]._lat_ring[-1] = 1e-5
        assert planner.choose() == "sketch"
        # No backend meets the SLO: degrade to the fastest EWMA.
        planner.providers["sketch"]._lat_ring[-1] = 5e-3
        tight = PlannedProvider(providers, PlanTarget(p99_ms=0.01))
        assert tight.choose() == "oracle"

    def test_planner_stats_report_per_backend(self, providers):
        planner = PlannedProvider(providers, PlanTarget(backend="oracle"))
        planner.route().query_many(np.array([[0, 1]]))
        s = planner.stats()
        assert s["routed"]["oracle"] == 1
        assert set(s["backends"]) == set(providers)
        assert s["target"] == "backend=oracle"


class TestBundleArtifacts:
    def test_roundtrip_bit_identity(self, g, bundle, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.save_bundle(
            g, bundle.spanner, bundle.sketch, k=bundle.k, t=bundle.t
        )
        info = store.info(key)
        assert info.kind == "bundle"
        assert info.meta["n"] == g.n
        loaded = store.load_bundle(key)
        assert isinstance(loaded, ProviderBundle)
        rng = np.random.default_rng(2)
        pairs = rng.integers(0, g.n, size=(128, 2))
        fresh_p = build_providers(bundle)
        loaded_p = build_providers(loaded)
        for name in ("exact", "oracle", "sketch"):
            assert np.array_equal(
                fresh_p[name].query_many(pairs), loaded_p[name].query_many(pairs)
            ), name

    def test_mismatched_sizes_rejected(self, g, bundle, tmp_path):
        other = erdos_renyi(32, 0.2, weights="uniform", rng=0)
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            store.save_bundle(g, other, bundle.sketch, k=3)
        with pytest.raises(ValueError):
            store.save_bundle(
                other, other, bundle.sketch, k=3
            )  # sketch built on g


class TestEngineWithBundle:
    def test_backends_and_routing(self, g, bundle):
        engine = QueryEngine(bundle, target=PlanTarget(backend="auto"))
        assert engine.backends() == ("exact", "oracle", "sketch", "tiered")
        pairs = np.array([[0, 5], [3, 9]])
        exact = engine.query_many(pairs, backend="exact")
        sketch = engine.query_many(pairs, backend="sketch")
        assert np.all(sketch >= exact - 1e-9)
        assert engine.query(0, 5, backend="exact") == exact[0]
        stats = engine.stats()
        assert stats["backend"] == "planned"
        assert stats["planner"]["routed"]["exact"] == 3
        assert {"hits", "misses", "hit_rate"} <= set(stats["cache"])
        engine.close()

    def test_single_backend_engine_rejects_backend(self, g):
        engine = QueryEngine(g)
        assert engine.backends() == ()
        with pytest.raises(ValueError, match="single fixed backend"):
            engine.query_many(np.array([[0, 1]]), backend="sketch")
        with pytest.raises(ValueError, match="single fixed backend"):
            engine.query(0, 1, backend="sketch")
        engine.close()

    def test_unknown_backend_rejected(self, bundle):
        engine = QueryEngine(bundle)
        with pytest.raises(ValueError, match="unknown backend"):
            engine.query_many(np.array([[0, 1]]), backend="bogus")
        engine.close()

    def test_target_requires_bundle(self, g):
        with pytest.raises(ValueError, match="ProviderBundle"):
            QueryEngine(g, target=PlanTarget(backend="exact"))

    def test_from_store_with_target(self, g, bundle, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.save_bundle(
            g, bundle.spanner, bundle.sketch, k=bundle.k, t=bundle.t
        )
        with QueryEngine.from_store(
            store, key, target=PlanTarget(backend="sketch")
        ) as engine:
            pairs = np.array([[0, 7], [1, 3]])
            out = engine.query_many(pairs)
            assert np.array_equal(out, bundle.sketch.query_many(pairs))
            assert engine.stats()["planner"]["routed"]["sketch"] == 2
        # Generic load() returns the bundle too.
        assert isinstance(store.load(key), ProviderBundle)

    def test_sharded_oracle_rows_identical_to_serial(self, g, bundle, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.save_bundle(
            g, bundle.spanner, bundle.sketch, k=bundle.k, t=bundle.t
        )
        rng = np.random.default_rng(4)
        pairs = rng.integers(0, g.n, size=(96, 2))
        with QueryEngine.from_store(store, key) as serial:
            want = serial.query_many(pairs, backend="oracle")
        with QueryEngine.from_store(store, key, shards=2) as sharded:
            got = sharded.query_many(pairs, backend="oracle")
        assert np.array_equal(want, got)
