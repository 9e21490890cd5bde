"""Tests for the persist-then-serve query subsystem (repro.service).

Covers the ISSUE 5 acceptance invariants: artifact save/load round trips
answer queries bit-identically, sharded and serial engines agree exactly,
sweep output doubles as a loadable artifact store, and the CLI front ends
drive the build -> persist -> load -> query flow.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.distances import DistanceSketch, SpannerDistanceOracle
from repro.graphs import erdos_renyi
from repro.service import ArtifactStore, QueryEngine, config_key
from repro.service.store import STORE_FORMAT_VERSION


@pytest.fixture(scope="module")
def g():
    return erdos_renyi(180, 0.08, weights="uniform", rng=12)


@pytest.fixture(scope="module")
def oracle(g):
    return SpannerDistanceOracle(g, k=4, t=2, rng=0)


@pytest.fixture(scope="module")
def sketch(g):
    return DistanceSketch(g, k=3, rng=1)


@pytest.fixture(scope="module")
def pairs(g):
    rng = np.random.default_rng(7)
    return rng.integers(0, g.n, size=(600, 2))


class TestArtifactStore:
    def test_oracle_round_trip_bit_identical(self, oracle, pairs, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.save_oracle(oracle, meta={"origin": "test"})
        loaded = store.load_oracle(key)
        assert np.array_equal(oracle.query_many(pairs), loaded.query_many(pairs))
        assert loaded.guaranteed_stretch == oracle.guaranteed_stretch
        assert loaded.spanner == oracle.spanner

    def test_sketch_round_trip_bit_identical(self, sketch, pairs, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.save_sketch(sketch)
        loaded = store.load_sketch(key)
        assert np.array_equal(sketch.query_many(pairs), loaded.query_many(pairs))
        for u, v in pairs[:20].tolist():
            assert sketch.query(u, v) == loaded.query(u, v)
        assert loaded.size_words == sketch.size_words

    def test_listing_and_info(self, oracle, sketch, tmp_path):
        store = ArtifactStore(tmp_path)
        ko = store.save_oracle(oracle)
        ks = store.save_sketch(sketch)
        assert sorted(store.keys()) == sorted([ko, ks])
        assert ko in store and "nope" not in store
        assert store.info(ko).kind == "oracle"
        assert store.info(ks).kind == "sketch"
        assert store.info(ko).meta["k"] == oracle.k
        store.delete(ko)
        assert ko not in store

    def test_explicit_key_and_overwrite(self, oracle, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.save_oracle(oracle, key="my-key") == "my-key"
        assert store.save_oracle(oracle, key="my-key") == "my-key"  # idempotent
        assert store.keys() == ["my-key"]

    def test_stale_tmp_scratch_dirs_not_listed(self, oracle, tmp_path):
        """A writer killed mid-save leaves a `.tmp-*` directory holding a
        manifest; listing must never advertise it as a loadable key."""
        store = ArtifactStore(tmp_path)
        key = store.save_oracle(oracle)
        stale = tmp_path / ".tmp-dead-123"
        stale.mkdir()
        (stale / "manifest.json").write_text("{}")
        assert store.keys() == [key]
        for k in store.keys():  # every listed key is loadable
            store.info(k)

    def test_missing_key_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(KeyError):
            store.info("absent")
        with pytest.raises(ValueError):
            store._dir("../escape")

    def test_kind_mismatch_rejected(self, oracle, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.save_oracle(oracle)
        with pytest.raises(ValueError, match="not a sketch"):
            store.load_sketch(key)

    def test_future_format_version_rejected(self, oracle, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.save_oracle(oracle)
        manifest_path = tmp_path / key / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = STORE_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported"):
            store.info(key)

    def test_mmap_load_is_file_backed_and_identical(self, oracle, pairs, tmp_path):
        """The default load hands back memmap views (one physical copy per
        artifact across processes); eager load stays available and both
        answer bit-identically."""
        store = ArtifactStore(tmp_path)
        key = store.save_oracle(oracle)
        lazy = store.load_oracle(key)  # mmap=True default
        eager = store.load_oracle(key, mmap=False)

        def file_backed(arr):
            import mmap as mmap_mod

            base = arr
            while isinstance(base, np.ndarray):
                if isinstance(base, np.memmap):
                    return True
                base = base.base
            return isinstance(base, mmap_mod.mmap)

        assert file_backed(lazy.spanner.edges_u)
        assert not file_backed(eager.spanner.edges_u)
        assert eager.spanner.edges_u.flags.writeable
        got = lazy.query_many(pairs)
        assert np.array_equal(got, eager.query_many(pairs))
        assert np.array_equal(got, oracle.query_many(pairs))

    def test_index_arrays_downcast_to_int32(self, oracle, sketch, tmp_path):
        """Save-time downcast: every index array of a small-n artifact is
        stored (and served) as int32; float payloads stay float64."""
        store = ArtifactStore(tmp_path)
        ko = store.save_oracle(oracle)
        ks = store.save_sketch(sketch)
        assert np.load(tmp_path / ko / "arrays" / "u.npy").dtype == np.int32
        assert np.load(tmp_path / ko / "arrays" / "w.npy").dtype == np.float64
        assert np.load(tmp_path / ks / "arrays" / "bunch_centers.npy").dtype == np.int32
        loaded = store.load_sketch(ks)
        assert loaded.bunch_centers.dtype == np.int32
        assert loaded.pivot.dtype == np.int32
        assert loaded.g.edges_u.dtype == np.int32

    def test_v1_artifact_refused(self, oracle, tmp_path):
        """A v1 (compressed arrays.npz) manifest is refused like any other
        version this build does not write."""
        store = ArtifactStore(tmp_path)
        key = store.save_oracle(oracle)
        manifest_path = tmp_path / key / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported"):
            store.info(key)
        with pytest.raises(ValueError, match="unsupported"):
            store.load_oracle(key)

    def test_config_key_deterministic(self):
        a = config_key({"algorithm": "general", "k": 4, "graph": "er:64:0.2"})
        b = config_key({"graph": "er:64:0.2", "k": 4, "algorithm": "general"})
        assert a == b and len(a) == 16
        assert a != config_key({"algorithm": "general", "k": 5, "graph": "er:64:0.2"})

    def test_config_key_matches_trial_id(self):
        """Store keys and runner trial ids share one hash recipe, so sweep
        artifacts are addressable from the serving side."""
        from dataclasses import asdict

        from repro.runner import TrialSpec

        trial = TrialSpec(algorithm="general", graph="er:64:0.2", k=4, t=2, seed=0)
        assert config_key(asdict(trial)) == trial.trial_id


class TestQueryEngine:
    def test_matches_oracle(self, oracle, pairs):
        engine = QueryEngine(oracle)
        assert np.array_equal(engine.query_many(pairs), oracle.query_many(pairs))
        u, v = map(int, pairs[0])
        assert engine.query(u, v) == oracle.query(u, v)

    def test_batched_planning_populates_cache(self, oracle, pairs):
        engine = QueryEngine(oracle, cache_rows=1024)
        engine.query_many(pairs)
        rows_after_batch = engine.stats()["rows_solved"]
        # Every source in the batch is now cached: single queries are hits.
        u, v = map(int, pairs[0])
        engine.query(u, v)
        assert engine.stats()["rows_solved"] == rows_after_batch
        assert engine.stats()["cache"]["hits"] >= 1

    def test_timing_stats_accumulate(self, oracle, pairs):
        """Queries, batches, wall time and solve time only grow, and every
        key is present from the start."""
        engine = QueryEngine(oracle, cache_rows=64)
        base = engine.stats()
        assert {"backend", "n", "m", "shards", "queries_served", "batches",
                "wall_s", "rows_solved", "solve_wall_s", "cache"} <= set(base)
        assert base["queries_served"] == base["batches"] == 0
        engine.query_many(pairs[:100])
        engine.query_many(pairs[100:250])
        engine.query(1, 2)  # a single query is a batch of one
        stats = engine.stats()
        assert set(stats) == set(base)
        assert stats["queries_served"] == 251 and stats["batches"] == 3
        assert stats["rows_solved"] > 0
        assert 0 < stats["solve_wall_s"] <= stats["wall_s"]

    def test_failed_solve_counts_nothing(self, oracle, pairs, monkeypatch):
        """A row solve that raises leaves the served counters where they
        were, under query_many and under query."""
        import repro.service.engine as engine_mod

        engine = QueryEngine(oracle, cache_rows=64)
        engine.query_many(pairs[:10])
        before = engine.stats()

        def boom(graph, sources):
            raise RuntimeError("solve failed")

        monkeypatch.setattr(engine_mod, "batched_sssp", boom)
        cold = int(np.setdiff1d(np.arange(oracle.spanner.n), pairs[:10, 0])[0])
        with pytest.raises(RuntimeError):
            engine.query_many([[cold, 1], [cold, 2]])
        with pytest.raises(RuntimeError):
            engine.query(cold, 3)
        after = engine.stats()
        assert after["queries_served"] == before["queries_served"]
        assert after["batches"] == before["batches"]

    def test_lru_bound_respected(self, oracle, pairs):
        engine = QueryEngine(oracle, cache_rows=4)
        engine.query_many(pairs)
        stats = engine.stats()["cache"]
        assert stats["entries"] <= 4 and stats["evictions"] > 0
        # Answers stay correct under heavy eviction.
        assert np.array_equal(engine.query_many(pairs), oracle.query_many(pairs))

    def test_sharded_matches_serial(self, oracle, pairs):
        serial = QueryEngine(oracle, cache_rows=64)
        with QueryEngine(oracle, cache_rows=64, shards=2) as sharded:
            out_sharded = sharded.query_many(pairs)
            single = sharded.query(3, 11)
        out_serial = serial.query_many(pairs)
        assert np.array_equal(out_serial, out_sharded)
        assert single == serial.query(3, 11)

    def test_sketch_backend(self, sketch, pairs):
        engine = QueryEngine(sketch)
        assert np.array_equal(engine.query_many(pairs), sketch.query_many(pairs))
        assert engine.stats()["backend"] == "sketch"
        assert engine.stats()["rows_solved"] == 0

    def test_from_store_both_kinds(self, oracle, sketch, pairs, tmp_path):
        store = ArtifactStore(tmp_path)
        ko = store.save_oracle(oracle)
        ks = store.save_sketch(sketch)
        eo = QueryEngine.from_store(tmp_path, ko)  # path form
        es = QueryEngine.from_store(store, ks)  # store form
        assert np.array_equal(eo.query_many(pairs), oracle.query_many(pairs))
        assert np.array_equal(es.query_many(pairs), sketch.query_many(pairs))
        assert eo.meta["artifact_kind"] == "oracle"
        assert es.meta["artifact_kind"] == "sketch"

    def test_mmap_sharded_from_store_matches_serial(self, oracle, pairs, tmp_path):
        """The full zero-copy stack — memmapped int32 artifact, serial
        parent, shared-memory shard workers — answers bit-identically to
        the freshly built oracle."""
        store = ArtifactStore(tmp_path)
        key = store.save_oracle(oracle)
        expected = oracle.query_many(pairs)
        with QueryEngine.from_store(store, key, shards=2) as sharded:
            assert np.array_equal(sharded.query_many(pairs), expected)
        eager_serial = QueryEngine.from_store(store, key, mmap=False)
        assert np.array_equal(eager_serial.query_many(pairs), expected)

    def test_input_validation(self, oracle):
        engine = QueryEngine(oracle)
        with pytest.raises(ValueError):
            engine.query(-1, 0)
        with pytest.raises(ValueError):
            engine.query_many(np.asarray([[0, 10**6]]))
        with pytest.raises(TypeError):
            QueryEngine(object())
        with pytest.raises(ValueError):
            QueryEngine(oracle, shards=-1)
        assert engine.query_many(np.zeros((0, 2), dtype=np.int64)).size == 0

    def test_empty_graph_backend(self):
        from repro.graphs import WeightedGraph

        engine = QueryEngine(WeightedGraph.from_edges(4, []))
        assert np.isinf(engine.query(0, 3))
        assert engine.query(2, 2) == 0.0


class TestRunnerPersist:
    def test_sweep_store_is_loadable(self, tmp_path):
        from repro.runner import ExperimentPlan, run_plan

        plan = ExperimentPlan(
            algorithms=["general", "baswana-sen"],
            graphs=["er:96:0.1"],
            ks=[3],
            seeds=[0],
            name="persist-test",
        )
        out = tmp_path / "sweep"
        result = run_plan(plan, out_dir=out, persist=True)
        store = ArtifactStore(out / "store")
        assert len(store.keys()) == len(result.records) == 2
        for record in result.records:
            assert record["artifact_key"] == record["trial_id"]
            info = store.info(record["trial_id"])
            assert info.meta["algorithm"] == record["algorithm"]
            engine = QueryEngine.from_store(store, record["trial_id"])
            assert np.isfinite(engine.query_many([[0, 1], [5, 9]])).all()

    def test_resume_backfills_missing_artifacts(self, tmp_path):
        """Adding --persist to an already-finished sweep re-executes the
        trials whose artifacts are missing, so the store ends up complete."""
        from repro.runner import ExperimentPlan, run_plan

        plan = ExperimentPlan(
            algorithms=["general"], graphs=["er:96:0.1"], ks=[3], seeds=[0, 1]
        )
        out = tmp_path / "sweep"
        run_plan(plan, out_dir=out)  # no persist: store stays absent
        result = run_plan(plan, out_dir=out, persist=True)
        assert result.executed == 2  # resumed records lacked artifacts
        assert len(ArtifactStore(out / "store").keys()) == 2
        # A second persisting resume now skips everything.
        result = run_plan(plan, out_dir=out, persist=True)
        assert result.executed == 0 and result.skipped == 2

    def test_persist_requires_out_dir(self):
        from repro.runner import ExperimentPlan, run_plan

        plan = ExperimentPlan(algorithms=["general"], graphs=["er:64:0.1"], ks=[3])
        with pytest.raises(ValueError, match="out_dir"):
            run_plan(plan, persist=True)


class TestServiceCLI:
    GRAPH = "er:96:0.1"

    def _query(self, store, extra, capsys):
        rc = main(
            [
                "query",
                "--store",
                str(store),
                "--graph",
                self.GRAPH,
                "--algorithm",
                "general",
                "-k",
                "3",
                "--json",
                *extra,
            ]
        )
        out = json.loads(capsys.readouterr().out)
        return rc, out

    def test_build_then_load_identical(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc, first = self._query(
            store, ["--build", "--num-pairs", "12", "--zipf", "1.3"], capsys
        )
        assert rc == 0 and first["built"] is True
        rc, second = self._query(store, ["--num-pairs", "12", "--zipf", "1.3"], capsys)
        assert rc == 0 and second["built"] is False
        assert second["key"] == first["key"]
        assert second["answers"] == first["answers"]  # loaded == freshly built

    def test_missing_without_build_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="--build"):
            self._query(tmp_path / "store", ["--num-pairs", "4"], capsys)

    def test_explicit_pairs_and_kind_sketch(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc, out = self._query(
            store, ["--kind", "sketch", "--build", "--pairs", "0:5,3:9,7:7"], capsys
        )
        assert rc == 0
        assert out["num_pairs"] == 3
        assert out["answers"][2] == 0.0
        assert out["stats"]["backend"] == "sketch"

    def test_serve_pipe(self, tmp_path, capsys, monkeypatch):
        import io

        store = tmp_path / "store"
        self._query(store, ["--build", "--num-pairs", "2"], capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO("0 5\n# comment\n3 9\n\n"))
        rc = main(
            [
                "serve",
                "--store",
                str(store),
                "--graph",
                self.GRAPH,
                "--algorithm",
                "general",
                "-k",
                "3",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 2 and all(float(x) >= 0 for x in lines)
        assert "serving artifact" in captured.err

    def test_sweep_persist_flag(self, tmp_path, capsys):
        plan = {
            "name": "cli-persist",
            "algorithms": ["general"],
            "graphs": ["er:64:0.1"],
            "ks": [3],
            "seeds": [0],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out = tmp_path / "out"
        rc = main(
            ["sweep", "--plan", str(plan_path), "--out", str(out), "--persist", "--json"]
        )
        assert rc == 0
        store = ArtifactStore(out / "store")
        assert len(store.keys()) == 1

    def test_sweep_persist_requires_out(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps({"algorithms": ["general"], "graphs": ["er:64:0.1"], "ks": [3]})
        )
        with pytest.raises(SystemExit, match="--out"):
            main(["sweep", "--plan", str(plan_path), "--persist"])


class TestBundleCLI:
    """The ``--kind bundle`` artifact and the planner flags on ``repro
    query``: per-backend routing, declarative targets, and the guard that
    routing flags require a bundle."""

    GRAPH = "er:96:0.1"

    def _query(self, store, extra, capsys):
        rc = main(
            [
                "query", "--store", str(store), "--graph", self.GRAPH,
                "--algorithm", "general", "-k", "3", "--kind", "bundle",
                "--json", *extra,
            ]
        )
        return rc, json.loads(capsys.readouterr().out)

    def test_backends_share_one_artifact(self, tmp_path, capsys):
        store = tmp_path / "store"
        pairs = ["--pairs", "0:5,3:9,7:7"]
        rc, exact = self._query(
            store, ["--build", "--backend", "exact", *pairs], capsys
        )
        assert rc == 0 and exact["built"] is True
        assert exact["stats"]["backend"] == "planned"
        assert exact["stats"]["planner"]["routed"]["exact"] == 3
        assert exact["answers"][2] == 0.0  # self-pair

        rc, sketch = self._query(store, ["--backend", "sketch", *pairs], capsys)
        assert rc == 0 and sketch["built"] is False
        assert sketch["key"] == exact["key"]  # one bundle serves both
        assert sketch["stats"]["planner"]["routed"]["sketch"] == 3
        for s, e in zip(sketch["answers"], exact["answers"]):
            if s is None or e is None:  # unreachable agrees
                assert s is None and e is None
            else:
                assert s >= e - 1e-9  # sketch upper-bounds exact

    def test_stretch_target_routes_within_bound(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc, out = self._query(
            store, ["--build", "--stretch", "1.0", "--num-pairs", "8"], capsys
        )
        assert rc == 0
        planner = out["stats"]["planner"]
        assert "stretch<=1" in planner["target"]
        # Only exact declares stretch <= 1: everything routes there.
        assert planner["routed"]["exact"] == 8
        assert sum(planner["routed"].values()) == 8

    def test_routing_flags_require_bundle_artifact(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc = main(
            [
                "query", "--store", str(store), "--graph", self.GRAPH,
                "--algorithm", "general", "-k", "3", "--build",
                "--num-pairs", "4", "--json",
            ]
        )
        capsys.readouterr()
        assert rc == 0  # plain oracle artifact
        with pytest.raises(SystemExit, match="bundle"):
            main(
                [
                    "query", "--store", str(store), "--graph", self.GRAPH,
                    "--algorithm", "general", "-k", "3",
                    "--backend", "exact", "--num-pairs", "4",
                ]
            )

    def test_invalid_target_flags_exit_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "query", "--store", str(tmp_path / "s"), "--graph", self.GRAPH,
                    "--algorithm", "general", "-k", "3", "--kind", "bundle",
                    "--build", "--stretch", "0.5", "--num-pairs", "2",
                ]
            )
