"""Tests for the MPC simulator substrate (config, tables, primitives)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpc import (
    DistributedTable,
    MPCConfig,
    MPCSimulator,
    MPCViolation,
    find_min_by_group,
    join_lookup,
    reduce_by_key,
    segment_broadcast,
    sort_table,
)


@pytest.fixture
def sim():
    return MPCSimulator(MPCConfig(n=1000, gamma=0.5, total_words=5000))


def _table(sim, **cols):
    return DistributedTable(sim, {k: np.asarray(v) for k, v in cols.items()})


class TestConfig:
    def test_machine_memory_scales(self):
        c1 = MPCConfig(n=10**4, gamma=0.5, total_words=10**5)
        c2 = MPCConfig(n=10**4, gamma=0.25, total_words=10**5)
        assert c1.machine_memory > c2.machine_memory

    def test_num_machines_cover_input(self):
        c = MPCConfig(n=100, gamma=0.5, total_words=10**6)
        assert c.num_machines * c.machine_memory >= 10**6

    def test_tree_levels_grow_as_gamma_shrinks(self):
        levels = [
            MPCConfig(n=10**4, gamma=g, total_words=10**6).tree_levels()
            for g in (0.8, 0.4, 0.2)
        ]
        assert levels[0] <= levels[1] <= levels[2]

    def test_rounds_for_map_free(self):
        c = MPCConfig(n=100, gamma=0.5, total_words=1000)
        assert c.rounds_for("map") == 0
        assert c.rounds_for("sort") >= 2
        with pytest.raises(KeyError):
            c.rounds_for("teleport")

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
    def test_sort_charges_rounds_for_sort(self, gamma):
        # Lemma 6.1: one sort costs O(1/gamma) rounds regardless of data size.
        cfg = MPCConfig(n=4096, gamma=gamma, total_words=3 * 10**4)
        sim = MPCSimulator(cfg)
        keys = np.random.default_rng(0).integers(0, 100, 10**4)
        sort_table(DistributedTable(sim, {"k": keys}, words_per_record=2), ["k"])
        assert sim.rounds == cfg.rounds_for("sort")

    def test_validation(self):
        with pytest.raises(ValueError):
            MPCConfig(n=0, gamma=0.5, total_words=10)
        with pytest.raises(ValueError):
            MPCConfig(n=10, gamma=1.5, total_words=10)


class TestDistributedTable:
    def test_even_partition(self, sim):
        t = _table(sim, x=np.arange(100))
        loads = t.machine_loads()
        assert loads.max() <= sim.config.machine_memory

    def test_memory_violation_detected(self):
        # Tiny machines, bulky table on one machine -> violation.
        sim = MPCSimulator(MPCConfig(n=4, gamma=0.5, total_words=64, memory_constant=1.0))
        with pytest.raises(MPCViolation):
            DistributedTable(
                sim,
                {"x": np.arange(1000)},
                machine_of=np.zeros(1000, dtype=np.int64),
            )

    def test_column_length_mismatch(self, sim):
        with pytest.raises(ValueError):
            _table(sim, a=np.arange(5), b=np.arange(6))

    def test_with_columns_budget(self, sim):
        t = DistributedTable(sim, {"a": np.arange(10)}, words_per_record=2)
        t2 = t.with_columns(b=np.arange(10))
        assert len(t2) == 10
        with pytest.raises(ValueError, match="budget"):
            t2.with_columns(c=np.arange(10), d=np.arange(10))

    def test_select_is_free(self, sim):
        t = _table(sim, x=np.arange(50))
        before = sim.rounds
        t2 = t.select(t["x"] % 2 == 0)
        assert len(t2) == 25
        assert sim.rounds == before


class TestPrimitives:
    def test_sort_correct_and_charged(self, sim):
        t = _table(sim, k=np.array([3, 1, 2, 1]), v=np.array([9, 8, 7, 6]))
        before = sim.rounds
        s = sort_table(t, ["k", "v"])
        assert s["k"].tolist() == [1, 1, 2, 3]
        assert s["v"].tolist() == [6, 8, 7, 9]
        assert sim.rounds > before

    def test_find_min_by_group(self, sim):
        t = _table(
            sim,
            g=np.array([0, 0, 1, 1, 1]),
            w=np.array([5.0, 2.0, 9.0, 1.0, 1.0]),
            tag=np.array([10, 20, 30, 40, 50]),
        )
        out = find_min_by_group(t, ["g"], "w", tie_key="tag")
        assert out["g"].tolist() == [0, 1]
        assert out["w"].tolist() == [2.0, 1.0]
        assert out["tag"].tolist() == [20, 40]  # tie broken by tag

    @pytest.mark.parametrize(
        "op,expect",
        [("sum", [7.0, 11.0]), ("min", [2.0, 1.0]), ("max", [5.0, 9.0]), ("count", [2, 3])],
    )
    def test_reduce_by_key(self, sim, op, expect):
        t = _table(
            sim,
            g=np.array([0, 0, 1, 1, 1]),
            v=np.array([5.0, 2.0, 9.0, 1.0, 1.0]),
        )
        out = reduce_by_key(t, ["g"], "v", op)
        assert out["value"].tolist() == pytest.approx(expect)

    def test_reduce_unknown_op(self, sim):
        t = _table(sim, g=np.array([0]), v=np.array([1.0]))
        with pytest.raises(ValueError):
            reduce_by_key(t, ["g"], "v", "median")

    def test_segment_broadcast(self, sim):
        t = DistributedTable(
            sim,
            {
                "g": np.array([1, 0, 1, 0]),
                "v": np.array([10, 20, 30, 40]),
            },
            words_per_record=3,
        )
        out = segment_broadcast(t, ["g"], "v", "lead")
        # sorted by g: group 0 leader value 20, group 1 leader value 10
        got = {(int(a), int(b)) for a, b in zip(out["g"], out["lead"])}
        assert got == {(0, 20), (1, 10)}

    def test_join_lookup(self, sim):
        t = DistributedTable(sim, {"k": np.array([5, 3, 9])}, words_per_record=2)
        out = join_lookup(t, "k", np.array([3, 5]), np.array([30, 50]), "val")
        assert out["val"].tolist() == [50, 30, -1]

    def test_join_lookup_empty_lookup(self, sim):
        t = DistributedTable(sim, {"k": np.array([1, 2])}, words_per_record=2)
        out = join_lookup(t, "k", np.zeros(0, dtype=np.int64), np.zeros(0), "val", default=7)
        assert out["val"].tolist() == [7, 7]

    def test_round_accounting_accumulates(self, sim):
        t = _table(sim, k=np.arange(20))
        r0 = sim.rounds
        sort_table(t, ["k"])
        r1 = sim.rounds
        sort_table(t, ["k"])
        assert r1 - r0 == sim.rounds - r1  # constant per call
        assert len(sim.log) == 2
        assert sim.summary()["rounds"] == sim.rounds
