"""The growth engine, pinned bit for bit.

``GOLDEN`` holds sha256 digests of what every registry algorithm that
reaches :mod:`repro.core.engine` returns (spanner edge ids plus per-
iteration stats), and of what :func:`run_growth_iterations` and
:func:`phase2_edges` return when called directly (labels, spanner ids,
radius bounds, stats, the final ``alive`` mask and the generator's next
draw).  The digests were recorded from the implementation that grouped
arcs with a four-key ``np.lexsort`` per iteration, so any regrouping of
the hot loop has to reproduce its output exactly.  The graphs cover
uniform, unit and {1, 2} weights (ties), a disconnected graph with
isolated vertices, and ``m == 0``.

``python -m tests.test_growth_golden`` prints the table for the current
tree.

Two properties need no reference: the engine's output does not depend on
the order of its input records (permuted together with their eids, and
with endpoints flipped), and a neighboring group whose weight equals the
join edge's is not connected, whatever the eids.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EdgeSet, engine, phase2_edges, run_growth_iterations
from repro.graphs import WeightedGraph, gnm_random
from repro.registry import get_algorithm, iter_algorithms
from tests.strategies import mixed_weight_graph


def _ties(g: WeightedGraph, seed: int) -> WeightedGraph:
    w = np.random.default_rng(seed).integers(1, 3, size=g.m).astype(np.float64)
    return WeightedGraph(g.n, g.edges_u, g.edges_v, w)


def _disconnected() -> WeightedGraph:
    a = gnm_random(40, 160, weights="uniform", rng=31)
    b = gnm_random(40, 160, weights="uniform", rng=32)
    u = np.concatenate([a.edges_u, b.edges_u + 40])
    v = np.concatenate([a.edges_v, b.edges_v + 40])
    return WeightedGraph(85, u, v, np.concatenate([a.edges_w, b.edges_w]))  # 80..84 isolated


GRAPHS = {
    "uniform": lambda: gnm_random(120, 900, weights="uniform", rng=21),
    "unit": lambda: gnm_random(120, 900, rng=22),
    "ties": lambda: _ties(gnm_random(120, 900, rng=23), 24),
    "disconnected": _disconnected,
    "empty": lambda: WeightedGraph(12, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)),
}

#: Every registry algorithm whose run reaches the growth engine, with the
#: (k, t) it is pinned at.
ENGINE_ALGORITHMS = {
    "apsp-cc": (5, 2),
    "baswana-sen": (4, None),
    "cc": (5, 2),
    "cluster-merging": (6, None),
    "general": (8, 2),
    "mpc-nearlinear": (5, 2),
    "pram": (5, 2),
    "two-phase": (9, None),
    "unweighted": (6, None),
}

#: Direct engine calls: (iterations, probability).
ENGINE_CALLS = {"t3p30": (3, 0.3), "t2p60": (2, 0.6)}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, default=lambda o: o.item()).encode())
        h.update(b"|")
    return h.hexdigest()


def _stats(stats) -> list:
    return [list(astuple(s)) for s in stats]


def _run_algorithm(name: str, g: WeightedGraph) -> str:
    k, t = ENGINE_ALGORITHMS[name]
    res = get_algorithm(name).run(g, k=k, t=t, rng=5)
    if hasattr(res, "edge_ids"):
        return _sha(np.asarray(res.edge_ids, dtype=np.int64), _stats(res.stats))
    h = res.spanner  # APSP pipelines: the collected spanner and its rounds
    return _sha(h.edges_u, h.edges_v, h.edges_w, res.rounds, res.collection_rounds)


def _run_engine(call: str, g: WeightedGraph) -> str:
    iterations, p = ENGINE_CALLS[call]
    edges = EdgeSet.from_arrays(g.n, g.edges_u, g.edges_v, g.edges_w)
    rng = np.random.default_rng(9)
    out = run_growth_iterations(edges, iterations=iterations, probability=p, rng=rng)
    alive = edges.alive.copy()
    return _sha(
        out.labels,
        out.spanner_eids,
        out.radius_bound,
        _stats(out.stats),
        alive,
        edges.num_alive,
        rng.random(),
        phase2_edges(edges, out.labels),
    )


def _cases():
    for gname, make in GRAPHS.items():
        unit = make().is_unweighted
        for name in ENGINE_ALGORITHMS:
            if name != "unweighted" or unit:
                yield f"{name}/{gname}", lambda n=name, mk=make: _run_algorithm(n, mk())
        for call in ENGINE_CALLS:
            yield f"engine-{call}/{gname}", lambda c=call, mk=make: _run_engine(c, mk())


GOLDEN = {
    "apsp-cc/disconnected": "e68bc92b0441d85d723239e4f7265272dc499be394409732d0c80d4afb63aa52",
    "apsp-cc/empty": "7c556f4bb7785c49d83d8c4e11ec8ff762fe1d40c5d5fda50bb5de4b1d9d1665",
    "apsp-cc/ties": "2fe9aeaa021b737681c2cf85b5a163cadfdb4c4105960fc4a36fe54056aaf6dd",
    "apsp-cc/uniform": "868b3ece51369496c411d5ac682ef7ad4c31503a4d21289e7113724a562cbba1",
    "apsp-cc/unit": "b8c285a98fdf51579a9a80d13bc9b5c8aeb6e059ea0570f5a07f9d2bfdd5694d",
    "baswana-sen/disconnected": "b3886f35fcbc71e008533654d611cf0955db74eb0361bda2a76c1ded413b6137",
    "baswana-sen/empty": "f23a344b383f7f717027e3f3eb51a99fee78971ac551a5ae2e15c24edc632cc7",
    "baswana-sen/ties": "c088954716607beb49c3ca3ea95ca8a2151132e0af1e20dfe2bfc52ce410bc94",
    "baswana-sen/uniform": "706b038a8f142830813bc67bb525d733aba236546eab7855175dffae2aea8480",
    "baswana-sen/unit": "3fb125ba8c0c321ecef55347b6acd07a3dafd537f2c82262a11435833f19cd94",
    "cc/disconnected": "a2c214b282ffde70fe1558e68d1d6f953f4f765da6ec5aa7b90df798d8901fe5",
    "cc/empty": "f23a344b383f7f717027e3f3eb51a99fee78971ac551a5ae2e15c24edc632cc7",
    "cc/ties": "db6c2d1c1aba15877d12d11fed952f8ab0e1ab09e7157510962b5e5a76f03e90",
    "cc/uniform": "7d062516763b5719b19e0121632d48504580dd9974eed94ac5b50b346206447e",
    "cc/unit": "d696a73286415490cb86c56fbdd0ce83ebe586c58fbecb585ede032238581ccf",
    "cluster-merging/disconnected": "4461089ad5f517ec8f48602813437d52795e9a237b7c5b4547420179da3ecedd",
    "cluster-merging/empty": "f23a344b383f7f717027e3f3eb51a99fee78971ac551a5ae2e15c24edc632cc7",
    "cluster-merging/ties": "1c2eadb466f85423b0bb2294bf28d5270c09e85b605ec36ab07884e9c97a8828",
    "cluster-merging/uniform": "f6c47a40293f649da48f9f00e8aee7522e1e77457e6325ed937137d9e9fba6b2",
    "cluster-merging/unit": "9287ca73bcd7dab921f7a2c525b15464f4493866527b7946672fbe6d721a804b",
    "engine-t2p60/disconnected": "9fb9ea8f7b79b7fd0dd1674aced67cce2694b3a6991725ce58d42d61113c77d7",
    "engine-t2p60/empty": "00fdc2c27fae8c507228f80b6eaa7ab579d15e3cab0fa282713e8880fc4463f6",
    "engine-t2p60/ties": "82cfdbf95aa28161a1011ef8e7fe99078203a0d036de53ad9034b6e25d184f70",
    "engine-t2p60/uniform": "5128b4daa4e09627375870b914263109d2de587dc3d7149f139aeafe4751ac0f",
    "engine-t2p60/unit": "a7dc858996ebf8a67a38138c2f8af3589403085ce0290fe35c9ba47cfff976ad",
    "engine-t3p30/disconnected": "d43319d586956dd0bd84d73e1c39d9916e52c6e0b98520a397ddf22321092596",
    "engine-t3p30/empty": "edadf3a8900a6eb684be329865ceb6e23be2815c1bcd5aab253d985518ef4c47",
    "engine-t3p30/ties": "ef8fcc8e926cce435cb824a7aed4f206cbaa9226475e15c30c3f02bf14f14f7b",
    "engine-t3p30/uniform": "90892a3bc3eaf98a4cdc1ecd46781a0c7385c52d7433b063b97a59bb7d27758f",
    "engine-t3p30/unit": "d4dba1a1cd5a214178fbcacc1f8f19594ef4a8b9a286d353739295d3e700fb0c",
    "general/disconnected": "0f9d26fc70332fe5b6b02bea17926f786a682fffea8124934a6d9fdfad836e59",
    "general/empty": "f23a344b383f7f717027e3f3eb51a99fee78971ac551a5ae2e15c24edc632cc7",
    "general/ties": "b18aeffe515a79d56a2a4296331416d14dc984bf02ffd768c42ac87b362702e7",
    "general/uniform": "31327f6f7eef71e6718d129e2bf691e0c2f2d36619cf37a3f69dce075add52e8",
    "general/unit": "370b56188a7d36ae6fbaeb7b26b91b40ed5287d83604552b1ddd5c55d18e60da",
    "mpc-nearlinear/disconnected": "86ec05f303319c159debbd1f88f9f18282fe515858e7325d383cad34a12bfa68",
    "mpc-nearlinear/empty": "f23a344b383f7f717027e3f3eb51a99fee78971ac551a5ae2e15c24edc632cc7",
    "mpc-nearlinear/ties": "e9e37a6151cdb901a730797c45ab3a3e6b6a693da449f7cdf28a75b72cd5ccc6",
    "mpc-nearlinear/uniform": "675206cbadcd0f292e91f6900bf8a2726e9f4a5a7f0c1afcbf8332b3d2e1a8d3",
    "mpc-nearlinear/unit": "5808c76c7caa2de44b4f4e712014a63b962d0bd5d13fed09e6d76175524cf8c7",
    "pram/disconnected": "86ec05f303319c159debbd1f88f9f18282fe515858e7325d383cad34a12bfa68",
    "pram/empty": "f23a344b383f7f717027e3f3eb51a99fee78971ac551a5ae2e15c24edc632cc7",
    "pram/ties": "e9e37a6151cdb901a730797c45ab3a3e6b6a693da449f7cdf28a75b72cd5ccc6",
    "pram/uniform": "675206cbadcd0f292e91f6900bf8a2726e9f4a5a7f0c1afcbf8332b3d2e1a8d3",
    "pram/unit": "5808c76c7caa2de44b4f4e712014a63b962d0bd5d13fed09e6d76175524cf8c7",
    "two-phase/disconnected": "cbc3d85353ecb1d6d147f5e3e74b45c2038b98b7b6e6dcd6abc6f95cd5a1d9b3",
    "two-phase/empty": "f23a344b383f7f717027e3f3eb51a99fee78971ac551a5ae2e15c24edc632cc7",
    "two-phase/ties": "39e371fbb71402b3c24c824e053ccd7e54bf86864b843a81ef9bd134aa8e1b1d",
    "two-phase/uniform": "bde862ce405694f6427d7387528a1770529fd365795cf09b56c18fa395f9a1a1",
    "two-phase/unit": "ad3a48e89f74e19af2cd5535813741b7cc632180b9771e5f3dc88da46712bda2",
    "unweighted/empty": "f23a344b383f7f717027e3f3eb51a99fee78971ac551a5ae2e15c24edc632cc7",
    "unweighted/unit": "84034d394a9751eabafe2ed50aab53b6cc81aa7e7264a910e3fcf61e65b8e3ec",
}

CASES = dict(_cases())


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_digest(case):
    assert CASES[case]() == GOLDEN[case]


def test_every_engine_algorithm_is_pinned():
    """A registry algorithm that starts routing through the engine must be
    added to ENGINE_ALGORITHMS (and so to the golden table)."""
    reached = set()
    g = gnm_random(40, 200, rng=3)
    for spec in iter_algorithms():

        def profile(frame, event, arg, name=spec.name):
            if event == "call" and frame.f_code.co_filename == engine.__file__:
                reached.add(name)

        sys.setprofile(profile)
        try:
            spec.run(g, k=4, t=2, rng=0)
        finally:
            sys.setprofile(None)
    assert reached == set(ENGINE_ALGORITHMS)


@settings(max_examples=80, deadline=None)
@given(
    g=mixed_weight_graph(max_m=120),
    seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 4),
    p=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    data=st.data(),
)
def test_output_ignores_record_order(g, seed, iterations, p, data):
    perm = np.asarray(data.draw(st.permutations(range(g.m))), dtype=np.int64)
    flip = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)), dtype=bool)
    u, v, w = g.edges_u, g.edges_v, g.edges_w
    pu = np.where(flip, v[perm], u[perm])
    pv = np.where(flip, u[perm], v[perm])

    outs = []
    for edges in (
        EdgeSet.from_arrays(g.n, u, v, w),
        EdgeSet.from_arrays(g.n, pu, pv, w[perm], eid=perm),
    ):
        rng = np.random.default_rng(seed)
        out = run_growth_iterations(edges, iterations=iterations, probability=p, rng=rng)
        alive = np.zeros(g.m, dtype=bool)
        alive[edges.eid] = edges.alive
        outs.append((out, alive, rng.random()))
    (a, alive_a, next_a), (b, alive_b, next_b) = outs
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.spanner_eids, b.spanner_eids)
    assert np.array_equal(a.radius_bound, b.radius_bound)
    assert a.stats == b.stats
    assert np.array_equal(alive_a, alive_b)
    assert next_a == next_b


def test_equal_weight_group_is_not_connected():
    """Unit weights: vertex 0 joins sampled cluster {1} over eid 1, and its
    group to unsampled cluster {2} (eid 0, same weight, smaller eid) is not
    strictly closer, so it is not connected.  Vertex 2 likewise joins {1}
    over eid 2, so eid 0 dies as an intra-cluster edge."""
    edges = EdgeSet.from_arrays(3, [0, 0, 1], [2, 1, 2], [1.0, 1.0, 1.0])

    class OnlyClusterOne:
        def random(self, size):
            return np.array([0.9, 0.0, 0.9])[:size]  # clusters [0, 1, 2]

    out = run_growth_iterations(edges, iterations=1, probability=0.5, rng=OnlyClusterOne())  # type: ignore[arg-type]
    assert out.spanner_eids.tolist() == [1, 2]
    assert out.stats[0].num_added == 2
    assert out.labels.tolist() == [1, 1, 1]
    assert edges.num_alive == 0


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{CASES[case]()}",')
