"""Unit tests for repro.graphs.graph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.graphs import WeightedGraph, canonical_edges, dedupe_edges
from repro.graphs.graph import group_by, sorted_unique
from tests.strategies import mixed_weight_graph


class TestCanonicalEdges:
    def test_orders_endpoints(self):
        lo, hi, w = canonical_edges(
            np.array([3, 1]), np.array([1, 2]), np.array([1.0, 2.0])
        )
        assert lo.tolist() == [1, 1]
        assert hi.tolist() == [3, 2]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            canonical_edges(np.array([1]), np.array([1]), np.array([1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal shapes"):
            canonical_edges(np.array([1, 2]), np.array([3]), np.array([1.0]))

    def test_empty(self):
        lo, hi, w = canonical_edges(np.array([]), np.array([]), np.array([]))
        assert lo.size == 0


class TestDedupeEdges:
    def test_keeps_min_weight(self):
        lo, hi, w = dedupe_edges(
            np.array([0, 1, 0]), np.array([1, 0, 1]), np.array([5.0, 2.0, 7.0])
        )
        assert lo.tolist() == [0]
        assert hi.tolist() == [1]
        assert w.tolist() == [2.0]

    def test_preserves_distinct(self):
        lo, hi, w = dedupe_edges(
            np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0])
        )
        assert lo.size == 3

    def test_idempotent(self):
        u = np.array([0, 2, 0, 3])
        v = np.array([1, 1, 1, 2])
        w = np.array([3.0, 1.0, 2.0, 5.0])
        once = dedupe_edges(u, v, w)
        twice = dedupe_edges(*once)
        for a, b in zip(once, twice):
            assert np.array_equal(a, b)


class TestWeightedGraphConstruction:
    def test_basic(self, small_weighted):
        assert small_weighted.n == 6
        assert small_weighted.m == 7

    def test_rejects_negative_n(self):
        z = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError):
            WeightedGraph(-1, z, z, np.zeros(0))

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedGraph.from_edges(2, [(0, 5, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedGraph.from_edges(3, [(0, 1, 0.0)])

    def test_rejects_infinite_weight(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedGraph.from_edges(3, [(0, 1, float("inf"))])

    def test_collapses_parallel_edges(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 5.0), (1, 0, 2.0)])
        assert g.m == 1
        assert g.edges_w[0] == 2.0

    def test_empty_graph(self):
        g = WeightedGraph.from_edges(5, [])
        assert g.n == 5 and g.m == 0
        assert g.degree(0) == 0

    def test_zero_vertices(self):
        g = WeightedGraph.from_edges(0, [])
        assert g.n == 0 and g.m == 0

    def test_unweighted_constructor(self):
        g = WeightedGraph.from_unweighted_edges(4, [(0, 1), (2, 3)])
        assert g.is_unweighted
        assert g.m == 2

    def test_equality(self, small_weighted):
        other = WeightedGraph(
            6,
            small_weighted.edges_u,
            small_weighted.edges_v,
            small_weighted.edges_w,
        )
        assert small_weighted == other
        assert small_weighted != WeightedGraph.from_edges(6, [(0, 1, 1.0)])


class TestAdjacency:
    def test_neighbors(self, small_weighted):
        assert sorted(small_weighted.neighbors(2).tolist()) == [0, 1, 3]

    def test_degree_array(self, small_weighted):
        degs = small_weighted.degree()
        assert degs.sum() == 2 * small_weighted.m
        assert degs[2] == 3

    def test_incident_weights_match_neighbors(self, small_weighted):
        nb = small_weighted.neighbors(0)
        ws = small_weighted.incident_weights(0)
        expect = {1: 1.0, 2: 2.5}
        assert {int(a): float(b) for a, b in zip(nb, ws)} == expect

    def test_incident_edge_ids_roundtrip(self, er_weighted):
        g = er_weighted
        for x in (0, 5, 17):
            for y, eid in zip(g.neighbors(x), g.incident_edge_ids(x)):
                a, b = g.edges_u[eid], g.edges_v[eid]
                assert {int(a), int(b)} == {x, int(y)}


class TestConversions:
    def test_scipy_symmetric(self, small_weighted):
        m = small_weighted.to_scipy()
        assert (m != m.T).nnz == 0

    def test_networkx_roundtrip(self, er_weighted):
        g2 = WeightedGraph.from_networkx(er_weighted.to_networkx())
        assert g2 == er_weighted

    def test_subgraph_from_edge_ids(self, small_weighted):
        h = small_weighted.subgraph_from_edge_ids([0, 3])
        assert h.n == small_weighted.n
        assert h.m == 2
        assert small_weighted.has_edge_subset(h)

    def test_subgraph_rejects_bad_id(self, small_weighted):
        with pytest.raises(ValueError):
            small_weighted.subgraph_from_edge_ids([100])

    def test_subgraph_dedupes_ids(self, small_weighted):
        h = small_weighted.subgraph_from_edge_ids([1, 1, 1])
        assert h.m == 1

    @pytest.mark.parametrize(
        "make_ids",
        [
            lambda m: [2, 0, 2, 1, 0, 0],  # duplicates
            lambda m: [m - 1, 0, m // 2, 1],  # unsorted
            lambda m: np.array([3, 1, 3, m - 1], dtype=np.int32),
            lambda m: np.arange(m, dtype=np.int32).reshape(-1, 1)[::-1],
            lambda m: [],
            lambda m: np.array([], dtype=np.int64),
            lambda m: [0, -1],
            lambda m: [m],
            lambda m: np.array([1, m + 5], dtype=np.int32),
        ],
    )
    def test_subgraph_matches_the_set_based_reference(self, er_weighted, make_ids):
        """The array path gives the same subgraph, or the same ValueError,
        as collecting the ids through a sorted Python set."""
        g = er_weighted
        raw = make_ids(g.m)
        ref = sorted(set(int(i) for i in np.asarray(raw).ravel()))
        if ref and (ref[0] < 0 or ref[-1] >= g.m):
            with pytest.raises(ValueError, match="edge id out of range"):
                g.subgraph_from_edge_ids(raw)
            return
        h = g.subgraph_from_edge_ids(raw)
        assert h.n == g.n
        assert np.array_equal(h.edges_u, g.edges_u[ref])
        assert np.array_equal(h.edges_v, g.edges_v[ref])
        assert np.array_equal(h.edges_w, g.edges_w[ref])

    def test_edge_index_map(self, small_weighted):
        idx = small_weighted.edge_index_map()
        for i, (a, b, _) in enumerate(small_weighted.edge_tuples()):
            assert idx[(a, b)] == i

    def test_reweighted(self, small_weighted):
        w = np.full(small_weighted.m, 3.0)
        h = small_weighted.reweighted(w)
        assert np.all(h.edges_w == 3.0)
        assert h.m == small_weighted.m

    def test_reweighted_shape_check(self, small_weighted):
        with pytest.raises(ValueError):
            small_weighted.reweighted(np.ones(2))

    def test_total_weight(self, small_weighted):
        assert small_weighted.total_weight() == pytest.approx(21.0)


class TestGroupingKernel:
    def test_group_by_groups_equal_keys(self):
        keys = np.random.default_rng(3).integers(0, 9, 300)
        order, starts = group_by(keys)
        sizes = np.diff(starts, append=keys.size)
        assert np.array_equal(keys[order[starts]], np.unique(keys))
        assert np.array_equal(np.repeat(keys[order[starts]], sizes), keys[order])

    def test_group_by_empty(self):
        order, starts = group_by(np.zeros(0, dtype=np.int64))
        assert order.size == 0 and starts.size == 0

    @pytest.mark.parametrize("size", [0, 1, 7, 500])
    def test_sorted_unique_matches_np_unique(self, size):
        x = np.random.default_rng(size).integers(-20, 20, size)
        got = sorted_unique(x)
        assert got.dtype == x.dtype
        assert np.array_equal(got, np.unique(x))


def _csr_reference(g: WeightedGraph):
    """The adjacency as a 2-key lexsort of the doubled arc list builds it."""
    m = g.m
    src = np.concatenate([g.edges_u, g.edges_v])
    dst = np.concatenate([g.edges_v, g.edges_u])
    wt = np.concatenate([g.edges_w, g.edges_w])
    eid = np.concatenate([np.arange(m), np.arange(m)])
    order = np.lexsort((dst, src))
    idx_dtype = np.int32 if g.edges_u.dtype == np.int32 else np.int64
    indptr = np.zeros(g.n + 1, dtype=idx_dtype)
    np.add.at(indptr, src[order] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst[order], wt[order], eid[order]


def _as_int32(g: WeightedGraph) -> WeightedGraph:
    return WeightedGraph.from_canonical(
        g.n, g.edges_u.astype(np.int32), g.edges_v.astype(np.int32), g.edges_w
    )


def _graph_variants(g: WeightedGraph):
    """``g`` built through the constructor, adopted via ``from_canonical``,
    and adopted with int32 endpoints."""
    yield WeightedGraph(g.n, g.edges_u, g.edges_v, g.edges_w)
    yield WeightedGraph.from_canonical(g.n, g.edges_u, g.edges_v, g.edges_w)
    yield _as_int32(g)


_ARC_CASES = [
    WeightedGraph.from_edges(6, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 2.5), (4, 5, 3.0)]),
    WeightedGraph(4, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)),
    WeightedGraph(0, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)),
    WeightedGraph.from_edges(9, [(8, 0, 1.0), (3, 5, 1.0)]),  # isolated middle
]


class TestArcOrder:
    """CSR and the scipy matrix share one ``(tail, head)`` arc order."""

    @staticmethod
    def _check_csr(g: WeightedGraph):
        c = g.csr
        for got, want in zip(
            (c.indptr, c.indices, c.weights, c.edge_ids), _csr_reference(g)
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @staticmethod
    def _check_scipy(g: WeightedGraph, fresh: WeightedGraph):
        ref = sparse.csr_matrix(
            (
                np.concatenate([g.edges_w, g.edges_w]),
                (
                    np.concatenate([g.edges_u, g.edges_v]),
                    np.concatenate([g.edges_v, g.edges_u]),
                ),
            ),
            shape=(g.n, g.n),
        )
        got = fresh.to_scipy()
        assert got.shape == ref.shape
        for a, b in zip((got.indptr, got.indices, got.data), (ref.indptr, ref.indices, ref.data)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", range(len(_ARC_CASES)))
    def test_csr_matches_lexsort_reference_on_edge_cases(self, case):
        for g in _graph_variants(_ARC_CASES[case]):
            self._check_csr(g)

    @given(g=mixed_weight_graph(max_n=40, max_m=200))
    @settings(max_examples=40, deadline=None)
    def test_csr_matches_lexsort_reference(self, g):
        for h in _graph_variants(g):
            self._check_csr(h)

    @given(g=mixed_weight_graph(max_n=40, max_m=200), csr_first=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_to_scipy_matches_coo_build(self, g, csr_first):
        for h in _graph_variants(g):
            if csr_first:
                h.csr
            self._check_scipy(g, h)

    @pytest.mark.parametrize("case", range(len(_ARC_CASES)))
    def test_to_scipy_matches_coo_build_on_edge_cases(self, case):
        g = _ARC_CASES[case]
        for csr_first in (False, True):
            for h in _graph_variants(g):
                if csr_first:
                    h.csr
                self._check_scipy(g, h)

    def test_to_scipy_builds_no_csr(self, er_weighted):
        for g in _graph_variants(er_weighted):
            g.to_scipy()
            assert g._csr is None

    def test_to_scipy_wraps_a_cached_csr(self, er_weighted):
        g = WeightedGraph.from_canonical(
            er_weighted.n, er_weighted.edges_u, er_weighted.edges_v, er_weighted.edges_w
        )
        c = g.csr
        assert np.shares_memory(g.to_scipy().data, c.weights)


def _dedupe_reference(u, v, w):
    """Parallel edges collapsed by a 3-key ``(lo, hi, w)`` lexsort."""
    lo, hi, w = canonical_edges(u, v, w)
    if lo.size == 0:
        return lo, hi, w
    order = np.lexsort((w, hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    keep = np.ones(lo.size, dtype=bool)
    keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[keep], hi[keep], w[keep]


class TestDedupeMatchesLexsortReference:
    @given(
        n=st.integers(2, 30),
        m=st.integers(0, 200),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
        int32=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_multigraphs(self, n, m, seed, ties, int32):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, n, m)
        v = rng.integers(0, n, m)
        u, v = u[u != v], v[u != v]
        # Few distinct weights give tied parallel copies; many give distinct.
        w = rng.integers(1, 3 if ties else 10**6, u.size).astype(np.float64)
        if int32:
            u, v = u.astype(np.int32), v.astype(np.int32)
        got = dedupe_edges(u, v, w)
        want = _dedupe_reference(u, v, w)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_reversed_endpoints_and_parallel_copies(self):
        u = np.array([5, 2, 1, 2, 5, 0, 3], dtype=np.int32)
        v = np.array([1, 0, 5, 0, 2, 2, 4], dtype=np.int32)
        w = np.array([4.0, 2.0, 3.0, 2.0, 1.0, 7.0, 0.5])
        for args in ((u, v, w), (u.astype(np.int64), v.astype(np.int64), w)):
            got = dedupe_edges(*args)
            want = _dedupe_reference(*args)
            assert [a.tolist() for a in got] == [[0, 1, 2, 3], [2, 5, 5, 4], [2.0, 3.0, 1.0, 0.5]]
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
