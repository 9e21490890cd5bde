"""Unit tests for union-find and quotient-graph construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import UnionFind, quotient_edges, relabel_clustering


class TestUnionFind:
    def test_initial_state(self):
        uf = UnionFind(5)
        assert uf.num_sets == 5
        assert all(uf.find(i) == i for i in range(5))

    def test_union_and_connected(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert not uf.union(1, 0)  # already merged
        assert uf.connected(0, 1)
        assert not uf.connected(0, 2)
        assert uf.num_sets == 3

    def test_set_size(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.set_size(2) == 3
        assert uf.set_size(5) == 1

    def test_union_edges_counts_merges(self):
        uf = UnionFind(5)
        merges = uf.union_edges(np.array([0, 1, 0]), np.array([1, 2, 2]))
        assert merges == 2
        assert uf.num_sets == 3

    def test_labels_compact_first_appearance(self):
        uf = UnionFind(5)
        uf.union(3, 4)
        labels = uf.labels(compact=True)
        # first-appearance order: 0,1,2 then the {3,4} set
        assert labels.tolist() == [0, 1, 2, 3, 3]

    def test_labels_raw_are_roots(self):
        uf = UnionFind(4)
        uf.union(0, 3)
        labels = uf.labels()
        assert labels[0] == labels[3]

    def test_transitive_chain(self):
        uf = UnionFind(100)
        for i in range(99):
            uf.union(i, i + 1)
        assert uf.num_sets == 1
        assert uf.connected(0, 99)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            UnionFind(-1)


class TestRelabelClustering:
    def test_compacts_sparse_labels(self):
        labels, c = relabel_clustering(np.array([10, 20, 10, 30]))
        assert c == 3
        assert labels.tolist() == [0, 1, 0, 2]

    def test_first_appearance_order(self):
        labels, c = relabel_clustering(np.array([7, 3, 7, 1]))
        assert labels.tolist() == [0, 1, 0, 2]

    def test_empty(self):
        labels, c = relabel_clustering(np.zeros(0, dtype=np.int64))
        assert c == 0 and labels.size == 0


class TestQuotientEdges:
    def test_basic_contraction(self):
        # 4 vertices in 2 clusters; 3 edges, one intra.
        labels = np.array([0, 0, 1, 1])
        u = np.array([0, 1, 0])
        v = np.array([1, 2, 3])
        w = np.array([5.0, 2.0, 1.0])
        q = quotient_edges(labels, u, v, w)
        assert q.num_nodes == 2
        assert q.m == 1  # single super-edge, min weight kept
        assert q.w[0] == 1.0
        assert q.rep_edge_id[0] == 2

    def test_drops_all_intra(self):
        labels = np.zeros(4, dtype=np.int64)
        q = quotient_edges(labels, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]))
        assert q.m == 0
        assert q.num_nodes == 1

    def test_provenance_ids_passthrough(self):
        labels = np.array([0, 1, 2])
        q = quotient_edges(
            labels,
            np.array([0, 1]),
            np.array([1, 2]),
            np.array([1.0, 2.0]),
            edge_ids=np.array([42, 99]),
        )
        assert set(q.rep_edge_id.tolist()) == {42, 99}

    def test_tie_break_deterministic(self):
        labels = np.array([0, 0, 1])
        u = np.array([0, 1])
        v = np.array([2, 2])
        w = np.array([1.0, 1.0])
        q = quotient_edges(labels, u, v, w)
        assert q.m == 1
        assert q.rep_edge_id[0] == 0  # lowest provenance id wins ties

    def test_canonical_endpoints(self):
        labels = np.array([1, 0])
        q = quotient_edges(labels, np.array([0]), np.array([1]), np.array([1.0]))
        assert q.u[0] == 0 and q.v[0] == 1

    def test_empty_edges(self):
        q = quotient_edges(np.array([0, 1]), np.zeros(0), np.zeros(0), np.zeros(0))
        assert q.m == 0 and q.num_nodes == 2


def _quotient_reference(labels, u, v, w, ids):
    """Per super-node pair (lo, hi): the record of minimum (weight, id)."""
    best: dict[tuple[int, int], tuple[float, int]] = {}
    for a, b, wt, i in zip(labels[u].tolist(), labels[v].tolist(), w.tolist(), ids.tolist()):
        if a == b:
            continue
        pair = (min(a, b), max(a, b))
        best[pair] = min(best.get(pair, (wt, i)), (wt, i))
    return sorted((lo, hi, wt, i) for (lo, hi), (wt, i) in best.items())


@settings(max_examples=200, deadline=None)
@given(
    num_vertices=st.integers(1, 12),
    num_clusters=st.integers(1, 6),
    records=st.lists(
        st.tuples(
            st.integers(0, 11),
            st.integers(0, 11),
            st.sampled_from([1.0, 2.0, 3.0]),
            st.integers(0, 5),  # provenance ids repeat
        ),
        max_size=40,
    ),
    data=st.data(),
)
def test_quotient_matches_dict_reference(num_vertices, num_clusters, records, data):
    labels = np.asarray(
        data.draw(
            st.lists(
                st.integers(0, num_clusters - 1),
                min_size=num_vertices,
                max_size=num_vertices,
            )
        ),
        dtype=np.int64,
    )
    labels, _ = relabel_clustering(labels)  # quotient_edges wants 0..C-1
    records = [(a % num_vertices, b % num_vertices, wt, i) for a, b, wt, i in records]
    records = data.draw(st.permutations(records))  # shuffled record order
    u, v, w, ids = (np.asarray(col) for col in zip(*records)) if records else [np.zeros(0)] * 4
    u, v, ids = u.astype(np.int64), v.astype(np.int64), ids.astype(np.int64)
    w = w.astype(np.float64)

    q = quotient_edges(labels, u, v, w, ids)
    got = list(zip(q.u.tolist(), q.v.tolist(), q.w.tolist(), q.rep_edge_id.tolist()))
    assert got == _quotient_reference(labels, u, v, w, ids)
    assert q.num_nodes == int(labels.max()) + 1
