"""Quotient (super-) graph construction.

Definition 5.1 of the paper: given a graph ``G`` and a clustering ``C``, the
quotient graph ``G/C`` has the clusters as vertices and an edge between two
clusters whenever some original edge joins them.  Step C of the general
algorithm additionally keeps only the *minimum-weight* edge between each
pair of super-nodes; we implement that as the default because the stretch
proof relies on it, and we track which original edge id realizes each
super-edge so spanner output always refers to original edges.

Everything here is one sort by an integer group key: label endpoints, key
each inter-cluster record by its super-node pair ``lo * C + hi``, group the
records with :func:`repro.graphs.graph.group_by` (numpy's default, unstable
argsort), and read each group's kept edge as a segment minimum — the
minimum weight, then the minimum provenance id among the records that carry
it.  A minimum does not depend on the order of the records inside a group,
so the sort need not be stable.  This mirrors how the MPC implementation
(Section 6) does it with a distributed sort, which is also why the
machine-level implementation in :mod:`repro.mpc_impl` can share the same
logic shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import group_by

__all__ = ["QuotientEdges", "quotient_edges", "relabel_clustering"]


@dataclass(frozen=True)
class QuotientEdges:
    """Edge list of a quotient graph with provenance.

    Attributes
    ----------
    num_nodes:
        Number of super-nodes (= number of clusters).
    u, v:
        Super-node endpoints, canonical ``u < v``, one entry per surviving
        super-edge.
    w:
        Weight of the kept (minimum) original edge.
    rep_edge_id:
        For each super-edge, the id (into the *original* edge arrays passed
        in) of the minimum-weight original edge realizing it.
    """

    num_nodes: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    rep_edge_id: np.ndarray

    @property
    def m(self) -> int:
        return int(self.u.size)


def quotient_edges(
    labels: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    edge_ids: np.ndarray | None = None,
) -> QuotientEdges:
    """Contract a clustering over an edge list.

    Parameters
    ----------
    labels:
        Cluster label per vertex, values in ``0..C-1`` (use
        :func:`relabel_clustering` to compact arbitrary labels first).
    u, v, w:
        Edge arrays over the original vertex ids.
    edge_ids:
        Optional provenance ids carried per edge (defaults to positional).

    Intra-cluster edges are dropped; parallel super-edges are collapsed to
    the minimum weight with deterministic tie-breaking by provenance id.
    """
    labels = np.asarray(labels, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if edge_ids is None:
        edge_ids = np.arange(u.size, dtype=np.int64)
    else:
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
    num_nodes = int(labels.max()) + 1 if labels.size else 0

    cu = labels.take(u)
    cv = labels.take(v)
    lo = np.minimum(cu, cv)
    hi = np.maximum(cu, cv)
    inter = np.flatnonzero(lo != hi)
    if inter.size == 0:
        z = np.zeros(0, dtype=np.int64)
        return QuotientEdges(num_nodes, z, z, np.zeros(0), z.copy())
    key = lo.take(inter) * num_nodes + hi.take(inter)
    order, start = group_by(key)
    rec = inter.take(order)
    ws = w.take(rec)
    w_min = np.minimum.reduceat(ws, start)
    # The kept edge: minimum weight, then minimum provenance id among the
    # records of that weight.
    at_min = ws == np.repeat(w_min, np.diff(start, append=ws.size))
    ids = np.where(at_min, edge_ids.take(rec), np.iinfo(np.int64).max)
    pair = key.take(order.take(start))
    lo = pair // num_nodes
    return QuotientEdges(
        num_nodes, lo, pair - lo * num_nodes, w_min, np.minimum.reduceat(ids, start)
    )


def relabel_clustering(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Compact arbitrary integer labels to ``0..C-1`` (first-appearance
    order) and return ``(new_labels, C)``."""
    labels = np.asarray(labels, dtype=np.int64)
    order, start = group_by(labels)
    # A cluster's first appearance is its minimum position; numbering the
    # clusters in that order makes label 0 the cluster of vertex 0 etc. —
    # handy for deterministic tests.
    first = np.minimum.reduceat(order, start) if start.size else start
    rank = np.empty(start.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(start.size)
    out = np.empty(labels.size, dtype=np.int64)
    out[order] = np.repeat(rank, np.diff(start, append=labels.size))
    return out, int(start.size)
