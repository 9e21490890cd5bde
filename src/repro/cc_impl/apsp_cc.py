"""Corollary 1.5: weighted APSP approximation in the Congested Clique.

Pipeline (Section 8): build the Theorem 8.1 spanner with ``k = log2 n``
and ``t = log2 log2 n`` — size ``O(n log log n)`` w.h.p. — then let *every*
node learn the entire spanner via Lenzen routing, costing
``O(size / n) = O(log log n)`` rounds; afterwards every node answers any
distance query locally.  The first sublogarithmic weighted-APSP algorithm
in the model.
"""

from __future__ import annotations

import numpy as np

from ..congest.clique import CongestedClique
from ..core.params import apsp_parameters, stretch_bound
from ..graphs.distances import apsp, sssp
from ..graphs.graph import WeightedGraph
from .spanner_cc import spanner_cc

__all__ = ["CCApspResult", "apsp_cc"]


class CCApspResult:
    """Outcome of the Congested Clique APSP pipeline.

    Every node of the clique ends up holding ``spanner``; distance queries
    are answered locally.  ``rounds`` = spanner rounds + collection rounds.
    """

    def __init__(
        self,
        g: WeightedGraph,
        spanner: WeightedGraph,
        rounds: int,
        collection_rounds: int,
        k: int,
        t: int,
        spanner_extra: dict,
        stretch_factor: float = 1.0,
    ) -> None:
        self.g = g
        self.spanner = spanner
        self.rounds = rounds
        self.collection_rounds = collection_rounds
        self.k = k
        self.t = t
        self.spanner_extra = spanner_extra
        self.stretch_factor = stretch_factor

    @property
    def guaranteed_stretch(self) -> float:
        # stretch_factor absorbs the (1+eps) of weight quantization.
        return self.stretch_factor * stretch_bound(self.k, min(self.t, max(self.k - 1, 1)))

    def distances_from(self, source: int) -> np.ndarray:
        """What node ``source`` computes locally after learning the spanner."""
        return sssp(self.spanner, source)

    def all_pairs(self) -> np.ndarray:
        return apsp(self.spanner)


def apsp_cc(
    g: WeightedGraph,
    *,
    k: int | None = None,
    t: int | None = None,
    rng=None,
    quantize_eps: float | None = None,
) -> CCApspResult:
    """Run the Corollary 1.5 pipeline under Congested Clique accounting.

    With ``quantize_eps`` set, weights are first rounded up to powers of
    ``1 + ε`` (see :mod:`repro.graphs.weights`) so every weight fits one
    ``O(log n)``-bit clique word — the model-strict mode.  The reported
    stretch guarantee absorbs the extra ``1 + ε`` factor.
    """
    dk, dt = apsp_parameters(g.n)
    k = k if k is not None else dk
    t = t if t is not None else dt

    work_graph = g
    eps_factor = 1.0
    if quantize_eps is not None:
        from ..graphs.weights import quantize_weights

        work_graph = quantize_weights(g, quantize_eps).graph
        eps_factor = 1.0 + quantize_eps

    res = spanner_cc(work_graph, k, t, rng=rng)
    # Edge ids refer to work_graph, which shares g's topology and edge
    # order (reweighting preserves both); answering queries with g's
    # original weights only shortens paths, so the composed guarantee is
    # stretch_bound * (1 + eps).
    spanner = res.subgraph(g)

    cc = CongestedClique(max(g.n, 1))
    # Each spanner edge is 3 words (u, v, w); everyone learns all of them.
    cc.charge_all_learn(3 * spanner.m, name="collect-spanner")
    total = res.extra["rounds"] + cc.rounds
    return CCApspResult(
        g=g,
        spanner=spanner,
        rounds=total,
        collection_rounds=cc.rounds,
        k=k,
        t=t,
        spanner_extra=res.extra,
        stretch_factor=eps_factor,
    )
