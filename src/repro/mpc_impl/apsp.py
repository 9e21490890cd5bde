"""Corollary 1.4: APSP approximation in near-linear-memory MPC.

The pipeline (Section 7):

1. build a spanner with ``k = log2 n`` and ``t = log2 log2 n`` under MPC
   accounting (:func:`repro.mpc_impl.spanner_mpc.spanner_mpc`) — size
   ``O(n log log n)``, stretch ``O(log^{1+o(1)} n)``, in
   ``O(t log log n / log(t+1))`` iterations each worth ``O(1/γ)`` rounds;
2. collect the spanner onto one machine — legal because the near-linear
   regime gives machines ``Õ(n)`` words and the spanner fits; costs
   ``O(ceil(size / n))`` extra rounds (all-to-one routing at full machine
   bandwidth);
3. answer all queries locally on that machine.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.params import apsp_parameters, stretch_bound
from ..graphs.distances import apsp, sssp
from ..graphs.graph import WeightedGraph
from .spanner_mpc import spanner_mpc

__all__ = ["MPCApspResult", "apsp_mpc"]


class MPCApspResult:
    """Outcome of the MPC APSP pipeline.

    Attributes
    ----------
    spanner:
        The collected spanner (what the designated machine holds).
    rounds:
        Total simulated rounds: spanner construction + collection.
    collection_rounds:
        The ``ceil(spanner_size / machine_memory-ish)`` collection charge.
    k, t:
        Parameters used.
    """

    def __init__(
        self,
        g: WeightedGraph,
        spanner: WeightedGraph,
        rounds: int,
        collection_rounds: int,
        k: int,
        t: int,
        construction_extra: dict,
    ) -> None:
        self.g = g
        self.spanner = spanner
        self.rounds = rounds
        self.collection_rounds = collection_rounds
        self.k = k
        self.t = t
        self.construction_extra = construction_extra

    @property
    def guaranteed_stretch(self) -> float:
        return stretch_bound(self.k, min(self.t, max(self.k - 1, 1)))

    def distances_from(self, source: int) -> np.ndarray:
        return sssp(self.spanner, source)

    def all_pairs(self) -> np.ndarray:
        return apsp(self.spanner)


def apsp_mpc(
    g: WeightedGraph,
    *,
    k: int | None = None,
    t: int | None = None,
    rng=None,
    memory_constant: float = 64.0,
) -> MPCApspResult:
    """Run the Corollary 1.4 pipeline under MPC accounting.

    The near-linear regime is modeled as ``γ = 1`` (machines hold
    ``O(n)`` words) for the collection step; the spanner construction
    itself runs in the strongly sublinear regime exactly as Theorem 1.1
    requires.
    """
    dk, dt = apsp_parameters(g.n)
    k = k if k is not None else dk
    t = t if t is not None else dt

    res = spanner_mpc(g, k, t, rng=rng, memory_constant=memory_constant)
    spanner = res.subgraph(g)

    # Collection: a machine with Õ(n) words receives the whole spanner; per
    # round it can receive O(n) words, so ceil(size/n) rounds.
    machine_words = max(g.n, 1)
    collection_rounds = max(1, math.ceil(spanner.m / machine_words))
    total = res.extra["rounds"] + collection_rounds
    return MPCApspResult(
        g=g,
        spanner=spanner,
        rounds=total,
        collection_rounds=collection_rounds,
        k=k,
        t=t,
        construction_extra=res.extra,
    )
