"""Reusable randomized scenario generators — one vocabulary for the suite.

The property tests (hypothesis) and the certification subsystem both need
"a random scenario": a graph (either as a built :class:`WeightedGraph` or
as a ``family:args`` spec string), a stretch parameter ``k``, an optional
growth parameter ``t``, a weight model, and a seed.  This module is the
single home for those generators, so a new scenario family added here is
automatically exercised by every consumer.

Strategies
----------
``random_graph``
    An arbitrary simple weighted/unweighted graph (direct edge sampling —
    covers degenerate shapes no generator family produces).
``mixed_weight_graph``
    A ``random_graph`` with uniform, unit or {1, 2} weights (ties).
``graph_spec_strings``
    A canonical graph-spec string drawn across the generator families the
    runner/certifier vocabulary exposes (small sizes, always buildable).
``spanner_ks`` / ``growth_ts`` / ``seeds`` / ``weight_models``
    The parameter axes.
``scenarios``
    A full (graph_spec, k, t, weights, seed) scenario tuple.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from repro.graphs import WeightedGraph
from repro.graphs.specs import GraphSpec

__all__ = [
    "random_graph",
    "mixed_weight_graph",
    "graph_spec_strings",
    "spanner_ks",
    "growth_ts",
    "seeds",
    "weight_models",
    "scenarios",
]

#: Weight models every generator family accepts.
weight_models = st.sampled_from(["unit", "uniform", "exponential"])

#: The stretch parameter range the small-n guarantees are checked at.
spanner_ks = st.integers(min_value=2, max_value=8)

#: The growth parameter range (``None`` = paper default).
growth_ts = st.one_of(st.none(), st.integers(min_value=1, max_value=4))

#: RNG seeds.
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def random_graph(draw, max_n: int = 40, max_m: int = 160, weighted: bool = True):
    """An arbitrary simple graph via direct edge sampling.

    Unlike :func:`graph_spec_strings`, this covers degenerate shapes (empty
    edge sets, isolated vertices, disconnected scatters) that no generator
    family produces — keep both in play.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=min(max_m, n * (n - 1) // 2)))
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    max_pairs = n * (n - 1) // 2
    codes = rng.choice(max_pairs, size=m, replace=False) if m else np.zeros(0, np.int64)
    us, vs = [], []
    for c in codes:
        # decode triangular index
        u = int(n - 2 - math.floor(math.sqrt(-8 * c + 4 * n * (n - 1) - 7) / 2 - 0.5))
        v = int(c + u + 1 - n * (n - 1) // 2 + (n - u) * ((n - u) - 1) // 2)
        us.append(u)
        vs.append(v)
    if weighted:
        w = rng.uniform(0.5, 50.0, size=m)
    else:
        w = np.ones(m)
    return WeightedGraph(n, np.asarray(us, np.int64), np.asarray(vs, np.int64), w)


@st.composite
def mixed_weight_graph(draw, max_n: int = 30, max_m: int = 90):
    """A :func:`random_graph` with uniform weights, unit weights, or
    weights in {1, 2} (many ties); it also yields ``m == 0``, isolated
    vertices and disconnected scatters."""
    model = draw(st.sampled_from(["uniform", "unit", "ties"]))
    g = draw(random_graph(max_n=max_n, max_m=max_m, weighted=model == "uniform"))
    if model == "ties" and g.m:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w = rng.integers(1, 3, size=g.m).astype(np.float64)
        g = WeightedGraph(g.n, g.edges_u, g.edges_v, w)
    return g


@st.composite
def graph_spec_strings(draw, max_n: int = 48) -> str:
    """A canonical ``family:args`` spec string, small enough to build and
    certify inside a property test.

    Spans every generator regime the conformance matrix distinguishes:
    random (``er``/``gnm``), skewed (``ba``), geometric (``geo``),
    high-girth lattices (``grid``/``torus``), cluster-structured
    (``cliques``), dense (``complete``), and the degenerate named shapes.
    """
    family = draw(
        st.sampled_from(
            [
                "er",
                "gnm",
                "ba",
                "geo",
                "grid",
                "torus",
                "cliques",
                "complete",
                "cycle",
                "double-cycle",
                "path",
                "star",
                "tree",
            ]
        )
    )
    if family == "er":
        n = draw(st.integers(4, max_n))
        p = draw(st.floats(0.05, 0.5))
        text = f"er:{n}:{round(p, 3)}"
    elif family == "gnm":
        n = draw(st.integers(4, max_n))
        m = draw(st.integers(0, min(4 * n, n * (n - 1) // 2)))
        text = f"gnm:{n}:{m}"
    elif family == "ba":
        n = draw(st.integers(6, max_n))
        attach = draw(st.integers(1, 3))
        text = f"ba:{n}:{attach}"
    elif family == "geo":
        n = draw(st.integers(4, max_n))
        radius = draw(st.floats(0.15, 0.6))
        text = f"geo:{n}:{round(radius, 3)}"
    elif family in ("grid", "torus"):
        rows = draw(st.integers(2, 7))
        cols = draw(st.integers(2, 7))
        text = f"{family}:{rows}:{cols}"
    elif family == "cliques":
        num = draw(st.integers(3, 6))
        size = draw(st.integers(2, 6))
        text = f"cliques:{num}:{size}"
    elif family == "complete":
        text = f"complete:{draw(st.integers(3, 24))}"
    elif family == "cycle":
        text = f"cycle:{draw(st.integers(3, max_n))}"
    elif family == "double-cycle":
        # The generator requires an even n >= 6 (two disjoint n/2-cycles).
        text = f"double-cycle:{2 * draw(st.integers(3, max(3, max_n // 2)))}"
    else:  # path, star, tree
        text = f"{family}:{draw(st.integers(2, max_n))}"
    # Canonicalize (and assert the vocabulary stays parseable).
    return GraphSpec.parse(text).format()


@st.composite
def scenarios(draw, max_n: int = 48):
    """A full scenario: ``(graph_spec, k, t, weights, seed)``.

    The same vocabulary the certifier's :class:`repro.runner.TrialSpec`
    speaks, so a hypothesis counterexample is directly replayable as
    ``repro verify --algorithm A --graph <spec> -k <k> --seed <seed>``.
    """
    return (
        draw(graph_spec_strings(max_n=max_n)),
        draw(spanner_ks),
        draw(growth_ts),
        draw(weight_models),
        draw(st.integers(0, 10**6)),
    )
