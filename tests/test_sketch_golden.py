"""Thorup–Zwick sketches, pinned bit for bit.

``GOLDEN`` holds sha256 digests of every array a :class:`DistanceSketch`
build produces: ``pivot``, ``pivot_dist`` and the bunch CSR
(``bunch_indptr``, ``bunch_centers``, ``bunch_dists``).  The digests were
recorded from the builder that relaxed every arc of the graph at every
hop, so the per-level arc pruning has to reproduce its output exactly.
The graph is ``gnm:2000:20000`` with unit, integer and uniform weights
(unit and integer weights make many tied distances), at ``k`` in
``{3, 5, 13}``; at the larger ``k`` the truncation bounds are small and
the pruning drops most arcs.

``python -m tests.test_sketch_golden`` prints the table for the current
tree.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.distances.sketches import DistanceSketch
from repro.graphs import gnm_random

WEIGHTS = ("unit", "integer", "uniform")
KS = (3, 5, 13)


def _digest(weights: str, k: int) -> str:
    g = gnm_random(2000, 20000, weights=weights, rng=41)
    sk = DistanceSketch(g, k, rng=43)
    h = hashlib.sha256()
    for arr in (
        sk.pivot,
        sk.pivot_dist,
        sk.bunch_indptr,
        sk.bunch_centers,
        sk.bunch_dists,
    ):
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


CASES = [f"{w}/k{k}" for w in WEIGHTS for k in KS]

GOLDEN = {
    "unit/k3": "505aa1480c45a7600f7fe15b0701f1a98b94acb64999af85d63eb0ac4a6d2800",
    "unit/k5": "44dc7cda30a85312de0041c82f340850150a5c44f17afd24062ea3fc63b43001",
    "unit/k13": "cf4a00e2d3fea6f417640a1a753f814e0c3ffe301b1eca026d0d64c7ef5f6327",
    "integer/k3": "076fc6e0b3b5a15906095b3a7115fe34333fd8430b2a7959f876c7774d1b6331",
    "integer/k5": "9174ab1d654c59ab2315a59eb46e617f0da5ccfb396f9ddcb4124627e878000e",
    "integer/k13": "50621c16cd187b4d829af7f0ed13a79d9ca9c4fe4e972316e354403ecc1f8f4e",
    "uniform/k3": "2a4f7dc3c00c058532ea616fd8ca0e06319075ad5b1f9306cf01a64d984a7630",
    "uniform/k5": "9c88ab55e75953cb4b3593b3df1a64bf98c199525e9d31bc24797f4e12dae95c",
    "uniform/k13": "b1e96446a5abe60f9e5561a84cf00c46a509cd743e572a319032f04c6beb4bdf",
}


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_sketch_matches_golden_digest(case):
    weights, k = case.split("/k")
    assert _digest(weights, int(k)) == GOLDEN[case]


if __name__ == "__main__":
    for case in CASES:
        weights, k = case.split("/k")
        print(f'    "{case}": "{_digest(weights, int(k))}",')
