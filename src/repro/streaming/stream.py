"""Multi-pass edge-stream substrate.

Section 2.4 of the paper compares its contraction framework against
contraction-based *dynamic stream* spanner algorithms ([AGM12]): "a pass
corresponds to one round of communication in MPC".  This module provides
the pass-accounting machinery: an :class:`EdgeStream` that replays a
graph's edges in a fixed arbitrary order, chunk by chunk, counting passes;
and a :class:`StreamStats` record of passes and peak per-pass working
memory.

The cross-pass state an algorithm may keep must be ``O(n)``-ish (cluster
labels); the per-pass working set (e.g. running group minima) is measured
and reported rather than enforced — the sketching machinery that squeezes
it into ``O(n^{1+1/k})`` in the dynamic-stream literature is out of scope
and documented as a substitution in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from ..core import membudget
from ..core.params import coerce_rng
from ..core.results import StreamStats
from ..graphs.graph import WeightedGraph

__all__ = ["EdgeStream"]

# Per-edge working cost of one streamed chunk: the four yielded arrays
# (u, v, w, eid — 8 bytes each) plus a comparable allowance for the
# consumer's fold scratch (group keys, minima, masks).
_EDGE_BYTES = 64


class EdgeStream:
    """Replays a graph's edge list in a fixed pseudo-random order.

    Parameters
    ----------
    g:
        The underlying graph.
    chunk:
        Edges yielded per chunk (models the stream buffer).  ``None``
        (the default) autotunes through the memory budget resolver
        (:mod:`repro.core.membudget`); passing an explicit chunk pins the
        historical fixed-size behaviour.
    order_seed:
        Seed for the arbitrary-but-fixed stream order; the same stream
        must present edges in the same order on every pass.
    """

    def __init__(
        self, g: WeightedGraph, *, chunk: int | None = None, order_seed: int = 0
    ) -> None:
        if chunk is None:
            chunk = membudget.chunk_edges(entry_bytes=_EDGE_BYTES)
        if chunk < 1:
            raise ValueError("chunk must be positive")
        self.g = g
        self.chunk = chunk
        rng = coerce_rng(order_seed)
        self._order = rng.permutation(g.m)
        self.stats = StreamStats()

    def __len__(self) -> int:
        return self.g.m

    def passes_chunked(self, chunk_size: int | None = None):
        """Yield ``(u, v, w, eid)`` chunk arrays for one full pass.

        This is the primary pass API: each yield hands the consumer a whole
        chunk of edges as numpy arrays, so per-pass work is O(chunk) array
        operations rather than O(m) Python iterations.  ``chunk_size``
        overrides the stream's configured chunk for this pass only (the
        stream order is unchanged — only the batching granularity moves).

        Callers iterate this once per pass; pass accounting happens via
        :meth:`end_pass` so the caller can report its working-set size.
        """
        if chunk_size is None:
            chunk_size = self.chunk
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        g = self.g
        membudget.note(
            "streaming.EdgeStream.passes_chunked",
            min(chunk_size, self._order.size) * _EDGE_BYTES,
        )
        for start in range(0, self._order.size, chunk_size):
            idx = self._order[start : start + chunk_size]
            self.stats.edges_streamed += idx.size
            yield g.edges_u[idx], g.edges_v[idx], g.edges_w[idx], idx
        if self._order.size == 0:
            return

    def passes(self, chunk_size: int | None = None):
        """Compatibility alias for :meth:`passes_chunked`.

        Kept so existing callers (and the pass-count accounting contract:
        one :meth:`end_pass` per full iteration) are untouched.
        """
        yield from self.passes_chunked(chunk_size)

    def end_pass(self, working_records: int) -> None:
        """Close the books on one pass."""
        self.stats.record_pass(int(working_records))
