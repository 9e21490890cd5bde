"""Result records shared by every spanner algorithm.

All algorithms return a :class:`SpannerResult`: the chosen edge ids of the
*original* input graph plus enough instrumentation (per-iteration cluster
counts, per-epoch radii, simulated round counts when applicable) to
regenerate the paper's tables.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..graphs.graph import WeightedGraph

__all__ = [
    "IterationStats",
    "MPCRunStats",
    "StreamStats",
    "RoundStats",
    "SpannerResult",
]


class _JsonStats:
    """Shared JSON round-trip for the typed instrumentation records (a
    mixin for dataclasses)."""

    def to_json(self) -> dict:
        """Plain-dict form, the exact value stored in ``SpannerResult.extra``."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "_JsonStats":
        """Rebuild from :meth:`to_json` output; unknown keys are ignored so
        older snapshots stay loadable as the schema grows."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class MPCRunStats(_JsonStats):
    """Measured MPC-simulator accounting for one run (the typed form of the
    ``extra['mpc']`` payload produced by :func:`repro.mpc_impl.spanner_mpc`)."""

    rounds: int = 0
    primitive_calls: int = 0
    total_messages: int = 0
    peak_machine_load: int = 0
    num_machines: int = 0
    machine_memory: int = 0
    gamma: float = 0.0


@dataclass
class StreamStats(_JsonStats):
    """Streaming-pass accounting (the typed form of ``extra['stream']``).

    Mutable: an :class:`~repro.streaming.stream.EdgeStream` accumulates
    into one as it replays its passes.
    """

    passes: int = 0
    peak_working_records: int = 0
    per_pass_working: list[int] = field(default_factory=list)
    edges_streamed: int = 0

    def record_pass(self, working_records: int) -> None:
        self.passes += 1
        self.peak_working_records = max(self.peak_working_records, working_records)
        self.per_pass_working.append(working_records)


@dataclass(frozen=True)
class RoundStats(_JsonStats):
    """Simulated round count shared by every distributed model (the typed
    form of the scalar ``extra['rounds']``)."""

    rounds: int = 0
    collection_rounds: int = 0

    @property
    def total(self) -> int:
        return self.rounds + self.collection_rounds


@dataclass(frozen=True)
class IterationStats:
    """Instrumentation for one Baswana–Sen-style iteration.

    Attributes
    ----------
    epoch, iteration:
        1-based indices (iteration within the epoch).
    num_clusters:
        Alive clusters *before* this iteration's sampling.
    num_sampled:
        Clusters surviving the sampling step.
    num_alive_edges:
        Unprocessed edges before the iteration.
    num_added:
        Spanner edges added during the iteration.
    sampling_probability:
        The ``p`` used.
    max_radius_bound:
        Upper bound on the weighted-stretch radius of any cluster after the
        iteration (tracked via the Lemma 5.8 recurrence, not by measuring
        trees — see DESIGN.md).
    """

    epoch: int
    iteration: int
    num_clusters: int
    num_sampled: int
    num_alive_edges: int
    num_added: int
    sampling_probability: float
    max_radius_bound: float


@dataclass
class SpannerResult:
    """Output of a spanner construction.

    Attributes
    ----------
    edge_ids:
        Sorted unique ids into the input graph's edge arrays.
    algorithm:
        Human-readable algorithm name.
    k, t:
        The stretch parameter and growth parameter used (``t`` may be None
        for algorithms without one).
    iterations:
        Logical Baswana–Sen-style iteration count actually executed (the
        quantity the paper's round bounds are about, before the ``O(1/γ)``
        MPC factor).
    stats:
        Per-iteration instrumentation.
    phase2_added:
        Edges added by the final clean-up phase.
    extra:
        Algorithm-specific extras (e.g. simulated MPC rounds).
    """

    edge_ids: np.ndarray
    algorithm: str
    k: int
    t: int | None
    iterations: int
    stats: list[IterationStats] = field(default_factory=list)
    phase2_added: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def num_edges(self) -> int:
        """Spanner size in edges."""
        return int(self.edge_ids.size)

    def subgraph(self, g: WeightedGraph) -> WeightedGraph:
        """Materialize the spanner as a :class:`WeightedGraph` over ``g``."""
        return g.subgraph_from_edge_ids(self.edge_ids)

    def epochs_executed(self) -> int:
        """Number of distinct epochs that ran."""
        return len({s.epoch for s in self.stats})

    def cluster_trajectory(self) -> list[tuple[int, int, int]]:
        """``(epoch, iteration, num_clusters)`` rows — the Lemma 4.12 / 5.12
        decay data."""
        return [(s.epoch, s.iteration, s.num_clusters) for s in self.stats]

    # -- typed views over ``extra`` ----------------------------------------
    #
    # The instrumentation dataclasses serialize *into* ``extra`` (as the
    # same plain dicts the models always stored), so every existing
    # ``res.extra["mpc"]`` / ``res.extra["stream"]`` / ``res.extra["rounds"]``
    # consumer keeps working while new code reads and writes typed records.

    @property
    def mpc_stats(self) -> MPCRunStats | None:
        """Typed view of ``extra['mpc']`` (None when the run had no MPC
        accounting)."""
        data = self.extra.get("mpc")
        return MPCRunStats.from_json(data) if data is not None else None

    @mpc_stats.setter
    def mpc_stats(self, stats: MPCRunStats) -> None:
        self.extra["mpc"] = stats.to_json()

    @property
    def stream_stats(self) -> StreamStats | None:
        """Typed view of ``extra['stream']``."""
        data = self.extra.get("stream")
        return StreamStats.from_json(data) if data is not None else None

    @stream_stats.setter
    def stream_stats(self, stats: StreamStats) -> None:
        self.extra["stream"] = stats.to_json()

    @property
    def round_stats(self) -> RoundStats | None:
        """Typed view of the simulated round count (``extra['rounds']``,
        plus ``extra['collection_rounds']`` when a pipeline recorded one)."""
        rounds = self.extra.get("rounds")
        if rounds is None:
            return None
        return RoundStats(
            rounds=int(rounds),
            collection_rounds=int(self.extra.get("collection_rounds", 0)),
        )

    @round_stats.setter
    def round_stats(self, stats: RoundStats) -> None:
        self.extra["rounds"] = stats.rounds
        if stats.collection_rounds:
            self.extra["collection_rounds"] = stats.collection_rounds

    def to_record(self) -> dict:
        """Flatten into one row for tabular output (CSV / sweep results).

        Scalar ``extra`` entries appear under their own key; dict entries
        are flattened one level with a ``<key>_`` prefix; nested lists and
        arrays (per-pass traces, forests) are dropped — records are for
        tables, full fidelity stays on the result object.
        """
        record: dict = {
            "algorithm": self.algorithm,
            "k": self.k,
            "t": self.t,
            "iterations": self.iterations,
            "epochs": self.epochs_executed(),
            "num_edges": self.num_edges,
            "phase2_added": self.phase2_added,
        }

        def scalar(value):
            if isinstance(value, (bool, int, float, str)) or value is None:
                return True
            return isinstance(value, np.generic)

        for key, value in self.extra.items():
            if isinstance(value, dict):
                for sub, sval in value.items():
                    if scalar(sval):
                        record[f"{key}_{sub}"] = sval
            elif scalar(value):
                record[key] = value
        return record
