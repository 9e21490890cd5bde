"""Persist-then-serve query subsystem (the ROADMAP serving layer).

Build once (``repro sweep --persist`` or the serving CLI's ``--build``),
persist the query structures as versioned artifacts
(:class:`~repro.service.store.ArtifactStore`), then serve distance
queries from any process via :class:`~repro.service.engine.QueryEngine`
— with a bounded LRU row cache, batched query planning, and optional
process-pool sharding.  ``repro query`` / ``repro serve`` are the CLI
front ends.

:mod:`~repro.service.provider` unifies the three answer paths (exact
rows, oracle rows, sketch walks) behind the :class:`DistanceProvider`
protocol; ``bundle`` artifacts persist all three side by side and
:class:`PlannedProvider` picks the provider that answers each batch from
a declarative :class:`PlanTarget` (fixed backend, stretch cap, or
latency SLO).  The planner answers nothing itself, so each call is
checked and counted once, by the provider that answers it.
"""

from .engine import QueryEngine
from .provider import (
    BACKENDS,
    DistanceProvider,
    PlannedProvider,
    PlanTarget,
    ProviderBundle,
    RowProvider,
    SketchProvider,
    TieredProvider,
    build_providers,
)
from .server import AsyncClient, QueryServer, run_server, serve_pipe
from .shm import SharedGraphBuffers
from .store import ArtifactInfo, ArtifactStore, STORE_FORMAT_VERSION, config_key

__all__ = [
    "ArtifactInfo",
    "ArtifactStore",
    "AsyncClient",
    "BACKENDS",
    "DistanceProvider",
    "PlanTarget",
    "PlannedProvider",
    "ProviderBundle",
    "QueryEngine",
    "QueryServer",
    "RowProvider",
    "SharedGraphBuffers",
    "SketchProvider",
    "STORE_FORMAT_VERSION",
    "TieredProvider",
    "build_providers",
    "config_key",
    "run_server",
    "serve_pipe",
]
