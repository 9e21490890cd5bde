"""Versioned on-disk artifacts for built distance structures.

The paper's economics are *build once, query forever*: the expensive
parallel preprocessing (spanner construction, Thorup–Zwick bunches) runs
in a sweep, and the cheap query structures should then be loadable by any
serving process.  :class:`ArtifactStore` is that boundary — a directory of
self-contained artifacts, one per key::

    <root>/<key>/manifest.json       # format version, kind, metadata
    <root>/<key>/arrays/<name>.npy   # one raw aligned .npy per array

Arrays are stored as individual *uncompressed* ``.npy`` files (format
v2), so :meth:`ArtifactStore.load` defaults to handing back ``np.memmap``
views — opening an artifact costs page-table entries, not a copy, and
every process mapping the same artifact shares physical pages through
the OS page cache.  Pass
``mmap=False`` for the old eager, writable arrays.  Index arrays whose
values fit are downcast to int32 once, at save time (the serving layers
preserve the dtype end to end), halving the index footprint for every
graph with ``n < 2**31``.

Three artifact kinds:

``oracle``
    A built spanner graph plus its ``(k, t)`` parameters — everything a
    :class:`~repro.distances.oracle.SpannerDistanceOracle` replica needs
    (queries run Dijkstra *on the spanner*, so a reloaded oracle answers
    bit-identically to the freshly built one).
``sketch``
    The full Thorup–Zwick state of a
    :class:`~repro.distances.sketches.DistanceSketch`: hierarchy levels,
    pivot tables and the CSR bunch arrays, plus the (spanner) graph it was
    built on.  Reloading skips all preprocessing.
``bundle``
    All three answer paths side by side under one key: the *input* graph
    (exact Dijkstra rows), the built spanner + parameters (oracle rows),
    and the full sketch state (pivot walks) — loaded back as a
    :class:`~repro.service.provider.ProviderBundle` so one artifact
    serves ``exact``/``oracle``/``sketch``/``tiered`` and the planner can
    route between them (see :mod:`repro.service.provider`).
``graph``
    A bare :class:`~repro.graphs.graph.WeightedGraph` — the ingest path
    (``repro ingest``, :func:`~repro.graphs.io.read_edgelist_streaming`)
    lands real edge lists here, and a loaded graph serves exact rows
    through :class:`~repro.service.engine.QueryEngine` (shared-memory
    sharding included) or feeds a spanner/sketch build.

Keys default to a content hash of the artifact's build configuration
(:func:`config_key` — the same ``sha256(json)[:16]`` recipe as
:attr:`~repro.runner.plan.TrialSpec.trial_id`), so ``repro sweep
--persist`` output lands under the runner's own trial ids and a serving
process can resolve "the artifact for this configuration" without a
side channel.

Saves are atomic per artifact: the payload is written into a temporary
sibling directory and renamed into place, so a crashed writer never
leaves a half-written artifact behind a valid key.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..distances.oracle import SpannerDistanceOracle
from ..distances.sketches import DistanceSketch
from ..graphs.graph import WeightedGraph
from ..graphs.io import GRAPH_NPZ_VERSION

__all__ = ["ArtifactStore", "ArtifactInfo", "config_key", "STORE_FORMAT_VERSION"]

#: Manifest schema version; bumped on layout changes, and the only one
#: this build reads.  v2: raw per-array ``.npy`` files under ``arrays/``
#: (memmap-able) with index arrays downcast to int32 when their values fit.
STORE_FORMAT_VERSION = 2

_KINDS = ("oracle", "sketch", "bundle", "graph")
_MANIFEST = "manifest.json"
_ARRAYS_DIR = "arrays"

#: Arrays holding vertex ids / CSR offsets — eligible for the int32
#: downcast.  Float payloads and the format scalars are never touched.
#: ``sp_``/``sk_`` are the bundle kind's spanner/sketch namespaces.
_INDEX_ARRAYS = frozenset(
    {"u", "v", "levels_flat", "level_sizes", "pivot", "bunch_indptr", "bunch_centers"}
    | {"sp_u", "sp_v"}
    | {"sk_levels_flat", "sk_level_sizes", "sk_pivot", "sk_bunch_indptr",
       "sk_bunch_centers"}
)


def _downcast_index(arr: np.ndarray) -> np.ndarray:
    """int64 -> int32 when every value fits (the ``n < 2**31`` rule —
    endpoint/offset values are bounded by n and the arc count)."""
    if arr.dtype != np.int64 or arr.size == 0:
        return arr
    info = np.iinfo(np.int32)
    if int(arr.min()) < info.min or int(arr.max()) > info.max:
        return arr
    return arr.astype(np.int32, copy=False)


def _as_index(arr) -> np.ndarray:
    """Pass int32/int64 through untouched (no copy, memmaps preserved);
    normalize anything else to int64."""
    arr = np.asarray(arr)
    if arr.dtype in (np.int32, np.int64):
        return arr
    return arr.astype(np.int64, copy=False)


def config_key(config: dict) -> str:
    """Deterministic 16-hex-char content hash of a build configuration.

    Same recipe as the experiment runner's trial ids, so artifacts persisted
    by a sweep and artifacts resolved by the serving CLI agree on keys.
    """
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ArtifactInfo:
    """One store entry: key, kind, and the manifest metadata."""

    key: str
    kind: str
    meta: dict
    path: str


def _graph_payload(g: WeightedGraph) -> dict:
    return {
        "graph_version": np.int64(GRAPH_NPZ_VERSION),
        "n": np.int64(g.n),
        "u": g.edges_u,
        "v": g.edges_v,
        "w": g.edges_w,
    }


def _sketch_payload(sketch: DistanceSketch, *, prefix: str = "") -> dict:
    """The full Thorup–Zwick state as store arrays (``prefix`` namespaces
    the bundle kind's sketch arrays next to the graph/spanner payloads)."""
    return {
        f"{prefix}k": np.int64(sketch.k),
        f"{prefix}level_sizes": np.asarray(
            [lv.size for lv in sketch.levels], dtype=np.int64
        ),
        f"{prefix}levels_flat": (
            np.concatenate(sketch.levels)
            if sketch.levels
            else np.zeros(0, dtype=np.int64)
        ),
        f"{prefix}pivot": sketch.pivot,
        f"{prefix}pivot_dist": sketch.pivot_dist,
        f"{prefix}bunch_indptr": sketch.bunch_indptr,
        f"{prefix}bunch_centers": sketch.bunch_centers,
        f"{prefix}bunch_dists": sketch.bunch_dists,
    }


def _sketch_from_payload(g: WeightedGraph, data: dict, *, prefix: str = "") -> DistanceSketch:
    sizes = np.asarray(data[f"{prefix}level_sizes"])
    flat = _as_index(data[f"{prefix}levels_flat"])
    bounds = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    levels = [flat[bounds[i] : bounds[i + 1]] for i in range(sizes.size)]
    return DistanceSketch.from_arrays(
        g,
        int(data[f"{prefix}k"]),
        levels,
        data[f"{prefix}pivot"],
        data[f"{prefix}pivot_dist"],
        data[f"{prefix}bunch_indptr"],
        data[f"{prefix}bunch_centers"],
        data[f"{prefix}bunch_dists"],
    )


def _graph_from_payload(data) -> WeightedGraph:
    # Saved arrays are already canonical (they came out of a WeightedGraph),
    # so adopt them without the dedupe sort/copy; int32 artifacts stay
    # int32, and memmap-backed views stay memmaps (copy=False throughout).
    return WeightedGraph.from_canonical(
        int(data["n"]),
        _as_index(data["u"]),
        _as_index(data["v"]),
        np.asarray(data["w"]).astype(np.float64, copy=False),
    )


class ArtifactStore:
    """A directory of versioned, self-contained query-structure artifacts."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Listing / lookup
    # ------------------------------------------------------------------
    def _dir(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"bad artifact key {key!r}")
        return self.root / key

    def __contains__(self, key: str) -> bool:
        try:
            return (self._dir(key) / _MANIFEST).is_file()
        except ValueError:
            return False

    def keys(self) -> list[str]:
        """Sorted keys of every complete artifact in the store."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name
            for p in self.root.iterdir()
            # Dot-prefixed names are in-flight/stale ``.tmp-*`` scratch
            # directories (a crashed writer can leave one holding a
            # manifest), never loadable artifacts.
            if p.is_dir() and not p.name.startswith(".") and (p / _MANIFEST).is_file()
        )

    def info(self, key: str) -> ArtifactInfo:
        """Manifest of one artifact (raises ``KeyError`` when absent)."""
        path = self._dir(key)
        manifest_path = path / _MANIFEST
        if not manifest_path.is_file():
            raise KeyError(f"no artifact {key!r} under {self.root}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"{manifest_path}: unreadable manifest: {exc}") from exc
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise ValueError(
                f"{manifest_path}: format_version {version!r} unsupported "
                f"(this build reads v{STORE_FORMAT_VERSION})"
            )
        kind = manifest.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"{manifest_path}: unknown artifact kind {kind!r}")
        return ArtifactInfo(
            key=key, kind=kind, meta=dict(manifest.get("meta", {})), path=str(path)
        )

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def _write(self, key: str, kind: str, arrays: dict, meta: dict) -> str:
        target = self._dir(key)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / f".tmp-{key}-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        try:
            adir = tmp / _ARRAYS_DIR
            adir.mkdir()
            names = []
            for name, value in arrays.items():
                arr = np.asarray(value)
                if name in _INDEX_ARRAYS:
                    arr = _downcast_index(arr)
                np.save(adir / f"{name}.npy", arr)
                names.append(name)
            manifest = {
                "format_version": STORE_FORMAT_VERSION,
                "kind": kind,
                "key": key,
                "meta": meta,
                "arrays": _ARRAYS_DIR,
                "array_names": sorted(names),
            }
            (tmp / _MANIFEST).write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            )
            if target.exists():
                shutil.rmtree(target)
            tmp.replace(target)
        finally:
            if tmp.exists():  # pragma: no cover - crash-path cleanup
                shutil.rmtree(tmp, ignore_errors=True)
        return key

    def save_spanner(
        self,
        spanner: WeightedGraph,
        *,
        k: int,
        t: int | None = None,
        t_effective: int | None = None,
        key: str | None = None,
        meta: dict | None = None,
    ) -> str:
        """Persist a built spanner as an ``oracle`` artifact; returns the key."""
        meta = dict(meta or {})
        meta.update(
            {
                "k": int(k),
                "t": None if t is None else int(t),
                "t_effective": int(t_effective if t_effective is not None else (t or k)),
                "n": spanner.n,
                "spanner_edges": spanner.m,
            }
        )
        if key is None:
            key = config_key({"kind": "oracle", **{k_: meta[k_] for k_ in sorted(meta)}})
        return self._write(key, "oracle", _graph_payload(spanner), meta)

    def save_oracle(
        self,
        oracle: SpannerDistanceOracle,
        *,
        key: str | None = None,
        meta: dict | None = None,
    ) -> str:
        """Persist the serving state of a built oracle; returns the key."""
        return self.save_spanner(
            oracle.spanner,
            k=oracle.k,
            t=oracle.t,
            t_effective=oracle.t_effective,
            key=key,
            meta=meta,
        )

    def save_graph(
        self,
        g: WeightedGraph,
        *,
        key: str | None = None,
        meta: dict | None = None,
    ) -> str:
        """Persist a bare graph as a ``graph`` artifact; returns the key.

        This is the ingest landing zone: edge arrays only (int32-downcast
        where values fit, memmap-served on load), so a million-node road
        network persists once and every serving process maps it lazily.
        """
        meta = dict(meta or {})
        meta.update({"n": g.n, "graph_edges": g.m})
        if key is None:
            key = config_key({"kind": "graph", **{k_: meta[k_] for k_ in sorted(meta)}})
        return self._write(key, "graph", _graph_payload(g), meta)

    def save_sketch(
        self,
        sketch: DistanceSketch,
        *,
        key: str | None = None,
        meta: dict | None = None,
    ) -> str:
        """Persist the full Thorup–Zwick state; returns the key."""
        meta = dict(meta or {})
        meta.update(
            {
                "k": sketch.k,
                "n": sketch.g.n,
                "sketch_words": sketch.size_words,
            }
        )
        arrays = _graph_payload(sketch.g)
        arrays.update(_sketch_payload(sketch))
        if key is None:
            key = config_key({"kind": "sketch", **{k_: meta[k_] for k_ in sorted(meta)}})
        return self._write(key, "sketch", arrays, meta)

    def save_bundle(
        self,
        g: WeightedGraph,
        spanner: WeightedGraph,
        sketch: DistanceSketch,
        *,
        k: int,
        t: int | None = None,
        t_effective: int | None = None,
        key: str | None = None,
        meta: dict | None = None,
    ) -> str:
        """Persist all three answer paths under one key; returns the key.

        ``g`` is the input graph (exact rows), ``spanner`` the built
        spanner with its ``(k, t)`` parameters (oracle rows), ``sketch``
        a :class:`DistanceSketch` built on ``g`` (pivot walks answer with
        their own ``2 k_sketch - 1`` bound).
        """
        if spanner.n != g.n or sketch.g.n != g.n:
            raise ValueError("bundle parts must span the same vertex set")
        meta = dict(meta or {})
        meta.update(
            {
                "k": int(k),
                "t": None if t is None else int(t),
                "t_effective": int(t_effective if t_effective is not None else (t or k)),
                "n": g.n,
                "graph_edges": g.m,
                "spanner_edges": spanner.m,
                "sketch_k": sketch.k,
                "sketch_words": sketch.size_words,
            }
        )
        arrays = _graph_payload(g)
        arrays.update({"sp_u": spanner.edges_u, "sp_v": spanner.edges_v,
                       "sp_w": spanner.edges_w})
        arrays.update(_sketch_payload(sketch, prefix="sk_"))
        if key is None:
            key = config_key({"kind": "bundle", **{k_: meta[k_] for k_ in sorted(meta)}})
        return self._write(key, "bundle", arrays, meta)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _read_arrays(self, info: ArtifactInfo, *, mmap: bool) -> dict:
        """The artifact's array payload as a name -> array dict.

        Arrays come back as lazy ``np.memmap`` views when ``mmap`` (one
        physical copy across all loading processes, courtesy of the page
        cache).
        """
        path = Path(info.path)
        mode = "r" if mmap else None
        return {
            p.stem: np.load(p, mmap_mode=mode)
            for p in sorted((path / _ARRAYS_DIR).glob("*.npy"))
        }

    def load(self, key: str, *, cache_rows: int | None = None, mmap: bool = True):
        """Reconstruct the query structure behind ``key``.

        Returns a :class:`SpannerDistanceOracle` (``oracle`` artifacts),
        a :class:`DistanceSketch` (``sketch`` artifacts), a
        :class:`~repro.service.provider.ProviderBundle` (``bundle``
        artifacts) or a bare :class:`WeightedGraph` (``graph``
        artifacts); all answer queries bit-identically to the objects
        that were saved.

        With ``mmap=True`` (default) the arrays are read-only memmap views
        over the artifact files — loading is lazy and N serving processes
        share one physical copy.  ``mmap=False`` materializes private,
        writable arrays (the old eager behaviour).
        """
        info = self.info(key)
        data = self._read_arrays(info, mmap=mmap)
        g = _graph_from_payload(data)
        if info.kind == "graph":
            return g
        if info.kind == "oracle":
            kwargs = {}
            if cache_rows is not None:
                kwargs["cache_rows"] = cache_rows
            t = info.meta.get("t")
            return SpannerDistanceOracle.from_spanner(
                g,
                int(info.meta["k"]),
                None if t is None else int(t),
                t_effective=int(info.meta["t_effective"]),
                **kwargs,
            )
        if info.kind == "bundle":
            from .provider import ProviderBundle

            spanner = WeightedGraph.from_canonical(
                g.n,
                _as_index(data["sp_u"]),
                _as_index(data["sp_v"]),
                np.asarray(data["sp_w"]).astype(np.float64, copy=False),
            )
            t = info.meta.get("t")
            return ProviderBundle(
                graph=g,
                spanner=spanner,
                k=int(info.meta["k"]),
                t=None if t is None else int(t),
                t_effective=int(info.meta["t_effective"]),
                sketch=_sketch_from_payload(g, data, prefix="sk_"),
                meta=dict(info.meta),
            )
        return _sketch_from_payload(g, data)

    def load_oracle(self, key: str, *, cache_rows: int | None = None, mmap: bool = True):
        obj = self.load(key, cache_rows=cache_rows, mmap=mmap)
        if not isinstance(obj, SpannerDistanceOracle):
            raise ValueError(f"artifact {key!r} is a {self.info(key).kind}, not an oracle")
        return obj

    def load_graph(self, key: str, *, mmap: bool = True) -> WeightedGraph:
        obj = self.load(key, mmap=mmap)
        if not isinstance(obj, WeightedGraph):
            raise ValueError(f"artifact {key!r} is a {self.info(key).kind}, not a graph")
        return obj

    def load_sketch(self, key: str, *, mmap: bool = True):
        obj = self.load(key, mmap=mmap)
        if not isinstance(obj, DistanceSketch):
            raise ValueError(f"artifact {key!r} is a {self.info(key).kind}, not a sketch")
        return obj

    def load_bundle(self, key: str, *, mmap: bool = True):
        from .provider import ProviderBundle

        obj = self.load(key, mmap=mmap)
        if not isinstance(obj, ProviderBundle):
            raise ValueError(f"artifact {key!r} is a {self.info(key).kind}, not a bundle")
        return obj

    def delete(self, key: str) -> None:
        path = self._dir(key)
        if path.exists():
            shutil.rmtree(path)
