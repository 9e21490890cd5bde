"""Percentiles, spreads and the environment block of a benchmark record."""

from __future__ import annotations

import math
import os
import platform
import statistics
from pathlib import Path


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100).

    A failed or refused request is passed in as ``math.inf``: it sorts
    above every measured latency, so it counts as missing any limit, and
    nearest-rank never interpolates with it (which would give ``nan``).
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def _windows(count: int, size: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` bounds of consecutive windows of about ``size`` items
    (one window when there are fewer than ``2 * size``)."""
    parts = max(1, count // size)
    bounds = [round(i * count / parts) for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def window_percentiles(values, q: float, size: int) -> list[float]:
    """Each consecutive window's ``q``-th percentile."""
    values = list(values)
    return [percentile(values[lo:hi], q) for lo, hi in _windows(len(values), size)]


def best_window(values, q: float, size: int) -> float:
    """Lowest ``q``-th percentile among consecutive windows of about
    ``size`` values.

    The host of a shared VM takes its vCPUs away for milliseconds at a
    time, in bursts that come and go over seconds; a window it left alone
    shows the program's own latency.  A change that shifts every window
    moves this figure fully, like the best of repeated timings.
    """
    return min(window_percentiles(values, q, size))


def window_rates(times, size: int) -> list[float]:
    """Events per second in consecutive windows of about ``size`` events;
    ``times`` are seconds since the phase started."""
    times = sorted(times)
    rates = []
    for lo, hi in _windows(len(times), size):
        start = times[lo - 1] if lo else 0.0
        rates.append((hi - lo) / (times[hi - 1] - start))
    return rates


def spread(values) -> dict:
    """Median, quartiles and (q3 - q1) / median, as ``statistics`` gives them."""
    values = list(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else math.inf,
    }


def _git_sha(root: Path) -> str | None:
    """HEAD's commit id read from ``.git`` files (no subprocess), if any."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    """Where a record came from: code, interpreter, libraries, machine."""
    import numpy
    import scipy

    from repro.core import membudget

    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_budget_bytes": membudget.resolve_budget(),
        "seed": seed,
    }
