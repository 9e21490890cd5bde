"""Smoke tests: every example script must run clean and print its story.

These execute the real scripts in subprocesses (the same way a user runs
them), so they catch API drift between the library and the documentation
surface.  The slowest scripts are exercised once with a generous timeout.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr}"
    return proc.stdout


@pytest.mark.slow
def test_quickstart():
    out = _run("quickstart.py")
    assert "spanner:" in out and "stretch:" in out and "oracle" in out


@pytest.mark.slow
def test_tradeoff_explorer():
    out = _run("tradeoff_explorer.py")
    assert "closed-form" in out


@pytest.mark.slow
def test_mpc_cluster_simulation():
    out = _run("mpc_cluster_simulation.py")
    assert "machines" in out and "APSP pipeline" in out


@pytest.mark.slow
def test_congested_clique_apsp():
    out = _run("congested_clique_apsp.py")
    assert "Theorem 8.1" in out and "approximation" in out


@pytest.mark.slow
def test_road_network_oracle():
    out = _run("road_network_oracle.py")
    assert "oracle spanner" in out


@pytest.mark.slow
def test_social_network_distances():
    out = _run("social_network_distances.py")
    assert "Baswana" in out and "Takeaway" in out


@pytest.mark.slow
def test_sketches_and_streaming():
    out = _run("sketches_and_streaming.py")
    assert "Thorup" in out and "Streaming" in out
