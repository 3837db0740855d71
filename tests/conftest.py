"""Fixtures shared by the test modules."""

import concurrent.futures
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import mwnoise
from mwnoise import spin_simulator


@pytest.fixture(scope="session")
def child_env():
    """This process's environment with PYTHONPATH led by the directory this
    ``mwnoise`` was imported from, so a child interpreter imports the same
    package.  One dict serves the session: copy it before changing it."""
    src = str(Path(mwnoise.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def force_lanes(monkeypatch):
    """``force_lanes(cap, cpus=64)``: let every lane pool of
    :func:`mwnoise.spin_simulator._lanes` use up to ``cap`` threads on a host
    of ``cpus`` usable CPUs, whatever this host has; returns the list of pool
    sizes asked for from then on."""

    def force(cap, cpus=64):
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(spin_simulator, "_LANE_CAP", cap)
        monkeypatch.setattr(spin_simulator, "_usable_cpus", lambda: cpus)
        # _lanes imports the pool class from concurrent.futures when it needs one.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        return sizes

    return force
