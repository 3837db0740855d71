"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from mwnoise import spin_simulator


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
        monkeypatch.setattr(spin_simulator, "ThreadPoolExecutor", RecordingPool)
        return sizes

    return force
