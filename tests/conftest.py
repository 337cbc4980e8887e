"""Shared fixtures: a deterministic generator, small state factories, a memory probe."""

import threading
import tracemalloc

import numpy as np
import pytest

from qsvkit import montecarlo


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=777))


@pytest.fixture
def second_key_refused(monkeypatch):
    """The sampler's second Bell table raises ValueError, and the caller's block draws one trial.

    Returns a list that records, per table built, whether it was built off the main thread.
    """
    bell_table, threads = montecarlo._bell_table, []

    def refusing(n, pair):
        threads.append(threading.current_thread() is not threading.main_thread())
        if len(threads) == 2:
            raise ValueError("second key refused")
        return bell_table(n, pair)

    monkeypatch.setattr(montecarlo, "_bell_table", refusing)
    monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", 1)
    return threads


def random_unit(rng, dim: int) -> np.ndarray:
    """A Haar-ish random unit vector with complex entries."""
    vec = rng.normal(size=dim) + 1.0j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def traced_peak_mib(run) -> float:
    """Peak Python-heap allocation, in MiB, while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
