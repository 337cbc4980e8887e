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
    """The first graph key built off the main thread raises ValueError.

    The caller's block draws one trial and builds the first key's flip
    stage. The caller then waits before drawing another block until a key
    has been refused, so a worker, never the caller, meets the second key,
    whichever thread would have won the race. Returns a list that records,
    per key built, whether it was built off the main thread.
    """
    flip_stage, block_words, threads = montecarlo._flip_stage, montecarlo._block_words, []
    refused = threading.Event()

    def refusing(*args):
        off_main = threading.current_thread() is not threading.main_thread()
        threads.append(off_main)
        if off_main and not refused.is_set():
            refused.set()
            raise ValueError("second key refused")
        return flip_stage(*args)

    def held(seed, start, rows):
        if start and threading.current_thread() is threading.main_thread():
            refused.wait(timeout=60)
        return block_words(seed, start, rows)

    monkeypatch.setattr(montecarlo, "_flip_stage", refusing)
    monkeypatch.setattr(montecarlo, "_block_words", held)
    monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", 1)
    monkeypatch.setattr(montecarlo, "_WORKERS", 2)
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
