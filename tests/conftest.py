"""Shared fixtures: a deterministic generator, small state factories, a memory probe."""

import tracemalloc

import numpy as np
import pytest

from qsvkit import montecarlo


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=777))


@pytest.fixture
def second_block_refused(monkeypatch):
    """The second block of flip strings that a graph key build signs raises ValueError.

    Returns a list with one entry per block signed.
    """
    walsh_signs, blocks = montecarlo.walsh_signs, []

    def refusing(*args):
        blocks.append(len(blocks))
        if len(blocks) == 2:
            raise ValueError("second key refused")
        return walsh_signs(*args)

    monkeypatch.setattr(montecarlo, "walsh_signs", refusing)
    return blocks


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
