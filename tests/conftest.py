"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest

from mflangevin import langevin, rng


@pytest.fixture
def drawn(monkeypatch):
    """The ``fine_iters`` of every ``step_normals`` call the trainer makes."""
    calls = []
    original = langevin.step_normals

    def recording(seed, fine_iters, *shape):
        calls.append(np.asarray(fine_iters))
        return original(seed, fine_iters, *shape)

    monkeypatch.setattr(langevin, "step_normals", recording)
    return calls


@pytest.fixture(scope="session")
def philox_words():
    """Philox4x32 output words (x0, x1, x2, x3) of broadcast counters, each
    of their broadcast shape, from the tiled rounds every draw runs."""
    def words(c0, c1, c2, c3, key, rounds=10):
        counters, shape = rng._counter_words(c0, c1, c2, c3)
        out = np.empty((4, math.prod(shape)), dtype=np.uint64)
        for part, rows in rng._philox_tiles(counters, shape, key, rounds):
            out[:, part] = rows
        return tuple(out.reshape((4,) + shape))

    return words
