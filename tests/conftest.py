"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from mflangevin import langevin


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
