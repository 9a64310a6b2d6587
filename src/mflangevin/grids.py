"""Uniform time grid shared by the forward ODE, adjoint, and particle paths."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition 0 = t_0 < t_1 < ... < t_n = horizon.

    Only uniform grids are supported; the non-uniform steps in this method
    live in training time, not in the layer-time variable discretised here.
    """

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1


def _left_rule_mean_sq(paths: np.ndarray, dt: float) -> float:
    """sum_{l<n} dt * mean_i |paths_{i,l}|^2 of paths (N, n_nodes, p): the
    left-rule time integral of the mean squared norm."""
    sq = np.sum(paths[:, :-1, :] ** 2, axis=2).mean(axis=0)
    return float(np.sum(sq) * dt)
