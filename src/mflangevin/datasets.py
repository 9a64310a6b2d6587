"""Synthetic datasets: regression pairs and partially observed time series."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .grids import TimeGrid
from .rng import PURPOSE_DATA, keyed_normals, keyed_uniforms

__all__ = ["Dataset", "generate_dataset", "TARGETS"]


@dataclass(frozen=True)
class Dataset:
    """A batch of samples with uniform shapes.

    ``zeta`` has shape (N1, q) for vector data or (N1, n_nodes, q) for
    path data sampled on the solver grid.
    """

    xi: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        xi = np.atleast_2d(np.asarray(self.xi, dtype=float))
        zeta = np.asarray(self.zeta, dtype=float)
        if zeta.ndim not in (2, 3) or zeta.shape[0] != xi.shape[0]:
            raise ValueError("zeta must be (N1, q) or (N1, n_nodes, q) "
                             "matching xi's sample count")
        if xi.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not (np.isfinite(xi).all() and np.isfinite(zeta).all()):
            raise ValueError("xi and zeta must be finite")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "zeta", zeta)

    @property
    def n_samples(self) -> int:
        return self.xi.shape[0]

    @property
    def dim_state(self) -> int:
        return self.xi.shape[1]

    @property
    def dim_data(self) -> int:
        return self.zeta.shape[-1]

    @property
    def is_path(self) -> bool:
        return self.zeta.ndim == 3

    def zeta_node(self, node: int) -> np.ndarray:
        """Data slice at one grid node, shape (N1, q)."""
        return self.zeta[:, node, :] if self.is_path else self.zeta

    def subset(self, n: int) -> "Dataset":
        """First ``n`` samples (shared prefix couples runs across sizes)."""
        if not 1 <= n <= self.n_samples:
            raise ValueError("invalid subset size")
        return replace(self, xi=self.xi[:n].copy(), zeta=self.zeta[:n].copy())

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.xi).tobytes())
        h.update(np.ascontiguousarray(self.zeta).tobytes())
        return h.hexdigest()


def _target_identity(zeta, horizon):
    return zeta.copy()


def _target_scaled(zeta, horizon):
    return 0.5 * zeta


def _target_tanh_shift(zeta, horizon):
    # With phi one tanh unit wide, the drift mean tanh(zeta) reproduces the
    # data exactly: xi + T tanh(zeta) = zeta.
    return zeta - horizon * np.tanh(zeta)


TARGETS: dict[str, Callable] = {
    "identity": _target_identity,
    "scaled": _target_scaled,
    "tanh_shift": _target_tanh_shift,
}


def generate_dataset(kind: str, n_samples: int, d: int, seed: int,
                     grid: TimeGrid, target: str = "identity",
                     obs_nodes=None) -> Dataset:
    """Generate a dataset with the keyed generator.

    regression
        zeta uniform on [-1, 1]^d, xi = target(zeta, horizon) for the
        ``target`` named in :data:`TARGETS`.
    timeseries
        Smooth truth paths zeta2 from a random sinusoid family sampled on
        the grid; observations zeta1 hold the last observed value between
        the observation nodes (values before the first observation are
        backfilled).  Channels are stacked as [zeta1, zeta2]; xi is the
        initial truth value.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    rows = np.arange(n_samples).reshape(-1, 1)
    if kind == "regression":
        u = keyed_uniforms(seed, PURPOSE_DATA, np.arange(d), rows, 0, 0)
        zeta = 2.0 * u - 1.0
        return Dataset(xi=TARGETS[target](zeta, grid.horizon), zeta=zeta)
    if kind == "timeseries":
        nodes = grid.nodes
        if obs_nodes is None:
            obs_nodes = list(range(0, grid.n_nodes, 2))
        obs_nodes = sorted(set(int(v) for v in obs_nodes))
        if not obs_nodes or obs_nodes[0] < 0 or obs_nodes[-1] >= grid.n_nodes:
            raise ValueError("obs_nodes must be valid grid node indices")
        amp = 0.5 + 0.5 * keyed_uniforms(seed, PURPOSE_DATA, np.arange(d), rows, 1, 0)
        phase = 2.0 * np.pi * keyed_uniforms(seed, PURPOSE_DATA, np.arange(d), rows, 2, 0)
        offset = 0.5 * keyed_normals(seed, PURPOSE_DATA, np.arange(d), rows, 3, 0)
        phases = 2.0 * np.pi * nodes / grid.horizon
        truth = (amp[:, None, :] * np.sin(phases[None, :, None] + phase[:, None, :])
                 + offset[:, None, :])
        obs = np.zeros_like(truth)
        prev = obs_nodes[0]
        for l in range(grid.n_nodes):
            if l in obs_nodes:
                prev = l
            obs[:, l, :] = truth[:, prev, :]
        zeta = np.concatenate([obs, truth], axis=2)
        return Dataset(xi=truth[:, 0, :].copy(), zeta=zeta)
    raise ValueError(f"unknown dataset kind {kind!r}")
