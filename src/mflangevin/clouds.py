"""Particle clouds: the empirical relaxed control on the time grid.

A cloud stores one parameter vector per (particle, node); its per-node
empirical measures are the relaxed control the solvers integrate against.
Clouds are immutable value objects: every update builds a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import TimeGrid
from .rng import init_normals

__all__ = ["ParticleCloud", "cloud_init", "cloud_to_csv", "cloud_from_csv"]


@dataclass(frozen=True)
class ParticleCloud:
    """N2 parameter particles, each a path over the grid nodes.

    ``particles`` has shape (n_particles, n_nodes, dim_param) and must be
    finite everywhere (finite second moment is what places the empirical
    control in the admissible class).
    """

    particles: np.ndarray
    grid: TimeGrid
    seed: int = 0

    def __post_init__(self):
        arr = np.asarray(self.particles, dtype=float)
        if arr.ndim != 3:
            raise ValueError("particles must have shape (N2, n_nodes, p)")
        if arr.shape[0] < 1:
            raise ValueError("need at least one particle")
        if arr.shape[1] != self.grid.n_nodes:
            raise ValueError("particle paths do not match the grid")
        if not np.all(np.isfinite(arr)):
            raise ValueError("particles contain non-finite entries")
        object.__setattr__(self, "particles", arr)

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]

    @property
    def dim_param(self) -> int:
        return self.particles.shape[2]

    def second_moment(self) -> float:
        """Time-integrated mean squared parameter norm (left rule)."""
        sq = np.sum(self.particles[:, :-1, :] ** 2, axis=2).mean(axis=0)
        return float(np.sum(sq) * self.grid.dt)

    def with_particles(self, particles: np.ndarray) -> "ParticleCloud":
        return replace(self, particles=particles)


def cloud_init(n_particles: int, grid: TimeGrid, dim_param: int,
               init=("gaussian", 0.0, 1.0), seed: int = 0) -> ParticleCloud:
    """Draw an initial cloud.

    ``init`` is ("gaussian", mean, std) for i.i.d. normal entries or
    ("constant", value) to fill every entry.  Gaussian draws are keyed by
    (seed, particle, node), so the same seed reproduces the same cloud
    bit-for-bit and a larger cloud extends a smaller one.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be positive")
    if dim_param < 1:
        raise ValueError("dim_param must be positive")
    kind = init[0]
    if kind == "constant":
        value = np.broadcast_to(np.asarray(init[1], dtype=float), (dim_param,))
        arr = np.tile(value, (n_particles, grid.n_nodes, 1))
    elif kind == "gaussian":
        _, mean, std = init
        if std < 0:
            raise ValueError("std must be nonnegative")
        noise = init_normals(seed, n_particles, grid.n_nodes, dim_param)
        arr = np.asarray(mean, dtype=float) + std * noise
    else:
        raise ValueError(f"unknown init kind {kind!r}")
    return ParticleCloud(particles=arr, grid=grid, seed=seed)


def cloud_to_csv(cloud: ParticleCloud, path) -> None:
    """Write a cloud as CSV rows particle,node,coord,value (17 significant digits)."""
    arr = cloud.particles
    columns = [ix.ravel().tolist() for ix in np.indices(arr.shape)]
    with open(path, "w") as fh:
        fh.write("particle,node,coord,value\n")
        fh.writelines(f"{i},{l},{c},{v:.17g}\n"
                      for i, l, c, v in zip(*columns, arr.ravel().tolist()))


def cloud_from_csv(path, grid: TimeGrid, seed: int = 0) -> ParticleCloud:
    """Read a cloud written by :func:`cloud_to_csv`."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 4:
        raise ValueError("expected columns particle,node,coord,value")
    n_i = int(raw[:, 0].max()) + 1
    n_l = int(raw[:, 1].max()) + 1
    n_c = int(raw[:, 2].max()) + 1
    arr = np.full((n_i, n_l, n_c), np.nan)
    arr[raw[:, 0].astype(int), raw[:, 1].astype(int), raw[:, 2].astype(int)] = raw[:, 3]
    return ParticleCloud(particles=arr, grid=grid, seed=seed)
