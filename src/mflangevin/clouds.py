"""Particle clouds: the empirical relaxed control on the time grid.

A cloud stores one parameter vector per (particle, node); its per-node
empirical measures are the relaxed control the solvers integrate against.
Clouds are immutable value objects: every update builds a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import TimeGrid, _left_rule_mean_sq
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
        return _left_rule_mean_sq(self.particles, self.grid.dt)

    def with_particles(self, particles: np.ndarray) -> "ParticleCloud":
        return replace(self, particles=particles)

    def _with_checked(self, particles: np.ndarray) -> "ParticleCloud":
        """This cloud with ``particles``, a float array of its shape that the
        caller has checked is finite: built without ``__post_init__``, so the
        trainer tests each update once."""
        cloud = object.__new__(type(self))
        cloud.__dict__.update(self.__dict__, particles=particles)
        return cloud


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
    return ParticleCloud(particles=arr, grid=grid)


def cloud_to_csv(cloud: ParticleCloud, path) -> None:
    """Write a cloud as CSV rows particle,node,coord,value (17 significant digits)."""
    arr = cloud.particles
    columns = [ix.ravel().tolist() for ix in np.indices(arr.shape)]
    with open(path, "w") as fh:
        fh.write("particle,node,coord,value\n")
        fh.writelines(f"{i},{l},{c},{v:.17g}\n"
                      for i, l, c, v in zip(*columns, arr.ravel().tolist()))


def cloud_from_csv(path, grid: TimeGrid) -> ParticleCloud:
    """Read a cloud written by :func:`cloud_to_csv`: each (particle, node,
    coord) a nonnegative integer triple, given once, and none left out."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 4:
        raise ValueError("expected columns particle,node,coord,value")
    idx = raw[:, :3]
    if not np.all(np.isfinite(idx) & (idx >= 0) & (idx == np.floor(idx))):
        raise ValueError("particle, node and coord must be nonnegative "
                         "integers")
    idx = idx.astype(np.int64)
    if len(np.unique(idx, axis=0)) < len(idx):
        raise ValueError("a (particle, node, coord) is given twice")
    shape = tuple(int(n) + 1 for n in idx.max(axis=0))
    # Counted before allocating: a stray huge index must not size the array.
    if math.prod(shape) != len(idx):
        raise ValueError("a (particle, node, coord) is missing")
    arr = np.empty(shape)
    arr[tuple(idx.T)] = raw[:, 3]
    return ParticleCloud(particles=arr, grid=grid)
