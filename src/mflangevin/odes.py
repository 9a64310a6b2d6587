"""Forward and adjoint sweeps on the grid, and the mean-field drift.

The forward state follows explicit Euler under the cloud-averaged drift.
The adjoint is the *discrete* adjoint of that Euler map (the transpose of
its Jacobian), not a separate discretisation of the continuous costate
equation: this makes the assembled parameter gradient the exact gradient
of the discrete objective, so finite-difference checks pass at
machine-level tolerance, while the recursion still converges to the
continuous adjoint as the grid is refined.

Node convention (single source of truth): the Hamiltonian gradient at node
l pairs the state X_l with the costate P_{l+1}, because theta_{i,l} enters
the objective through the step from node l to node l+1 (and through the
running cost at node l).  The terminal node carries no drift: theta_{i,n}
never enters the discrete objective, so its entry in the drift array is
zero and the corresponding particles feel only the prior and the noise.

Both sweeps go through the model's node pair
(:meth:`~mflangevin.models.ModelSpec.node_pair`): the forward sweep keeps
each node's cache, and one backward loop turns the caches into the costate
and the drift together (:func:`solve_paths`).
"""

from __future__ import annotations

import numpy as np

from .clouds import ParticleCloud
from .datasets import Dataset
from .exceptions import NonFiniteCostateError, NonFiniteStateError
from .grids import TimeGrid
from .models import ModelSpec

__all__ = ["forward_paths", "solve_paths", "mean_field_drift"]


def _check_setup(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                 grid: TimeGrid) -> None:
    if cloud.grid != grid:
        raise ValueError("cloud and grid disagree")
    if cloud.dim_param != model.dim_param:
        raise ValueError("cloud parameter dimension does not match the model")
    if dataset.dim_state != model.dim_state:
        raise ValueError("dataset state dimension does not match the model")
    if model.dim_data and dataset.dim_data != model.dim_data:
        raise ValueError("dataset data dimension does not match the model")
    if dataset.is_path and dataset.zeta.shape[1] != grid.n_nodes:
        raise ValueError("path data must be sampled on the grid nodes")


def forward_paths(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                  grid: TimeGrid) -> np.ndarray:
    """Euler states for every sample, shape (N1, n_nodes, d).

    x_{l+1} = x_l + dt * mean_i phi_{t_l}(x_l, theta_{i,l}, zeta_l).
    """
    return _forward(model, cloud, dataset, grid)[0]


def _forward(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
             grid: TimeGrid) -> tuple[np.ndarray, list]:
    """The Euler states and each node's cache from the model's node pair."""
    _check_setup(model, cloud, dataset, grid)
    forward, _ = model.node_pair()
    x = np.empty((dataset.n_samples, grid.n_nodes, model.dim_state))
    x[:, 0, :] = dataset.xi
    caches = []
    theta = cloud.particles
    dt = grid.dt
    for l in range(grid.n_steps):
        zeta_l = dataset.zeta_node(l) if model.dim_data else None
        drift, cache = forward(grid.nodes[l], x[:, l, :], theta[:, l, :], zeta_l)
        x[:, l + 1, :] = x[:, l, :] + dt * drift
        if not np.isfinite(x[:, l + 1, :]).all():
            bad = int(np.argwhere(~np.isfinite(x[:, l + 1, :]).all(axis=1))[0, 0])
            raise NonFiniteStateError(
                f"non-finite state at node {l + 1}, sample {bad} "
                "(step too large or model blow-up)")
        caches.append(cache)
    return x, caches


def solve_paths(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                grid: TimeGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States and costates (N1, n_nodes, d) and the drift (N2, n_nodes, p).

    One forward sweep keeps each node's cache; one backward loop then
    gives, from p_n = grad_x g(x_n, zeta),
    p_l = p_{l+1} + dt * mean_i [ (grad_x phi_{t_l})^T p_{l+1} + grad_x f_{t_l} ]
    and the drift entry [i, l] = mean_k [ (grad_a phi_{t_l})^T p_{l+1}
    + grad_a f_{t_l} ], all at (X_{k,l}, theta_{i,l}).  The terminal row of
    the drift is zero per the node convention above.
    """
    x, caches = _forward(model, cloud, dataset, grid)
    _, backward = model.node_pair()
    p = np.empty_like(x)
    p[:, -1, :] = model.grad_x_g(x[:, -1, :], dataset.zeta)
    drift = np.zeros(cloud.particles.shape)
    dt = grid.dt
    for l in range(grid.n_steps - 1, -1, -1):
        gx, drift[:, l, :] = backward(caches[l], p[:, l + 1, :])
        p[:, l, :] = p[:, l + 1, :] + dt * gx
        if not np.isfinite(p[:, l, :]).all():
            bad = int(np.argwhere(~np.isfinite(p[:, l, :]).all(axis=1))[0, 0])
            raise NonFiniteCostateError(
                f"non-finite costate at node {l}, sample {bad}")
    return x, p, drift


def mean_field_drift(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                     grid: TimeGrid) -> np.ndarray:
    """Drift array (N2, n_nodes, p) driving the Langevin dynamics.

    Scaled by dt/N2 this is the exact gradient of the discrete objective
    with respect to every particle coordinate.
    """
    return solve_paths(model, cloud, dataset, grid)[2]
