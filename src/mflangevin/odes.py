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
"""

from __future__ import annotations

import numpy as np

from .clouds import ParticleCloud
from .datasets import Dataset
from .exceptions import NonFiniteCostateError, NonFiniteStateError
from .grids import TimeGrid
from .models import ModelSpec

__all__ = [
    "forward_paths", "adjoint_paths", "mean_field_drift",
    "drift_and_states", "hamiltonian_grad_at",
]


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
    _check_setup(model, cloud, dataset, grid)
    n1 = dataset.n_samples
    x = np.empty((n1, grid.n_nodes, model.dim_state))
    x[:, 0, :] = dataset.xi
    theta = cloud.particles
    dt = grid.dt
    for l in range(grid.n_steps):
        zeta_l = dataset.zeta_node(l)[:, None, :] if model.dim_data else None
        drift = model.phi(grid.nodes[l], x[:, l, None, :],
                          theta[None, :, l, :], zeta_l).mean(axis=1)
        x[:, l + 1, :] = x[:, l, :] + dt * drift
        if not np.all(np.isfinite(x[:, l + 1, :])):
            bad = int(np.argwhere(~np.isfinite(x[:, l + 1, :]).all(axis=1))[0, 0])
            raise NonFiniteStateError(
                f"non-finite state at node {l + 1}, sample {bad} "
                "(step too large or model blow-up)")
    return x


def adjoint_paths(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                  x: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Discrete adjoint states for every sample, shape (N1, n_nodes, d).

    p_n = grad_x g(x_n, zeta); backward,
    p_l = p_{l+1} + dt * mean_i [ (grad_x phi_{t_l})^T p_{l+1}
                                  + grad_x f_{t_l} ]  evaluated at (x_l, theta_{i,l}).
    """
    _check_setup(model, cloud, dataset, grid)
    n1 = dataset.n_samples
    p = np.empty((n1, grid.n_nodes, model.dim_state))
    p[:, -1, :] = model.grad_x_g(x[:, -1, :], dataset.zeta)
    theta = cloud.particles
    dt = grid.dt
    for l in range(grid.n_steps - 1, -1, -1):
        zeta_l = dataset.zeta_node(l)[:, None, :] if model.dim_data else None
        pull = model.grad_x_phi(grid.nodes[l], x[:, l, None, :],
                                theta[None, :, l, :], zeta_l,
                                p[:, l + 1, None, :])
        fx = model.grad_x_f(grid.nodes[l], x[:, l, None, :],
                            theta[None, :, l, :], zeta_l)
        p[:, l, :] = p[:, l + 1, :] + dt * (pull.mean(axis=1)
                                            + fx.mean(axis=1))
        if not np.all(np.isfinite(p[:, l, :])):
            bad = int(np.argwhere(~np.isfinite(p[:, l, :]).all(axis=1))[0, 0])
            raise NonFiniteCostateError(
                f"non-finite costate at node {l}, sample {bad}")
    return p


def hamiltonian_grad_at(model: ModelSpec, particles: np.ndarray,
                        dataset: Dataset, x: np.ndarray, p: np.ndarray,
                        grid: TimeGrid) -> np.ndarray:
    """Data-averaged Hamiltonian a-gradient at given particles and (X, P).

    Entry [i, l] is mean_k [ (grad_a phi_{t_l}(X_{k,l}, theta_{i,l}))^T P_{k,l+1}
    + grad_a f_{t_l}(X_{k,l}, theta_{i,l}) ]; the terminal row is zero per the
    node convention above.
    """
    n2 = particles.shape[0]
    out = np.zeros((n2, grid.n_nodes, model.dim_param))
    for l in range(grid.n_steps):
        zeta_l = dataset.zeta_node(l)[:, None, :] if model.dim_data else None
        gap = model.grad_a_phi(grid.nodes[l], x[:, l, None, :],
                               particles[None, :, l, :], zeta_l,
                               p[:, l + 1, None, :])
        fa = model.grad_a_f(grid.nodes[l], x[:, l, None, :],
                            particles[None, :, l, :], zeta_l)
        out[:, l, :] = (gap + fa).mean(axis=0)
    return out


def mean_field_drift(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                     grid: TimeGrid) -> np.ndarray:
    """Drift array (N2, n_nodes, p) driving the Langevin dynamics.

    Scaled by dt/N2 this is the exact gradient of the discrete objective
    with respect to every particle coordinate.
    """
    return drift_and_states(model, cloud, dataset, grid)[1]


def drift_and_states(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                     grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Forward states (N1, n_nodes, d) and the mean-field drift of one cloud.

    For callers that also evaluate the cost at the same cloud, which needs
    the same forward sweep.
    """
    x = forward_paths(model, cloud, dataset, grid)
    p = adjoint_paths(model, cloud, dataset, x, grid)
    return x, hamiltonian_grad_at(model, cloud.particles, dataset, x, p, grid)
