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

Both sweeps run inside the model's sweep pair
(:meth:`~mflangevin.models.ModelSpec.sweep_pair`): its forward runs the
Euler states over the whole grid and keeps a cache, and its backward turns
the cache and the terminal costate into every costate and the drift
together (:func:`solve_paths`).  This module checks the setup before a
sweep and the states and costates after it.
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


def _first_nonfinite(values: np.ndarray, nodes) -> tuple[int, int]:
    """(node, sample) of the first non-finite entry of ``values``
    (N1, n_nodes, d) on ``nodes``, taken in the order given."""
    bad = ~np.isfinite(values).all(axis=2)
    for l in nodes:
        if bad[:, l].any():
            return l, int(np.argmax(bad[:, l]))


def forward_paths(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                  grid: TimeGrid) -> np.ndarray:
    """Euler states for every sample, shape (N1, n_nodes, d).

    x_{l+1} = x_l + dt * mean_i phi_{t_l}(x_l, theta_{i,l}, zeta_l).
    """
    return _forward(model, cloud, dataset, grid)[0]


def _forward(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
             grid: TimeGrid) -> tuple[np.ndarray, object]:
    """The Euler states and the cache of the model's forward sweep."""
    _check_setup(model, cloud, dataset, grid)
    forward, _ = model.sweep_pair()
    x, cache = forward(grid, dataset.xi, cloud.particles,
                       dataset.zeta if model.dim_data else None)
    # A non-finite xi makes node 1 non-finite too, so the scan skips node 0.
    if not np.isfinite(x).all():
        node, sample = _first_nonfinite(x, range(1, grid.n_nodes))
        raise NonFiniteStateError(
            f"non-finite state at node {node}, sample {sample} "
            "(step too large or model blow-up)")
    return x, cache


def solve_paths(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                grid: TimeGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States and costates (N1, n_nodes, d) and the drift (N2, n_nodes, p).

    One forward sweep keeps its cache; one backward sweep then gives, from
    p_n = grad_x g(x_n, zeta),
    p_l = p_{l+1} + dt * mean_i [ (grad_x phi_{t_l})^T p_{l+1} + grad_x f_{t_l} ]
    and the drift entry [i, l] = mean_k [ (grad_a phi_{t_l})^T p_{l+1}
    + grad_a f_{t_l} ], all at (X_{k,l}, theta_{i,l}).  The terminal row of
    the drift is zero per the node convention above.
    """
    x, cache = _forward(model, cloud, dataset, grid)
    _, backward = model.sweep_pair()
    p, drift = backward(cache, model.grad_x_g(x[:, -1, :], dataset.zeta))
    if not np.isfinite(p).all():
        # The backward sweep meets node n - 1 first; a non-finite p_n makes
        # it non-finite too.
        node, sample = _first_nonfinite(p, range(grid.n_steps - 1, -1, -1))
        raise NonFiniteCostateError(
            f"non-finite costate at node {node}, sample {sample}")
    return x, p, drift


def mean_field_drift(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                     grid: TimeGrid) -> np.ndarray:
    """Drift array (N2, n_nodes, p) driving the Langevin dynamics.

    Scaled by dt/N2 this is the exact gradient of the discrete objective
    with respect to every particle coordinate.
    """
    return solve_paths(model, cloud, dataset, grid)[2]
