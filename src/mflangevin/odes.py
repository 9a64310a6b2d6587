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
Euler states and the running cost over the whole grid and keeps a cache,
and its backward turns the cache and the terminal costate into every
costate and the drift together.  The pair takes several clouds on a
leading member axis, so the members of a coupled group that update together
share one sweep (:func:`solve_group`).  This module checks the setup
before a sweep and each member's states and costates after it.
"""

from __future__ import annotations

import numpy as np

from .clouds import ParticleCloud
from .datasets import Dataset
from .exceptions import NonFiniteCostateError, NonFiniteStateError
from .grids import TimeGrid
from .models import ModelSpec

__all__ = ["forward_cost", "solve_group", "mean_field_drift"]


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


def _forward(model: ModelSpec, clouds: list, dataset: Dataset,
             grid: TimeGrid, with_cost: bool
             ) -> tuple[np.ndarray, np.ndarray | None, object, int | None]:
    """The Euler states (r, N1, n_nodes, d) and, if ``with_cost``, the
    running costs (r,) of r clouds on the sweep pair's member axis, the
    sweep's cache, and the first member whose states are not finite (None
    if all are)."""
    for cloud in clouds:
        _check_setup(model, cloud, dataset, grid)
    forward, _ = model.sweep_pair()
    x, cost, cache = forward(grid, dataset.xi,
                             np.array([cloud.particles for cloud in clouds]),
                             dataset.zeta if model.dim_data else None,
                             with_cost=with_cost)
    bad = None
    if not np.isfinite(x).all():
        bad = int(np.argmin(np.isfinite(x).reshape(len(x), -1).all(axis=1)))
    return x, cost, cache, bad


def _state_error(x: np.ndarray, grid: TimeGrid) -> NonFiniteStateError:
    # The dataset holds only finite xi, so node 0 is finite.
    node, sample = _first_nonfinite(x, range(1, grid.n_nodes))
    return NonFiniteStateError(f"non-finite state at node {node}, sample "
                               f"{sample} (step too large or model blow-up)")


def forward_cost(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                 grid: TimeGrid) -> tuple[np.ndarray, float]:
    """Euler states for every sample, shape (N1, n_nodes, d), and the
    running cost sum_{l<n} dt * mean_{k,i} f_{t_l}(x_{k,l}, theta_{i,l},
    zeta_{k,l}), from one forward sweep.

    x_{l+1} = x_l + dt * mean_i phi_{t_l}(x_l, theta_{i,l}, zeta_l).
    """
    x, cost, _, bad = _forward(model, [cloud], dataset, grid, True)
    if bad is not None:
        raise _state_error(x[0], grid)
    return x[0], float(cost[0])


def solve_group(model: ModelSpec, clouds: list, dataset: Dataset,
                grid: TimeGrid, with_cost: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                           np.ndarray | None]:
    """States and costates (r, N1, n_nodes, d) and drifts (r, N2, n_nodes,
    p) of r clouds, stacked on a leading member axis, from one call of each
    half of the sweep pair, and, if ``with_cost``, each member's running
    cost (r,), as :func:`forward_cost` gives it (None otherwise: the sweep
    then skips the running cost).

    One forward sweep keeps its cache; one backward sweep then gives, from
    p_n = grad_x g(x_n, zeta),
    p_l = p_{l+1} + dt * mean_i [ (grad_x phi_{t_l})^T p_{l+1} + grad_x f_{t_l} ]
    and the drift entry [i, l] = mean_k [ (grad_a phi_{t_l})^T p_{l+1}
    + grad_a f_{t_l} ], all at (X_{k,l}, theta_{i,l}).  The terminal row of
    the drift is zero per the node convention above.

    Member j's states, costates, drift and running cost are the bytes its
    own sweep returns.  The first member whose states or costates are not
    finite raises the error its own sweep raises.
    """
    x, cost, cache, bad = _forward(model, clouds, dataset, grid, with_cost)
    if bad is not None:
        if bad:
            solve_group(model, clouds[:bad], dataset, grid)
        raise _state_error(x[bad], grid)
    _, backward = model.sweep_pair()
    p, drift = backward(cache, model.grad_x_g(x[:, :, -1, :], dataset.zeta))
    if not np.isfinite(p).all():
        p_j = next(p_j for p_j in p if not np.isfinite(p_j).all())
        # The backward sweep meets node n - 1 first; a non-finite p_n makes
        # it non-finite too.
        node, sample = _first_nonfinite(p_j, range(grid.n_steps - 1, -1, -1))
        raise NonFiniteCostateError(
            f"non-finite costate at node {node}, sample {sample}")
    return x, p, drift, cost


def mean_field_drift(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                     grid: TimeGrid) -> np.ndarray:
    """Drift array (N2, n_nodes, p) driving the Langevin dynamics.

    Scaled by dt/N2 this is the exact gradient of the discrete objective
    with respect to every particle coordinate.
    """
    return solve_group(model, [cloud], dataset, grid)[2][0]
