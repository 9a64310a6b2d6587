"""Data-averaged cost, its regularised variant and the exact gradient.

J and its gradient come from one sweep pair of the model: the forward
sweep returns the states and the running cost, to which this module adds
the terminal cost, and the backward sweep returns the drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clouds import ParticleCloud
from .datasets import Dataset
from .grids import TimeGrid
from .metrics import ENTROPY_MIN_PARTICLES, entropy_estimate
from .models import ModelSpec, PriorSpec
from .odes import forward_cost, mean_field_drift

__all__ = ["ObjectiveValue", "objective_J", "objective_Jsigma",
           "discrete_gradient", "finite_diff_gradient"]


@dataclass(frozen=True)
class ObjectiveValue:
    """Unregularised cost, entropy term, and their sum.

    ``ent_term`` is None when sigma = 0 and +inf when the entropy estimate
    is undefined (duplicate particles, or fewer than
    ``ENTROPY_MIN_PARTICLES``); ``j_sigma`` = j + ent_term holds
    exactly whenever the term is present.
    """

    j: float
    ent_term: float | None
    j_sigma: float


def _with_terminal(model: ModelSpec, dataset: Dataset, x: np.ndarray,
                   running: float) -> float:
    """J from one cloud's states ``x`` (N1, n_nodes, d) and running cost."""
    return running + float(np.mean(model.g(x[:, -1, :], dataset.zeta)))


def objective_J(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                grid: TimeGrid) -> float:
    """Discrete unregularised cost.

    Mean over samples of [ sum_{l<n} dt * mean_i f_{t_l}(X_l, theta_{i,l})
    + g(X_n, zeta) ] with X from the Euler forward pass; the running cost
    uses the left-Riemann rule, matching the forward convention.  The
    model's sweep pair computes the running cost in its forward sweep
    (:func:`~mflangevin.odes.forward_cost`), beside the states.
    """
    return _with_terminal(model, dataset,
                          *forward_cost(model, cloud, dataset, grid))


def objective_Jsigma(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                     grid: TimeGrid, sigma: float, prior: PriorSpec, *,
                     sweep: tuple | None = None) -> ObjectiveValue:
    """Regularised cost J + (sigma^2/2) * sum_{l<n} Ent(nu_l) dt.

    The entropy term exists for reporting only; the Langevin noise realises
    it in the dynamics, so no score estimate ever feeds back into training.
    At sigma = 0 the term is omitted entirely; with fewer particles than
    the entropy estimator needs, or a duplicate pair at any node, it is
    +inf.  One :func:`entropy_estimate` call covers every node, at
    O(N2^2 p) per node for its exact neighbour search.  ``sweep``, the
    states (N1, n_nodes, d) and running cost of ``cloud`` when the caller
    already has them from its sweep (as
    :func:`~mflangevin.odes.solve_group` returns them), saves the forward
    sweep.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sweep is None:
        sweep = forward_cost(model, cloud, dataset, grid)
    j = _with_terminal(model, dataset, *sweep)
    if sigma == 0.0:
        return ObjectiveValue(j=j, ent_term=None, j_sigma=j)
    if cloud.n_particles < ENTROPY_MIN_PARTICLES:
        return ObjectiveValue(j=j, ent_term=math.inf, j_sigma=math.inf)
    ent = entropy_estimate(cloud, prior)
    if np.isinf(ent).any():
        return ObjectiveValue(j=j, ent_term=math.inf, j_sigma=math.inf)
    term = 0.5 * sigma * sigma * float(np.sum(ent * grid.dt))
    return ObjectiveValue(j=j, ent_term=term, j_sigma=j + term)


def discrete_gradient(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                      grid: TimeGrid) -> np.ndarray:
    """Exact gradient of :func:`objective_J` in every particle coordinate.

    Equals (dt / N2) times the mean-field drift; the terminal node's block
    is zero because those coordinates do not enter the discrete objective.
    """
    drift = mean_field_drift(model, cloud, dataset, grid)
    return (grid.dt / cloud.n_particles) * drift


def finite_diff_gradient(model: ModelSpec, cloud: ParticleCloud,
                         dataset: Dataset, grid: TimeGrid,
                         step: float = 1e-5) -> np.ndarray:
    """Central differences of :func:`objective_J` per particle coordinate.

    The independent oracle for :func:`discrete_gradient`.  Costs
    2 * N2 * n_nodes * p objective evaluations; desk scale only.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    base = cloud.particles
    out = np.zeros_like(base)
    for i in range(base.shape[0]):
        for l in range(base.shape[1]):
            for c in range(base.shape[2]):
                hi = base.copy()
                lo = base.copy()
                hi[i, l, c] += step
                lo[i, l, c] -= step
                j_hi = objective_J(model, cloud.with_particles(hi), dataset, grid)
                j_lo = objective_J(model, cloud.with_particles(lo), dataset, grid)
                out[i, l, c] = (j_hi - j_lo) / (2.0 * step)
    return out
