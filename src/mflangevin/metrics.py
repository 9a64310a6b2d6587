"""Distances between clouds and entropy estimates for reporting.

The integrated squared Wasserstein distance aggregates per-node distances
between the empirical parameter measures with the same left-Riemann rule
the solvers use for time integrals.  Entropy is estimated only for
reporting the regularised objective; it never enters the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .clouds import ParticleCloud
from .models import PriorSpec
from .rng import PURPOSE_PROJ, keyed_normals

__all__ = ["CloudDistance", "w2_distance", "entropy_estimate", "paired_distance",
           "ENTROPY_MIN_PARTICLES"]

# Fewest particles for which the nearest-neighbour entropy estimate is given.
ENTROPY_MIN_PARTICLES = 8


@dataclass(frozen=True)
class CloudDistance:
    """Per-node Wasserstein-2 values and their time-integrated aggregate."""

    w2T: float
    per_node: np.ndarray
    method: str


def _w2_1d(u: np.ndarray, v: np.ndarray) -> float:
    """Exact squared W2 between two one-dimensional empirical measures."""
    u = np.sort(u)
    v = np.sort(v)
    if u.size == v.size:
        return float(np.mean((u - v) ** 2))
    # Unequal supports: integrate the squared quantile gap over the merged
    # breakpoints of the two empirical CDFs.
    levels = np.union1d(np.arange(1, u.size) / u.size,
                        np.arange(1, v.size) / v.size)
    edges = np.concatenate([[0.0], levels, [1.0]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    uu = u[np.minimum((mids * u.size).astype(int), u.size - 1)]
    vv = v[np.minimum((mids * v.size).astype(int), v.size - 1)]
    return float(np.sum(np.diff(edges) * (uu - vv) ** 2))


def _w2_hungarian(a: np.ndarray, b: np.ndarray) -> float:
    """Exact squared W2 between equal-size empirical measures via assignment."""
    from scipy.optimize import linear_sum_assignment  # deferred: slow import
    diff = a[:, None, :] - b[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def _unit_projections(n_proj: int, dim: int, seed: int) -> np.ndarray:
    raw = keyed_normals(seed, PURPOSE_PROJ,
                        np.arange(dim), np.arange(n_proj).reshape(-1, 1), 0, 0)
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def w2_distance(a: ParticleCloud, b: ParticleCloud, method: str = "auto",
                n_projections: int = 64, projection_seed: int = 0) -> CloudDistance:
    """Per-node W2 between two clouds plus the time-integrated aggregate.

    Methods: ``exact1d`` (sorted coupling, one-dimensional parameters),
    ``hungarian`` (exact assignment, equal particle counts), ``sliced``
    (average over fixed random unit projections; a biased diagnostic).
    ``auto`` picks exact1d when p == 1, hungarian when both clouds have at
    most 512 particles, and sliced otherwise.
    """
    if a.grid != b.grid:
        raise ValueError("clouds must share a grid")
    if a.dim_param != b.dim_param:
        raise ValueError("clouds must share the parameter dimension")
    p = a.dim_param
    if method == "auto":
        if p == 1:
            method = "exact1d"
        elif max(a.n_particles, b.n_particles) <= 512:
            method = "hungarian"
        else:
            method = "sliced"
    n_nodes = a.grid.n_nodes
    per_node_sq = np.zeros(n_nodes)
    if method == "exact1d":
        if p != 1:
            raise ValueError("exact1d requires one-dimensional parameters")
        for l in range(n_nodes):
            per_node_sq[l] = _w2_1d(a.particles[:, l, 0], b.particles[:, l, 0])
    elif method == "hungarian":
        if a.n_particles != b.n_particles:
            raise ValueError("hungarian requires equal particle counts")
        for l in range(n_nodes):
            per_node_sq[l] = _w2_hungarian(a.particles[:, l, :],
                                           b.particles[:, l, :])
    elif method == "sliced":
        proj = _unit_projections(n_projections, p, projection_seed)
        pa = np.einsum("ilp,kp->kil", a.particles, proj)
        pb = np.einsum("ilp,kp->kil", b.particles, proj)
        for l in range(n_nodes):
            vals = [_w2_1d(pa[k, :, l], pb[k, :, l]) for k in range(n_projections)]
            per_node_sq[l] = float(np.mean(vals))
    else:
        raise ValueError(f"unknown method {method!r}")
    w2T = math.sqrt(float(np.sum(per_node_sq[:-1]) * a.grid.dt))
    return CloudDistance(w2T=w2T, per_node=np.sqrt(per_node_sq), method=method)


def paired_distance(xa: np.ndarray, xb: np.ndarray, dt: float) -> float:
    """Synchronous-coupling distance sqrt(sum_l mean_i |a-b|^2 dt), left rule.

    An upper bound for the integrated W2 between the two empirical clouds,
    exact when the coupling is optimal.
    """
    diff = xa[:, :-1, :] - xb[:, :-1, :]
    return math.sqrt(float(np.sum(diff * diff, axis=2).mean(axis=0).sum() * dt))


def entropy_estimate(cloud: ParticleCloud, node: int, prior: PriorSpec) -> float:
    """Relative entropy of one node's empirical measure against the prior.

    Differential entropy comes from the nearest-neighbour (k = 1)
    Kozachenko-Leonenko estimator; adding the sample mean of U gives
    Ent = E[log density - log gamma].  Returns +inf when duplicate
    particles make the estimator undefined.  Used for reporting only.
    """
    from scipy.spatial import cKDTree  # deferred: slow import
    x = cloud.particles[:, node, :]
    n, p = x.shape
    if n < ENTROPY_MIN_PARTICLES:
        raise ValueError(f"entropy estimate needs at least "
                         f"{ENTROPY_MIN_PARTICLES} particles")
    dist, _ = cKDTree(x).query(x, k=2)
    eps = dist[:, 1]
    if np.any(eps == 0.0):
        return math.inf
    log_ball = 0.5 * p * math.log(math.pi) - gammaln(0.5 * p + 1.0)
    entropy = (digamma(n) - digamma(1) + log_ball
               + p * float(np.mean(np.log(eps))))
    return float(np.mean(prior.U(x)) - entropy)
