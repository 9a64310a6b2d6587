"""Coupling distances between clouds and entropy estimates for reporting.

The paired distance aggregates per-node distances between two coupled
clouds with the same left-Riemann rule the solvers use for time
integrals.  Entropy is estimated only for reporting the regularised
objective; it never enters the dynamics.
"""

from __future__ import annotations

import math

import numpy as np

from .clouds import ParticleCloud
from .grids import _left_rule_mean_sq
from .models import PriorSpec

__all__ = ["entropy_estimate", "paired_distance", "ENTROPY_MIN_PARTICLES"]

# Fewest particles for which the nearest-neighbour entropy estimate is given.
ENTROPY_MIN_PARTICLES = 8
# Most entries in one tile of squared distances, 1 MiB of float64, so the
# nearest-neighbour search stays small at large particle counts (a tile
# holds at least one row, so above 2^17 particles it is one row).
TILE_ENTRIES = 2**17


def paired_distance(xa: np.ndarray, xb: np.ndarray, dt: float) -> float:
    """Synchronous-coupling distance sqrt(sum_l mean_i |a-b|^2 dt), left rule.

    An upper bound for the integrated W2 between the two empirical clouds,
    exact when the coupling is optimal.
    """
    if xa.shape != xb.shape:
        raise ValueError("coupled clouds must have the same shape")
    return math.sqrt(_left_rule_mean_sq(xa - xb, dt))


def _nearest_sq_distances(x: np.ndarray) -> np.ndarray:
    """Squared distance from each point of ``x`` (n, p) to its nearest other.

    Exact squared differences, not a Gram product, so near-ties pick the
    right neighbour; computed in row tiles of at most ``TILE_ENTRIES``.
    """
    from scipy.spatial.distance import cdist  # deferred: slow import
    n = x.shape[0]
    rows = max(1, TILE_ENTRIES // n)
    out = np.empty(n)
    for start in range(0, n, rows):
        tile = cdist(x[start:start + rows], x, "sqeuclidean")
        np.fill_diagonal(tile[:, start:], np.inf)
        out[start:start + rows] = tile.min(axis=1)
    return out


def entropy_estimate(cloud: ParticleCloud, prior: PriorSpec) -> np.ndarray:
    """Relative entropy against the prior at every left-rule node.

    Returns shape (n_nodes - 1,).  Differential entropy comes from the
    nearest-neighbour (k = 1) Kozachenko-Leonenko estimator; adding the
    sample mean of U gives Ent = E[log density - log gamma].  A node is
    +inf when duplicate particles make the estimator undefined there.
    The neighbour search is exact and dense: O(N2^2 p) work per node, in
    tiles of at most ``TILE_ENTRIES`` distances.  Used for reporting only.
    """
    x = cloud.particles[:, :-1, :]
    n, n_nodes, p = x.shape
    if n < ENTROPY_MIN_PARTICLES:
        raise ValueError(f"entropy estimate needs at least "
                         f"{ENTROPY_MIN_PARTICLES} particles")
    eps_sq = np.stack([_nearest_sq_distances(np.ascontiguousarray(x[:, l, :]))
                       for l in range(n_nodes)], axis=1)
    with np.errstate(divide="ignore"):
        log_eps_sq = np.log(eps_sq)
    harmonic = math.fsum(1.0 / k for k in range(1, n))  # digamma(n) - digamma(1)
    log_ball = 0.5 * p * math.log(math.pi) - math.lgamma(0.5 * p + 1.0)
    entropy = harmonic + log_ball + 0.5 * p * np.mean(log_eps_sq, axis=0)
    est = np.mean(prior.U(x), axis=0) - entropy
    # A duplicate pair leaves the estimator undefined at its node.
    est[np.any(eps_sq == 0.0, axis=0)] = math.inf
    return est
