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
# Most entries in one tile of the neighbour search, 1 MiB of float64 screen
# values: a tile is a block of nodes by a block of rows, each row screened
# against every particle of its node.  Whole nodes share a tile while
# N2^2 fits; above that a tile is a block of rows of one node, and above
# 2^17 particles it is one row.
TILE_ENTRIES = 2**17


def paired_distance(xa: np.ndarray, xb: np.ndarray, dt: float) -> float:
    """Synchronous-coupling distance sqrt(sum_l mean_i |a-b|^2 dt), left rule.

    An upper bound for the integrated W2 between the two empirical clouds,
    exact when the coupling is optimal.
    """
    if xa.shape != xb.shape:
        raise ValueError("coupled clouds must have the same shape")
    return math.sqrt(_left_rule_mean_sq(xa - xb, dt))


def _exact_sq(xt: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between points ``a`` and ``b``, columns of ``xt``
    (p, M), the squared differences added in coordinate order, as scipy's
    ``sqeuclidean`` adds them; in chunks of at most ``TILE_ENTRIES``."""
    out = np.empty(len(a))
    step = max(1, TILE_ENTRIES // len(xt))
    for s in range(0, len(a), step):
        diff = xt.take(a[s:s + step], axis=1) - xt.take(b[s:s + step], axis=1)
        diff *= diff
        acc = out[s:s + step]
        acc[:] = diff[0]
        for sq in diff[1:]:
            acc += sq
    return out


def _search_tile(xt, left, right, nodes: slice, rows: slice) -> np.ndarray:
    """The nearest squared distances of one tile, shape (nodes, rows).

    ``left`` (n_nodes, N2, p + 1) and ``right`` (n_nodes, p + 1, N2) are the
    screen's factors and ``xt`` (p, n_nodes * N2) the node-major points;
    see :func:`_nearest_sq_distances`.
    """
    n = right.shape[2]
    screen = np.matmul(left[nodes, rows], right[nodes])
    shape = screen.shape[:2]
    own = (slice(None), np.arange(shape[1]), np.arange(rows.start, rows.stop))
    screen[own] = np.inf
    winner = screen.argmin(axis=2).ravel()
    # Flat index of each row's node start, and of each row's own point.
    base = np.repeat(np.arange(nodes.start, nodes.stop) * n, shape[1])
    a = base + np.tile(np.arange(rows.start, rows.stop), shape[0])
    best = _exact_sq(xt, a, base + winner)
    best[base + winner == a] = np.inf  # a lone point has no neighbour
    # Only a neighbour whose lower bound falls below the winner's exact
    # value can beat it; none can beat an exact duplicate.
    limit = np.where(best > 0.0, best * (1.0 + _bound(len(xt)))
                     + np.finfo(float).tiny, -np.inf)
    limit = limit.reshape(shape) - right[nodes, -1, rows]
    recheck = screen > limit[..., None]
    np.logical_not(recheck, out=recheck)  # a NaN screen rules nothing out
    recheck[own] = False
    recheck.reshape(-1, n)[np.arange(len(winner)), winner] = False
    row, col = np.divmod(np.flatnonzero(recheck), n)
    np.minimum.at(best, row, _exact_sq(xt, a[row], base[row] + col))
    return best.reshape(shape)


def _bound(p: int) -> float:
    """The screen's rounding bound c, relative to |y_i|^2 + |y_j|^2, and
    the exact sums', relative to the winner's value."""
    return 4.0 * (p + 3) * np.finfo(float).eps


def _nearest_sq_distances(x: np.ndarray) -> np.ndarray:
    """Squared distance from each point of ``x`` (N2, n_nodes, p) to its
    nearest other point at the same node, shape (N2, n_nodes).

    Every value is the exact squared distance of a pair, its squared
    differences added in coordinate order as scipy's ``sqeuclidean`` adds
    them, so the result is byte for byte the off-diagonal row minima of
    ``cdist(x_l, x_l, "sqeuclidean")``.  A Gram product only chooses which
    pairs to sum.  With u = eps / 2, y the points centred at their node's
    mean and c = ``_bound(p)`` = 8 (p + 3) u:

    * The screen.  One BLAS product per tile of [y_i, 1] by
      [-2 y_j, (1 - c) |y_j|^2], plus (1 - c) |y_i|^2, is
      L_ij = d_ij - c (|y_i|^2 + |y_j|^2) up to rounding.  That rounding
      is at most about (3p + 4) u (|y_i|^2 + |y_j|^2) from the products
      of length p + 1 and the squared norms, plus 4u (|y_i|^2 + |y_j|^2)
      from centring, whose rounding is relative to the centred values.
      So L_ij <= d_ij, with room left for the comparison's own rounding.
    * The exact sums.  A sum of p squared differences is within
      (p + 2) u d_ij of d_ij, also O(p u (|y_i|^2 + |y_j|^2)).  Each row's
      screen winner k is summed; a pair whose sum is below d_ik's has
      L_ij < (1 + c) d_ik, and every such pair is summed and the least
      value kept.  The limit gains the smallest normal float against
      underflow, and a duplicate winner (d_ik = 0) ends its row's search.
    * Overflow.  Screen values and limits stay below 4 (1 + c) times the
      node's largest |y_j|^2 in magnitude, so they are finite while every
      squared norm of the node is below an eighth of the largest float.
      A node where one is not, or that holds a non-finite point, gets NaN
      squared norms: its screen values and bounds are NaN and rule
      nothing out, so every pair there is summed.

    Centring keeps a common offset from costing the screen precision; a
    cloud whose spread dwarfs its neighbour distances (1e-9 lattices 2e4
    apart) has most of its pairs summed.  Tiles hold at most
    ``TILE_ENTRIES`` screen values; see :func:`_search_tile`.
    """
    n, n_nodes, p = x.shape
    xt = np.ascontiguousarray(x.transpose(2, 1, 0)).reshape(p, -1)
    left = np.empty((n_nodes, n, p + 1))
    right = np.empty((n_nodes, p + 1, n))
    if n * n <= TILE_ENTRIES:
        node_block, row_block = TILE_ENTRIES // (n * n), n
    else:
        node_block, row_block = 1, max(1, TILE_ENTRIES // n)
    out = np.empty((n, n_nodes))
    with np.errstate(over="ignore", invalid="ignore"):
        yt = xt.reshape(p, n_nodes, n)
        yt = yt - yt.mean(axis=2, keepdims=True)
        left[..., :p] = yt.transpose(1, 2, 0)
        left[..., p] = 1.0
        np.multiply(yt.transpose(1, 0, 2), -2.0, out=right[:, :p])
        sq = np.einsum("pli,pli->li", yt, yt)
        sq[~(sq.max(axis=1) < np.finfo(float).max / 8)] = np.nan
        right[:, p] = (1.0 - _bound(p)) * sq
        for l in range(0, n_nodes, node_block):
            for i in range(0, n, row_block):
                nodes = slice(l, min(l + node_block, n_nodes))
                rows = slice(i, min(i + row_block, n))
                out[rows, nodes] = _search_tile(xt, left, right, nodes,
                                                rows).T
    return out


def entropy_estimate(cloud: ParticleCloud, prior: PriorSpec) -> np.ndarray:
    """Relative entropy against the prior at every left-rule node.

    Returns shape (n_nodes - 1,).  Differential entropy comes from the
    nearest-neighbour (k = 1) Kozachenko-Leonenko estimator; adding the
    sample mean of U gives Ent = E[log density - log gamma].  A node is
    +inf when duplicate particles make the estimator undefined there.
    The neighbour search is one Gram-product screen of every pair,
    O(N2^2 p) work per node in tiles of at most ``TILE_ENTRIES`` entries,
    and exact squared distances for its winners and near-ties (see
    :func:`_nearest_sq_distances`).  Used for reporting only.
    """
    x = cloud.particles[:, :-1, :]
    n, n_nodes, p = x.shape
    if n < ENTROPY_MIN_PARTICLES:
        raise ValueError(f"entropy estimate needs at least "
                         f"{ENTROPY_MIN_PARTICLES} particles")
    eps_sq = _nearest_sq_distances(x)
    with np.errstate(divide="ignore"):
        log_eps_sq = np.log(eps_sq)
    harmonic = math.fsum(1.0 / k for k in range(1, n))  # digamma(n) - digamma(1)
    log_ball = 0.5 * p * math.log(math.pi) - math.lgamma(0.5 * p + 1.0)
    entropy = harmonic + log_ball + 0.5 * p * np.mean(log_eps_sq, axis=0)
    est = np.mean(prior.U(x), axis=0) - entropy
    # A duplicate pair leaves the estimator undefined at its node.
    est[np.any(eps_sq == 0.0, axis=0)] = math.inf
    return est
