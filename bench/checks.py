"""Correctness checks for the benchmark's outputs.

Every check compares the program's output with a computation made apart
from the program (central differences, the benchmark's own
entropy estimate or least-squares fit) or with a property the method must
have.  None compares against a stored copy of earlier output.  Each check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np


def digest(outdir) -> str:
    """SHA-256 over the byte-stable outputs (every .csv and .dat file).

    Study summaries carry wall-clock seconds, so JSON files are left out.
    """
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name.endswith((".csv", ".dat")):
            h.update(name.encode() + b"\0")
            with open(os.path.join(outdir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def read_cloud_csv(path, shape):
    """Parse a cloud CSV; return (array, failures).

    The rows must enumerate particle, node and coordinate in order, and
    every value must reprint to its own text at 17 significant digits, so
    that the file reads back exactly.
    """
    n_i, n_l, n_c = shape
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "particle,node,coord,value":
        return None, [f"{path}: bad header"]
    rows = lines[1:]
    if len(rows) != n_i * n_l * n_c:
        return None, [f"{path}: {len(rows)} rows, expected {n_i * n_l * n_c}"]
    values = np.empty(len(rows))
    k = 0
    for i in range(n_i):
        for l in range(n_l):
            for c in range(n_c):
                fields = rows[k].split(",")
                if fields[:3] != [str(i), str(l), str(c)] or len(fields) != 4:
                    return None, [f"{path}: row {k + 1} is {rows[k]!r}, "
                                  f"expected index {i},{l},{c}"]
                v = float(fields[3])
                if f"{v:.17g}" != fields[3]:
                    return None, [f"{path}: row {k + 1} value {fields[3]!r} "
                                  "does not read back exactly"]
                values[k] = v
                k += 1
    arr = values.reshape(shape)
    if not np.all(np.isfinite(arr)):
        return arr, [f"{path}: non-finite particle"]
    return arr, []


def pick_coords(grad, seed, n=4):
    """``n`` coordinates, drawn from ``seed``, where the gradient is at least
    1 % of its largest entry, so that a wrong value there cannot hide."""
    big = np.argwhere(np.abs(grad) >= 0.01 * np.max(np.abs(grad)))
    rows = np.random.default_rng(seed % 2**63).choice(len(big), size=n, replace=False)
    return [tuple(int(v) for v in big[r]) for r in sorted(rows)]


def gradient_mismatch(objective, theta, coords, grad, step=1e-3, rtol=1e-6):
    """Central differences of ``objective`` at ``coords`` against ``grad``.

    ``grad`` is the claimed gradient array of ``objective`` at ``theta``.
    The five-point stencil is exact to O(step^4), so truncation and
    rounding both stay well below ``rtol``.
    """
    fails = []
    for coord in coords:
        def at(k):
            th = theta.copy()
            th[coord] += k * step
            return objective(th)

        fd = (at(-2) - 8.0 * at(-1) + 8.0 * at(1) - at(2)) / (12.0 * step)
        g = grad[coord]
        if not abs(fd - g) <= rtol * abs(g):
            fails.append(f"gradient at {coord}: central difference {fd:.10e}, "
                         f"drift gives {g:.10e}")
    return fails


def read_history(path, n_iters, gamma):
    """Parse history.csv; return (last row as floats, failures).

    It must have n_iters + 1 rows, iter 0..n_iters and s the cumulative
    sum of gamma.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "iter,s,J,Jsigma,grad_norm,second_moment":
        return None, [f"{path}: bad header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n_iters + 1:
        return None, [f"{path}: {len(rows)} rows, expected {n_iters + 1}"]
    s_expected = np.concatenate([[0.0], np.cumsum(np.full(n_iters, gamma))])
    for k, row in enumerate(rows):
        if len(row) != 6 or row[0] != str(k):
            return None, [f"{path}: row {k + 1} is {','.join(row)!r}"]
        s = float(row[1])
        if not abs(s - s_expected[k]) <= 1e-12 * max(1.0, s_expected[k]):
            return None, [f"{path}: row {k + 1} has s = {s}, "
                          f"expected {s_expected[k]}"]
    last = dict(zip(["iter", "s", "J", "Jsigma", "grad_norm", "second_moment"],
                    rows[-1]))
    return {k: float(v) for k, v in last.items()}, []


def kl_relative_entropy(x, kappa):
    """Nearest-neighbour (Kozachenko-Leonenko, k = 1) relative entropy of the
    points ``x`` (n, p) against the Gaussian prior N(0, I / kappa)."""
    n, p = x.shape
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(dist, np.inf)
    eps = dist.min(axis=1)
    harmonic = math.fsum(1.0 / k for k in range(1, n))  # digamma(n) - digamma(1)
    log_ball = 0.5 * p * math.log(math.pi) - math.lgamma(0.5 * p + 1.0)
    entropy = harmonic + log_ball + p * float(np.mean(np.log(eps)))
    u = 0.5 * kappa * np.sum(x * x, axis=1) + 0.5 * p * math.log(2.0 * math.pi / kappa)
    return float(np.mean(u)) - entropy


def entropy_term_mismatch(last_row, cloud, sigma, kappa, dt, rtol=1e-9):
    """Jsigma - J equals (sigma^2 / 2) sum_{l<n} Ent_l dt."""
    ent = sum(kl_relative_entropy(cloud[:, l, :], kappa) * dt
              for l in range(cloud.shape[1] - 1))
    expected = 0.5 * sigma * sigma * ent
    got = last_row["Jsigma"] - last_row["J"]
    if not abs(got - expected) <= rtol * abs(expected) + 1e-12:
        return [f"Jsigma - J = {got!r}, own entropy estimate gives {expected!r}"]
    return []


def second_moment(cloud, dt):
    sq = np.sum(cloud[:, :-1, :] ** 2, axis=2).mean(axis=0)
    return float(np.sum(sq) * dt)


def drift_norm(drift, dt):
    sq = np.sum(drift[:, :-1, :] ** 2, axis=2).mean(axis=0)
    return math.sqrt(float(np.sum(sq) * dt))


def close(name, got, expected, rtol=1e-12):
    if not abs(got - expected) <= rtol * abs(expected):
        return [f"{name} = {got!r}, expected {expected!r}"]
    return []


def read_points_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "gamma,mse":
        return None, [f"{path}: bad header"]
    return np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]]), []


def euler_rate_mismatch(gammas, mse, lo=1.6, hi=2.4):
    """MSE falls monotonically with gamma and log-log slope lies in [lo, hi]."""
    order = np.argsort(gammas)
    g, m = np.asarray(gammas)[order], np.asarray(mse)[order]
    fails = []
    if len(g) < 2 or not np.all(np.diff(m) > 0) or not np.all(m > 0):
        fails.append(f"MSE does not decrease monotonically with gamma: {list(m)}")
        return fails, math.nan
    slope = float(np.polyfit(np.log(g), np.log(m), 1)[0])
    if not lo <= slope <= hi:
        fails.append(f"strong-rate slope {slope:.4f} outside [{lo}, {hi}]")
    return fails, slope
