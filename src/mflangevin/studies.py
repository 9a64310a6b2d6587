"""Experiment harness: convergence, chaos, discretisation, and generalisation.

Each runner evolves particle clouds under configurations chosen so that one
theoretical property dominates the observable, then summarises the outcome
as fitted slopes or distances with explicit pass/fail thresholds.  All
randomness is keyed, so a report is a pure function of its configuration:
reruns are byte-identical regardless of thread count.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .clouds import ParticleCloud, cloud_init
from .datasets import Dataset, generate_dataset
from .grids import TimeGrid
from .langevin import (TrainerConfig, _step_times, lipschitz_probe,
                       paired_distance, train)
from .models import ModelSpec
from .objective import objective_J
from .odes import solve_group

__all__ = [
    "StudySetup", "StudyReport", "FitResult", "CheckResult",
    "run_chaos_study", "run_euler_study", "run_contraction_study",
    "run_gibbs_check", "run_generalization_study",
    "fit_loglog", "fit_rate", "histogram_tv", "gibbs_log_density",
    "check_study",
]


@dataclass(frozen=True)
class StudySetup:
    """Shared ingredients of a study: model, grid, trainer, data recipe."""

    model: ModelSpec
    grid: TimeGrid
    trainer: TrainerConfig
    n_particles: int = 64
    n_samples: int = 8
    dataset_kind: str = "regression"
    dataset_target: str = "scaled"
    dataset_seed: int = 101
    init: tuple = ("gaussian", 0.0, 1.0)
    init_seed: int = 7

    def make_dataset(self, n: int, seed_shift: int = 0) -> Dataset:
        return generate_dataset(self.dataset_kind, n, self.model.dim_state,
                                self.dataset_seed + seed_shift, self.grid,
                                target=self.dataset_target)

    def make_cloud(self, n: int, seed_shift: int = 0,
                   init: tuple | None = None) -> ParticleCloud:
        return cloud_init(n, self.grid, self.model.dim_param,
                          init or self.init, seed=self.init_seed + seed_shift)

    def echo(self) -> dict:
        return {
            "model": {"kind": self.model.kind, "d": self.model.dim_state,
                      "p": self.model.dim_param, "dim_data": self.model.dim_data},
            "grid": {"horizon": self.grid.horizon, "n_steps": self.grid.n_steps},
            "trainer": {"sigma": self.trainer.sigma,
                        "kappa": self.trainer.prior.kappa,
                        "gamma": self.trainer.gamma,
                        "n_iters": self.trainer.n_iters,
                        "seed": self.trainer.seed,
                        "noise_dt": self.trainer.noise_dt},
            "n_particles": self.n_particles,
            "n_samples": self.n_samples,
            "dataset": {"kind": self.dataset_kind, "target": self.dataset_target,
                        "seed": self.dataset_seed},
            "init": list(self.init),
            "init_seed": self.init_seed,
        }


@dataclass(frozen=True)
class FitResult:
    name: str
    slope: float
    stderr: float
    lo: float
    hi: float

    @property
    def passed(self) -> bool:
        return self.lo <= self.slope <= self.hi


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    comparator: str = "<="

    @property
    def passed(self) -> bool:
        if self.comparator == "<=":
            return self.value <= self.threshold
        if self.comparator == ">=":
            return self.value >= self.threshold
        raise ValueError(f"unknown comparator {self.comparator!r}")


@dataclass
class StudyReport:
    """Structured record of one study run with explicit pass/fail lines."""

    kind: str
    config: dict
    series: dict = field(default_factory=dict)
    plots: dict = field(default_factory=dict)
    fits: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    dataset_hash: str = ""
    seed: int = 0
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return (all(f.passed for f in self.fits)
                and all(c.passed for c in self.checks))

    def summary_lines(self) -> list[str]:
        lines = []
        for f in self.fits:
            tag = "PASS" if f.passed else "FAIL"
            lines.append(f"[{tag}] {self.kind}/{f.name}: slope={f.slope:.4f} "
                         f"(se={f.stderr:.4f}) target=[{f.lo}, {f.hi}]")
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {self.kind}/{c.name}: value={c.value:.6g} "
                         f"threshold {c.comparator} {c.threshold}")
        return lines

    def write(self, outdir) -> None:
        os.makedirs(outdir, exist_ok=True)
        for name, table in self.series.items():
            path = os.path.join(outdir, f"{self.kind}_{name}.csv")
            cols = list(table.keys())
            rows = len(next(iter(table.values()))) if table else 0
            with open(path, "w") as fh:
                fh.write(",".join(cols) + "\n")
                for r in range(rows):
                    fh.write(",".join(_fmt(table[c][r]) for c in cols) + "\n")
        for name, (xs, ys) in self.plots.items():
            path = os.path.join(outdir, f"{self.kind}_{name}.dat")
            with open(path, "w") as fh:
                for x, y in zip(xs, ys):
                    fh.write(f"{_fmt(x)} {_fmt(y)}\n")
        summary = {
            "kind": self.kind,
            "config": self.config,
            "fits": [{**asdict(f), "passed": f.passed} for f in self.fits],
            "checks": [{**asdict(c), "passed": c.passed} for c in self.checks],
            "passed": self.passed,
            "dataset_hash": self.dataset_hash,
            "seed": self.seed,
            "wall_clock_seconds": self.wall_clock,
        }
        with open(os.path.join(outdir, f"{self.kind}_summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _openblas():
    """The get and set functions of the thread count of numpy's bundled
    OpenBLAS, or None where numpy does not bundle it."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "libscipy_openblas64_*.so")
    try:
        lib = ctypes.CDLL(glob.glob(libs)[0])
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _map_points(fn, points, threads: int):
    """Evaluate fn over points, optionally in a thread pool; order preserved.

    Every point is an independent deterministic computation, so the result
    does not depend on the executor or the thread count.  While the pool
    runs, numpy's bundled OpenBLAS gets each thread's share of the cores,
    at least one, so that the two do not oversubscribe them.
    """
    if threads <= 1:
        return [fn(pt) for pt in points]
    blas = _openblas()
    if blas:
        before = blas[0]()
        blas[1](max(1, len(os.sched_getaffinity(0)) // threads))
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, points))
    finally:
        if blas:
            blas[1](before)


def fit_loglog(x, y):
    """Least-squares slope of log y against log x with its standard error.

    Nonpositive values (exact self-comparisons) are excluded; with fewer
    than two usable points the slope is reported as NaN.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        return math.nan, math.inf
    return fit_rate(np.log(x[keep]), np.log(y[keep]))


def fit_rate(x, logy):
    """Least-squares slope of ``logy`` against ``x`` with its standard error."""
    x = np.asarray(x, dtype=float)
    logy = np.asarray(logy, dtype=float)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, logy, rcond=None)
    resid = logy - design @ coef
    dof = max(x.size - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if sxx > 0 else math.inf
    return float(coef[0]), stderr


def _train_keeping(setup: StudySetup, dataset: Dataset, init: ParticleCloud,
                   cfg: TrainerConfig, iterates) -> tuple:
    """Train one run, watching it through ``observe``: its final cloud and
    its particles at each of ``iterates`` (0 to ``cfg.n_iters``), in order."""
    wanted = set(iterates)
    kept = {0: init.particles}

    def keep(member, iterate, cloud):
        if iterate in wanted:
            kept[iterate] = cloud.particles

    final, _ = train(setup.model, dataset, setup.grid, cfg, init, observe=keep)
    return final, [kept[it] for it in iterates]


def _pooled_iterates(n_iters: int, every: int, cutoff: float) -> list:
    """Iterate 0, each multiple of ``every`` below ``n_iters``, and
    ``n_iters``: those from ``cutoff`` on, in order."""
    return [it for it in [*range(0, n_iters, every), n_iters] if it >= cutoff]


def check_study(kind: str, setup: StudySetup, values: dict) -> None:
    """Raise ValueError unless ``setup`` and ``values``, the runner's
    keywords of those names, suit the runner of study ``kind``: counts are
    at least 1, fractions lie in [0, 1], and the Gibbs check needs a noisy
    run with one-dimensional parameters."""
    v = values
    for key in ("n_reps", "n_seeds", "snapshot_every"):
        if v.get(key) is not None and v[key] < 1:
            raise ValueError(f"{key} must be at least 1, got {v[key]}")
    for key in ("tail_fraction", "burn_in_fraction"):
        if key in v and not 0 <= v[key] <= 1:
            raise ValueError(f"{key} must be in [0, 1], got {v[key]}")
    if kind == "euler":
        steps, s_final = list(v["gamma_list"]), v["s_final"]
        if len(steps) < 2:
            raise ValueError("need at least two step sizes")
        if s_final <= 0 or min(steps) <= 0:
            raise ValueError("the final time and the step sizes must be positive")
        gamma_ref = min(steps) / v["ref_divisor"]
        for g in steps + [gamma_ref]:
            if abs(s_final / g - round(s_final / g)) > 1e-9:
                raise ValueError("every step size must divide the final time")
            if abs(g / gamma_ref - round(g / gamma_ref)) > 1e-9:
                raise ValueError("step sizes must be integer multiples of the "
                                 "reference step")
    elif kind == "contraction":
        if v["n_pairs"] < 1:
            raise ValueError("need at least one pair")
    elif kind == "chaos":
        if not v["n2_list"] or not v["n1_list"]:
            raise ValueError("size lists must be nonempty")
        if max(v["n2_list"]) > v["n_ref"] or max(v["n1_list"]) > v["n1_ref"]:
            raise ValueError("surrogate sizes must dominate the studied sizes")
    elif kind == "generalization":
        if not v["n1_list"]:
            raise ValueError("n1_list must be nonempty")
        if v["holdout_n"] < max(v["n1_list"]):
            raise ValueError("holdout must dominate the studied sizes")
    elif kind == "gibbs":
        if setup.trainer.sigma <= 0:
            raise ValueError("the Gibbs check needs trainer.sigma > 0")
        if setup.model.dim_param != 1:
            raise ValueError(f"the Gibbs check needs dim_param == 1, got "
                             f"{setup.model.dim_param}")


# ---------------------------------------------------------------------------
# propagation of chaos
# ---------------------------------------------------------------------------

def run_chaos_study(setup: StudySetup, n2_list=(16, 32, 64, 128),
                    n1_list=(8, 32, 128), *, n_ref: int = 2048,
                    n1_ref: int = 512, n_reps: int = 3,
                    tail_fraction: float = 0.25, snapshot_every: int = 5,
                    slope_bounds=(0.7, 1.3), threads: int = 1) -> StudyReport:
    """Particle/data scaling of the distance to a large-system surrogate.

    The mean-field limit is approximated by one large run (``n_ref``
    particles, ``n1_ref`` training samples).  Because draws are keyed per
    particle and per sample, each studied run shares its initial particles,
    its Brownian increments, and its data prefix with the surrogate, so the
    mean squared paired distance estimates the chaos error directly.  The
    surrogates train beside the studied points: every run is one item of a
    single map over ``threads``, the surrogates first.  The fitted slope of
    log MSE against log(1/N1 + 1/N2) is checked against ``slope_bounds``.
    """
    t0 = time.perf_counter()
    check_study("chaos", setup, dict(n2_list=n2_list, n1_list=n1_list,
                                     n_ref=n_ref, n1_ref=n1_ref,
                                     n_reps=n_reps, tail_fraction=tail_fraction,
                                     snapshot_every=snapshot_every))
    n2_list = sorted(n2_list)
    n1_list = sorted(n1_list)
    cfg = setup.trainer
    tail = _pooled_iterates(cfg.n_iters, snapshot_every,
                            (1.0 - tail_fraction) * cfg.n_iters)
    cfgs = [replace(cfg, seed=cfg.seed + rep, record_every=0)
            for rep in range(n_reps)]
    masters = [setup.make_dataset(n1_ref, seed_shift=rep)
               for rep in range(n_reps)]
    keys = [(rep, i1, i2) for rep in range(n_reps)
            for i1 in range(len(n1_list)) for i2 in range(len(n2_list))]
    # (dataset, init, config) of each run: the surrogates, then the points.
    runs = [(masters[rep], setup.make_cloud(n_ref, seed_shift=rep), cfgs[rep])
            for rep in range(n_reps)]
    runs += [(masters[rep].subset(n1_list[i1]),
              setup.make_cloud(n2_list[i2], seed_shift=rep), cfgs[rep])
             for rep, i1, i2 in keys]

    snaps = _map_points(lambda run: _train_keeping(setup, *run, tail)[1],
                        runs, threads)
    refs = snaps[:n_reps]
    mse = np.zeros((len(n1_list), len(n2_list)))
    for (rep, i1, i2), snap in zip(keys, snaps[n_reps:]):
        vals = [paired_distance(a, ref[:n2_list[i2]], setup.grid.dt) ** 2
                for a, ref in zip(snap, refs[rep])]
        mse[i1, i2] += float(np.mean(vals)) / n_reps
    inv = np.array([[1.0 / n1 + 1.0 / n2 for n2 in n2_list] for n1 in n1_list])
    slope, stderr = fit_loglog(inv.ravel(), mse.ravel())
    report = StudyReport(kind="chaos", config={**setup.echo(),
                                               "n2_list": list(n2_list),
                                               "n1_list": list(n1_list),
                                               "n_ref": n_ref, "n1_ref": n1_ref,
                                               "n_reps": n_reps,
                                               "tail_fraction": tail_fraction,
                                               "snapshot_every": snapshot_every},
                         dataset_hash=masters[0].content_hash(),
                         seed=cfg.seed)
    report.series["points"] = {
        "n1": [n1 for n1 in n1_list for _ in n2_list],
        "n2": list(n2_list) * len(n1_list),
        "inv_sum": list(inv.ravel()),
        "mse": list(mse.ravel()),
    }
    report.plots["mse_vs_inv"] = (inv.ravel(), mse.ravel())
    report.fits.append(FitResult("mse_slope", slope, stderr, *slope_bounds))
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# training-time discretisation rate
# ---------------------------------------------------------------------------

def run_euler_study(setup: StudySetup, gamma_list=(4e-3, 2e-3, 1e-3, 5e-4),
                    *, s_final: float = 1.0, ref_divisor: int = 8,
                    slope_bounds=(1.6, 2.4), threads: int = 1) -> StudyReport:
    """Strong rate in the training-time step against a pathwise-coupled reference.

    Brownian increments are generated at the reference resolution and
    summed by coarser runs, so every run discretises the same path and the
    final-time mean squared deviation from the reference isolates the
    discretisation error.  The reference run is one :func:`train` call with
    the coarse runs coupled to it, so the path is drawn once; ``observe``
    keeps each coarse run's last cloud, and ``threads`` does not split the
    group.  The slope of log MSE against log gamma is checked against
    ``slope_bounds``.
    """
    t0 = time.perf_counter()
    check_study("euler", setup, dict(gamma_list=gamma_list, s_final=s_final,
                                     ref_divisor=ref_divisor))
    gamma_list = sorted(gamma_list, reverse=True)
    gamma_ref = min(gamma_list) / ref_divisor
    dataset = setup.make_dataset(setup.n_samples)
    init = setup.make_cloud(setup.n_particles)
    cfgs = [replace(setup.trainer, gamma=g, n_iters=int(round(s_final / g)),
                    noise_dt=gamma_ref, record_every=0)
            for g in gamma_list + [gamma_ref]]
    finals = [init] * len(cfgs)

    def keep(member, iterate, cloud):
        finals[member] = cloud

    ref, _ = train(setup.model, dataset, setup.grid, cfgs[-1], init,
                   coupled=[(cfg, init) for cfg in cfgs[:-1]], observe=keep)
    mse = np.array([paired_distance(f.particles, ref.particles,
                                    setup.grid.dt) ** 2 for f in finals[:-1]])
    slope, stderr = fit_loglog(gamma_list, mse)
    report = StudyReport(kind="euler", config={**setup.echo(),
                                               "gamma_list": list(gamma_list),
                                               "gamma_ref": gamma_ref,
                                               "s_final": s_final},
                         dataset_hash=dataset.content_hash(),
                         seed=setup.trainer.seed)
    report.series["points"] = {"gamma": list(gamma_list), "mse": list(mse)}
    report.plots["mse_vs_gamma"] = (np.asarray(gamma_list), mse)
    report.fits.append(FitResult("mse_slope", slope, stderr, *slope_bounds))
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# contraction under synchronous coupling
# ---------------------------------------------------------------------------

# The rate fit of a contraction pair skips this leading fraction of its
# iterates, and every squared distance below CONTRACTION_FLOOR times the
# initial one.
CONTRACTION_FIT_SKIP = 0.1
CONTRACTION_FLOOR = 1e-12


def run_contraction_study(setup: StudySetup, *, n_pairs: int = 20,
                          shift: float = 2.0, rate_factor: float = 3.0,
                          probe_scale: float = 0.5,
                          threads: int = 1) -> StudyReport:
    """Exponential contraction of coupled runs in the regularised regime.

    Each of ``n_pairs`` pairs starts from N(0, 1) and N(shift, 1)
    particles, on initialisation seeds of its own, and is one :func:`train`
    call, the second run with the first coupled to it, so both evolve under
    identical noise; the slope of log squared paired distance in training
    time gives the empirical rate.  Checks: every fitted slope is negative,
    and each rate is within ``rate_factor`` of sigma^2 kappa - 4 L where L
    is the empirical Lipschitz probe of the drift.
    """
    t0 = time.perf_counter()
    check_study("contraction", setup, dict(n_pairs=n_pairs))
    cfg = setup.trainer
    dataset = setup.make_dataset(setup.n_samples)
    base = setup.make_cloud(setup.n_particles)
    l_hat = lipschitz_probe(setup.model, dataset, setup.grid, base,
                            n_probes=8, scale=probe_scale, seed=setup.init_seed)
    predicted = cfg.sigma ** 2 * cfg.prior.kappa - 4.0 * l_hat
    s = _step_times(cfg)

    def pair_rate(k):
        cfg_k = replace(cfg, seed=cfg.seed + k, record_every=0)
        latest = [setup.make_cloud(setup.n_particles, seed_shift=2 * k,
                                   init=("gaussian", 0.0, 1.0)),
                  setup.make_cloud(setup.n_particles, seed_shift=2 * k + 1,
                                   init=("gaussian", shift, 1.0))]
        dist = np.zeros(cfg.n_iters + 1)

        def observe(member, iterate, cloud):
            latest[member] = cloud
            if member == 1:
                dist[iterate] = paired_distance(latest[0].particles,
                                                cloud.particles, setup.grid.dt)

        dist[0] = paired_distance(latest[0].particles, latest[1].particles,
                                  setup.grid.dt)
        train(setup.model, dataset, setup.grid, cfg_k, latest[1],
              coupled=[(cfg_k, latest[0])], observe=observe)
        d2 = dist ** 2
        keep = d2 > CONTRACTION_FLOOR * max(d2[0], 1e-300)
        keep[:max(1, int(CONTRACTION_FIT_SKIP * len(d2)))] = False
        if keep.sum() < 3:
            return math.nan, dist
        return fit_rate(s[keep], np.log(d2[keep]))[0], dist

    results = _map_points(pair_rate, range(n_pairs), threads)
    slopes = np.array([r[0] for r in results])
    rates = -slopes
    n_negative = int(np.sum(slopes < 0))
    worst_ratio = 0.0
    if predicted > 0:
        ratios = np.maximum(rates / predicted, predicted / np.maximum(rates, 1e-300))
        worst_ratio = float(np.max(ratios))
    report = StudyReport(kind="contraction",
                         config={**setup.echo(), "n_pairs": n_pairs,
                                 "shift": shift, "probe_scale": probe_scale,
                                 "lipschitz_probe": l_hat,
                                 "predicted_rate": predicted},
                         dataset_hash=dataset.content_hash(), seed=cfg.seed)
    report.series["rates"] = {
        "pair": list(range(n_pairs)),
        "fitted_rate": list(rates),
        "predicted_rate": [predicted] * n_pairs,
    }
    example = results[0][1]
    report.series["distance_pair0"] = {"s": list(s), "distance": list(example)}
    report.plots["log_distance_pair0"] = (s, example)
    report.checks.append(CheckResult("negative_slopes", float(n_negative),
                                     float(n_pairs), comparator=">="))
    report.checks.append(CheckResult("rate_within_factor", worst_ratio,
                                     rate_factor))
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# Gibbs stationarity
# ---------------------------------------------------------------------------

def gibbs_log_density(model: ModelSpec, dataset: Dataset, grid: TimeGrid,
                      node: int, sigma: float, prior, a_grid: np.ndarray,
                      paths) -> np.ndarray:
    """Unnormalised stationary log density at one node, evaluated on a grid.

    log q_l(a) = -U(a) - (2/sigma^2) h_l(a) with h_l the data-averaged
    Hamiltonian at a cloud's own state and costate (the self-consistent
    field the particles feel), ``paths`` = (x, p), shapes (N1, n_nodes, d),
    as :func:`~mflangevin.odes.solve_group` returns them for that cloud.
    The terminal node carries no drift, so its density is the prior itself.
    """
    a = a_grid.reshape(-1, 1)
    base = prior.log_density(a)
    if node >= grid.n_steps:
        return base
    x, p = paths
    zeta_l = dataset.zeta_node(node)[None, :, :] if model.dim_data else None
    a_b = a[:, None, :]
    x_b = x[None, :, node, :]
    phi_val = model.phi(grid.nodes[node], x_b, a_b, zeta_l)
    f_val = model.f(grid.nodes[node], x_b, a_b, zeta_l)
    h = (np.einsum("gkd,kd->gk", phi_val, p[:, node + 1, :]) + f_val).mean(axis=1)
    return base - (2.0 / sigma ** 2) * h


def histogram_tv(samples: np.ndarray, log_density, n_bins: int = 64,
                 extend: float = 0.1, quad_per_bin: int = 16) -> float:
    """Total variation between a histogram and a density on the sample range.

    Bins are uniform over the particle range extended by ``extend`` (half
    on each side); the density is trapezoid-integrated per bin and
    normalised over the window.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    lo, hi = samples.min(), samples.max()
    pad = 0.5 * extend * (hi - lo)
    lo, hi = lo - pad, hi + pad
    edges = np.linspace(lo, hi, n_bins + 1)
    emp, _ = np.histogram(samples, bins=edges)
    emp = emp / emp.sum()
    fine = np.linspace(lo, hi, n_bins * quad_per_bin + 1)
    logd = np.asarray(log_density(fine), dtype=float)
    dens = np.exp(logd - logd.max())
    total = np.trapezoid(dens, fine)
    per_bin = np.array([
        np.trapezoid(dens[b * quad_per_bin:(b + 1) * quad_per_bin + 1],
                     fine[b * quad_per_bin:(b + 1) * quad_per_bin + 1])
        for b in range(n_bins)]) / total
    return 0.5 * float(np.abs(emp - per_bin).sum())


def _density_tv(log_q1, log_q2, lo: float, hi: float,
                n_quad: int = 4096) -> float:
    xs = np.linspace(lo, hi, n_quad)
    log1, log2 = log_q1(xs), log_q2(xs)
    q1 = np.exp(log1 - np.max(log1))
    q2 = np.exp(log2 - np.max(log2))
    q1 /= np.trapezoid(q1, xs)
    q2 /= np.trapezoid(q2, xs)
    return 0.5 * float(np.trapezoid(np.abs(q1 - q2), xs))


def run_gibbs_check(setup: StudySetup, *, tv_threshold: float = 0.1,
                    n_bins: int = 64, burn_in_fraction: float = 0.5,
                    snapshot_every: int | None = None,
                    sigma_sweep=()) -> StudyReport:
    """Stationary law against the self-consistent Gibbs density (p = 1 only).

    Trains long, discards the first ``burn_in_fraction`` of iterations,
    pools per node the clouds at every ``snapshot_every``-th iterate after
    it and at the last, and compares the histogram to
    exp(-U - (2/sigma^2) h_l) computed from the final cloud.  The optional
    ``sigma_sweep`` reports how the Gibbs density approaches the prior as
    sigma grows.
    """
    t0 = time.perf_counter()
    check_study("gibbs", setup, dict(burn_in_fraction=burn_in_fraction,
                                     snapshot_every=snapshot_every))
    cfg = setup.trainer
    if snapshot_every is None:
        snapshot_every = max(1, cfg.n_iters // 40)
    dataset = setup.make_dataset(setup.n_samples)
    init = setup.make_cloud(setup.n_particles)
    cfg_run = replace(cfg, record_every=0)
    pooled = _pooled_iterates(cfg.n_iters, snapshot_every,
                              burn_in_fraction * cfg.n_iters)
    final, kept = _train_keeping(setup, dataset, init, cfg_run, pooled)
    (x,), (p,), _, _ = solve_group(setup.model, [final], dataset, setup.grid)
    tvs = []
    for l in range(setup.grid.n_nodes):
        samples = np.concatenate([theta[:, l, 0] for theta in kept])

        def log_density(a, node=l):
            return gibbs_log_density(setup.model, dataset, setup.grid, node,
                                     cfg.sigma, cfg.prior, a, (x, p))

        tvs.append(histogram_tv(samples, log_density, n_bins=n_bins))
    report = StudyReport(kind="gibbs",
                         config={**setup.echo(), "tv_threshold": tv_threshold,
                                 "n_bins": n_bins,
                                 "burn_in_fraction": burn_in_fraction,
                                 "snapshot_every": snapshot_every},
                         dataset_hash=dataset.content_hash(), seed=cfg.seed)
    report.series["per_node_tv"] = {"node": list(range(setup.grid.n_nodes)),
                                    "tv": tvs}
    report.plots["tv_per_node"] = (np.arange(setup.grid.n_nodes), np.array(tvs))
    report.checks.append(CheckResult("max_node_tv", float(np.max(tvs)),
                                     tv_threshold))
    if sigma_sweep:
        sweep_tv = []
        span = float(np.abs(final.particles).max()) + 4.0
        for s_val in sigma_sweep:
            cfg_s = replace(cfg_run, sigma=float(s_val))
            final_s, _ = train(setup.model, dataset, setup.grid, cfg_s, init)
            (xs,), (ps,), _, _ = solve_group(setup.model, [final_s], dataset,
                                             setup.grid)
            node_tv = [_density_tv(
                lambda a, node=l, sv=s_val: gibbs_log_density(
                    setup.model, dataset, setup.grid, node, sv, cfg.prior, a,
                    (xs, ps)),
                lambda a: cfg.prior.log_density(a.reshape(-1, 1)),
                -span, span) for l in range(setup.grid.n_steps)]
            sweep_tv.append(float(np.max(node_tv)))
        report.series["sigma_sweep"] = {"sigma": list(sigma_sweep),
                                        "max_tv_vs_prior": sweep_tv}
        monotone = all(b <= a + 1e-12 for a, b in zip(sweep_tv, sweep_tv[1:]))
        report.checks.append(CheckResult("sweep_monotone", float(monotone),
                                         1.0, comparator=">="))
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# generalisation scaling
# ---------------------------------------------------------------------------

def run_generalization_study(setup: StudySetup, n1_list=(8, 16, 32, 64),
                             holdout_n: int = 4096, *,
                             n_seeds: int = 6, ref_particles: int = 512,
                             ref_samples: int = 512,
                             slope_bounds=(0.6, 1.4),
                             threads: int = 1) -> StudyReport:
    """Squared out-of-sample cost gap against the training-set size.

    A long, large-cloud run on a large independent dataset stands in for
    the population optimum; each point trains on the first N1 samples of a
    per-seed master set and evaluates the unregularised cost on a common
    holdout.  All runs share initial particles and Brownian increments
    (common random numbers), so the per-seed gap fluctuation isolates the
    statistical term attributed to the sample size while the optimisation
    errors stay small and largely cancel.  The reference trains beside the
    points: every run is one item of a single map over ``threads``, the
    reference first.  The fitted slope of log mean squared gap against
    log(1/N1) is checked against ``slope_bounds``.
    """
    t0 = time.perf_counter()
    check_study("generalization", setup, dict(n1_list=n1_list,
                                              holdout_n=holdout_n,
                                              n_seeds=n_seeds))
    n1_list = sorted(n1_list)
    cfg = replace(setup.trainer, record_every=0)
    holdout = setup.make_dataset(holdout_n, seed_shift=9000)
    masters = [setup.make_dataset(max(n1_list), seed_shift=100 + rep)
               for rep in range(n_seeds)]
    init = setup.make_cloud(setup.n_particles)
    # (dataset, init, config) of each run: the reference, then the points.
    runs = [(setup.make_dataset(ref_samples, seed_shift=8000),
             setup.make_cloud(ref_particles), cfg)]
    runs += [(masters[rep].subset(n1), init, cfg)
             for n1 in n1_list for rep in range(n_seeds)]

    def holdout_cost(run):
        dataset, start, run_cfg = run
        cloud, _ = train(setup.model, dataset, setup.grid, run_cfg, start)
        return objective_J(setup.model, cloud, holdout, setup.grid)

    j_ref, *js = _map_points(holdout_cost, runs, threads)
    gaps = np.array([(j - j_ref) ** 2 for j in js]).reshape(len(n1_list),
                                                            n_seeds)
    mean_sq = gaps.mean(axis=1)
    slope, stderr = fit_loglog([1.0 / n1 for n1 in n1_list], mean_sq)
    report = StudyReport(kind="generalization",
                         config={**setup.echo(), "n1_list": list(n1_list),
                                 "holdout_n": holdout_n, "n_seeds": n_seeds,
                                 "ref_particles": ref_particles,
                                 "ref_samples": ref_samples,
                                 "j_ref": j_ref},
                         dataset_hash=holdout.content_hash(), seed=cfg.seed)
    report.series["points"] = {
        "n1": list(n1_list),
        "inv_n1": [1.0 / n1 for n1 in n1_list],
        "mean_sq_gap": list(mean_sq),
    }
    report.series["gaps"] = {
        "n1": [n1 for n1 in n1_list for _ in range(n_seeds)],
        "seed": list(range(n_seeds)) * len(n1_list),
        "sq_gap": list(gaps.ravel()),
    }
    report.plots["gap_vs_invn1"] = (np.array([1.0 / n for n in n1_list]),
                                    mean_sq)
    report.fits.append(FitResult("gap_slope", slope, stderr, *slope_bounds))
    report.wall_clock = time.perf_counter() - t0
    return report
