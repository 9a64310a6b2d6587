"""Mean-field Langevin training of particle clouds.

One update moves every particle along the data-averaged Hamiltonian
gradient plus the prior gradient and adds independent Gaussian noise:

    theta_{i,l} <- theta_{i,l}
        - gamma * [ drift_{i,l} + (sigma^2/2) grad U(theta_{i,l}) ]
        + sigma * (B_{s+gamma} - B_s)_{i,l}

The noise realises the entropic regularisation, so no score term is ever
evaluated.  Brownian increments come from the counter-based generator
keyed by (seed, fine iteration, particle, node); runs that share a seed
share a Brownian path, which is what the coupled-pair, surrogate, and
step-size studies rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clouds import ParticleCloud
from .datasets import Dataset
from .exceptions import NonFiniteParticleError
from .grids import TimeGrid
from .metrics import paired_distance
from .models import ModelSpec, PriorSpec
from .objective import objective_Jsigma
from .odes import (adjoint_paths, drift_and_states, forward_paths,
                   hamiltonian_grad_at, mean_field_drift)
from .rng import PURPOSE_PROBE, keyed_normals, step_normals

__all__ = [
    "TrainerConfig", "TrainHistory", "CoupledRunResult", "PicardResult",
    "langevin_step", "train", "coupled_pair_run", "picard_solve",
    "lipschitz_probe", "drift_norm",
]


@dataclass(frozen=True)
class TrainerConfig:
    """Training-time discretisation of the mean-field Langevin dynamics.

    ``gamma`` is the uniform training-time step.  ``noise_dt`` fixes the
    finest Brownian resolution: each step consumes gamma/noise_dt fine
    increments, so runs with different step sizes but equal seed and
    noise_dt stay on one Brownian path.  When unset, each step draws a
    single increment indexed by its iteration number.
    """

    sigma: float
    prior: PriorSpec
    gamma: float = 1e-2
    n_iters: int = 100
    seed: int = 0
    record_every: int = 10
    snapshot_every: int = 0
    noise_dt: float | None = None

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.n_iters < 0:
            raise ValueError("n_iters must be nonnegative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.noise_dt is not None:
            if self.noise_dt <= 0:
                raise ValueError("noise_dt must be positive")
            ratio = self.gamma / self.noise_dt
            if abs(ratio - round(ratio)) > 1e-9 * ratio:
                raise ValueError("gamma must be a multiple of noise_dt")

    def fine_offsets(self) -> np.ndarray:
        """Start index of each step's block of fine Brownian increments."""
        if self.noise_dt is None:
            return np.arange(self.n_iters + 1)
        return round(self.gamma / self.noise_dt) * np.arange(self.n_iters + 1)


@dataclass
class TrainHistory:
    """Scalar series recorded during training plus optional cloud snapshots."""

    iters: list = field(default_factory=list)
    s: list = field(default_factory=list)
    J: list = field(default_factory=list)
    Jsigma: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,s,J,Jsigma,grad_norm,second_moment\n")
            for row in zip(self.iters, self.s, self.J, self.Jsigma,
                           self.grad_norm, self.second_moment):
                it, s, j, js, gn, sm = row
                js_txt = "" if js is None else f"{js:.17g}"
                fh.write(f"{it},{s:.17g},{j:.17g},{js_txt},{gn:.17g},{sm:.17g}\n")


def drift_norm(drift: np.ndarray, grid: TimeGrid) -> float:
    """Time-integrated mean-field gradient norm (left rule)."""
    sq = np.sum(drift[:, :-1, :] ** 2, axis=2).mean(axis=0)
    return math.sqrt(float(np.sum(sq) * grid.dt))


@dataclass(frozen=True)
class _StepSchedule:
    """Per-step quantities of one run, built once from its TrainerConfig.

    ``s[k]`` is the training time before step k, step k consumes fine
    Brownian slots ``offsets[k]:offsets[k + 1]``, and ``sqrt_dt`` scales
    each fine slot's standard normals.
    """

    s: np.ndarray
    offsets: np.ndarray
    sqrt_dt: float

    @classmethod
    def of(cls, cfg: TrainerConfig) -> "_StepSchedule":
        steps = np.full(cfg.n_iters, float(cfg.gamma))
        dt_fine = cfg.gamma if cfg.noise_dt is None else cfg.noise_dt
        return cls(s=np.concatenate([[0.0], np.cumsum(steps)]),
                   offsets=cfg.fine_offsets(), sqrt_dt=math.sqrt(dt_fine))


def _noise_block(cfg: TrainerConfig, sched: _StepSchedule, iter_index: int,
                 shape: tuple) -> np.ndarray:
    fine = np.arange(sched.offsets[iter_index], sched.offsets[iter_index + 1])
    draws = step_normals(cfg.seed, fine, *shape)
    return sched.sqrt_dt * draws


def _apply_step(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                grid: TimeGrid, cfg: TrainerConfig, sched: _StepSchedule,
                iter_index: int, drift: np.ndarray | None = None,
                noise: np.ndarray | None = None) -> ParticleCloud:
    """One update; ``noise`` is this step's scaled Brownian block if already drawn."""
    if drift is None:
        drift = mean_field_drift(model, cloud, dataset, grid)
    theta = cloud.particles
    move = drift + 0.5 * cfg.sigma ** 2 * cfg.prior.grad_U(theta)
    new = theta - cfg.gamma * move
    if cfg.sigma > 0.0:
        if noise is None:
            noise = _noise_block(cfg, sched, iter_index, theta.shape)
        new = new + cfg.sigma * noise
    if not np.all(np.isfinite(new)):
        raise NonFiniteParticleError(
            f"non-finite particle after iteration {iter_index} "
            "(training step too large for the drift scale)")
    return cloud.with_particles(new)


def langevin_step(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                  grid: TimeGrid, cfg: TrainerConfig,
                  iter_index: int) -> ParticleCloud:
    """One Euler-Maruyama update of the whole cloud."""
    return _apply_step(model, cloud, dataset, grid, cfg, _StepSchedule.of(cfg),
                       iter_index)


def train(model: ModelSpec, dataset: Dataset, grid: TimeGrid,
          cfg: TrainerConfig, init: ParticleCloud):
    """Run ``cfg.n_iters`` updates from ``init``; deterministic given the seed.

    Returns (final cloud, history).  Scalar rows are recorded every
    ``record_every`` iterations (0 disables) plus at the final state; cloud
    snapshots every ``snapshot_every`` iterations feed the studies.
    """
    history = TrainHistory()
    sched = _StepSchedule.of(cfg)

    def record(it, cloud):
        """Append a history row for ``cloud``; return its drift."""
        x, drift = drift_and_states(model, cloud, dataset, grid)
        # J comes from the forward states the drift was computed from.
        val = objective_Jsigma(model, cloud, dataset, grid, cfg.sigma,
                               cfg.prior, x=x)
        history.iters.append(it)
        history.s.append(float(sched.s[it]))
        history.J.append(val.j)
        history.Jsigma.append(val.j_sigma if cfg.sigma > 0.0 else None)
        history.grad_norm.append(drift_norm(drift, grid))
        history.second_moment.append(cloud.second_moment())
        return drift

    cloud = init
    for it in range(cfg.n_iters):
        drift = None
        if cfg.record_every > 0 and it % cfg.record_every == 0:
            drift = record(it, cloud)
        if cfg.snapshot_every > 0 and it % cfg.snapshot_every == 0:
            history.snapshots.append((it, cloud))
        cloud = _apply_step(model, cloud, dataset, grid, cfg, sched, it, drift)
    if cfg.record_every > 0:
        record(cfg.n_iters, cloud)
    if cfg.snapshot_every > 0:
        history.snapshots.append((cfg.n_iters, cloud))
    return cloud, history


@dataclass(frozen=True)
class CoupledRunResult:
    """Per-iterate synchronous-coupling distance between two runs."""

    s: np.ndarray
    distance: np.ndarray
    cloud_a: ParticleCloud
    cloud_b: ParticleCloud


def coupled_pair_run(model: ModelSpec, dataset: Dataset, grid: TimeGrid,
                     cfg: TrainerConfig, init_a: ParticleCloud,
                     init_b: ParticleCloud) -> CoupledRunResult:
    """Evolve two initialisations under identical Brownian increments.

    The recorded series is the paired-coupling distance
    sqrt(sum_l mean_i |theta_a - theta_b|^2 dt) per iterate, an upper
    bound on the integrated W2 between the clouds.
    """
    if init_a.particles.shape != init_b.particles.shape:
        raise ValueError("coupled runs need equal cloud shapes")
    sched = _StepSchedule.of(cfg)
    dist = np.zeros(cfg.n_iters + 1)
    a, b = init_a, init_b
    dist[0] = paired_distance(a.particles, b.particles, grid.dt)
    for it in range(cfg.n_iters):
        noise = (_noise_block(cfg, sched, it, a.particles.shape)
                 if cfg.sigma > 0.0 else None)
        a = _apply_step(model, a, dataset, grid, cfg, sched, it, noise=noise)
        b = _apply_step(model, b, dataset, grid, cfg, sched, it, noise=noise)
        dist[it + 1] = paired_distance(a.particles, b.particles, grid.dt)
    return CoupledRunResult(s=sched.s, distance=dist, cloud_a=a, cloud_b=b)


@dataclass(frozen=True)
class PicardResult:
    """Output of the fixed-point iteration on the flow of measures."""

    cloud: ParticleCloud
    round_distances: np.ndarray


def picard_solve(model: ModelSpec, dataset: Dataset, grid: TimeGrid,
                 cfg: TrainerConfig, init: ParticleCloud, n_picard: int,
                 n_ref: int | None = None) -> PicardResult:
    """Fixed-point iteration for the mean-field law.

    Each round freezes the previous round's cloud trajectory as the flow
    of measures, re-simulates ``n_ref`` particles against that frozen flow
    (they interact only through it), and replaces the trajectory.  Noise
    keys are fixed across rounds, so successive trajectories couple
    synchronously and their sup-over-iterates paired distance measures the
    contraction of the fixed-point map.  Extra particles beyond the init
    cloud are bootstrap copies of init particles; the returned cloud is
    the first block of the final trajectory.
    """
    n2 = init.n_particles
    n_ref = n2 if n_ref is None else n_ref
    if n_ref < n2:
        raise ValueError("n_ref must be at least the init particle count")
    if n_picard == 0:
        return PicardResult(cloud=init, round_distances=np.zeros(0))
    theta0 = init.particles
    if n_ref > n2:
        from .rng import PURPOSE_INIT, keyed_uniforms
        u = keyed_uniforms(init.seed, PURPOSE_INIT,
                           np.arange(n_ref - n2), 0, 9, 0)
        picks = np.minimum((u * n2).astype(int), n2 - 1)
        theta0 = np.concatenate([theta0, theta0[picks]], axis=0)
    sched = _StepSchedule.of(cfg)
    frozen = [theta0] * (cfg.n_iters + 1)
    distances = np.zeros(n_picard)
    traj = frozen
    for r in range(n_picard):
        theta = theta0
        traj = [theta]
        for it in range(cfg.n_iters):
            flow_cloud = ParticleCloud(particles=frozen[it], grid=grid,
                                       seed=init.seed)
            x = forward_paths(model, flow_cloud, dataset, grid)
            p = adjoint_paths(model, flow_cloud, dataset, x, grid)
            drift = hamiltonian_grad_at(model, theta, dataset, x, p, grid)
            holder = ParticleCloud(particles=theta, grid=grid, seed=init.seed)
            theta = _apply_step(model, holder, dataset, grid, cfg, sched, it,
                                drift).particles
            traj.append(theta)
        distances[r] = max(paired_distance(traj[it], frozen[it], grid.dt)
                           for it in range(cfg.n_iters + 1))
        frozen = traj
    final = ParticleCloud(particles=traj[-1][:n2].copy(), grid=grid,
                          seed=init.seed)
    return PicardResult(cloud=final, round_distances=distances)


def lipschitz_probe(model: ModelSpec, dataset: Dataset, grid: TimeGrid,
                    base: ParticleCloud, n_probes: int = 8,
                    scale: float = 0.5, seed: int = 0) -> float:
    """Empirical Lipschitz constant of the mean-field drift map.

    Maximum over random cloud pairs near ``base`` of the ratio between the
    integrated drift difference and the integrated particle difference.
    An order-of-magnitude probe used to position experiments in the
    strongly regularised regime, not a certified constant.
    """
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    n2, n_nodes, p = base.particles.shape
    comps = np.arange(p).reshape(1, 1, -1)
    parts = np.arange(n2).reshape(-1, 1, 1)
    nodes = np.arange(n_nodes).reshape(1, -1, 1)

    def perturbed(tag):
        noise = keyed_normals(seed, PURPOSE_PROBE, comps, parts, tag, nodes)
        return base.with_particles(base.particles + scale * noise)

    best = 0.0
    for j in range(n_probes):
        ca = perturbed(2 * j + 100)
        cb = perturbed(2 * j + 101)
        num = drift_norm(mean_field_drift(model, ca, dataset, grid)
                         - mean_field_drift(model, cb, dataset, grid), grid)
        den = paired_distance(ca.particles, cb.particles, grid.dt)
        if den > 0:
            best = max(best, num / den)
    return best
