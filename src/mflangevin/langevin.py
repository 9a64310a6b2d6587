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
step-size studies rely on.  One reader draws the path a stretch of fine
slots at a time for a single run (:func:`train`) or for several that
advance together (:func:`coupled_runs`), and each run sums its own slots,
so a member of a coupled group is its solo run by construction.
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
from .odes import mean_field_drift, solve_paths
from .rng import PURPOSE_PROBE, keyed_normals, step_normals

__all__ = [
    "TrainerConfig", "TrainHistory", "CoupledRunResult",
    "langevin_step", "train", "coupled_runs", "coupled_pair_run",
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
        # Chained comparisons are false for NaN, so NaN fails them too.
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")
        if self.n_iters < 0:
            raise ValueError("n_iters must be nonnegative")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and positive")
        if self.record_every < 0 or self.snapshot_every < 0:
            raise ValueError("record_every and snapshot_every must be "
                             "nonnegative")
        if self.noise_dt is not None:
            if not 0.0 < self.noise_dt < math.inf:
                raise ValueError("noise_dt must be finite and positive")
            ratio = self.gamma / self.noise_dt
            if abs(ratio - round(ratio)) > 1e-9 * ratio:
                raise ValueError("gamma must be a multiple of noise_dt")

    def fine_offsets(self) -> np.ndarray:
        """Start index of each step's block of fine Brownian increments.

        The trainer's path reader counts slots itself and no longer calls
        this; it stays as the schedule's public statement, and
        ``bench/tracing.py`` wraps it by name.
        """
        return _fine_slots(self)[0] * np.arange(self.n_iters + 1)


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


# The most standard normals one draw of a Brownian path holds, unless a
# single update needs more.
_CHUNK_NORMALS = 1 << 14


def _fine_slots(cfg: TrainerConfig) -> tuple[int, float]:
    """Fine Brownian slots per update of a run, and the length of a slot."""
    if cfg.noise_dt is None:
        return 1, cfg.gamma
    return round(cfg.gamma / cfg.noise_dt), cfg.noise_dt


def _step_times(cfg: TrainerConfig) -> np.ndarray:
    """Training time before each update, and after the last one."""
    return np.concatenate([[0.0], np.cumsum(np.full(cfg.n_iters,
                                                    float(cfg.gamma)))])


def _path_blocks(cfgs: list[TrainerConfig], shape: tuple):
    """Read one Brownian path for runs that advance together.

    Yields ``(member, iteration, noise)`` for every update of every member
    of ``cfgs``, in the order the updates end on the path (in list order
    where they end together); ``noise`` is the update's scaled Brownian
    block, or None when no member is noisy.  The members share the seed
    and the fine slot length.  The path is drawn a stretch of fine slots
    at a time, at most ``_CHUNK_NORMALS`` normals or one update of the
    coarsest member, and each member sums its own slots of a stretch in
    slot order.  The slots of an update that straddles two stretches are
    kept until the second is drawn, so memory stays bounded for any step
    list.
    """
    slots, dts = zip(*(_fine_slots(cfg) for cfg in cfgs))
    seed, sqrt_dt = cfgs[0].seed, math.sqrt(dts[0])
    ends = [m * cfg.n_iters for m, cfg in zip(slots, cfgs)]
    n_slots = max(ends)
    noisy = any(cfg.sigma > 0.0 for cfg in cfgs)
    stretch = max(_CHUNK_NORMALS // math.prod(shape), *slots)
    done = [0] * len(cfgs)
    # Raw normals of the fine slots start, start + 1, ... still needed.
    path, start = np.zeros((0,) + shape), 0
    for c0 in range(0, n_slots, stretch):
        c1 = min(c0 + stretch, n_slots)
        if noisy:
            fresh = step_normals(seed, np.arange(c0, c1)[:, None], *shape)
            path = np.concatenate([path, fresh]) if len(path) else fresh
        updates = []
        for j, (cfg, m) in enumerate(zip(cfgs, slots)):
            first, n = done[j], min(cfg.n_iters, c1 // m) - done[j]
            if n <= 0:
                continue
            blocks = [None] * n
            if noisy:
                rows = path[m * first - start:m * (first + n) - start]
                blocks = sqrt_dt * rows.reshape((n, m) + shape).sum(axis=1)
            updates += [(m * (it + 1), j, it, block)
                        for it, block in zip(range(first, first + n), blocks)]
            done[j] += n
        # (end slot, member) is unique, so blocks are never compared.
        for _, j, it, block in sorted(updates):
            yield j, it, block
        # The first slot an unfinished member still needs.
        keep = min((m * d for m, d, end in zip(slots, done, ends)
                    if m * d < end), default=c1)
        path, start = path[keep - start:], keep


def _apply_step(model: ModelSpec, cloud: ParticleCloud, dataset: Dataset,
                grid: TimeGrid, cfg: TrainerConfig, iter_index: int,
                noise: np.ndarray | None,
                drift: np.ndarray | None = None) -> ParticleCloud:
    """One update; ``noise`` is its scaled Brownian block (None: sigma 0)."""
    if drift is None:
        drift = mean_field_drift(model, cloud, dataset, grid)
    theta = cloud.particles
    move = drift + 0.5 * cfg.sigma ** 2 * cfg.prior.grad_U(theta)
    new = theta - cfg.gamma * move
    if cfg.sigma > 0.0:
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
    noise = None
    if cfg.sigma > 0.0:
        slots, dt = _fine_slots(cfg)
        noise = math.sqrt(dt) * step_normals(
            cfg.seed, slots * iter_index + np.arange(slots),
            *cloud.particles.shape)
    return _apply_step(model, cloud, dataset, grid, cfg, iter_index, noise)


def train(model: ModelSpec, dataset: Dataset, grid: TimeGrid,
          cfg: TrainerConfig, init: ParticleCloud):
    """Run ``cfg.n_iters`` updates from ``init``; deterministic given the seed.

    Returns (final cloud, history).  Scalar rows are recorded every
    ``record_every`` iterations (0 disables) plus at the final state; cloud
    snapshots every ``snapshot_every`` iterations feed the studies.
    """
    history = TrainHistory()
    s = _step_times(cfg)

    def record(it, cloud):
        """Append a history row for ``cloud``; return its drift."""
        x, _, drift = solve_paths(model, cloud, dataset, grid)
        # J comes from the forward states the drift was computed from.
        val = objective_Jsigma(model, cloud, dataset, grid, cfg.sigma,
                               cfg.prior, x=x)
        history.iters.append(it)
        history.s.append(float(s[it]))
        history.J.append(val.j)
        history.Jsigma.append(val.j_sigma if cfg.sigma > 0.0 else None)
        history.grad_norm.append(drift_norm(drift, grid))
        history.second_moment.append(cloud.second_moment())
        return drift

    cloud = init
    for _, it, noise in _path_blocks([cfg], init.particles.shape):
        drift = None
        if cfg.record_every > 0 and it % cfg.record_every == 0:
            drift = record(it, cloud)
        if cfg.snapshot_every > 0 and it % cfg.snapshot_every == 0:
            history.snapshots.append((it, cloud))
        cloud = _apply_step(model, cloud, dataset, grid, cfg, it, noise,
                            drift)
    if cfg.record_every > 0:
        record(cfg.n_iters, cloud)
    if cfg.snapshot_every > 0:
        history.snapshots.append((cfg.n_iters, cloud))
    return cloud, history


def coupled_runs(model: ModelSpec, dataset: Dataset, grid: TimeGrid,
                 cfgs: list[TrainerConfig], inits: list[ParticleCloud],
                 observe=None) -> list[ParticleCloud]:
    """Evolve several runs on one Brownian path, drawing each slot once.

    The members share the seed and the fine slot length (``noise_dt``, or
    ``gamma`` when it is unset) and may differ in init and in ``gamma``, a
    multiple of ``noise_dt``.  They read the path through the reader that
    :func:`train` uses for one run, so every member ends on exactly the
    cloud ``train`` returns for it alone.  ``observe(member, iterate,
    cloud)``, if given, is called after every update, in the order the
    updates end on the path (in list order where they end together).
    Returns the final clouds.
    """
    if len(cfgs) != len(inits):
        raise ValueError("need one init per coupled run")
    shape = inits[0].particles.shape
    if any(init.particles.shape != shape for init in inits):
        raise ValueError("coupled runs need equal cloud shapes")
    if len({(cfg.seed, _fine_slots(cfg)[1]) for cfg in cfgs}) > 1:
        raise ValueError("coupled runs need one seed and one noise_dt")
    clouds = list(inits)
    for j, it, noise in _path_blocks(cfgs, shape):
        clouds[j] = _apply_step(model, clouds[j], dataset, grid, cfgs[j], it,
                                noise)
        if observe is not None:
            observe(j, it + 1, clouds[j])
    return clouds


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

    The two runs are the members of one :func:`coupled_runs`, so each step's
    noise is drawn once for both.  The recorded series is the
    paired-coupling distance sqrt(sum_l mean_i |theta_a - theta_b|^2 dt)
    per iterate, an upper bound on the integrated W2 between the clouds.
    """
    dist = np.zeros(cfg.n_iters + 1)
    latest = [init_a, init_b]

    def observe(member, iterate, cloud):
        latest[member] = cloud
        if member == 1:
            dist[iterate] = paired_distance(latest[0].particles,
                                            cloud.particles, grid.dt)

    a, b = coupled_runs(model, dataset, grid, [cfg, cfg], [init_a, init_b],
                        observe)
    dist[0] = paired_distance(init_a.particles, init_b.particles, grid.dt)
    return CoupledRunResult(s=_step_times(cfg), distance=dist, cloud_a=a,
                            cloud_b=b)


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
