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
step-size studies rely on.  :func:`train` is the one way a cloud moves:
it advances one run, or a group of runs on one path (its ``coupled``
keyword).  One reader draws the path a stretch of fine slots at a time
and each run sums its own slots, and the members whose updates end on the
same slot share one sweep on the sweep pair's member axis, so a member of
a group is its solo run by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .clouds import ParticleCloud
from .datasets import Dataset
from .exceptions import NonFiniteParticleError
from .grids import TimeGrid, _left_rule_mean_sq
from .metrics import paired_distance
from .models import ModelSpec, PriorSpec
from .objective import objective_Jsigma
from .odes import mean_field_drift, solve_group
from .rng import PURPOSE_PROBE, keyed_normals, step_normals

__all__ = ["TrainerConfig", "TrainHistory", "train", "lipschitz_probe",
           "drift_norm"]


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
    noise_dt: float | None = None

    def __post_init__(self):
        # Chained comparisons are false for NaN, so NaN fails them too.
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")
        if self.n_iters < 0:
            raise ValueError("n_iters must be nonnegative")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and positive")
        if self.record_every < 0:
            raise ValueError("record_every must be nonnegative")
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
    """Scalar series recorded during training."""

    iters: list = field(default_factory=list)
    s: list = field(default_factory=list)
    J: list = field(default_factory=list)
    Jsigma: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)

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
    return math.sqrt(_left_rule_mean_sq(drift, grid.dt))


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

    Yields, for each fine slot on which updates end, the list of
    ``(member, iteration, noise)`` of those updates in the order of
    ``cfgs``; ``noise`` is the update's scaled Brownian block, or None when
    no member is noisy.  The members share the seed and the fine slot
    length.  The path is drawn a stretch of fine slots at a time, at most
    ``_CHUNK_NORMALS`` normals or one update of the coarsest member, and
    each member sums its own slots of a stretch in slot order.  Before the
    next stretch is drawn, the spent draw is released: the slots of an
    update that straddles two stretches are copied out of it and kept
    until the second is drawn, so memory stays bounded for any step list.
    """
    slots, dts = zip(*(_fine_slots(cfg) for cfg in cfgs))
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
            draw = step_normals(cfgs[0].seed, np.arange(c0, c1), *shape)
            # A draw owns its bytes, so it is the path unless slots carry over.
            path = np.concatenate([path, draw]) if len(path) else draw
            del draw
        updates = []
        for j, (cfg, m) in enumerate(zip(cfgs, slots)):
            first, n = done[j], min(cfg.n_iters, c1 // m) - done[j]
            if n <= 0:
                continue
            blocks = [None] * n
            if noisy:
                # Each update's m slots summed in slot order, times sqrt(dt);
                # no name holds a view of the path past this statement.
                lo = m * first - start
                blocks = math.sqrt(dts[0]) * path[lo:lo + m * n].reshape(
                    (n, m) + shape).sum(axis=1)
            updates += [(m * (it + 1), j, it, block)
                        for it, block in zip(range(first, first + n), blocks)]
            done[j] += n
        # (end slot, member) is unique, so blocks are never compared.
        for _, group in itertools.groupby(sorted(updates), key=lambda u: u[0]):
            yield [(j, it, block) for _, j, it, block in group]
        # The first slot an unfinished member still needs; the carried
        # slots are copied, so no view keeps the spent draw alive.
        keep = min((m * d for m, d, end in zip(slots, done, ends)
                    if m * d < end), default=c1)
        path, start = path[keep - start:].copy(), keep


def _apply_step(cloud: ParticleCloud, cfg: TrainerConfig, iter_index: int,
                noise: np.ndarray | None, drift: np.ndarray) -> ParticleCloud:
    """One update along ``drift``; ``noise`` is its scaled Brownian block
    (None: sigma 0)."""
    theta = cloud.particles
    move = drift + 0.5 * cfg.sigma ** 2 * cfg.prior.grad_U(theta)
    new = theta - cfg.gamma * move
    if cfg.sigma > 0.0:
        new = new + cfg.sigma * noise
    if not np.isfinite(new).all():
        raise NonFiniteParticleError(
            f"non-finite particle after iteration {iter_index} "
            "(training step too large for the drift scale)")
    return cloud._with_checked(new)


def train(model: ModelSpec, dataset: Dataset, grid: TimeGrid,
          cfg: TrainerConfig, init: ParticleCloud, *, coupled=(),
          observe=None):
    """Run ``cfg.n_iters`` updates from ``init``; deterministic given the seed.

    Returns (final cloud, history).  Scalar rows are recorded every
    ``record_every`` iterations (0 disables) plus at the final state.

    ``coupled`` lists further runs, as (config, init) pairs, that advance
    with this one on its Brownian path, drawing each fine slot once; they
    share its seed, fine slot length and cloud shape and record nothing.
    The runs are members 0, 1, ... in the order given, and this one is the
    last.  Members whose updates end on the same fine slot share one call
    of the sweep pair (:func:`~mflangevin.odes.solve_group`), and each
    member's clouds are exactly those it has alone.  ``observe(member,
    iterate, cloud)``, if given, is called after every update, in the
    order the updates end on the path (in member order where they end
    together); it is how the studies watch the clouds a run passes
    through.
    """
    cfgs = [c for c, _ in coupled] + [cfg]
    clouds = [cloud for _, cloud in coupled] + [init]
    shape = init.particles.shape
    if any(cloud.particles.shape != shape for cloud in clouds):
        raise ValueError("coupled runs need equal cloud shapes")
    if len({(c.seed, _fine_slots(c)[1]) for c in cfgs}) > 1:
        raise ValueError("coupled runs need one seed and one noise_dt")
    own = len(coupled)
    history = TrainHistory()
    s = _step_times(cfg)

    def record(it, cloud, x, cost, drift):
        """Append a history row for ``cloud``, whose states, running cost
        and drift are ``x``, ``cost`` and ``drift``."""
        # J comes from the forward sweep the drift was computed from.
        val = objective_Jsigma(model, cloud, dataset, grid, cfg.sigma,
                               cfg.prior, sweep=(x, float(cost)))
        history.iters.append(it)
        history.s.append(float(s[it]))
        history.J.append(val.j)
        history.Jsigma.append(val.j_sigma if cfg.sigma > 0.0 else None)
        history.grad_norm.append(drift_norm(drift, grid))
        history.second_moment.append(cloud.second_moment())

    def recorded(j, it):
        return j == own and cfg.record_every > 0 and it % cfg.record_every == 0

    for group in _path_blocks(cfgs, shape):
        # Only a recorded row reads the running cost.
        with_cost = any(recorded(j, it) for j, it, _ in group)
        xs, _, drifts, costs = solve_group(
            model, [clouds[j] for j, _, _ in group], dataset, grid, with_cost)
        for m, ((j, it, noise), x, drift) in enumerate(zip(group, xs, drifts)):
            if recorded(j, it):
                record(it, clouds[j], x, costs[m], drift)
            clouds[j] = _apply_step(clouds[j], cfgs[j], it, noise, drift)
            if observe is not None:
                observe(j, it + 1, clouds[j])
    cloud = clouds[own]
    if cfg.record_every > 0:
        (x,), _, (drift,), (cost,) = solve_group(model, [cloud], dataset,
                                                 grid, True)
        record(cfg.n_iters, cloud, x, cost, drift)
    return cloud, history


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
