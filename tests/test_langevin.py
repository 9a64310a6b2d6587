"""Trainer dynamics: steps, noise and coupling."""

import dataclasses

import numpy as np
import pytest

from mflangevin.clouds import ParticleCloud, cloud_init
from mflangevin.datasets import Dataset, generate_dataset
from mflangevin.exceptions import (NonFiniteCostateError,
                                   NonFiniteParticleError,
                                   NonFiniteStateError)
from mflangevin.grids import TimeGrid
from mflangevin.langevin import TrainerConfig, lipschitz_probe, train
from mflangevin.metrics import paired_distance
from mflangevin.models import (gaussian_prior, make_builtin_model,
                               make_linear_drift_model, make_zero_cost_model)
from mflangevin.objective import objective_J, objective_Jsigma


def quadratic_toy(grid, n_particles=8, seed=0):
    model = make_linear_drift_model(1)
    ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
    init = cloud_init(n_particles, grid, 1, ("gaussian", 0.0, 1.0), seed=seed)
    return model, ds, init


def first_update(model, ds, grid, cfg, init):
    """The cloud after the first update of the ``train`` run of ``cfg``."""
    cloud, _ = train(model, ds, grid,
                     dataclasses.replace(cfg, n_iters=1, record_every=0), init)
    return cloud


def group_finals(model, ds, grid, cfgs, inits, observe=None):
    """The final clouds of runs that ``train`` advances as one group on one
    Brownian path: the last run with the others coupled to it, its members
    0, 1, ... in list order.  ``observe`` is passed on to ``train``."""
    finals = list(inits)

    def keep(member, iterate, cloud):
        finals[member] = cloud
        if observe is not None:
            observe(member, iterate, cloud)

    train(model, ds, grid, cfgs[-1], inits[-1],
          coupled=list(zip(cfgs[:-1], inits[:-1])), observe=keep)
    return finals


class TestStep:
    def test_zero_gradient_zero_sigma_leaves_cloud_unchanged(self):
        grid = TimeGrid(1.0, 3)
        model = make_zero_cost_model(1)
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        init = cloud_init(4, grid, 1, ("gaussian", 0.0, 1.0), seed=1)
        cfg = TrainerConfig(sigma=0.0, prior=gaussian_prior(1e-12, 1),
                            gamma=0.1, n_iters=1, seed=0)
        out = first_update(model, ds, grid, cfg, init)
        np.testing.assert_allclose(out.particles, init.particles, atol=1e-13)

    def test_matches_directly_coded_regression_step(self):
        # One-layer model, one step, sigma = 0: the update must equal the
        # classical gradient step coded from scratch, to 1e-12.
        grid = TimeGrid(1.0, 1)
        model = make_builtin_model("one_layer_residual", d=1, p_hidden=1,
                                   dim_data=1)
        ds = generate_dataset("regression", 4, 1, 11, grid, target="scaled")
        init = cloud_init(3, grid, model.dim_param, ("gaussian", 0.1, 0.6),
                          seed=12)
        gamma = 0.05
        cfg = TrainerConfig(sigma=0.0, prior=gaussian_prior(1.0, 2),
                            gamma=gamma, n_iters=1, seed=0)
        stepped = first_update(model, ds, grid, cfg, init)

        theta = init.particles[:, 0, :]
        x1 = np.stack([ds.xi[k] + grid.dt * np.mean(
            [model.phi(0.0, ds.xi[k], theta[j], ds.zeta[k]) for j in range(3)],
            axis=0) for k in range(4)])
        new_theta = theta.copy()
        for i in range(3):
            update = np.mean([
                2.0 * (x1[k, 0] - ds.zeta[k, 0])
                * model.grad_a_phi(0.0, ds.xi[k], theta[i], ds.zeta[k],
                                   np.ones(1))
                for k in range(4)], axis=0)
            new_theta[i] = theta[i] - gamma * update
        np.testing.assert_allclose(stepped.particles[:, 0, :], new_theta,
                                   atol=1e-12, rtol=0)

    def test_noise_increment_variance(self):
        # sigma = 1, gamma = 0.01, zero drift and negligible prior: the
        # per-coordinate increments are N(0, sigma^2 gamma); the sample
        # variance over 1e5 draws must land within 2%.
        grid = TimeGrid(1.0, 4)
        model = make_zero_cost_model(1)
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[0.0]]))
        init = cloud_init(20_000, grid, 1, ("constant", 0.0))
        cfg = TrainerConfig(sigma=1.0, prior=gaussian_prior(1e-12, 1),
                            gamma=0.01, n_iters=1, seed=5)
        out = first_update(model, ds, grid, cfg, init)
        incs = out.particles.ravel()
        assert incs.size == 100_000
        assert abs(incs.var() - 0.01) < 0.0002

    def test_nonfinite_step_raises(self):
        # A wildly oversized step blows the particles up within two
        # iterations; the trainer must fail loudly, not emit inf.
        grid = TimeGrid(1.0, 2)
        model, ds, init = quadratic_toy(grid)
        cfg = TrainerConfig(sigma=0.0, prior=gaussian_prior(1.0, 1),
                            gamma=1e200, n_iters=2, seed=0, record_every=0)
        with pytest.raises(NonFiniteParticleError):
            with np.errstate(over="ignore", invalid="ignore"):
                train(model, ds, grid, cfg, init)


class TestTrain:
    def test_zero_iterations_returns_init(self):
        grid = TimeGrid(1.0, 2)
        model, ds, init = quadratic_toy(grid)
        cfg = TrainerConfig(sigma=0.5, prior=gaussian_prior(1.0, 1),
                            gamma=0.01, n_iters=0, seed=0, record_every=1)
        cloud, hist = train(model, ds, grid, cfg, init)
        np.testing.assert_array_equal(cloud.particles, init.particles)
        assert hist.iters == [0]

    def test_quadratic_toy_objective_decreases(self):
        grid = TimeGrid(1.0, 4)
        model, ds, init = quadratic_toy(grid, seed=7)
        cfg = TrainerConfig(sigma=0.05, prior=gaussian_prior(1.0, 1),
                            gamma=1e-3, n_iters=500, seed=7, record_every=0)
        cloud, _ = train(model, ds, grid, cfg, init)
        assert objective_J(model, cloud, ds, grid) \
            < objective_J(model, init, ds, grid)

    def test_long_run_second_moment_stays_bounded(self):
        # sigma > 0 with a strongly convex prior: over 1e4 iterations the
        # integrated second moment settles near its stationary level
        # instead of drifting.
        grid = TimeGrid(1.0, 3)
        model, ds, init = quadratic_toy(grid, n_particles=64, seed=3)
        cfg = TrainerConfig(sigma=1.0, prior=gaussian_prior(2.0, 1),
                            gamma=0.01, n_iters=10_000, seed=3,
                            record_every=500)
        _, hist = train(model, ds, grid, cfg, init)
        tail = np.array(hist.second_moment[5:])
        assert np.all(np.isfinite(tail))
        assert tail.max() < 10.0

    @pytest.mark.parametrize("record_every", [0, 5])
    def test_only_recorded_rows_evaluate_f(self, record_every):
        # The sweep computes the running cost for recorded rows only: one
        # f call per node for each of the rows at 0, 5, 10, 15 and 20.
        grid = TimeGrid(1.0, 2)
        model, ds, init = quadratic_toy(grid, n_particles=4, seed=2)
        calls = []

        def f(t, x, a, zeta_t):
            calls.append(t)
            return model.f(t, x, a, zeta_t)

        cfg = TrainerConfig(sigma=0.5, prior=gaussian_prior(1.0, 1),
                            gamma=0.01, n_iters=20, seed=2,
                            record_every=record_every)
        train(dataclasses.replace(model, f=f), ds, grid, cfg, init)
        assert len(calls) == (5 * grid.n_steps if record_every else 0)

    def test_history_records_expected_columns(self, tmp_path):
        grid = TimeGrid(1.0, 2)
        model, ds, init = quadratic_toy(grid, n_particles=16, seed=2)
        cfg = TrainerConfig(sigma=0.5, prior=gaussian_prior(1.0, 1),
                            gamma=0.01, n_iters=20, seed=2, record_every=5)
        _, hist = train(model, ds, grid, cfg, init)
        assert hist.iters == [0, 5, 10, 15, 20]
        assert all(b > a for a, b in zip(hist.s[:-1], hist.s[1:]))
        assert all(v is not None for v in hist.Jsigma)
        path = tmp_path / "hist.csv"
        hist.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "iter,s,J,Jsigma,grad_norm,second_moment"

    def test_bit_identical_reruns(self):
        grid = TimeGrid(1.0, 3)
        model, ds, init = quadratic_toy(grid, n_particles=16, seed=4)
        cfg = TrainerConfig(sigma=0.7, prior=gaussian_prior(1.0, 1),
                            gamma=0.01, n_iters=50, seed=9, record_every=0)
        a, _ = train(model, ds, grid, cfg, init)
        b, _ = train(model, ds, grid, cfg, init)
        np.testing.assert_array_equal(a.particles, b.particles)

    def test_schedule_and_noise_dt_validation(self):
        prior = gaussian_prior(1.0, 1)
        with pytest.raises(ValueError):
            TrainerConfig(sigma=-1.0, prior=prior, gamma=0.01, n_iters=1)
        for gamma in (0.0, -0.1):
            with pytest.raises(ValueError):
                TrainerConfig(sigma=0.0, prior=prior, gamma=gamma, n_iters=2)
        with pytest.raises(ValueError):
            TrainerConfig(sigma=0.0, prior=prior, gamma=0.01, n_iters=1,
                          noise_dt=0.003)
        cfg = TrainerConfig(sigma=0.0, prior=prior, gamma=0.01, n_iters=3,
                            noise_dt=0.0025)
        np.testing.assert_array_equal(cfg.fine_offsets(), [0, 4, 8, 12])

    @pytest.mark.parametrize("field,value", [
        ("sigma", float("nan")), ("sigma", float("inf")),
        ("gamma", float("nan")), ("gamma", float("inf")),
        ("noise_dt", float("nan")), ("noise_dt", float("inf")),
        ("record_every", -1),
    ])
    def test_non_finite_or_negative_field_rejected(self, field, value):
        # Accepted, a NaN or infinite value fails only at the first update
        # with a misleading message, and a negative period silently turns
        # recording off.
        fields = dict(sigma=0.5, prior=gaussian_prior(1.0, 1), gamma=0.01,
                      n_iters=3)
        with pytest.raises(ValueError, match=field):
            TrainerConfig(**{**fields, field: value})

    def test_coarse_run_consumes_fine_brownian_path(self):
        # Zero drift, pure noise: one run at gamma and one at gamma/4 with
        # shared noise_dt land on the same Brownian endpoint.
        grid = TimeGrid(1.0, 2)
        model = make_zero_cost_model(1)
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[0.0]]))
        init = cloud_init(8, grid, 1, ("constant", 0.0))
        fine_dt = 0.0025
        coarse = TrainerConfig(sigma=1.0, prior=gaussian_prior(1e-12, 1),
                               gamma=0.01, n_iters=10, seed=3,
                               noise_dt=fine_dt)
        fine = TrainerConfig(sigma=1.0, prior=gaussian_prior(1e-12, 1),
                             gamma=0.0025, n_iters=40, seed=3,
                             noise_dt=fine_dt)
        a, _ = train(model, ds, grid, coarse, init)
        b, _ = train(model, ds, grid, fine, init)
        np.testing.assert_allclose(a.particles, b.particles, atol=1e-12)


def coupled_pair(model, ds, grid, cfg, init_a, init_b):
    """Two runs under one Brownian path: the paired distance after every
    iterate (iterate 0 first), and the two final clouds."""
    latest = [init_a, init_b]
    distance = np.zeros(cfg.n_iters + 1)
    distance[0] = paired_distance(init_a.particles, init_b.particles, grid.dt)

    def observe(member, iterate, cloud):
        latest[member] = cloud
        if member == 1:
            distance[iterate] = paired_distance(latest[0].particles,
                                                cloud.particles, grid.dt)

    train(model, ds, grid, cfg, init_b, coupled=[(cfg, init_a)],
          observe=observe)
    return distance, latest


class TestCoupledRuns:
    def test_identical_inits_stay_identical(self):
        grid = TimeGrid(1.0, 3)
        model, ds, init = quadratic_toy(grid, n_particles=16, seed=5)
        cfg = TrainerConfig(sigma=1.0, prior=gaussian_prior(2.0, 1),
                            gamma=0.005, n_iters=30, seed=6, record_every=0)
        distance, _ = coupled_pair(model, ds, grid, cfg, init, init)
        np.testing.assert_array_equal(distance, np.zeros(31))

    def test_strong_regularisation_contracts(self):
        grid = TimeGrid(0.5, 4)
        model = make_linear_drift_model(1)
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        a = cloud_init(16, grid, 1, ("gaussian", 0.0, 1.0), seed=1)
        b = cloud_init(16, grid, 1, ("gaussian", 2.0, 1.0), seed=2)
        cfg = TrainerConfig(sigma=2.0, prior=gaussian_prior(4.0, 1),
                            gamma=0.005, n_iters=120, seed=3, record_every=0)
        distance, _ = coupled_pair(model, ds, grid, cfg, a, b)
        s = cfg.gamma * np.arange(cfg.n_iters + 1)
        logd = np.log(distance[distance > 0] ** 2)
        slope = np.polyfit(s[:logd.size], logd, 1)[0]
        assert slope < 0
        assert distance[-1] < 1e-2 * distance[0]

    def test_unregularised_case_only_stays_bounded(self):
        # sigma = 0 and negligible prior: no contraction claim, only
        # boundedness of the coupled distance on a short run.
        grid = TimeGrid(0.5, 2)
        model = make_linear_drift_model(1)
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        a = cloud_init(8, grid, 1, ("gaussian", 0.0, 1.0), seed=1)
        b = cloud_init(8, grid, 1, ("gaussian", 1.0, 1.0), seed=2)
        cfg = TrainerConfig(sigma=0.0, prior=gaussian_prior(1e-12, 1),
                            gamma=0.005, n_iters=100, seed=3, record_every=0)
        distance, _ = coupled_pair(model, ds, grid, cfg, a, b)
        assert np.all(np.isfinite(distance))
        assert distance.max() < 10.0 * distance[0]

    def test_members_equal_solo_runs_bytewise(self):
        # The shared noise block is drawn once per step; each member must
        # still be exactly the run it would be alone.
        grid = TimeGrid(0.5, 3)
        model = make_builtin_model("neural_ode_tanh", d=2, p_hidden=2,
                                   dim_data=2)
        ds = generate_dataset("regression", 5, 2, 4, grid, target="scaled")
        a = cloud_init(12, grid, model.dim_param, ("gaussian", 0.0, 1.0), seed=1)
        b = cloud_init(12, grid, model.dim_param, ("gaussian", 1.0, 0.5), seed=2)
        cfg = TrainerConfig(sigma=0.7, prior=gaussian_prior(1.5, model.dim_param),
                            gamma=0.01, n_iters=25, seed=8, record_every=0,
                            noise_dt=0.005)
        _, (final_a, final_b) = coupled_pair(model, ds, grid, cfg, a, b)
        solo_a, _ = train(model, ds, grid, cfg, a)
        solo_b, _ = train(model, ds, grid, cfg, b)
        assert final_a.particles.tobytes() == solo_a.particles.tobytes()
        assert final_b.particles.tobytes() == solo_b.particles.tobytes()

    def test_shape_mismatch_rejected(self):
        grid = TimeGrid(1.0, 2)
        model, ds, _ = quadratic_toy(grid)
        a = cloud_init(8, grid, 1, ("gaussian", 0.0, 1.0), seed=1)
        b = cloud_init(9, grid, 1, ("gaussian", 0.0, 1.0), seed=1)
        cfg = TrainerConfig(sigma=0.0, prior=gaussian_prior(1.0, 1),
                            gamma=0.01, n_iters=1, seed=0)
        with pytest.raises(ValueError):
            coupled_pair(model, ds, grid, cfg, a, b)


class TestSharedPath:
    @staticmethod
    def _problem():
        grid = TimeGrid(0.25, 4)
        model = make_builtin_model("one_layer_residual", d=1, p_hidden=1,
                                   dim_data=1)
        ds = generate_dataset("regression", 4, 1, 3, grid, target="scaled")
        init = cloud_init(32, grid, model.dim_param, ("gaussian", 0.0, 1.0),
                          seed=5)
        return model, ds, grid, init

    @pytest.mark.parametrize("ratios,n_iters", [
        ((64, 32, 16, 8), (5, 10, 20, 40)),
        # Not nested, and stretches of 51 slots (16,384 normals over 320
        # per slot) that neither ratio divides: updates straddle stretches.
        ((8, 12), (40, 25)),
        ((12, 8, 1), (9, 13, 107)),
    ])
    def test_members_equal_solo_runs_bytewise(self, drawn, ratios,
                                              n_iters):
        model, ds, grid, init = self._problem()
        noise_dt = 1e-3
        cfgs = [TrainerConfig(sigma=1.0, prior=gaussian_prior(2.0, 2),
                              gamma=m * noise_dt, n_iters=n, seed=6,
                              record_every=0, noise_dt=noise_dt)
                for m, n in zip(ratios, n_iters)]
        finals = group_finals(model, ds, grid, cfgs, [init] * len(cfgs))
        slots = max(m * n for m, n in zip(ratios, n_iters))
        np.testing.assert_array_equal(np.concatenate(drawn).ravel(),
                                      np.arange(slots))
        for cfg, final in zip(cfgs, finals):
            solo, _ = train(model, ds, grid, cfg, init)
            assert final.particles.tobytes() == solo.particles.tobytes()

    @pytest.mark.parametrize("n_iters,noise_dt,record_every",
                             [(1, None, 0), (40, None, 7), (120, 0.0025, 0),
                              (300, 0.005, 50)])
    def test_train_reads_the_path_as_a_one_member_coupled_run(
            self, drawn, n_iters, noise_dt, record_every):
        # 200 particles on 3 nodes: stretches of 27 slots, so the longer
        # runs draw their path in several stretches and updates of 2 or 4
        # slots straddle them.
        grid = TimeGrid(1.0, 2)
        model, ds, init = quadratic_toy(grid, n_particles=200)
        cfg = TrainerConfig(sigma=1.0, prior=gaussian_prior(1.0, 1),
                            gamma=0.01, n_iters=n_iters, seed=2,
                            record_every=record_every, noise_dt=noise_dt)
        final, _ = train(model, ds, grid, cfg, init)
        solo = list(drawn)
        drawn.clear()
        [member] = group_finals(
            model, ds, grid, [dataclasses.replace(cfg, record_every=0)],
            [init])
        assert [f.tolist() for f in drawn] == [f.tolist() for f in solo]
        assert member.particles.tobytes() == final.particles.tobytes()

    def test_updates_are_observed_in_path_order(self):
        model, ds, grid, init = self._problem()
        cfgs = [TrainerConfig(sigma=1.0, prior=gaussian_prior(2.0, 2),
                              gamma=m * 1e-3, n_iters=n, seed=6,
                              noise_dt=1e-3)
                for m, n in ((3, 4), (2, 6))]
        seen = []
        group_finals(model, ds, grid, cfgs, [init, init],
                     lambda j, it, cloud: seen.append((j, it)))
        # Member 0 ends updates on slots 3, 6, 9, 12; member 1 on 2, 4, ...
        assert seen == [(1, 1), (0, 1), (1, 2), (0, 2), (1, 3), (1, 4),
                        (0, 3), (1, 5), (0, 4), (1, 6)]

    @staticmethod
    def _blowup(kind):
        """A model, data, a config and a cloud whose run raises ``kind``,
        and a healthy cloud of the same shape."""
        grid = TimeGrid(1.0, 2)
        ds = Dataset(xi=np.zeros((3, 1)), zeta=np.array([[0.0], [3.0], [3.0]]))
        model = make_linear_drift_model(1)
        gamma = 0.01
        healthy = np.full((4, grid.n_nodes, 1), 0.5)
        bad = healthy.copy()
        if kind is NonFiniteParticleError:
            # No drift and gamma (sigma^2 kappa / 2) = 3: the big particle
            # doubles in size every update until it overflows.
            model = make_zero_cost_model(1)
            gamma, bad[0, 0, 0] = 3.0, 1e303
        elif kind is NonFiniteStateError:
            # Huge A1 weights at node 1 overflow the states from node 2.
            model = make_builtin_model("one_layer_residual", d=1, p_hidden=1,
                                       dim_data=1)
            healthy = np.ones((4, grid.n_nodes, 2))
            bad = healthy.copy()
            bad[:, 1, 0] = 1e308
        else:
            def grad_x_f(t, x, a, z):
                return np.where(np.abs(a) > 1e3, np.inf, 0.0) + 0.0 * x

            model = dataclasses.replace(model, grad_x_f=grad_x_f)
            bad[0, 1, 0] = 1e4
        cfg = TrainerConfig(sigma=1.0, prior=gaussian_prior(2.0, 1),
                            gamma=gamma, n_iters=20, seed=3, record_every=0)
        return (model, ds, grid, cfg, ParticleCloud(particles=bad, grid=grid),
                ParticleCloud(particles=healthy, grid=grid))

    @pytest.mark.parametrize("bad_first", [True, False])
    @pytest.mark.parametrize("kind", [NonFiniteParticleError,
                                      NonFiniteStateError,
                                      NonFiniteCostateError])
    def test_blowup_in_a_group_raises_its_solo_error(self, kind, bad_first):
        # Both members end every update on the same slot, so they share
        # each sweep; the one that blows up raises the text of its solo
        # run, and the healthy one next to it does not change that.
        model, ds, grid, cfg, bad, healthy = self._blowup(kind)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(kind) as solo:
                train(model, ds, grid, cfg, bad)
            inits = [bad, healthy] if bad_first else [healthy, bad]
            with pytest.raises(kind) as group:
                group_finals(model, ds, grid, [cfg, cfg], inits)
        assert str(group.value) == str(solo.value)

    def test_members_must_share_the_path(self):
        model, ds, grid, init = self._problem()
        prior = gaussian_prior(2.0, 2)
        base = TrainerConfig(sigma=1.0, prior=prior, gamma=0.002, n_iters=4,
                             seed=6, noise_dt=1e-3)
        for other in (TrainerConfig(sigma=1.0, prior=prior, gamma=0.002,
                                    n_iters=4, seed=7, noise_dt=1e-3),
                      TrainerConfig(sigma=1.0, prior=prior, gamma=0.002,
                                    n_iters=4, seed=6, noise_dt=2e-3),
                      TrainerConfig(sigma=1.0, prior=prior, gamma=0.002,
                                    n_iters=4, seed=6)):
            with pytest.raises(ValueError, match="one seed"):
                group_finals(model, ds, grid, [base, other], [init, init])


def test_lipschitz_probe_positive_and_deterministic():
    grid = TimeGrid(0.5, 3)
    model = make_linear_drift_model(1)
    ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
    base = cloud_init(16, grid, 1, ("gaussian", 0.0, 1.0), seed=1)
    l1 = lipschitz_probe(model, ds, grid, base, n_probes=6, seed=3)
    l2 = lipschitz_probe(model, ds, grid, base, n_probes=6, seed=3)
    assert l1 == l2
    assert l1 > 0


class TestStepSchedule:
    @pytest.mark.parametrize("n_iters,noise_dt,n_particles",
                             [(30, 0.0025, 8), (130, None, 40),
                              (7, 0.001, 300)])
    def test_each_fine_slot_is_drawn_once(self, drawn, n_iters, noise_dt,
                                          n_particles):
        # Noise is read a stretch of fine slots per draw, at most 2^14
        # normals or one update's block; over the run every fine slot is
        # drawn exactly once, and none past its last update.
        grid = TimeGrid(1.0, 2)
        model, ds, init = quadratic_toy(grid, n_particles=n_particles)
        cfg = TrainerConfig(sigma=1.0, prior=gaussian_prior(1.0, 1),
                            gamma=0.01, n_iters=n_iters, seed=2,
                            record_every=4, noise_dt=noise_dt)
        train(model, ds, grid, cfg, init)
        slots = round(0.01 / noise_dt) if noise_dt else 1
        per_slot = n_particles * grid.n_nodes
        assert max(np.size(f) for f in drawn) * per_slot <= max(
            1 << 14, slots * per_slot)
        assert sum(np.size(f) for f in drawn) == n_iters * slots
        np.testing.assert_array_equal(np.sort(np.concatenate(drawn), None),
                                      np.arange(n_iters * slots))

    def test_recorded_rows_match_fresh_objective(self):
        # Recording reuses the drift's forward sweep; the row must equal
        # what objective_Jsigma computes from scratch.
        grid = TimeGrid(1.0, 3)
        model = make_builtin_model("timeseries_interp", d=1, p_hidden=2,
                                   dim_data=2)
        ds = generate_dataset("timeseries", 6, 1, 3, grid)
        init = cloud_init(16, grid, model.dim_param, ("gaussian", 0.0, 1.0),
                          seed=4)
        cfg = TrainerConfig(sigma=0.5, prior=gaussian_prior(1.0, model.dim_param),
                            gamma=0.01, n_iters=6, seed=5, record_every=3)
        final, hist = train(model, ds, grid, cfg, init)
        fresh = objective_Jsigma(model, final, ds, grid, cfg.sigma, cfg.prior)
        assert hist.J[-1] == fresh.j
        assert hist.Jsigma[-1] == fresh.j_sigma
