"""Study runners at reduced scale: fits, checks, reports, determinism."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from mflangevin import studies
from mflangevin.config import build_setup, default_config, parse_config
from mflangevin.grids import TimeGrid
from mflangevin.langevin import TrainerConfig, train
from mflangevin.metrics import paired_distance
from mflangevin.models import (gaussian_prior, make_builtin_model,
                               make_linear_drift_model, make_zero_cost_model)
from mflangevin.odes import solve_group
from mflangevin.studies import (StudySetup, fit_loglog, fit_rate,
                                histogram_tv, run_chaos_study,
                                run_contraction_study, run_euler_study,
                                run_generalization_study, run_gibbs_check)


def small_setup(model=None, sigma=1.0, kappa=2.0, gamma=0.01, n_iters=80,
                horizon=0.25, n_steps=4, n_particles=16, n_samples=4,
                target="scaled", seed=21):
    model = model or make_builtin_model("one_layer_residual", d=1,
                                        p_hidden=1, dim_data=1)
    grid = TimeGrid(horizon, n_steps)
    cfg = TrainerConfig(sigma=sigma, prior=gaussian_prior(kappa, model.dim_param),
                        gamma=gamma, n_iters=n_iters, seed=seed,
                        record_every=0)
    return StudySetup(model=model, grid=grid, trainer=cfg,
                      n_particles=n_particles, n_samples=n_samples,
                      dataset_kind="regression", dataset_target=target,
                      dataset_seed=33, init_seed=9)


@pytest.fixture
def mapped(monkeypatch):
    """The items of every ``_map_points`` call a study makes."""
    calls = []
    original = studies._map_points

    def spy(fn, points, threads):
        calls.append(list(points))
        return original(fn, points, threads)

    monkeypatch.setattr(studies, "_map_points", spy)
    return calls


def run_shapes(items):
    """(particles, samples, seed) of each (dataset, init, config) run."""
    return [(init.particles.shape[0], ds.n_samples, cfg.seed)
            for ds, init, cfg in items]


def every_iterate(setup, dataset, init):
    """Particles of a solo run at iterates 0, 1, ..., n_iters."""
    seen = [init.particles]
    train(setup.model, dataset, setup.grid, setup.trainer, init,
          observe=lambda member, it, cloud: seen.append(cloud.particles))
    return seen


class TestFitHelpers:
    def test_loglog_recovers_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope, se = fit_loglog(x, 3.0 * x ** 1.7)
        assert slope == pytest.approx(1.7, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-10)

    def test_rate_fit_recovers_exponential(self):
        s = np.linspace(0, 2, 50)
        slope, _ = fit_rate(s, np.log(5.0 * np.exp(-3.2 * s)))
        assert slope == pytest.approx(-3.2, abs=1e-10)

    def test_histogram_tv_matched_density_small(self):
        rng_vals = np.random.default_rng(0).normal(size=20000)
        tv = histogram_tv(rng_vals, lambda a: -0.5 * a ** 2)
        assert tv < 0.03

    def test_histogram_tv_mismatched_density_large(self):
        rng_vals = np.random.default_rng(0).normal(size=20000)
        tv = histogram_tv(rng_vals, lambda a: -0.5 * (a - 3.0) ** 2)
        assert tv > 0.5


class TestChaosStudy:
    def test_small_grid_slope_in_window(self):
        setup = small_setup(sigma=1.4, kappa=0.5, target="tanh_shift",
                            n_iters=100)
        report = run_chaos_study(setup, [8, 16, 32], [8, 32],
                                 n_ref=256, n1_ref=256, n_reps=3,
                                 snapshot_every=5, slope_bounds=(0.5, 1.5))
        assert report.fits[0].passed
        assert len(report.series["points"]["mse"]) == 6

    def test_degenerate_self_comparison_is_zero(self):
        setup = small_setup(n_iters=30)
        report = run_chaos_study(setup, [32], [16], n_ref=32, n1_ref=16,
                                 n_reps=1, snapshot_every=5,
                                 slope_bounds=(-10, 10))
        assert report.series["points"]["mse"][0] == 0.0

    def test_doubling_particles_roughly_halves_mse(self):
        # With plentiful data the particle term dominates and the ratio
        # between consecutive sizes approaches one half.  The collective
        # fluctuation concentrates slowly, hence the heavy rep averaging.
        setup = small_setup(sigma=1.4, kappa=0.5, target="tanh_shift",
                            n_iters=100)
        report = run_chaos_study(setup, [16, 32], [128], n_ref=512,
                                 n1_ref=128, n_reps=16, snapshot_every=2,
                                 tail_fraction=0.5, slope_bounds=(-10, 10))
        mse = report.series["points"]["mse"]
        ratio = mse[1] / mse[0]
        assert 0.35 <= ratio <= 0.7

    def test_surrogates_train_in_the_points_map(self, mapped):
        setup = small_setup(n_iters=10)
        run_chaos_study(setup, [8, 16], [8], n_ref=32, n1_ref=16, n_reps=2,
                        snapshot_every=5, slope_bounds=(-10, 10), threads=2)
        [items] = mapped
        shapes = run_shapes(items)
        # The surrogates come first, one per rep, then every rep's points.
        assert shapes[:2] == [(32, 16, 21), (32, 16, 22)]
        assert sorted(shapes[2:]) == [(8, 8, 21), (8, 8, 22),
                                      (16, 8, 21), (16, 8, 22)]

    # The MSE pools the squared distances at the tail iterates: 0,
    # snapshot_every, 2 snapshot_every, ... below n_iters, and n_iters,
    # from the cutoff on, as the Gibbs check pools its iterates.
    @pytest.mark.parametrize("n_iters,tail_fraction,tail", [
        (7, 0.25, [7]),  # n_iters not a multiple of 5, no multiple in the tail
        (13, 0.5, [10, 13]),  # n_iters not a multiple, one multiple in the tail
        (12, 1.0, [0, 5, 10, 12]),  # the whole run
        (10, 1.0, [0, 5, 10]),
        (0, 0.25, [0]),
    ])
    def test_reads_the_tail_iterates(self, n_iters, tail_fraction, tail):
        setup = small_setup(n_iters=n_iters)
        report = run_chaos_study(setup, [8], [4], n_ref=16, n1_ref=8,
                                 n_reps=1, snapshot_every=5,
                                 tail_fraction=tail_fraction,
                                 slope_bounds=(-10, 10))
        master = setup.make_dataset(8)
        ref = every_iterate(setup, master, setup.make_cloud(16))
        point = every_iterate(setup, master.subset(4), setup.make_cloud(8))
        want = float(np.mean([paired_distance(point[it], ref[it][:8],
                                              setup.grid.dt) ** 2
                              for it in tail]))
        assert report.series["points"]["mse"] == [want]

    def test_surrogate_must_dominate(self):
        setup = small_setup()
        with pytest.raises(ValueError):
            run_chaos_study(setup, [64], [8], n_ref=32, n1_ref=64)


class TestEulerStudy:
    def test_strong_rate_slope(self):
        setup = small_setup(sigma=1.0, kappa=2.0, n_particles=16,
                            n_samples=4)
        report = run_euler_study(setup, [4e-3, 2e-3, 1e-3], s_final=0.2)
        assert report.fits[0].slope == pytest.approx(2.0, abs=0.4)

    def test_deterministic_runs_show_squared_reduction(self):
        # sigma = 0: halving the step cuts the squared deviation by about
        # four.
        setup = small_setup(sigma=0.0, kappa=2.0)
        report = run_euler_study(setup, [4e-3, 2e-3], s_final=0.2)
        mse = report.series["points"]["mse"]
        assert mse[1] / mse[0] == pytest.approx(0.25, abs=0.12)

    def test_final_clouds_equal_solo_runs_bytewise(self, monkeypatch):
        # The coarse runs and the reference share one draw of the path as
        # one train call, the coarse runs coupled to the reference; each
        # must still end on the cloud train returns for it alone.
        setup = small_setup(n_particles=16, n_samples=4)
        finals, members = {}, []

        def spy(model, dataset, grid, cfg, init, *, coupled, observe):
            cfgs = [c for c, _ in coupled] + [cfg]
            members.append(len(cfgs))

            def watch(member, iterate, cloud):
                finals[cfgs[member].gamma] = cloud
                observe(member, iterate, cloud)

            return true_train(model, dataset, grid, cfg, init,
                              coupled=coupled, observe=watch)

        true_train = studies.train
        monkeypatch.setattr(studies, "train", spy)
        # Slot ratios 5, 3, 2 and 1 on 300 slots, drawn in stretches of 102
        # (16,384 normals over 160 per slot): some updates straddle two.
        gammas = [4e-3, 2.4e-3, 1.6e-3]
        report = run_euler_study(setup, gammas, s_final=0.24, ref_divisor=2)
        # One train call runs the whole group of four members.
        assert members == [4]
        assert sorted(finals) == sorted(gammas + [8e-4])
        dataset = setup.make_dataset(setup.n_samples)
        init = setup.make_cloud(setup.n_particles)
        for gamma, cloud in finals.items():
            cfg = replace(setup.trainer, gamma=gamma,
                          n_iters=round(0.24 / gamma), noise_dt=8e-4)
            solo, _ = train(setup.model, dataset, setup.grid, cfg, init)
            assert cloud.particles.tobytes() == solo.particles.tobytes()
        ref = finals[8e-4].particles
        mse = [paired_distance(finals[g].particles, ref, setup.grid.dt) ** 2
               for g in gammas]
        assert report.series["points"]["mse"] == mse

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_fine_slot_is_drawn_once(self, drawn, threads):
        # The reference run is a member of the coarse runs' group, so the
        # study draws its 300 fine slots once, not once per run.
        setup = small_setup(n_particles=16, n_samples=4)
        run_euler_study(setup, [4e-3, 2.4e-3, 1.6e-3], s_final=0.24,
                        ref_divisor=2, threads=threads)
        np.testing.assert_array_equal(np.concatenate(drawn).ravel(),
                                      np.arange(300))

    def test_outputs_do_not_depend_on_threads(self, tmp_path):
        setup = small_setup(n_particles=16, n_samples=4)
        for threads in (1, 2):
            run_euler_study(setup, [4e-3, 2e-3, 1e-3], s_final=0.2,
                            threads=threads).write(tmp_path / str(threads))
        names = sorted(p.name for p in (tmp_path / "1").iterdir()
                       if p.suffix in (".csv", ".dat"))
        assert names == ["euler_mse_vs_gamma.dat", "euler_points.csv"]
        for name in names:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes())

    def test_incompatible_schedule_rejected(self):
        setup = small_setup()
        with pytest.raises(ValueError):
            run_euler_study(setup, [3e-3, 1e-3], s_final=0.2)
        with pytest.raises(ValueError):
            run_euler_study(setup, [4e-3], s_final=0.2)
        for gammas, s_final in (([4e-3, 2e-3], 0.0), ([4e-3, 2e-3], -1.0),
                                ([4e-3, 0.0], 0.2), ([4e-3, -2e-3], 0.2)):
            with pytest.raises(ValueError, match="positive"):
                run_euler_study(setup, gammas, s_final=s_final)


class TestContractionStudy:
    def test_rates_negative_and_near_prediction(self):
        setup = small_setup(model=make_linear_drift_model(1), sigma=2.0,
                            kappa=4.0, gamma=5e-3, n_iters=120, horizon=0.5,
                            n_particles=16)
        report = run_contraction_study(setup, n_pairs=4)
        assert report.passed
        assert all(r > 0 for r in report.series["rates"]["fitted_rate"])

    def test_summary_records_shift(self, tmp_path):
        # shift sets every pair's second initial law, so a summary without
        # it cannot be rerun.
        setup = small_setup(model=make_linear_drift_model(1), sigma=1.0,
                            kappa=2.0, n_iters=10)
        report = run_contraction_study(setup, n_pairs=1, shift=3.0)
        report.write(tmp_path)
        with open(tmp_path / "contraction_summary.json") as fh:
            config = json.load(fh)["config"]
        assert config["shift"] == 3.0
        a = setup.make_cloud(setup.n_particles, seed_shift=0,
                             init=("gaussian", 0.0, 1.0))
        b = setup.make_cloud(setup.n_particles, seed_shift=1,
                             init=("gaussian", config["shift"], 1.0))
        assert report.series["distance_pair0"]["distance"][0] == \
            paired_distance(a.particles, b.particles, setup.grid.dt)

    def test_empty_pair_list_rejected_before_any_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("lipschitz_probe", "train"):
            monkeypatch.setattr(studies, name, forbidden)
        setup = small_setup(model=make_linear_drift_model(1))
        with pytest.raises(ValueError, match="at least one pair"):
            run_contraction_study(setup, n_pairs=0)


class TestGibbsCheck:
    def test_drift_free_cloud_matches_prior(self):
        setup = small_setup(model=make_zero_cost_model(1), sigma=1.4142,
                            kappa=1.0, gamma=0.05, n_iters=240, horizon=0.5,
                            n_particles=1024, n_samples=1)
        report = run_gibbs_check(setup, tv_threshold=0.08)
        assert report.checks[0].passed

    def test_quadratic_toy_matches_gibbs_density(self):
        setup = small_setup(model=make_linear_drift_model(1), sigma=1.5,
                            kappa=2.0, gamma=0.02, n_iters=300, horizon=0.5,
                            n_particles=1024, n_samples=4)
        report = run_gibbs_check(setup, tv_threshold=0.1)
        assert report.checks[0].passed

    def test_sigma_sweep_monotone_towards_prior(self):
        setup = small_setup(model=make_linear_drift_model(1), sigma=1.0,
                            kappa=2.0, gamma=0.02, n_iters=200, horizon=0.5,
                            n_particles=512, n_samples=4)
        report = run_gibbs_check(setup, tv_threshold=0.15,
                                 sigma_sweep=(1.0, 2.0, 4.0))
        sweep = report.series["sigma_sweep"]["max_tv_vs_prior"]
        assert sweep[0] > sweep[1] > sweep[2]

    # Each node's histogram pools the clouds at 0, snapshot_every,
    # 2 snapshot_every, ... below n_iters, and at n_iters, from the
    # burn-in cutoff on; each of them once.
    @pytest.mark.parametrize("n_iters,burn_in_fraction,pooled", [
        (7, 0.5, [6, 7]),  # n_iters not a multiple of 3
        (7, 0.0, [0, 3, 6, 7]),
        (7, 1.0, [7]),
        (6, 0.0, [0, 3, 6]),
        (0, 0.0, [0]),
        (0, 1.0, [0]),
    ])
    def test_pools_the_iterates_after_burn_in(self, n_iters, burn_in_fraction,
                                              pooled):
        setup = small_setup(model=make_linear_drift_model(1), sigma=1.0,
                            n_iters=n_iters, n_particles=16)
        report = run_gibbs_check(setup, burn_in_fraction=burn_in_fraction,
                                 snapshot_every=3)
        dataset = setup.make_dataset(setup.n_samples)
        seen = every_iterate(setup, dataset, setup.make_cloud(16))
        final = setup.make_cloud(16).with_particles(seen[-1])
        (x,), (p,), _, _ = solve_group(setup.model, [final], dataset,
                                       setup.grid)
        cfg = setup.trainer
        want = []
        for l in range(setup.grid.n_nodes):
            def log_density(a, node=l):
                return studies.gibbs_log_density(
                    setup.model, dataset, setup.grid, node, cfg.sigma,
                    cfg.prior, a, (x, p))
            samples = np.concatenate([seen[it][:, l, 0] for it in pooled])
            want.append(histogram_tv(samples, log_density))
        assert report.series["per_node_tv"]["tv"] == want

    def test_sweep_evaluates_each_density_once_per_node(self, monkeypatch):
        # Every Gibbs density solves phi and f on the whole quadrature
        # grid, so each node's TV evaluates both densities once.
        setup = small_setup(model=make_linear_drift_model(1), sigma=1.0,
                            n_iters=10, n_particles=16)
        original = studies._density_tv
        counts = []

        def counting(log_q1, log_q2, lo, hi, **kwargs):
            count = [0, 0]

            def counted(j, log_q):
                def wrapped(xs):
                    count[j] += 1
                    return log_q(xs)
                return wrapped

            counts.append(count)
            return original(counted(0, log_q1), counted(1, log_q2), lo, hi,
                            **kwargs)

        monkeypatch.setattr(studies, "_density_tv", counting)
        run_gibbs_check(setup, sigma_sweep=(1.0, 2.0))
        assert counts == [[1, 1]] * (2 * setup.grid.n_steps)

    def test_nan_at_a_later_node_fails_the_check(self, monkeypatch):
        # Python's max skips a NaN unless it comes first; a NaN total
        # variation at node 1 must still fail both checks.
        config = default_config("gibbs")
        config["trainer"]["n_iters"] = 40
        config["init"]["n_particles"] = 256
        setup = build_setup(parse_config(config))
        for name in ("histogram_tv", "_density_tv"):
            original = getattr(studies, name)
            calls = []

            def nan_at_node_1(*args, original=original, calls=calls,
                              **kwargs):
                calls.append(None)
                tv = original(*args, **kwargs)
                return math.nan if len(calls) == 2 else tv

            monkeypatch.setattr(studies, name, nan_at_node_1)
        report = run_gibbs_check(setup, sigma_sweep=(1.5, 3.0))
        node_tv, sweep = report.checks
        assert math.isnan(node_tv.value) and not node_tv.passed
        assert math.isnan(report.series["sigma_sweep"]["max_tv_vs_prior"][0])
        assert not sweep.passed

    def test_multidimensional_parameters_rejected(self):
        setup = small_setup(model=make_builtin_model("one_layer_residual",
                                                     d=1, p_hidden=1,
                                                     dim_data=1))
        with pytest.raises(ValueError):
            run_gibbs_check(setup)


class TestGeneralizationStudy:
    def test_gap_scaling_smoke(self):
        # Reduced-scale smoke check: the gap grows with 1/N1 at a positive
        # rate.  The tight slope window is enforced at full scale by the
        # acceptance suite.
        setup = small_setup(sigma=1.4, kappa=1.0, gamma=1e-2, n_iters=600,
                            n_particles=128, target="scaled", seed=5)
        report = run_generalization_study(setup, [8, 32], holdout_n=1024,
                                          n_seeds=3, ref_particles=256,
                                          ref_samples=256,
                                          slope_bounds=(0.0, 2.2))
        assert report.fits[0].passed
        gaps = report.series["points"]["mean_sq_gap"]
        assert gaps[0] > gaps[1]

    def test_training_on_holdout_leaves_optimisation_error_only(self):
        # Degenerate: the study's statistical term vanishes when the
        # training set is the holdout itself, leaving a much smaller gap.
        setup = small_setup(sigma=1.4, kappa=1.0, gamma=5e-3, n_iters=400,
                            n_particles=128, target="scaled", seed=5)
        big = run_generalization_study(setup, [128], holdout_n=128,
                                       n_seeds=1, ref_particles=256,
                                       ref_samples=256,
                                       slope_bounds=(-10, 10))
        small = run_generalization_study(setup, [8], holdout_n=512,
                                         n_seeds=2, ref_particles=256,
                                         ref_samples=256,
                                         slope_bounds=(-10, 10))
        assert big.series["points"]["mean_sq_gap"][0] \
            < small.series["points"]["mean_sq_gap"][0]

    def test_reference_trains_in_the_points_map(self, mapped):
        setup = small_setup(n_iters=10)
        run_generalization_study(setup, [8, 16], holdout_n=32, n_seeds=2,
                                 ref_particles=64, ref_samples=48,
                                 slope_bounds=(-10, 10), threads=2)
        [items] = mapped
        shapes = run_shapes(items)
        assert shapes[0] == (64, 48, 21)
        assert sorted(shapes[1:]) == [(16, 8, 21)] * 2 + [(16, 16, 21)] * 2

    def test_outputs_do_not_depend_on_threads(self, tmp_path):
        setup = small_setup(n_iters=30)
        for threads in (1, 2):
            run_generalization_study(
                setup, [8, 16], holdout_n=64, n_seeds=3, ref_particles=64,
                ref_samples=32, slope_bounds=(-10, 10),
                threads=threads).write(tmp_path / str(threads))
        names = sorted(p.name for p in (tmp_path / "1").iterdir()
                       if p.suffix in (".csv", ".dat"))
        assert names == ["generalization_gap_vs_invn1.dat",
                         "generalization_gaps.csv",
                         "generalization_points.csv"]
        for name in names:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes())

    def test_holdout_must_dominate(self):
        setup = small_setup()
        with pytest.raises(ValueError):
            run_generalization_study(setup, [64], holdout_n=32)


class TestCheckStudy:
    # A zero count once died in numpy or range(), or reported NaN after
    # training, and a fraction outside [0, 1] could pool no iterate; each
    # now fails before any run starts.
    @pytest.mark.parametrize("run,kwargs,key", [
        (run_chaos_study, dict(n_reps=0), "n_reps"),
        (run_chaos_study, dict(snapshot_every=0), "snapshot_every"),
        (run_chaos_study, dict(tail_fraction=-0.5), "tail_fraction"),
        (run_gibbs_check, dict(snapshot_every=0), "snapshot_every"),
        (run_gibbs_check, dict(burn_in_fraction=1.5), "burn_in_fraction"),
        (run_generalization_study, dict(n_seeds=0), "n_seeds"),
    ], ids=["chaos-reps", "chaos-every", "chaos-tail", "gibbs-every",
            "gibbs-burn-in", "generalization-seeds"])
    def test_bad_count_or_fraction_rejected_before_any_work(
            self, run, kwargs, key, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(studies, "train", forbidden)
        setup = small_setup(model=make_linear_drift_model(1))
        with pytest.raises(ValueError, match=f"^{key} must be"):
            run(setup, **kwargs)


class TestMapPoints:
    def test_blas_threads_are_shared_and_restored(self):
        blas = studies._openblas()
        if blas is None:
            pytest.skip("numpy does not bundle OpenBLAS")
        get, _ = blas
        before = get()
        share = max(1, len(os.sched_getaffinity(0)) // 2)
        assert studies._map_points(lambda _: get(), range(4), 2) == [share] * 4
        assert get() == before
        assert studies._map_points(lambda _: get(), range(2), 1) == [before] * 2

        def failing(_):
            raise RuntimeError("run failed")

        with pytest.raises(RuntimeError, match="run failed"):
            studies._map_points(failing, range(4), 2)
        assert get() == before


class TestReports:
    def test_report_files_and_rerun_identity(self, tmp_path):
        setup = small_setup(model=make_linear_drift_model(1), sigma=2.0,
                            kappa=4.0, gamma=5e-3, n_iters=60, horizon=0.5)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        rep1 = run_contraction_study(setup, n_pairs=3, threads=1)
        rep2 = run_contraction_study(setup, n_pairs=3, threads=3)
        rep1.write(out1)
        rep2.write(out2)
        for name in ("contraction_rates.csv", "contraction_distance_pair0.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        summary = json.loads((out1 / "contraction_summary.json").read_text())
        assert summary["kind"] == "contraction"
        assert all("passed" in c for c in summary["checks"])

    def test_pass_fail_lines_cite_thresholds(self):
        setup = small_setup(model=make_linear_drift_model(1), sigma=2.0,
                            kappa=4.0, gamma=5e-3, n_iters=40, horizon=0.5)
        report = run_contraction_study(setup, n_pairs=2)
        lines = report.summary_lines()
        assert any("threshold" in line for line in lines)
        assert all(line.startswith(("[PASS]", "[FAIL]")) for line in lines)
