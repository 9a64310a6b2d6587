"""Acceptance criteria at full scale.

Each test runs one criterion at its stated tolerance and prints a
[PASS]/[FAIL] line (visible with ``pytest -s`` or in the captured output).
The configurations here are the same desk-scale defaults the command-line
studies run; every tolerance and runtime bound is asserted.
"""

import time
from dataclasses import replace

import numpy as np

from mflangevin.clouds import cloud_init
from mflangevin.config import (GRAD_CHECK_SEEDS, GRAD_CHECK_TOL, build_setup,
                               default_config, parse_config)
from mflangevin.datasets import Dataset, generate_dataset
from mflangevin.grids import TimeGrid
from mflangevin.langevin import TrainerConfig, train
from mflangevin.models import (gaussian_prior, make_builtin_model,
                               make_linear_drift_model, make_zero_cost_model)
from mflangevin.objective import discrete_gradient, finite_diff_gradient
from mflangevin.studies import (StudySetup, run_chaos_study,
                                run_contraction_study, run_euler_study,
                                run_generalization_study, run_gibbs_check)


def _report(name, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {name}: {detail}")
    return passed


def _setup_from_default(kind):
    return build_setup(parse_config(default_config(kind)))


def test_criterion_1_gradient_exactness():
    """Exact gradient vs finite differences: 20 seeded small instances."""
    t0 = time.perf_counter()
    setup = _setup_from_default("grad-check")
    model, grid = setup.model, setup.grid
    assert model.dim_param == 3
    worst = 0.0
    for seed in range(GRAD_CHECK_SEEDS):
        ds = setup.make_dataset(setup.n_samples, seed_shift=seed)
        cloud = setup.make_cloud(setup.n_particles, seed_shift=seed)
        dg = discrete_gradient(model, cloud, ds, grid)
        fd = finite_diff_gradient(model, cloud, ds, grid, step=1e-5)
        worst = max(worst, float(np.max(np.abs(dg - fd) / (1 + np.abs(fd)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= GRAD_CHECK_TOL and elapsed < 10.0
    assert _report("criterion 1 (gradient exactness)", ok,
                   f"max rel dev {worst:.3e} <= {GRAD_CHECK_TOL}, "
                   f"{GRAD_CHECK_SEEDS} seeds, {elapsed:.1f}s < 10s")


def test_criterion_2_classical_gradient_descent_reduction():
    """One layer, one step, sigma=0: the trainer's first update equals the
    hand-coded step."""
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 1)
    model = make_builtin_model("one_layer_residual", d=1, p_hidden=1,
                               dim_data=1)
    ds = generate_dataset("regression", 8, 1, 5, grid, target="scaled")
    init = cloud_init(4, grid, model.dim_param, ("gaussian", 0.1, 0.7),
                      seed=3)
    gamma = 0.03
    cfg = TrainerConfig(sigma=0.0, prior=gaussian_prior(1.0, model.dim_param),
                        gamma=gamma, n_iters=1, seed=0)
    stepped, _ = train(model, ds, grid, replace(cfg, n_iters=1,
                                                record_every=0), init)

    theta = init.particles[:, 0, :]
    n1, n2 = ds.n_samples, init.n_particles
    x1 = np.stack([
        ds.xi[k] + grid.dt * np.mean(
            [model.phi(0.0, ds.xi[k], theta[j], ds.zeta[k])
             for j in range(n2)], axis=0)
        for k in range(n1)])
    direct = theta.copy()
    for i in range(n2):
        grad = np.mean([
            2.0 * (x1[k, 0] - ds.zeta[k, 0])
            * model.grad_a_phi(0.0, ds.xi[k], theta[i], ds.zeta[k],
                               np.ones(1))
            for k in range(n1)], axis=0)
        direct[i] = theta[i] - gamma * grad
    dev = float(np.max(np.abs(stepped.particles[:, 0, :] - direct)))
    ok = dev <= 1e-12
    assert _report("criterion 2 (classical reduction)", ok,
                   f"max abs dev {dev:.2e} <= 1e-12, "
                   f"{time.perf_counter() - t0:.1f}s")


def test_criterion_3_monotone_descent():
    """Quadratic toy, sigma=0, gamma=1e-3: J strictly decreases, 19/20 seeds."""
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 4)
    model = make_linear_drift_model(1)
    ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
    good = 0
    for seed in range(20):
        init = cloud_init(8, grid, 1, ("gaussian", 0.0, 1.0), seed=seed)
        cfg = TrainerConfig(sigma=0.0, prior=gaussian_prior(1.0, 1),
                            gamma=1e-3, n_iters=100, seed=seed,
                            record_every=1)
        _, hist = train(model, ds, grid, cfg, init)
        good += int(all(b < a for a, b in zip(hist.J[:-1], hist.J[1:])))
    elapsed = time.perf_counter() - t0
    ok = good >= 19 and elapsed < 30.0
    assert _report("criterion 3 (monotone descent)", ok,
                   f"{good}/20 seeds strictly decreasing, "
                   f"{elapsed:.1f}s < 30s")


def test_criterion_4_contraction():
    """Coupled-pair contraction in the strongly regularised regime."""
    t0 = time.perf_counter()
    setup = _setup_from_default("contraction")
    cfg = setup.trainer
    report = run_contraction_study(setup, n_pairs=20)
    l_hat = report.config["lipschitz_probe"]
    regime = cfg.sigma ** 2 * cfg.prior.kappa \
        >= 10.0 * l_hat * max(1.0, setup.grid.horizon)
    elapsed = time.perf_counter() - t0
    negative = report.checks[0]
    factor = report.checks[1]
    ok = (regime and negative.passed and factor.passed and elapsed < 120.0)
    assert _report(
        "criterion 4 (contraction)", ok,
        f"regime sigma^2 kappa = {cfg.sigma**2 * cfg.prior.kappa:.1f} >= "
        f"{10 * l_hat * max(1.0, setup.grid.horizon):.2f}, negative slopes "
        f"{int(negative.value)}/20, worst rate factor {factor.value:.2f} <= 3, "
        f"{elapsed:.0f}s < 120s")


def test_criterion_5_propagation_of_chaos():
    """log MSE vs log(1/N1 + 1/N2) slope in [0.7, 1.3], N_ref = 2048."""
    t0 = time.perf_counter()
    setup = _setup_from_default("chaos")
    report = run_chaos_study(setup, [16, 32, 64, 128], [8, 32, 128],
                             n_ref=2048, n1_ref=512, n_reps=3,
                             snapshot_every=5, threads=2)
    fit = report.fits[0]
    elapsed = time.perf_counter() - t0
    ok = fit.passed and elapsed < 600.0
    assert _report("criterion 5 (propagation of chaos)", ok,
                   f"slope {fit.slope:.3f} in [0.7, 1.3] "
                   f"(se {fit.stderr:.3f}), {elapsed:.0f}s < 600s")


def test_criterion_6_euler_rate():
    """log MSE vs log gamma slope in [1.6, 2.4] under pathwise coupling."""
    t0 = time.perf_counter()
    setup = _setup_from_default("euler")
    report = run_euler_study(setup, [4e-3, 2e-3, 1e-3, 5e-4], s_final=1.0,
                             ref_divisor=8, threads=2)
    fit = report.fits[0]
    elapsed = time.perf_counter() - t0
    ok = fit.passed and elapsed < 300.0
    assert _report("criterion 6 (training-step rate)", ok,
                   f"slope {fit.slope:.3f} in [1.6, 2.4] "
                   f"(se {fit.stderr:.3f}), {elapsed:.0f}s < 300s")


def test_criterion_7_gibbs_stationarity():
    """Stationary histograms against the prior and the Gibbs density."""
    t0 = time.perf_counter()
    free_grid = TimeGrid(0.5, 4)
    free_cfg = TrainerConfig(sigma=float(np.sqrt(2.0)),
                             prior=gaussian_prior(1.0, 1), gamma=0.05,
                             n_iters=400, seed=3, record_every=0)
    free_setup = StudySetup(model=make_zero_cost_model(1), grid=free_grid,
                            trainer=free_cfg, n_particles=4096, n_samples=1,
                            dataset_kind="regression",
                            dataset_target="identity", dataset_seed=7,
                            init_seed=2)
    free_report = run_gibbs_check(free_setup, tv_threshold=0.08)
    free_tv = free_report.checks[0].value

    toy_setup = _setup_from_default("gibbs")
    toy_report = run_gibbs_check(toy_setup, tv_threshold=0.1)
    toy_tv = toy_report.checks[0].value
    elapsed = time.perf_counter() - t0
    ok = (free_report.checks[0].passed and toy_report.checks[0].passed
          and elapsed < 180.0)
    assert _report("criterion 7 (Gibbs stationarity)", ok,
                   f"drift-free TV {free_tv:.3f} <= 0.08, toy TV "
                   f"{toy_tv:.3f} <= 0.1, {elapsed:.0f}s < 180s")


def test_criterion_8_generalization_scaling():
    """Squared out-of-sample gap vs 1/N1 slope in [0.6, 1.4], holdout 4096."""
    t0 = time.perf_counter()
    setup = _setup_from_default("generalization")
    report = run_generalization_study(setup, [8, 16, 32, 64], holdout_n=4096,
                                      n_seeds=6, ref_particles=512,
                                      ref_samples=512, threads=2)
    fit = report.fits[0]
    elapsed = time.perf_counter() - t0
    ok = fit.passed and elapsed < 600.0
    assert _report("criterion 8 (generalization scaling)", ok,
                   f"slope {fit.slope:.3f} in [0.6, 1.4] "
                   f"(se {fit.stderr:.3f}), {elapsed:.0f}s < 600s")


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed give byte-identical CSVs at any thread count."""
    t0 = time.perf_counter()
    setup = _setup_from_default("chaos")
    from dataclasses import replace
    setup = replace(setup, trainer=replace(setup.trainer, n_iters=40))
    outputs = []
    for tag, threads in (("a", 1), ("b", 4), ("c", 1)):
        report = run_chaos_study(setup, [8, 16], [8, 16], n_ref=64,
                                 n1_ref=32, n_reps=2, snapshot_every=5,
                                 slope_bounds=(-10, 10), threads=threads)
        out = tmp_path / tag
        report.write(out)
        outputs.append((out / "chaos_points.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    assert _report("criterion 9 (determinism)", ok,
                   f"3 reruns byte-identical across thread counts, "
                   f"{time.perf_counter() - t0:.0f}s")
