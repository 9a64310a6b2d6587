"""Cost evaluation and the exact-gradient contract with its oracle."""

import math

import numpy as np
import pytest

from mflangevin.clouds import cloud_init
from mflangevin.datasets import Dataset, generate_dataset
from mflangevin.grids import TimeGrid
from mflangevin.models import (gaussian_prior, make_builtin_model,
                               make_linear_drift_model)
from mflangevin.objective import (discrete_gradient, finite_diff_gradient,
                                  objective_J, objective_Jsigma)


def constant_running_cost_model():
    """f = 1, phi = a, g = 0: the objective integrates to the horizon."""
    import dataclasses
    base = make_linear_drift_model(1)
    one = lambda t, x, a, z: np.ones(np.broadcast_shapes(
        np.asarray(x).shape[:-1], np.asarray(a).shape[:-1]))
    return dataclasses.replace(
        base, f=one,
        g=lambda x, z: np.zeros(np.asarray(x).shape[:-1]),
        grad_x_g=lambda x, z: np.zeros(np.asarray(x, dtype=float).shape))


class TestObjectiveValues:
    def test_static_state_terminal_cost(self):
        # phi = a with zero particles leaves X = xi; J is the mean of
        # |xi - zeta|^2.
        grid = TimeGrid(1.0, 4)
        model = make_linear_drift_model(1)
        cloud = cloud_init(3, grid, 1, ("constant", 0.0))
        ds = Dataset(xi=np.array([[0.0], [2.0]]), zeta=np.array([[1.0], [0.0]]))
        assert objective_J(model, cloud, ds, grid) == pytest.approx(2.5)

    def test_constant_running_cost_integrates_to_horizon(self):
        grid = TimeGrid(0.7, 5)
        model = constant_running_cost_model()
        cloud = cloud_init(2, grid, 1, ("constant", 0.0))
        ds = Dataset(xi=np.array([[0.3]]), zeta=np.array([[0.0]]))
        assert objective_J(model, cloud, ds, grid) == pytest.approx(0.7)

    def test_regression_closed_form(self):
        # phi(x, a) = a with a node-constant cloud: X_T = xi + mean(a) T,
        # so J = mean |xi + a_bar T - zeta|^2 over three samples.
        grid = TimeGrid(1.0, 4)
        model = make_linear_drift_model(1)
        cloud = cloud_init(5, grid, 1, ("gaussian", 0.1, 0.5), seed=2)
        node0 = cloud.particles[:, :1, :]
        cloud = cloud.with_particles(np.repeat(node0, grid.n_nodes, axis=1))
        a_bar = cloud.particles[:, 0, 0].mean()
        ds = Dataset(xi=np.array([[0.0], [1.0], [-0.5]]),
                     zeta=np.array([[1.0], [0.5], [0.25]]))
        expected = np.mean((ds.xi[:, 0] + a_bar * grid.horizon
                            - ds.zeta[:, 0]) ** 2)
        assert objective_J(model, cloud, ds, grid) == pytest.approx(expected,
                                                                    rel=1e-12)


class TestObjectiveSigma:
    def test_sigma_zero_omits_entropy(self):
        grid = TimeGrid(1.0, 2)
        model = make_linear_drift_model(1)
        cloud = cloud_init(16, grid, 1, ("gaussian", 0.0, 1.0), seed=1)
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        val = objective_Jsigma(model, cloud, ds, grid, 0.0, gaussian_prior(1.0, 1))
        assert val.ent_term is None
        assert val.j_sigma == val.j

    def test_cloud_at_prior_has_small_entropy_term(self):
        grid = TimeGrid(1.0, 4)
        model = make_linear_drift_model(1)
        cloud = cloud_init(10_000, grid, 1, ("gaussian", 0.0, 1.0), seed=3)
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        val = objective_Jsigma(model, cloud, ds, grid, 1.0, gaussian_prior(1.0, 1))
        assert abs(val.ent_term) <= 0.05 * grid.horizon
        assert val.j_sigma == pytest.approx(val.j + val.ent_term)

    def test_shifted_cloud_matches_gaussian_relative_entropy(self):
        # KL(N(1,1) || N(0,1)) = 1/2 per node; integrated with the half
        # sigma^2 weight over T = 1 gives 0.25.
        grid = TimeGrid(1.0, 4)
        model = make_linear_drift_model(1)
        cloud = cloud_init(10_000, grid, 1, ("gaussian", 1.0, 1.0), seed=4)
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        val = objective_Jsigma(model, cloud, ds, grid, 1.0, gaussian_prior(1.0, 1))
        assert val.ent_term == pytest.approx(0.25, abs=0.05)

    def test_duplicate_particles_flag_propagates(self):
        grid = TimeGrid(1.0, 2)
        model = make_linear_drift_model(1)
        cloud = cloud_init(16, grid, 1, ("constant", 1.0))
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        val = objective_Jsigma(model, cloud, ds, grid, 1.0, gaussian_prior(1.0, 1))
        assert math.isinf(val.ent_term)
        assert val.ent_term == math.inf
        assert math.isfinite(val.j)

    def test_one_duplicate_pair_at_a_middle_node_gives_inf(self):
        grid = TimeGrid(1.0, 4)
        model = make_linear_drift_model(1)
        cloud = cloud_init(16, grid, 1, ("gaussian", 0.0, 1.0), seed=2)
        cloud.particles[5, 2] = cloud.particles[9, 2]
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        val = objective_Jsigma(model, cloud, ds, grid, 1.0, gaussian_prior(1.0, 1))
        assert math.isinf(val.ent_term) and math.isinf(val.j_sigma)
        assert val.j == objective_J(model, cloud, ds, grid)

    def test_fewer_particles_than_the_estimator_needs_give_inf(self):
        # Reporting only: a cloud too small for the entropy estimate must
        # not abort the caller.
        grid = TimeGrid(1.0, 2)
        model = make_linear_drift_model(1)
        cloud = cloud_init(4, grid, 1, ("gaussian", 0.0, 1.0), seed=3)
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        val = objective_Jsigma(model, cloud, ds, grid, 1.0, gaussian_prior(1.0, 1))
        assert math.isinf(val.ent_term) and math.isinf(val.j_sigma)
        assert val.ent_term == math.inf
        assert val.j == objective_J(model, cloud, ds, grid)

    def test_given_forward_states_give_the_same_value(self):
        from mflangevin.odes import forward_cost
        grid = TimeGrid(1.0, 4)
        model = make_builtin_model("timeseries_interp", d=2, p_hidden=2,
                                   dim_data=4)
        ds = generate_dataset("timeseries", 5, 2, 8, grid)
        cloud = cloud_init(12, grid, model.dim_param, ("gaussian", 0.0, 1.0),
                           seed=2)
        prior = gaussian_prior(1.0, model.dim_param)
        sweep = forward_cost(model, cloud, ds, grid)
        assert (objective_Jsigma(model, cloud, ds, grid, 0.5, prior,
                                 sweep=sweep)
                == objective_Jsigma(model, cloud, ds, grid, 0.5, prior))

    def test_negative_sigma_rejected(self):
        grid = TimeGrid(1.0, 2)
        model = make_linear_drift_model(1)
        cloud = cloud_init(8, grid, 1, ("gaussian", 0.0, 1.0))
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        with pytest.raises(ValueError):
            objective_Jsigma(model, cloud, ds, grid, -1.0, gaussian_prior(1.0, 1))


class TestGradientConsistency:
    def test_gradient_matches_oracle_over_twenty_seeds(self):
        # The module's core check: exact gradient against central
        # differences on randomised small instances, 2 samples, 3
        # particles, 4 steps, p = 3.
        grid = TimeGrid(1.0, 4)
        model = make_builtin_model("neural_ode_tanh", d=2, p_hidden=1,
                                   dim_data=2)
        worst = 0.0
        for seed in range(20):
            ds = generate_dataset("regression", 2, 2, 300 + seed, grid,
                                  target="scaled")
            cloud = cloud_init(3, grid, model.dim_param,
                               ("gaussian", 0.0, 1.0), seed=seed)
            dg = discrete_gradient(model, cloud, ds, grid)
            fd = finite_diff_gradient(model, cloud, ds, grid, step=1e-5)
            worst = max(worst, float(np.max(np.abs(dg - fd)
                                            / (1.0 + np.abs(fd)))))
        assert worst <= 1e-6

    def test_zero_costs_give_zero_gradient(self):
        import dataclasses
        grid = TimeGrid(1.0, 3)
        model = dataclasses.replace(
            make_linear_drift_model(1),
            g=lambda x, z: np.zeros(np.asarray(x).shape[:-1]),
            grad_x_g=lambda x, z: np.zeros(np.asarray(x, dtype=float).shape))
        cloud = cloud_init(4, grid, 1, ("gaussian", 0.0, 1.0), seed=5)
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        grad = discrete_gradient(model, cloud, ds, grid)
        np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_descent_direction(self):
        # Stepping against the gradient decreases the objective.
        grid = TimeGrid(1.0, 4)
        model = make_builtin_model("neural_ode_tanh", d=2, p_hidden=1,
                                   dim_data=2)
        for seed in range(5):
            ds = generate_dataset("regression", 2, 2, 400 + seed, grid,
                                  target="scaled")
            cloud = cloud_init(3, grid, model.dim_param,
                               ("gaussian", 0.0, 1.0), seed=seed)
            grad = discrete_gradient(model, cloud, ds, grid)
            assert np.linalg.norm(grad) > 0
            moved = cloud.with_particles(cloud.particles - 1e-4 * grad)
            assert objective_J(model, moved, ds, grid) \
                < objective_J(model, cloud, ds, grid)

    def test_finite_difference_richardson_behaviour(self):
        # The gap between step 1e-3 and step 1e-5 estimates shrinks like
        # the square of the step.
        grid = TimeGrid(1.0, 3)
        model = make_builtin_model("neural_ode_tanh", d=1, p_hidden=1,
                                   dim_data=1)
        ds = generate_dataset("regression", 2, 1, 7, grid, target="scaled")
        cloud = cloud_init(2, grid, model.dim_param, ("gaussian", 0.0, 1.0),
                           seed=6)
        exact = discrete_gradient(model, cloud, ds, grid)
        err_coarse = np.max(np.abs(
            finite_diff_gradient(model, cloud, ds, grid, step=1e-3) - exact))
        err_fine = np.max(np.abs(
            finite_diff_gradient(model, cloud, ds, grid, step=1e-5) - exact))
        assert err_fine < err_coarse * 1e-2

    def test_positive_step_required(self):
        grid = TimeGrid(1.0, 2)
        model = make_linear_drift_model(1)
        cloud = cloud_init(2, grid, 1, ("gaussian", 0.0, 1.0))
        ds = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))
        with pytest.raises(ValueError):
            finite_diff_gradient(model, cloud, ds, grid, step=0.0)
