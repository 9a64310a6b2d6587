"""Forward/adjoint sweeps and the drift assembly against closed forms."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mflangevin.clouds import ParticleCloud, cloud_init
from mflangevin.datasets import Dataset
from mflangevin.exceptions import NonFiniteCostateError, NonFiniteStateError
from mflangevin.grids import TimeGrid
from mflangevin.models import (ModelSpec, make_builtin_model,
                               make_linear_drift_model, make_zero_cost_model)
from mflangevin.odes import forward_cost, mean_field_drift, solve_group
from mflangevin.objective import discrete_gradient, finite_diff_gradient, objective_J


def _scalar_dataset(xi=1.0, zeta=0.0):
    return Dataset(xi=np.array([[xi]]), zeta=np.array([[zeta]]))


def _one_sample_paths(model, cloud, ds, grid):
    """State and costate paths of a one-sample dataset, each (n_nodes, d)."""
    (x,), (p,), _, _ = solve_group(model, [cloud], ds, grid)
    return x[0], p[0]


def make_scaling_model(rate=1.0):
    """phi(x, a) = rate * a * x in one dimension (analytic exponential flow)."""
    def phi(t, x, a, z):
        return rate * np.asarray(a) * np.asarray(x)

    def grad_x_phi(t, x, a, z, p):
        return rate * np.asarray(a) * np.asarray(p)

    def grad_a_phi(t, x, a, z, p):
        return rate * np.asarray(x) * np.asarray(p)

    zero = lambda t, x, a, z: np.zeros(np.broadcast_shapes(
        np.asarray(x).shape[:-1], np.asarray(a).shape[:-1]))
    zerov = lambda t, x, a, z: np.zeros(np.broadcast_shapes(
        np.asarray(x).shape[:-1], np.asarray(a).shape[:-1]) + (1,))
    return ModelSpec(
        dim_state=1, dim_param=1, dim_data=1,
        phi=phi, grad_x_phi=grad_x_phi, grad_a_phi=grad_a_phi,
        f=zero, grad_x_f=zerov, grad_a_f=zerov,
        g=lambda x, z: np.sum((np.asarray(x) - np.asarray(z)) ** 2, axis=-1),
        grad_x_g=lambda x, z: 2.0 * (np.asarray(x) - np.asarray(z)))


class TestForward:
    def test_zero_drift_keeps_state_constant(self):
        grid = TimeGrid(1.0, 6)
        model = make_zero_cost_model(1)
        cloud = cloud_init(3, grid, 1, ("constant", 0.0))
        x, _ = forward_cost(model, cloud, _scalar_dataset(xi=0.7), grid)
        np.testing.assert_array_equal(x, 0.7 * np.ones((1, 7, 1)))

    def test_state_independent_drift_is_exact(self):
        # phi(x, a) = a with a constant particle: Euler is exact,
        # X_T = xi + a T.
        grid = TimeGrid(1.0, 5)
        model = make_linear_drift_model(1)
        cloud = cloud_init(1, grid, 1, ("constant", 2.0))
        x = forward_cost(model, cloud, _scalar_dataset(xi=1.0), grid)[0][0]
        assert x[-1, 0] == pytest.approx(3.0, abs=1e-14)

    def test_exponential_flow_first_order_convergence(self):
        # phi(x, a) = a x with a = 1 from xi = 1: X_T = e at T = 1.  The
        # error must halve with the step, observed order within [0.9, 1.1].
        model = make_scaling_model()
        ds = _scalar_dataset(xi=1.0)
        errs = []
        for k in range(4, 9):
            grid = TimeGrid(1.0, 2 ** k)
            cloud = cloud_init(1, grid, 1, ("constant", 1.0))
            x = forward_cost(model, cloud, ds, grid)[0][0]
            errs.append(abs(x[-1, 0] - math.e))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 0.9) and np.all(orders < 1.1)

    def test_blowup_raises_nonfinite_error(self):
        model = make_scaling_model(rate=1.0)
        grid = TimeGrid(1.0, 4)
        cloud = cloud_init(1, grid, 1, ("constant", 1e308))
        with pytest.raises(NonFiniteStateError):
            with np.errstate(over="ignore", invalid="ignore"):
                forward_cost(model, cloud, _scalar_dataset(xi=1.0), grid)

    def test_builtin_blowup_names_node_and_sample(self):
        # one_layer_residual's forward stacks every node's units at once.
        # Huge A1 weights at node 2 overflow the drift of the samples whose
        # units are nonzero (data 3, not 0), so node 3 is the first bad one.
        model = make_builtin_model("one_layer_residual", d=1, p_hidden=1,
                                   dim_data=1)
        grid = TimeGrid(1.0, 4)
        theta = np.ones((2, grid.n_nodes, 2))
        theta[:, 2, 0] = 1e308
        cloud = ParticleCloud(particles=theta, grid=grid)
        ds = Dataset(xi=np.zeros((3, 1)), zeta=np.array([[0.0], [3.0], [3.0]]))
        with pytest.raises(NonFiniteStateError,
                           match="non-finite state at node 3, sample 1 "):
            with np.errstate(over="ignore", invalid="ignore"):
                forward_cost(model, cloud, ds, grid)


class TestAdjoint:
    def test_state_independent_drift_constant_costate(self):
        # grad_x phi = 0 and f = 0: the costate stays at the terminal
        # gradient 2 (X_T - zeta).
        grid = TimeGrid(1.0, 5)
        model = make_builtin_model("one_layer_residual", d=1, p_hidden=1,
                                   dim_data=1)
        cloud = cloud_init(4, grid, model.dim_param, ("gaussian", 0.0, 1.0),
                           seed=1)
        x, p = _one_sample_paths(model, cloud,
                                 _scalar_dataset(xi=0.2, zeta=0.9), grid)
        expected = 2.0 * (x[-1, 0] - 0.9)
        np.testing.assert_allclose(p[:, 0], expected, rtol=0, atol=1e-14)

    def test_product_formula_and_integrating_factor_limit(self):
        # phi(x, a) = a x with a = 1, f = 0: p_l = p_n (1 + dt)^(n-l),
        # approaching grad g * e^(T-t) as the grid refines.
        model = make_scaling_model()
        ds = _scalar_dataset(xi=1.0, zeta=0.0)
        for n in (8, 64, 512):
            grid = TimeGrid(1.0, n)
            cloud = cloud_init(1, grid, 1, ("constant", 1.0))
            _, p = _one_sample_paths(model, cloud, ds, grid)
            dt = grid.dt
            closed = p[-1, 0] * (1.0 + dt) ** (n - np.arange(n + 1))
            np.testing.assert_allclose(p[:, 0], closed, rtol=1e-12)
        # continuous limit at t = 0
        cont = p[-1, 0] * math.e
        assert p[0, 0] == pytest.approx(cont, rel=2e-3)

    def test_zero_costs_give_zero_costate(self):
        grid = TimeGrid(1.0, 4)
        model = make_zero_cost_model(2)
        cloud = cloud_init(3, grid, 2, ("gaussian", 0.0, 1.0), seed=2)
        ds = Dataset(xi=np.zeros((1, 2)), zeta=np.zeros((1, 2)))
        _, p = _one_sample_paths(model, cloud, ds, grid)
        np.testing.assert_array_equal(p, np.zeros_like(p))


def test_trajectory_pair_boundary_conditions():
    grid = TimeGrid(1.0, 5)
    model = make_builtin_model("neural_ode_tanh", d=2, p_hidden=2, dim_data=2)
    cloud = cloud_init(3, grid, model.dim_param, ("gaussian", 0.0, 0.8),
                       seed=7)
    ds = Dataset(xi=np.array([[0.3, -0.4]]), zeta=np.array([[0.5, 0.1]]))
    x, p = _one_sample_paths(model, cloud, ds, grid)
    np.testing.assert_array_equal(x[0], ds.xi[0])
    np.testing.assert_allclose(p[-1], model.grad_x_g(x[-1], ds.zeta[0]))
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(p))


class TestDriftAssembly:
    def test_zero_costs_give_zero_drift(self):
        grid = TimeGrid(1.0, 4)
        model = make_zero_cost_model(1)
        cloud = cloud_init(5, grid, 1, ("gaussian", 0.0, 1.0), seed=3)
        ds = Dataset(xi=np.zeros((3, 1)), zeta=np.ones((3, 1)))
        drift = mean_field_drift(model, cloud, ds, grid)
        np.testing.assert_array_equal(drift, np.zeros_like(drift))

    def test_terminal_node_carries_no_drift(self):
        grid = TimeGrid(1.0, 3)
        model = make_linear_drift_model(1)
        cloud = cloud_init(4, grid, 1, ("gaussian", 0.0, 1.0), seed=4)
        ds = Dataset(xi=np.zeros((2, 1)), zeta=np.ones((2, 1)))
        drift = mean_field_drift(model, cloud, ds, grid)
        np.testing.assert_array_equal(drift[:, -1, :], 0.0)

    def test_scaled_drift_is_exact_gradient_on_small_instance(self):
        # dt/N2 times the drift equals finite differences of the objective
        # for every coordinate of a 3-particle, 4-step, 2-sample instance.
        grid = TimeGrid(1.0, 4)
        model = make_builtin_model("neural_ode_tanh", d=2, p_hidden=1,
                                   dim_data=2)
        rng_zeta = np.linspace(-0.8, 0.6, 4).reshape(2, 2)
        ds = Dataset(xi=np.array([[0.1, -0.2], [0.4, 0.3]]), zeta=rng_zeta)
        cloud = cloud_init(3, grid, model.dim_param, ("gaussian", 0.0, 1.0),
                           seed=5)
        drift = mean_field_drift(model, cloud, ds, grid)
        grad = (grid.dt / cloud.n_particles) * drift
        fd = finite_diff_gradient(model, cloud, ds, grid, step=1e-5)
        rel = np.abs(grad - fd) / (1.0 + np.abs(fd))
        assert rel.max() <= 1e-6

    def test_dense_asymmetric_jacobian_gradient(self):
        # Linear dynamics with a non-symmetric state matrix: catches any
        # transpose slip in the adjoint pull-back.
        A = np.array([[0.0, 1.2], [-0.3, 0.4]])

        def phi(t, x, a, z):
            return np.einsum("or,...r->...o", A, np.asarray(x)) + np.asarray(a)

        def grad_x_phi(t, x, a, z, p):
            # A^T p: A itself here would be a transpose slip.
            b = np.broadcast_shapes(np.asarray(x).shape[:-1],
                                    np.asarray(a).shape[:-1])
            return np.broadcast_to(np.einsum("or,...o->...r", A, p),
                                   b + (2,)).copy()

        def grad_a_phi(t, x, a, z, p):
            b = np.broadcast_shapes(np.asarray(x).shape[:-1],
                                    np.asarray(a).shape[:-1])
            return np.broadcast_to(p, b + (2,)).copy()

        zero = lambda t, x, a, z: np.zeros(np.broadcast_shapes(
            np.asarray(x).shape[:-1], np.asarray(a).shape[:-1]))
        zerov = lambda t, x, a, z: np.zeros(np.broadcast_shapes(
            np.asarray(x).shape[:-1], np.asarray(a).shape[:-1]) + (2,))
        model = ModelSpec(
            dim_state=2, dim_param=2, dim_data=2,
            phi=phi, grad_x_phi=grad_x_phi, grad_a_phi=grad_a_phi,
            f=zero, grad_x_f=zerov, grad_a_f=zerov,
            g=lambda x, z: np.sum((np.asarray(x) - np.asarray(z)) ** 2, axis=-1),
            grad_x_g=lambda x, z: 2.0 * (np.asarray(x) - np.asarray(z)))
        grid = TimeGrid(0.8, 5)
        ds = Dataset(xi=np.array([[0.5, -0.1]]), zeta=np.array([[1.0, 0.2]]))
        cloud = cloud_init(2, grid, 2, ("gaussian", 0.0, 0.7), seed=8)
        grad = discrete_gradient(model, cloud, ds, grid)
        fd = finite_diff_gradient(model, cloud, ds, grid)
        np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-9)

    def test_single_sample_agrees_with_classical_formula(self):
        # One layer, one step: the drift at node 0 is the plain regression
        # gradient 2 (X_1 - zeta) grad_a phi averaged over the data.  At
        # d = 1 the unit costate returns grad_a phi itself.
        grid = TimeGrid(1.0, 1)
        model = make_builtin_model("one_layer_residual", d=1, p_hidden=1,
                                   dim_data=1)
        ds = Dataset(xi=np.array([[0.3], [0.1]]), zeta=np.array([[1.0], [-0.5]]))
        cloud = cloud_init(2, grid, model.dim_param, ("gaussian", 0.2, 0.5),
                           seed=6)
        drift = mean_field_drift(model, cloud, ds, grid)
        theta = cloud.particles[:, 0, :]
        x1 = ds.xi + grid.dt * np.stack(
            [model.phi(0.0, ds.xi[k], theta, ds.zeta[k]).mean(axis=0)
             for k in range(2)])
        expected = np.stack([
            np.mean([2.0 * (x1[k, 0] - ds.zeta[k, 0])
                     * model.grad_a_phi(0.0, ds.xi[k], theta[i], ds.zeta[k],
                                        np.ones(1))
                     for k in range(2)], axis=0)
            for i in range(2)])
        np.testing.assert_allclose(drift[:, 0, :], expected, atol=1e-13)

    def test_objective_value_of_zero_drift_instance(self):
        # phi = 0 leaves X = xi, so J is the mean terminal mismatch.
        import dataclasses
        grid = TimeGrid(1.0, 4)
        model = dataclasses.replace(
            make_zero_cost_model(1),
            g=lambda x, z: np.sum((x - z) ** 2, axis=-1),
            grad_x_g=lambda x, z: 2.0 * (x - z))
        cloud = cloud_init(2, grid, 1, ("constant", 0.0))
        ds = Dataset(xi=np.array([[0.0], [1.0]]), zeta=np.array([[1.0], [3.0]]))
        assert objective_J(model, cloud, ds, grid) == pytest.approx(
            (1.0 + 4.0) / 2.0)


# Prints a digest of the states, costates and drift of one builtin at
# (N1, N2) = (64, 256), with p_hidden = 8 so that the larger products pass
# OpenBLAS's threshold for splitting work across threads.
_DRIFT_DIGEST = """
import hashlib, sys
from mflangevin import cloud_init, generate_dataset, make_builtin_model
from mflangevin.grids import TimeGrid
from mflangevin.odes import solve_group
kind = sys.argv[1]
series = kind == "timeseries_interp"
model = make_builtin_model(kind, d=2, p_hidden=8, dim_data=4 if series else 2)
grid = TimeGrid(1.0, 4)
ds = generate_dataset("timeseries" if series else "regression", 64, 2, 5,
                      grid, target="scaled")
clouds = [cloud_init(256, grid, model.dim_param, ("gaussian", 0.0, 1.0),
                     seed=seed) for seed in (6, 7, 8)]
solo = solve_group(model, clouds[:1], ds, grid, True)
stacked = solve_group(model, clouds, ds, grid, True)
print(hashlib.sha256(b"".join(a.tobytes() for a in solo + stacked)).hexdigest())
"""


@pytest.mark.parametrize("kind", ["one_layer_residual", "neural_ode_tanh",
                                  "timeseries_interp"])
def test_drift_bytes_do_not_depend_on_blas_threads(kind):
    # The fused sweep pair sums with matrix products, stacked over members
    # and nodes for one_layer_residual and per node for the state-driven
    # kinds; one cloud and a stack of three are digested.  Each BLAS thread
    # count runs in its own process, since OpenBLAS reads it at load time.
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _DRIFT_DIGEST, kind],
                             env=env, capture_output=True, text=True,
                             timeout=300)
        assert out.returncode == 0, out.stderr[-2000:]
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


def test_nonfinite_costate_names_node_and_sample():
    # A running cost whose x-gradient is infinite at sample 1 from t = 0.5
    # on: the backward loop meets it first at node 3.
    def grad_x_f(t, x, a, z):
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a)))
        if t >= 0.5:
            out[1] = np.inf
        return out

    model = dataclasses.replace(make_linear_drift_model(1), grad_x_f=grad_x_f)
    grid = TimeGrid(1.0, 4)
    ds = Dataset(xi=np.zeros((3, 1)), zeta=np.ones((3, 1)))
    cloud = cloud_init(2, grid, 1, ("constant", 0.5))
    with pytest.raises(NonFiniteCostateError,
                       match="non-finite costate at node 3, sample 1"):
        mean_field_drift(model, cloud, ds, grid)
