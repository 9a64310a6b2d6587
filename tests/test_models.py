"""Model builtins, analytic derivatives, Hamiltonian assembly, priors."""

import dataclasses
import itertools

import numpy as np
import pytest

from mflangevin.clouds import cloud_init
from mflangevin.datasets import generate_dataset
from mflangevin.grids import TimeGrid
from mflangevin.models import (gaussian_prior, make_builtin_model,
                               make_linear_drift_model, make_zero_cost_model,
                               model_grad_selfcheck)
from mflangevin.odes import mean_field_drift, solve_paths
from mflangevin.rng import PURPOSE_PROBE, keyed_normals


@pytest.mark.parametrize("kind,kwargs,expected_p", [
    ("one_layer_residual", dict(d=1, p_hidden=1, dim_data=1), 2),
    ("one_layer_residual", dict(d=2, p_hidden=3, dim_data=2), 12),
    ("neural_ode_tanh", dict(d=1, p_hidden=1, dim_data=1), 2),
    ("neural_ode_tanh", dict(d=2, p_hidden=1, dim_data=2), 3),
    ("timeseries_interp", dict(d=1, p_hidden=2, dim_data=2), 6),
    ("timeseries_interp", dict(d=2, p_hidden=1, dim_data=4), 5),
])
def test_builtin_dimensions(kind, kwargs, expected_p):
    model = make_builtin_model(kind, **kwargs)
    assert model.dim_param == expected_p
    assert model.dim_state == kwargs["d"]


@pytest.mark.parametrize("kind,kwargs", [
    ("one_layer_residual", dict(d=2, p_hidden=2, dim_data=2)),
    ("neural_ode_tanh", dict(d=3, p_hidden=2, dim_data=3)),
    ("timeseries_interp", dict(d=2, p_hidden=2, dim_data=4)),
    ("linear_drift", dict(d=2)),
    ("zero_cost", dict(d=2)),
])
def test_builtin_selfcheck_passes_at_tight_tolerance(kind, kwargs):
    build = {"linear_drift": make_linear_drift_model,
             "zero_cost": make_zero_cost_model}.get(kind)
    model = build(**kwargs) if build else make_builtin_model(kind, **kwargs)
    report = model_grad_selfcheck(model, n_probes=100, seed=0)
    assert report.passed
    assert max(report.max_rel_err.values()) <= 1e-5


def test_selfcheck_flags_broken_derivative():
    # d = 1, p_hidden = 1: parameters are A1 (1), w (1) and A3 (1).
    model = make_builtin_model("timeseries_interp", d=1, p_hidden=1, dim_data=2)

    def drop_w_block(t, x, a, z, p):
        out = model.grad_a_phi(t, x, a, z, p)
        out[..., 1] = 0.0
        return out

    broken_maps = {
        "grad_x_f": lambda t, x, a, z: 2.0 * model.grad_x_f(t, x, a, z),
        "grad_a_phi": drop_w_block,
        "grad_x_phi": lambda t, x, a, z, p: 2.0 * model.grad_x_phi(t, x, a, z, p),
    }
    for name, broken_map in broken_maps.items():
        broken = dataclasses.replace(model, **{name: broken_map})
        report = model_grad_selfcheck(broken, n_probes=20, seed=1)
        assert not report.passed, name
        assert report.max_rel_err[name] > 1e-4, name


def test_selfcheck_rejects_zero_probes():
    model = make_linear_drift_model(1)
    with pytest.raises(ValueError):
        model_grad_selfcheck(model, n_probes=0)


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        make_builtin_model("neural_ode_tanh", d=0, p_hidden=1)
    with pytest.raises(ValueError):
        make_builtin_model("one_layer_residual", d=1, p_hidden=0)
    with pytest.raises(ValueError):
        make_builtin_model("no_such_kind", d=1)
    with pytest.raises(ValueError):
        make_builtin_model("timeseries_interp", d=2, p_hidden=1, dim_data=3)


class TestOneLayerResidual:
    def test_state_gradient_is_exact_zero(self):
        model = make_builtin_model("one_layer_residual", d=1, p_hidden=1,
                                   dim_data=1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = model.grad_x_phi(0.3, rng.normal(size=1), rng.normal(size=2),
                                 rng.normal(size=1), rng.normal(size=1))
            assert np.all(g == 0.0)

    def test_drift_ignores_state(self):
        model = make_builtin_model("one_layer_residual", d=2, p_hidden=2,
                                   dim_data=2)
        a = np.linspace(-1, 1, model.dim_param)
        z = np.array([0.4, -0.2])
        v1 = model.phi(0.0, np.zeros(2), a, z)
        v2 = model.phi(0.0, 17.0 * np.ones(2), a, z)
        np.testing.assert_array_equal(v1, v2)


class TestNeuralOdeTanh:
    def test_zero_parameters_annihilate_drift(self):
        model = make_builtin_model("neural_ode_tanh", d=3, p_hidden=2,
                                   dim_data=3)
        x = np.array([0.5, -1.0, 2.0])
        out = model.phi(0.0, x, np.zeros(model.dim_param), x)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_closed_form_at_origin(self):
        # d=1, a=(a1,a2)=(1,1), x=0: phi = tanh(0) = 0 and the state
        # derivative is a1*a2*(1 - tanh(0)^2) = 1, returned as its product
        # with the unit costate.
        model = make_builtin_model("neural_ode_tanh", d=1, p_hidden=1,
                                   dim_data=1)
        x = np.array([0.0])
        a = np.array([1.0, 1.0])
        z = np.array([0.0])
        assert model.phi(0.0, x, a, z)[0] == 0.0
        assert model.grad_x_phi(0.0, x, a, z, np.ones(1))[0] == pytest.approx(1.0)


def _grad_a_h(model, x, p, a, z):
    """grad_a of h = phi . p + f at one point, through the node pair the
    sweeps use: one sample and one particle at t = 0."""
    forward, backward = model.node_pair()
    _, cache = forward(0.0, x[None], a[None], z[None])
    return backward(cache, p[None])[1][0]


class TestHamiltonian:
    """The data-averaged Hamiltonian a-gradient of the node pair."""

    def test_linear_case(self):
        # f = 0 and phi(x, a) = a in one dimension: grad_a h = p.
        model = make_linear_drift_model(1)
        grad = _grad_a_h(model, np.array([0.3]), np.array([3.0]),
                         np.array([2.0]), np.array([0.0]))
        assert grad[0] == pytest.approx(3.0)

    def test_zero_costate_leaves_running_cost(self):
        model = make_builtin_model("timeseries_interp", d=1, p_hidden=1,
                                   dim_data=2)
        x = np.array([0.7])
        a = np.array([0.1, 0.2, 0.3])
        z = np.array([0.4, 0.5])
        grad = _grad_a_h(model, x, np.zeros(1), a, z)
        np.testing.assert_allclose(grad, model.grad_a_f(0.0, x, a, z))

    def test_grad_a_matches_finite_differences(self):
        model = make_builtin_model("neural_ode_tanh", d=2, p_hidden=2,
                                   dim_data=2)
        rng = np.random.default_rng(3)
        x, p = rng.normal(size=2), rng.normal(size=2)
        a, z = rng.normal(size=model.dim_param), rng.normal(size=2)
        grad = _grad_a_h(model, x, p, a, z)

        def h(v):
            return model.phi(0.0, x, v, z) @ p + model.f(0.0, x, v, z)

        step = 1e-6
        for j in range(model.dim_param):
            hi, lo = a.copy(), a.copy()
            hi[j] += step
            lo[j] -= step
            fd = (h(hi) - h(lo)) / (2 * step)
            assert abs(grad[j] - fd) / (1 + abs(fd)) <= 1e-5

    def test_bilinearity_in_costate(self):
        # grad_a h(., alpha p, .) - grad_a f = alpha (grad_a h(., p, .) - grad_a f).
        model = make_builtin_model("neural_ode_tanh", d=2, p_hidden=3,
                                   dim_data=2)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x, p = rng.normal(size=2), rng.normal(size=2)
            a, z = rng.normal(size=model.dim_param), rng.normal(size=2)
            alpha = rng.normal()
            fa = model.grad_a_f(0.0, x, a, z)
            g1 = _grad_a_h(model, x, p, a, z) - fa
            g2 = _grad_a_h(model, x, alpha * p, a, z) - fa
            np.testing.assert_allclose(g2, alpha * g1, rtol=1e-12, atol=1e-12)


class TestPrior:
    def test_gaussian_prior_normalised(self):
        # exp(-U) integrates to one on a wide quadrature grid.
        prior = gaussian_prior(2.0, 1)
        xs = np.linspace(-8, 8, 20001).reshape(-1, 1)
        mass = np.trapezoid(np.exp(prior.log_density(xs)), xs[:, 0])
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_strong_convexity_on_sampled_pairs(self):
        prior = gaussian_prior(1.5, 3)
        a = keyed_normals(0, PURPOSE_PROBE, np.arange(3), np.arange(50).reshape(-1, 1), 0, 0)
        b = keyed_normals(1, PURPOSE_PROBE, np.arange(3), np.arange(50).reshape(-1, 1), 0, 0)
        lhs = np.sum((prior.grad_U(a) - prior.grad_U(b)) * (a - b), axis=1)
        rhs = prior.kappa * np.sum((a - b) ** 2, axis=1)
        assert np.all(lhs >= rhs - 1e-12)

    def test_kappa_positive_required(self):
        with pytest.raises(ValueError):
            gaussian_prior(0.0, 1)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
    def test_kappa_must_be_finite(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            gaussian_prior(kappa, 1)


def test_zero_cost_model_has_vanishing_costs():
    model = make_zero_cost_model(2)
    x = np.ones((5, 2))
    a = np.ones((5, 2))
    assert np.all(model.f(0.0, x, a, x) == 0.0)
    assert np.all(model.g(x, x) == 0.0)
    assert np.all(model.grad_x_g(x, x) == 0.0)


_ALL_MODELS = [
    ("one_layer_residual", lambda: make_builtin_model(
        "one_layer_residual", d=2, p_hidden=3, dim_data=2)),
    ("neural_ode_tanh", lambda: make_builtin_model(
        "neural_ode_tanh", d=3, p_hidden=2, dim_data=3)),
    ("timeseries_interp", lambda: make_builtin_model(
        "timeseries_interp", d=2, p_hidden=2, dim_data=4)),
    ("linear_drift", lambda: make_linear_drift_model(2)),
    ("zero_cost", lambda: make_zero_cost_model(2)),
]


@pytest.mark.parametrize("name,build", _ALL_MODELS)
@pytest.mark.parametrize("layout", ["sweep", "unbatched", "x_only_batch"])
def test_maps_return_the_broadcast_batch_shape(name, build, layout):
    # The sweeps call the maps with X and costate (N1, 1, d), particles
    # (1, N2, p) and data (N1, 1, q); every output carries the broadcast
    # batch (N1, N2).
    model = build()
    d, p, q = model.dim_state, model.dim_param, model.dim_data
    n1, n2 = 3, 5
    batch_x, batch_a, batch_z, batch = {
        "sweep": ((n1, 1), (1, n2), (n1, 1), (n1, n2)),
        "unbatched": ((), (), (), ()),
        "x_only_batch": ((n1, n2), (), (), (n1, n2)),
    }[layout]
    x = np.full(batch_x + (d,), 0.3)
    a = np.full(batch_a + (p,), -0.2)
    zeta = np.full(batch_z + (q,), 0.7)
    costate = np.full(batch_x + (d,), 1.5)
    shapes = {"phi": (d,), "f": (), "grad_x_f": (d,), "grad_a_f": (p,)}
    for name_map, core in shapes.items():
        out = getattr(model, name_map)(0.1, x, a, zeta)
        assert np.shape(out) == batch + core, name_map
    for name_map, core in {"grad_x_phi": (d,), "grad_a_phi": (p,)}.items():
        out = getattr(model, name_map)(0.1, x, a, zeta, costate)
        assert np.shape(out) == batch + core, name_map
    assert model.g(x, zeta).shape == batch_x
    assert model.grad_x_g(x, zeta).shape == batch_x + (d,)


@pytest.mark.parametrize("kind,d,m", [
    ("one_layer_residual", 3, 4),
    ("neural_ode_tanh", 3, 4),
    ("timeseries_interp", 3, 4),
])
def test_phi_matches_einsum_reference(kind, d, m):
    # The maps sum their small contractions term by term; the einsum forms
    # of the documented formulas are the reference, to a few ulps.
    q = 2 * d if kind == "timeseries_interp" else d
    model = make_builtin_model(kind, d=d, p_hidden=m, dim_data=q)
    rows = np.arange(6).reshape(-1, 1)
    x = keyed_normals(0, PURPOSE_PROBE, np.arange(d), rows, 1, 0)[:, None, :]
    a = keyed_normals(0, PURPOSE_PROBE, np.arange(model.dim_param),
                      np.arange(5).reshape(-1, 1), 2, 0)[None, :, :]
    zeta = keyed_normals(0, PURPOSE_PROBE, np.arange(q), rows, 3, 0)[:, None, :]
    a1 = a[..., :d * m].reshape(1, 5, d, m)
    if kind == "one_layer_residual":
        a2 = a[..., d * m:].reshape(1, 5, m, q)
        z = np.einsum("...uc,...c->...u", a2, zeta)
    else:
        w = a[..., d * m:d * m + m]
        z = w * x.mean(axis=-1)[..., None]
        if kind == "timeseries_interp":
            a3 = a[..., d * m + m:].reshape(1, 5, m, d)
            z = z + np.einsum("...uc,...c->...u", a3, zeta[..., :d])
    expected = np.einsum("...du,...u->...d", a1, np.tanh(z))
    np.testing.assert_allclose(model.phi(0.0, x, a, zeta), expected,
                               rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("kind,d,m", [
    (kind, d, m) for kind in ("one_layer_residual", "neural_ode_tanh",
                              "timeseries_interp")
    for d, m in itertools.product((1, 2, 3), (1, 2, 3))])
def test_fused_pair_matches_point_map_pair(kind, d, m):
    # The builtins' fused node pair against the pair derived from their
    # point maps, on a random cloud: the sums run in another order, so the
    # states, costates and drifts agree to a few ulps of their largest
    # entry.  The derived pair reads the maps when used, so a model made
    # by replacing one drives with the new map (a stored pair would not).
    timeseries = kind == "timeseries_interp"
    fused = make_builtin_model(kind, d=d, p_hidden=m,
                               dim_data=2 * d if timeseries else d)
    derived = dataclasses.replace(fused, forward=None, backward=None)
    grid = TimeGrid(1.0, 3)
    ds = generate_dataset("timeseries" if timeseries else "regression", 5, d,
                          10 * d + m, grid, target="scaled")
    cloud = cloud_init(7, grid, fused.dim_param, ("gaussian", 0.0, 1.0),
                       seed=d + 10 * m)
    for got, want in zip(solve_paths(fused, cloud, ds, grid),
                         solve_paths(derived, cloud, ds, grid)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    doubled = dataclasses.replace(
        derived, grad_a_phi=lambda *args: 2.0 * derived.grad_a_phi(*args))
    np.testing.assert_array_equal(mean_field_drift(doubled, cloud, ds, grid),
                                  2.0 * mean_field_drift(derived, cloud, ds, grid))


def test_node_pair_needs_both_maps():
    model = make_linear_drift_model(1)
    forward, _ = model.node_pair()
    with pytest.raises(ValueError, match="both"):
        dataclasses.replace(model, forward=forward)
