"""Model builtins, analytic derivatives, Hamiltonian assembly, priors."""

import dataclasses
import itertools

import numpy as np
import pytest

from mflangevin.clouds import cloud_init
from mflangevin.datasets import generate_dataset
from mflangevin.grids import TimeGrid
from mflangevin.models import (BUILTIN_KINDS, gaussian_prior,
                               make_builtin_model, make_linear_drift_model,
                               make_zero_cost_model, model_grad_selfcheck)
from mflangevin.objective import objective_J
from mflangevin.odes import forward_cost, mean_field_drift, solve_group
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
    """grad_a of h = phi . p + f at one point, through the sweep pair the
    sweeps use: one sample, one particle and one step from t = 0, so the
    drift at node 0 pairs the state x with the terminal costate p."""
    forward, backward = model.sweep_pair()
    _, _, cache = forward(TimeGrid(1.0, 1), x[None],
                          np.stack([a, a])[None, None], z[None])
    return backward(cache, p[None, None])[1][0, 0, 0]


class TestHamiltonian:
    """The data-averaged Hamiltonian a-gradient of the sweep pair."""

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
    # The documented formulas, written here from the parameter layout, are
    # the reference; the maps state the same formulas as einsum
    # expressions, so they agree to a few ulps.
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
    # The builtins' fused sweep pair against the pair derived from their
    # point maps, on a random cloud: the sums run in another order, so the
    # states, costates, drifts, running costs and J agree to a few ulps of
    # their largest entry.  The derived pair reads the maps when used, so
    # a model made by replacing one drives with the new map (a stored pair
    # would not).
    timeseries = kind == "timeseries_interp"
    fused = make_builtin_model(kind, d=d, p_hidden=m,
                               dim_data=2 * d if timeseries else d)
    derived = dataclasses.replace(fused, forward=None, backward=None)
    grid = TimeGrid(1.0, 3)
    ds = generate_dataset("timeseries" if timeseries else "regression", 5, d,
                          10 * d + m, grid, target="scaled")
    cloud = cloud_init(7, grid, fused.dim_param, ("gaussian", 0.0, 1.0),
                       seed=d + 10 * m)
    for got, want in zip(solve_group(fused, [cloud], ds, grid, True),
                         solve_group(derived, [cloud], ds, grid, True)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    j_fused, j_derived = (objective_J(model, cloud, ds, grid)
                          for model in (fused, derived))
    assert abs(j_fused - j_derived) <= 1e-13 * abs(j_derived)
    doubled = dataclasses.replace(
        derived, grad_a_phi=lambda *args: 2.0 * derived.grad_a_phi(*args))
    np.testing.assert_array_equal(mean_field_drift(doubled, cloud, ds, grid),
                                  2.0 * mean_field_drift(derived, cloud, ds, grid))


def _reference_J(model, cloud, ds, grid):
    """J in the order the objective summed it before the sweep pair
    returned the running cost: f on the (N1, N2) batch of every node, its
    mean times dt added node by node, then the terminal cost's mean."""
    x, _ = forward_cost(model, cloud, ds, grid)
    running = 0.0
    for l in range(grid.n_steps):
        vals = model.f(grid.nodes[l], x[:, l, None, :],
                       cloud.particles[None, :, l, :],
                       ds.zeta_node(l)[:, None, :])
        running += grid.dt * float(vals.mean())
    return running + float(np.mean(model.g(x[:, -1, :], ds.zeta)))


@pytest.mark.parametrize("name", ["linear_drift", "zero_cost", "replaced_f"])
def test_derived_pair_J_equals_reference_loop(name):
    # A derived pair sums the running cost in the reference's order, so J
    # is the same bytes; replaced_f has a running cost that reads x and a.
    model = {"linear_drift": make_linear_drift_model(2),
             "zero_cost": make_zero_cost_model(2),
             "replaced_f": dataclasses.replace(
                 make_linear_drift_model(2),
                 f=lambda t, x, a, z: np.sum(np.tanh(x * a + t), axis=-1)),
             }[name]
    # On this grid, factoring dt out of the node sum changes replaced_f's J.
    grid = TimeGrid(0.9, 7)
    ds = generate_dataset("regression", 11, 2, 3, grid, target="scaled")
    cloud = cloud_init(13, grid, model.dim_param, ("gaussian", 0.0, 1.0),
                       seed=5)
    assert objective_J(model, cloud, ds, grid) == _reference_J(model, cloud,
                                                               ds, grid)


def _node_loop(kind, d, m, grid, xi, theta, zeta, p_n):
    """The tanh builtins' sweeps one node at a time: states, costates and
    drift from the same per-node products as the fused sweep pair, and the
    running cost.  The pre-activation is one product [mean(x) | zeta1] @
    [w; A], and the w and A sample sums one product with the same left
    factor."""
    state, data = kind != "one_layer_residual", kind != "neural_ode_tanh"
    n1, n2, dt = len(xi), len(theta), grid.dt
    x = np.empty((n1, grid.n_nodes, d))
    x[:, 0] = xi
    p = np.empty_like(x)
    p[:, -1] = p_n
    drift = np.zeros(theta.shape)
    cost = 0.0
    units = []
    for l in range(grid.n_steps):
        a, zeta_l = theta[:, l], zeta[:, l] if zeta.ndim == 3 else zeta
        if kind == "timeseries_interp":
            res = x[:, l] - zeta_l[:, d:]
            cost += dt * np.mean(np.sum(res * res, axis=1))
        cols = a[:, :d * m].reshape(n2, d, m).transpose(0, 2, 1).reshape(-1, d)
        left, right = [], []
        if state:
            left.append(np.mean(x[:, l], axis=1)[:, None])
            right.append(a[:, d * m:d * m + m].reshape(1, -1))
        if data:
            left.append(zeta_l[:, :d])
            right.append(a[:, -m * d:].reshape(n2, m, d).transpose(2, 0, 1)
                         .reshape(d, -1))
        left, right = np.hstack(left), np.vstack(right)
        h = np.tanh(left @ right)
        x[:, l + 1] = x[:, l] + dt * ((h @ cols) / n2)
        units.append((zeta_l, cols, left, right, h))
    for l in range(grid.n_steps - 1, -1, -1):
        zeta_l, cols, left, right, h = units[l]
        v = (p[:, l + 1] @ cols.T) * (1.0 - h * h)
        wa = (left.T @ v).reshape(-1, n2, m).transpose(1, 2, 0)
        sums = [(p[:, l + 1].T @ h).reshape(d, n2, m).transpose(1, 0, 2)]
        gx = np.zeros((n1, d))
        if state:
            sums.append(wa[..., 0])
            gx = np.broadcast_to(((v @ right[0]) / (n2 * d))[:, None], (n1, d))
        if data:
            sums.append(wa[..., int(state):])
        if kind == "timeseries_interp":
            gx = gx + 2.0 * (x[:, l] - zeta_l[:, d:])
        drift[:, l] = np.concatenate([s.reshape(n2, -1) for s in sums], axis=1) / n1
        p[:, l] = p[:, l + 1] + dt * gx
    return x, p, drift, cost


@pytest.mark.parametrize("n1,n2", [(1, 1), (5, 6)])
@pytest.mark.parametrize("n_steps", [1, 4])
@pytest.mark.parametrize("path", [False, True], ids=["vector", "path"])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_fused_sweep_matches_derived_sweep(kind, m, path, n_steps, n1, n2):
    # The sweep pairs called directly, at the edge shapes: one step, one
    # sample, one particle, and vector or path data of every builtin.  The
    # fused sweep equals the node loop bit for bit, its states and costates
    # start exactly at xi and p_n, its drift's terminal row is exactly
    # zero, and the derived sweep agrees with it to a few ulps.
    d = 2
    fused = make_builtin_model(kind, d=d, p_hidden=m,
                               dim_data=2 * d if kind == "timeseries_interp" else d)
    derived = dataclasses.replace(fused, forward=None, backward=None)
    grid = TimeGrid(1.0, n_steps)
    rng = np.random.default_rng(100 * n_steps + 10 * n1 + n2)
    xi = rng.normal(size=(n1, d))
    theta = rng.normal(size=(n2, grid.n_nodes, fused.dim_param))
    zeta = rng.normal(size=(n1, grid.n_nodes, fused.dim_data) if path
                      else (n1, fused.dim_data))
    p_n = rng.normal(size=(n1, d))
    runs = []
    for model in (fused, derived):
        forward, backward = model.sweep_pair()
        x, cost, cache = forward(grid, xi, theta[None], zeta, with_cost=True)
        runs.append([out[0] for out in (x, *backward(cache, p_n[None]), cost)])
    x, p, drift, _ = runs[0]
    assert x.shape == p.shape == (n1, grid.n_nodes, d)
    np.testing.assert_array_equal(x[:, 0], xi)
    np.testing.assert_array_equal(p[:, -1], p_n)
    assert not drift[:, -1].any()
    for got, want in zip(runs[0], _node_loop(kind, d, m, grid, xi, theta,
                                             zeta, p_n)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(*runs):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _stacking_models():
    """Every builtin at d, p_hidden in {1, 2}, the two linear models, and a
    linear model whose phi is replaced, so its derived pair reads x."""
    models = {f"{kind}-d{d}-m{m}": make_builtin_model(
        kind, d=d, p_hidden=m, dim_data=2 * d if kind == "timeseries_interp" else d)
        for kind in BUILTIN_KINDS for d in (1, 2) for m in (1, 2)}
    models["linear_drift"] = make_linear_drift_model(2)
    models["zero_cost"] = make_zero_cost_model(2)
    models["replaced_phi"] = dataclasses.replace(
        make_linear_drift_model(2), phi=lambda t, x, a, z: a * np.tanh(x))
    return models


@pytest.mark.parametrize("members", [1, 2, 5])
@pytest.mark.parametrize("name", list(_stacking_models()))
def test_stacked_sweep_equals_solo_sweeps(name, members):
    # Clouds on the sweep pair's member axis: every member's states,
    # running cost, costates and drift are the bytes of its own one-member
    # sweep.
    model = _stacking_models()[name]
    grid = TimeGrid(1.0, 3)
    rng = np.random.default_rng(members)
    path = model.kind == "timeseries_interp"
    xi = rng.normal(size=(5, model.dim_state))
    theta = rng.normal(size=(members, 6, grid.n_nodes, model.dim_param))
    zeta = rng.normal(size=(5, grid.n_nodes, model.dim_data) if path
                      else (5, model.dim_data))
    p_n = rng.normal(size=(members, 5, model.dim_state))
    forward, backward = model.sweep_pair()
    x, cost, cache = forward(grid, xi, theta, zeta, with_cost=True)
    stacked = (x, cost, *backward(cache, p_n))
    for j in range(members):
        x, cost, cache = forward(grid, xi, theta[j:j + 1], zeta,
                                 with_cost=True)
        for got, want in zip(stacked, (x, cost,
                                       *backward(cache, p_n[j:j + 1]))):
            assert got[j].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("name", ["derived", "fused"])
def test_forward_skips_the_running_cost_unless_asked(name):
    # Without with_cost the cost is None and f is never evaluated; the
    # states are the same bytes either way.
    calls = []

    def f(t, x, a, z):
        calls.append(t)
        return np.sum(x * a, axis=-1)

    model = make_builtin_model("timeseries_interp", d=1, dim_data=2)
    if name == "derived":
        model = dataclasses.replace(model, f=f, forward=None, backward=None)
    grid = TimeGrid(1.0, 3)
    rng = np.random.default_rng(4)
    xi, theta = rng.normal(size=(4, 1)), rng.normal(size=(2, 5, 4, 3))
    zeta = rng.normal(size=(4, 4, 2))
    forward, _ = model.sweep_pair()
    x, cost, _ = forward(grid, xi, theta, zeta)
    assert cost is None and not calls
    x_cost, cost, _ = forward(grid, xi, theta, zeta, with_cost=True)
    assert x.tobytes() == x_cost.tobytes() and cost.shape == (2,)
    assert len(calls) == (2 * grid.n_steps if name == "derived" else 0)


def test_replaced_f_on_a_builtin_keeps_the_fused_cost():
    # timeseries_interp's fused pair computes the running cost from its own
    # copy of f = |x - zeta2|^2, so replacing f alone leaves J as it was;
    # replacing the pair too makes J read the new f.  A stale fused pair is
    # not detected yet.
    model = make_builtin_model("timeseries_interp", d=1, dim_data=2)
    doubled = dataclasses.replace(
        model, f=lambda *args: 2.0 * model.f(*args))
    grid = TimeGrid(1.0, 3)
    ds = generate_dataset("timeseries", 5, 1, 2, grid, target="scaled")
    cloud = cloud_init(6, grid, model.dim_param, ("gaussian", 0.0, 1.0),
                       seed=3)
    j = objective_J(model, cloud, ds, grid)
    assert objective_J(doubled, cloud, ds, grid) == j
    derived = dataclasses.replace(doubled, forward=None, backward=None)
    assert objective_J(derived, cloud, ds, grid) == pytest.approx(2.0 * j,
                                                                  rel=1e-13)


def test_sweep_pair_needs_both_maps():
    model = make_linear_drift_model(1)
    forward, _ = model.sweep_pair()
    with pytest.raises(ValueError, match="both"):
        dataclasses.replace(model, forward=forward)
