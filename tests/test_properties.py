"""Property tests: invariants checked on inputs drawn by hypothesis."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import digamma, gammaln

from mflangevin.clouds import (ParticleCloud, cloud_from_csv, cloud_init,
                               cloud_to_csv)
from mflangevin.datasets import generate_dataset
from mflangevin.grids import TimeGrid
from mflangevin.langevin import TrainerConfig, _step_times
from mflangevin.metrics import entropy_estimate
from mflangevin.models import (BUILTIN_KINDS, gaussian_prior,
                               make_builtin_model, make_linear_drift_model,
                               make_zero_cost_model)
from mflangevin.objective import discrete_gradient, finite_diff_gradient
from mflangevin.rng import _philox_words

_WORD = st.integers(min_value=0, max_value=2**32 - 1)


def _philox_reference(counter, key, rounds=10):
    """Scalar Philox4x32-10 in plain Python integers (Salmon et al., 2011)."""
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for _ in range(rounds):
        p0 = 0xD2511F53 * x0
        p1 = 0xCD9E8D57 * x2
        x0, x1, x2, x3 = ((p1 >> 32) ^ x1 ^ k0, p1 & 0xFFFFFFFF,
                          (p0 >> 32) ^ x3 ^ k1, p0 & 0xFFFFFFFF)
        k0 = (k0 + 0x9E3779B9) & 0xFFFFFFFF
        k1 = (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return [x0, x1, x2, x3]


class TestPhiloxProperty:
    @settings(max_examples=200, deadline=None)
    @given(counters=st.lists(st.tuples(_WORD, _WORD, _WORD, _WORD),
                             min_size=1, max_size=6),
           key=st.tuples(_WORD, _WORD),
           rounds=st.sampled_from([10, 0, 1, 7]))
    def test_matches_scalar_reference(self, counters, key, rounds):
        cols = [np.array([c[j] for c in counters]) for j in range(4)]
        out = _philox_words(*cols, key=key, rounds=rounds)
        # 32-bit words held in uint64, as every draw's rounds keep them.
        assert all(w.dtype == np.uint64 and (w >> 32 == 0).all() for w in out)
        for i, counter in enumerate(counters):
            assert ([int(w[i]) for w in out]
                    == _philox_reference(counter, key, rounds))

    @settings(max_examples=50, deadline=None)
    @given(c0=_WORD, c2=_WORD, key=st.tuples(_WORD, _WORD))
    def test_broadcast_counters_match_reference(self, c0, c2, key):
        # Counter words of different shapes broadcast as in step_normals.
        c1 = np.arange(3).reshape(-1, 1)
        c3 = np.arange(2).reshape(1, -1)
        out = _philox_words(c0, c1, c2, c3, key=key)
        assert out[0].shape == (3, 2)
        for i in range(3):
            for j in range(2):
                assert ([int(w[i, j]) for w in out]
                        == _philox_reference((c0, i, c2, j), key))


def _model(kind, d, p_hidden):
    if kind == "linear_drift":
        return make_linear_drift_model(d)
    if kind == "zero_cost":
        return make_zero_cost_model(d)
    dim_data = 2 * d if kind == "timeseries_interp" else d
    return make_builtin_model(kind, d, p_hidden=p_hidden, dim_data=dim_data)


class TestGradientProperty:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(BUILTIN_KINDS + ("linear_drift", "zero_cost")),
           d=st.integers(1, 2), p_hidden=st.integers(1, 2),
           n_steps=st.integers(1, 3), n1=st.integers(1, 3),
           n2=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_discrete_gradient_equals_finite_differences(
            self, kind, d, p_hidden, n_steps, n1, n2, seed):
        grid = TimeGrid(1.0, n_steps)
        model = _model(kind, d, p_hidden)
        data_kind = ("timeseries" if kind == "timeseries_interp"
                     else "regression")
        ds = generate_dataset(data_kind, n1, d, seed, grid, target="scaled")
        cloud = cloud_init(n2, grid, model.dim_param, ("gaussian", 0.0, 1.0),
                           seed=seed)
        dg = discrete_gradient(model, cloud, ds, grid)
        fd = finite_diff_gradient(model, cloud, ds, grid)
        assert np.max(np.abs(dg - fd) / (1.0 + np.abs(fd))) <= 1e-6


class TestScheduleProperty:
    @settings(max_examples=100, deadline=None)
    @given(noise_dt=st.floats(1e-6, 1e-1), k=st.integers(1, 64),
           n_iters=st.integers(0, 500))
    def test_schedule_is_consistent_with_noise_dt(self, noise_dt, k, n_iters):
        # Step i of a run at gamma = k noise_dt consumes the fine slots
        # from k i up to k (i + 1), and the training time before it is
        # gamma i.
        gamma = k * noise_dt
        cfg = TrainerConfig(sigma=1.0, prior=gaussian_prior(1.0, 1),
                            gamma=gamma, n_iters=n_iters, noise_dt=noise_dt)
        steps = np.arange(n_iters + 1)
        np.testing.assert_array_equal(cfg.fine_offsets(), k * steps)
        np.testing.assert_allclose(_step_times(cfg), gamma * steps,
                                   rtol=1e-12, atol=0)


class TestCloudCsvProperty:
    @settings(max_examples=100, deadline=None)
    @given(n2=st.integers(1, 4), n_steps=st.integers(1, 3),
           p=st.integers(1, 3), data=st.data())
    def test_csv_round_trip_is_exact(self, n2, n_steps, p, data):
        # Every finite double, subnormals and signed zeros included, comes
        # back with the same bits.
        theta = data.draw(arrays(np.float64, (n2, n_steps + 1, p),
                                 elements=st.floats(allow_nan=False,
                                                    allow_infinity=False)))
        grid = TimeGrid(1.0, n_steps)
        cloud = ParticleCloud(particles=theta, grid=grid)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cloud.csv")
            cloud_to_csv(cloud, path)
            back = cloud_from_csv(path, grid)
        assert back.particles.shape == theta.shape
        assert back.particles.tobytes() == theta.tobytes()


def _entropy_oracle(theta, kappa):
    """Kozachenko-Leonenko (k = 1) relative entropy against N(0, I / kappa)
    at every left-rule node: direct differences, one node at a time."""
    n, n_nodes, p = theta.shape
    out = []
    for l in range(n_nodes - 1):
        x = theta[:, l, :]
        diff = x[:, None, :] - x[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        np.fill_diagonal(dist, np.inf)
        eps = dist.min(axis=1)
        if np.any(eps == 0.0):
            out.append(math.inf)
            continue
        entropy = (digamma(n) - digamma(1) + 0.5 * p * math.log(math.pi)
                   - gammaln(0.5 * p + 1.0) + p * np.mean(np.log(eps)))
        u = (0.5 * kappa * np.sum(x * x, axis=1)
             + 0.5 * p * math.log(2.0 * math.pi / kappa))
        out.append(np.mean(u) - entropy)
    return np.array(out)


def _gaussian_cloud(n, n_steps, p, seed, offset=0.0, scale=1.0):
    theta = offset + scale * np.random.default_rng(seed).standard_normal(
        (n, n_steps + 1, p))
    return ParticleCloud(particles=theta, grid=TimeGrid(1.0, n_steps))


class TestEntropyOracle:
    @pytest.mark.parametrize("n, p", [(8, 2), (9, 3), (40, 1), (40, 10),
                                      # 131-row tiles, the last one short
                                      (1000, 2)])
    def test_matches_the_oracle(self, n, p):
        cloud = _gaussian_cloud(n, 3, p, seed=n + p)
        est = entropy_estimate(cloud, gaussian_prior(1.5, p))
        np.testing.assert_allclose(est, _entropy_oracle(cloud.particles, 1.5),
                                   rtol=1e-12, atol=0)

    def test_near_tie_far_from_the_origin(self):
        # At |x| ~ 1e3 a pair 1e-7 apart is below what a Gram product
        # (|x|^2 + |y|^2 - 2 x.y) resolves; exact differences find it.
        cloud = _gaussian_cloud(32, 2, 3, seed=5, offset=1e3)
        theta = cloud.particles
        theta[7, 1] = theta[20, 1] + np.array([1e-7, 0.0, 0.0])
        est = entropy_estimate(cloud, gaussian_prior(1.0, 3))
        np.testing.assert_allclose(est, _entropy_oracle(theta, 1.0),
                                   rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(8, 48), n_steps=st.integers(1, 3),
           p=st.integers(1, 4), seed=st.integers(0, 2**16),
           offset=st.floats(-1e3, 1e3), scale=st.floats(1e-3, 1e3),
           duplicate=st.booleans())
    def test_random_clouds_match_the_oracle(self, n, n_steps, p, seed,
                                            offset, scale, duplicate):
        cloud = _gaussian_cloud(n, n_steps, p, seed, offset, scale)
        if duplicate:
            cloud.particles[1, n_steps - 1] = cloud.particles[0, n_steps - 1]
        est = entropy_estimate(cloud, gaussian_prior(1.0, p))
        # The absolute floor covers estimates that cross zero.
        np.testing.assert_allclose(est, _entropy_oracle(cloud.particles, 1.0),
                                   rtol=1e-12, atol=1e-12)
