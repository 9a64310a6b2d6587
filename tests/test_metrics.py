"""Coupling distances and nearest-neighbour entropy estimates."""

import math

import numpy as np
import pytest
import scipy.spatial.distance

from mflangevin.clouds import ParticleCloud, cloud_init
from mflangevin.grids import TimeGrid
from mflangevin.metrics import TILE_ENTRIES, entropy_estimate, paired_distance
from mflangevin.models import gaussian_prior


@pytest.fixture
def grid():
    return TimeGrid(1.0, 3)


class TestW2:
    """The paired distance: the synchronous-coupling bound on integrated W2."""

    def test_identical_clouds_have_zero_distance(self, grid):
        cloud = cloud_init(12, grid, 2, ("gaussian", 0.0, 1.0), seed=1)
        assert paired_distance(cloud.particles, cloud.particles, grid.dt) == 0.0

    def test_translation_property_one_dim(self, grid):
        # Shifting every particle by c gives integrated distance |c| sqrt(T).
        a = cloud_init(20, grid, 1, ("gaussian", 0.0, 1.0), seed=2)
        c = 0.75
        b = a.particles + c
        assert (paired_distance(a.particles, b, grid.dt)
                == pytest.approx(c * math.sqrt(grid.horizon), rel=1e-12))

    def test_metric_axioms_on_sampled_triples(self, grid):
        xs = [cloud_init(16, grid, 2, ("gaussian", 0.2 * k, 1.0),
                         seed=k).particles for k in range(3)]
        d01 = paired_distance(xs[0], xs[1], grid.dt)
        d10 = paired_distance(xs[1], xs[0], grid.dt)
        d02 = paired_distance(xs[0], xs[2], grid.dt)
        d12 = paired_distance(xs[1], xs[2], grid.dt)
        assert d01 == d10
        assert d02 <= d01 + d12 + 1e-12

    def test_shape_mismatch_rejected(self, grid):
        # One particle against nine would broadcast without the check.
        a = cloud_init(9, grid, 1, ("gaussian", 0.0, 1.0), seed=1).particles
        for b in (a[:1], a[:8], np.concatenate([a, a], axis=2)):
            with pytest.raises(ValueError):
                paired_distance(a, b, grid.dt)

    def test_paired_distance_bounds_w2(self, grid):
        # In one dimension the sorted coupling is optimal, so it gives the
        # integrated W2 that any other coupling bounds from above.
        a = cloud_init(16, grid, 1, ("gaussian", 0.0, 1.0), seed=8)
        b = cloud_init(16, grid, 1, ("gaussian", 0.7, 1.2), seed=9)
        w = paired_distance(np.sort(a.particles, axis=0),
                            np.sort(b.particles, axis=0), grid.dt)
        paired = paired_distance(a.particles, b.particles, grid.dt)
        assert 0.0 < w <= paired + 1e-12


class TestEntropy:
    def test_matching_prior_gives_near_zero(self):
        grid = TimeGrid(1.0, 1)
        cloud = cloud_init(10_000, grid, 1, ("gaussian", 0.0, 1.0), seed=0)
        prior = gaussian_prior(1.0, 1)
        est = entropy_estimate(cloud, prior)
        assert est.shape == (1,)
        assert abs(est[0]) < 0.05

    def test_shifted_gaussian_matches_closed_form(self):
        # KL(N(m, 1) || N(0, 1)) = m^2 / 2.
        grid = TimeGrid(1.0, 1)
        m = 1.0
        cloud = cloud_init(10_000, grid, 1, ("gaussian", m, 1.0), seed=1)
        prior = gaussian_prior(1.0, 1)
        est = entropy_estimate(cloud, prior)
        assert est[0] == pytest.approx(m * m / 2.0, abs=0.05)

    def test_two_dimensional_consistency(self):
        grid = TimeGrid(1.0, 1)
        cloud = cloud_init(10_000, grid, 2, ("gaussian", 0.0, 1.0), seed=2)
        prior = gaussian_prior(1.0, 2)
        assert abs(entropy_estimate(cloud, prior)[0]) < 0.08

    def test_duplicate_particles_flagged_infinite(self):
        # Only the node that holds the duplicate pair is undefined.
        grid = TimeGrid(1.0, 3)
        arr = np.random.default_rng(0).normal(size=(16, 4, 1))
        arr[3, 1] = arr[11, 1]
        cloud = ParticleCloud(particles=arr, grid=grid)
        est = entropy_estimate(cloud, gaussian_prior(1.0, 1))
        assert est.shape == (3,)
        assert math.isinf(est[1]) and est[1] > 0
        assert np.isfinite(est[[0, 2]]).all()

    def test_small_cloud_rejected(self):
        grid = TimeGrid(1.0, 1)
        cloud = cloud_init(7, grid, 1, ("gaussian", 0.0, 1.0), seed=0)
        with pytest.raises(ValueError):
            entropy_estimate(cloud, gaussian_prior(1.0, 1))

    def test_distance_tiles_stay_within_the_bound(self, monkeypatch):
        # 1,000 particles need 131-row tiles; 1,000 is not a multiple of
        # 131, so the last tile is short.  Every row is searched once.
        shapes = []
        cdist = scipy.spatial.distance.cdist

        def recording_cdist(xa, xb, *args, **kwargs):
            shapes.append((len(xa), len(xb)))
            return cdist(xa, xb, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial.distance, "cdist", recording_cdist)
        grid = TimeGrid(1.0, 2)
        cloud = cloud_init(1000, grid, 2, ("gaussian", 0.0, 1.0), seed=4)
        assert np.isfinite(entropy_estimate(cloud, gaussian_prior(1.0, 2))).all()
        assert max(rows * cols for rows, cols in shapes) <= TILE_ENTRIES
        assert {cols for _, cols in shapes} == {1000}
        assert sum(rows for rows, _ in shapes) == 1000 * grid.n_steps
        assert len(shapes) == 8 * grid.n_steps
