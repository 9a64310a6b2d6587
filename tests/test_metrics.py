"""Coupling distances and nearest-neighbour entropy estimates."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial.distance

from mflangevin import metrics
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
        # 1,000 particles need 131-row tiles of one node; 1,000 is not a
        # multiple of 131, so each node's last tile is short.  Every
        # (node, row) is searched once.
        tiles = []
        search = metrics._search_tile

        def recording_search(xt, left, right, nodes, rows):
            tiles.append((nodes, rows))
            return search(xt, left, right, nodes, rows)

        monkeypatch.setattr(metrics, "_search_tile", recording_search)
        grid = TimeGrid(1.0, 2)
        cloud = cloud_init(1000, grid, 2, ("gaussian", 0.0, 1.0), seed=4)
        assert np.isfinite(entropy_estimate(cloud, gaussian_prior(1.0, 2))).all()
        searched = np.zeros((grid.n_steps, 1000), dtype=int)
        for nodes, rows in tiles:
            entries = (nodes.stop - nodes.start) * (rows.stop - rows.start)
            assert entries * 1000 <= TILE_ENTRIES
            searched[nodes, rows] += 1
        assert (searched == 1).all()
        assert len(tiles) == 8 * grid.n_steps
        assert tiles[-1][1] == slice(7 * 131, 1000)


def _reference(x, pairwise):
    """Nearest squared distance per (particle, node) from ``pairwise(rows,
    points)``, the full squared-distance block, in blocks of 512 rows."""
    n, n_nodes, _ = x.shape
    out = np.empty((n, n_nodes))
    for l in range(n_nodes):
        for s in range(0, n, 512):
            block = pairwise(x[s:s + 512, l], x[:, l])
            block[np.arange(len(block)), np.arange(s, s + len(block))] = np.inf
            out[s:s + 512, l] = block.min(axis=1)
    return out


def _coordinate_order(rows, points):
    acc = np.zeros((len(rows), len(points)))
    for k in range(rows.shape[1]):
        diff = rows[:, None, k] - points[None, :, k]
        acc += diff * diff
    return acc


def _cdist(rows, points):
    return scipy.spatial.distance.cdist(rows, points, "sqeuclidean")


def _search_cloud(kind, n, p, seed=0):
    """A (n, 4, p) cloud.  Four nodes of 200 particles fill tiles of three
    nodes and one; 400 particles take 327-row tiles, the last one short."""
    rng = np.random.default_rng(seed)
    shape = (n, 4, p)
    side = max(2, round(2 * n ** (1 / p)))
    lattice = rng.integers(0, side, size=shape).astype(float)
    if kind == "lattice":  # exact ties, and duplicates at small p
        return lattice
    if kind == "duplicate":  # one pair at node 2
        x = rng.standard_normal(shape)
        x[3, 2] = x[n - 5, 2]
        return x
    if kind == "offset":  # a Gram product on uncentred points sees ties
        return 1e4 + 1e-9 * lattice
    # Mixed scales: particles of scale 1e-3 to 1e3, and a third each in
    # two clusters of spacing 1e-9 at +-1e4, where the screen's error
    # dwarfs the distances and rules out nothing inside a cluster.
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, (n, 1, 1))
    third = n // 3
    x[:third] = 1e4 + 1e-9 * lattice[:third]
    x[third:2 * third] = -1e4 + 1e-9 * lattice[third:2 * third]
    return x


class TestNeighbourSearch:
    """The Gram-screened search returns exactly the dense search's bytes."""

    @pytest.mark.parametrize("p", [1, 2, 3, 10, 17, 64])
    @pytest.mark.parametrize("n", [200, 400])
    @pytest.mark.parametrize("kind", ["lattice", "duplicate", "offset",
                                      "mixed"])
    def test_bytes_match_the_dense_search(self, kind, n, p):
        x = _search_cloud(kind, n, p)
        got = metrics._nearest_sq_distances(x)
        assert got.tobytes() == _reference(x, _coordinate_order).tobytes()
        assert got.tobytes() == _reference(x, _cdist).tobytes()
        if kind == "duplicate":
            assert (got[[3, n - 5], 2] == 0.0).all()
            assert (got[:, [0, 1, 3]] > 0.0).all()

    def test_constant_cloud_bytes_match_the_dense_search(self):
        # Every pair ties at zero.
        grid = TimeGrid(1.0, 1)
        x = cloud_init(4096, grid, 3, ("constant", 0.1)).particles[:, :-1]
        got = metrics._nearest_sq_distances(x)
        assert got.tobytes() == _reference(x, _coordinate_order).tobytes()
        assert got.tobytes() == _reference(x, _cdist).tobytes()
        assert (got == 0.0).all()

    def test_estimate_bytes_match_the_dense_search(self, monkeypatch):
        # The estimate's sums over particles read the search's output; its
        # layout must not change their order.
        cloud = cloud_init(128, TimeGrid(1.0, 8), 10, ("gaussian", 0.0, 1.0),
                           seed=3)
        prior = gaussian_prior(1.0, 10)
        got = entropy_estimate(cloud, prior)
        monkeypatch.setattr(metrics, "_nearest_sq_distances",
                            lambda x: _reference(x, _cdist))
        assert got.tobytes() == entropy_estimate(cloud, prior).tobytes()

    def test_non_finite_points_match_the_dense_search(self):
        x = _search_cloud("duplicate", 200, 3)
        x[5, 0, 1], x[7, 1, 0], x[9, 1, 2] = np.nan, np.inf, -np.inf
        x[11, 3] = 1e200
        # Squared norms that overflow at node 2, whose particle 0 sits at
        # the mean with every other particle at an infinite distance.
        far = 1e155 * (1.0 + np.abs(x[1:100, 2]))
        x[1:100, 2], x[100:199, 2] = far, -far
        x[0, 2], x[199, 2] = 0.0, (2e154, 0.0, 0.0)
        got = metrics._nearest_sq_distances(x)
        with np.errstate(invalid="ignore", over="ignore"):
            ref = _reference(x, _coordinate_order)
        assert got.tobytes() == ref.tobytes()
        assert got.tobytes() == _reference(x, _cdist).tobytes()
        assert np.isnan(got[:, 0]).all() and np.isinf(got[0, 2])

    def test_overflowing_screen_matches_the_dense_search(self):
        # Squared norms near the largest float overflow the screen: the
        # second point's row is +inf throughout, its nearest neighbour (the
        # third point) among them, so no bound can single that one out.
        x = np.array([1.4e154, 0.6e154, 1.35e154, -1.675e154, -1.675e154])
        x = x[:, None, None]
        got = metrics._nearest_sq_distances(x)
        with np.errstate(over="ignore"):
            ref = _reference(x, _coordinate_order)
        assert got.tobytes() == ref.tobytes()
        assert got.tobytes() == _reference(x, _cdist).tobytes()
        assert got[1, 0] == (1.35e154 - 0.6e154) ** 2

    def test_lone_point_has_no_neighbour(self):
        x = np.ones((1, 2, 3))
        assert (metrics._nearest_sq_distances(x) == np.inf).all()
        assert (_reference(x, _cdist) == np.inf).all()


# Prints a digest of the neighbour search over a few clouds; run once per
# BLAS thread count, each in its own process.
_SEARCH_DIGEST = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_metrics import _search_cloud
from mflangevin.metrics import _nearest_sq_distances
clouds = [_search_cloud(kind, 400, p) for kind in ("offset", "mixed")
          for p in (3, 64)]
print(hashlib.sha256(b"".join(_nearest_sq_distances(x).tobytes()
                              for x in clouds)).hexdigest())
"""


def test_search_bytes_do_not_depend_on_blas_threads():
    root = Path(__file__).resolve().parents[1]
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(root / "src"),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _SEARCH_DIGEST,
                              str(root / "tests")], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr[-2000:]
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
