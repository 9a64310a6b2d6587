"""Cloud initialisation, invariants, and serialisation."""

import numpy as np
import pytest

from mflangevin.clouds import (ParticleCloud, cloud_from_csv, cloud_init,
                               cloud_to_csv)
from mflangevin.grids import TimeGrid


@pytest.fixture
def grid():
    return TimeGrid(1.0, 4)


def test_constant_init_fills_value(grid):
    cloud = cloud_init(3, grid, 2, ("constant", 1.5))
    np.testing.assert_array_equal(cloud.particles, 1.5)


def test_constant_init_accepts_vector(grid):
    cloud = cloud_init(3, grid, 2, ("constant", np.array([1.0, -2.0])))
    np.testing.assert_array_equal(cloud.particles[..., 0], 1.0)
    np.testing.assert_array_equal(cloud.particles[..., 1], -2.0)


def test_gaussian_init_is_deterministic(grid):
    a = cloud_init(16, grid, 3, ("gaussian", 0.5, 2.0), seed=9)
    b = cloud_init(16, grid, 3, ("gaussian", 0.5, 2.0), seed=9)
    np.testing.assert_array_equal(a.particles, b.particles)
    c = cloud_init(16, grid, 3, ("gaussian", 0.5, 2.0), seed=10)
    assert not np.allclose(a.particles, c.particles)


def test_gaussian_init_per_slice_mean_bound(grid):
    # CLT bound: per-node sample mean within 4/sqrt(N2) of the true mean.
    n2 = 10_000
    cloud = cloud_init(n2, grid, 1, ("gaussian", 0.0, 1.0), seed=0)
    means = cloud.particles.mean(axis=0)
    assert np.all(np.abs(means) < 4.0 / np.sqrt(n2))


def test_larger_cloud_extends_smaller(grid):
    small = cloud_init(8, grid, 2, ("gaussian", 0.0, 1.0), seed=4)
    large = cloud_init(128, grid, 2, ("gaussian", 0.0, 1.0), seed=4)
    np.testing.assert_array_equal(small.particles, large.particles[:8])


def test_invalid_inputs_rejected(grid):
    with pytest.raises(ValueError):
        cloud_init(0, grid, 1)
    with pytest.raises(ValueError):
        cloud_init(2, grid, 0)
    with pytest.raises(ValueError):
        cloud_init(2, grid, 1, ("gaussian", 0.0, -1.0))
    with pytest.raises(ValueError):
        cloud_init(2, grid, 1, ("banana",))
    with pytest.raises(ValueError):
        ParticleCloud(particles=np.full((2, grid.n_nodes, 1), np.nan),
                      grid=grid)
    with pytest.raises(ValueError):
        ParticleCloud(particles=np.zeros((2, grid.n_nodes + 1, 1)), grid=grid)


def test_second_moment_left_rule(grid):
    cloud = cloud_init(4, grid, 1, ("constant", 2.0))
    # |a|^2 = 4 on every node; left rule integrates n_steps * dt = T.
    assert cloud.second_moment() == pytest.approx(4.0 * grid.horizon)


def test_csv_roundtrip_is_lossless(tmp_path, grid):
    cloud = cloud_init(7, grid, 3, ("gaussian", 0.3, 1.7), seed=13)
    path = tmp_path / "cloud.csv"
    cloud_to_csv(cloud, path)
    back = cloud_from_csv(path, grid)
    np.testing.assert_array_equal(back.particles, cloud.particles)
    header = path.read_text().splitlines()[0]
    assert header == "particle,node,coord,value"


def test_csv_roundtrip_extreme_values(tmp_path, grid):
    arr = np.full((2, grid.n_nodes, 1), 0.1234567890123456789)
    arr[0, 0, 0] = 1e-300
    arr[1, -1, 0] = -9.87654321e250
    cloud = ParticleCloud(particles=arr, grid=grid)
    path = tmp_path / "cloud.csv"
    cloud_to_csv(cloud, path)
    back = cloud_from_csv(path, grid)
    np.testing.assert_array_equal(back.particles, cloud.particles)


def test_csv_bytes_match_per_entry_format(tmp_path, grid):
    arr = cloud_init(3, grid, 2, ("gaussian", 0.0, 1.0), seed=5).particles
    arr[0, 0, 0], arr[0, 1, 1], arr[1, 2, 0] = 1e-300, -2.5e-300, 3.0
    arr[2, 0, 1], arr[2, 4, 0] = -7.0, -0.0
    cloud = ParticleCloud(particles=arr, grid=grid)
    path = tmp_path / "cloud.csv"
    cloud_to_csv(cloud, path)
    expected = "particle,node,coord,value\n" + "".join(
        f"{i},{l},{c},{arr[i, l, c]:.17g}\n"
        for i in range(3) for l in range(grid.n_nodes) for c in range(2))
    assert path.read_bytes() == expected.encode()


# Each row once overwrote another particle's entry without a word (-1
# indexed the last particle, and 0.7 was cut to 0) or, past the last
# particle, allocated every particle up to its index.
@pytest.mark.parametrize("row,message", [
    ("-1,1,0,99", "nonnegative integers"),
    ("0.7,0,0,55", "nonnegative integers"),
    ("nan,0,0,55", "nonnegative integers"),
    ("1,0,0,55", "given twice"),
    ("1000000000,0,0,55", "missing"),
])
def test_csv_rejects_bad_or_repeated_indices(tmp_path, grid, row, message):
    cloud = cloud_init(2, grid, 1, ("gaussian", 0.0, 1.0), seed=3)
    path = tmp_path / "cloud.csv"
    cloud_to_csv(cloud, path)
    with open(path, "a") as fh:
        fh.write(row + "\n")
    with pytest.raises(ValueError, match=message):
        cloud_from_csv(path, grid)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    grid = TimeGrid(2.0, 8)
    assert grid.dt == pytest.approx(0.25)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 2.0
    assert np.all(np.diff(grid.nodes) > 0)
