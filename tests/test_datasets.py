"""Dataset generation: targets, paths, reproducibility."""

import numpy as np
import pytest

from mflangevin.datasets import Dataset, generate_dataset
from mflangevin.grids import TimeGrid


@pytest.fixture
def grid():
    return TimeGrid(1.0, 6)


class TestRegression:
    def test_identity_target_matches_inputs(self, grid):
        ds = generate_dataset("regression", 10, 1, 0, grid, target="identity")
        np.testing.assert_array_equal(ds.xi, ds.zeta)

    def test_inputs_live_in_unit_cube(self, grid):
        ds = generate_dataset("regression", 200, 3, 1, grid)
        assert np.all(ds.zeta >= -1.0) and np.all(ds.zeta <= 1.0)

    def test_fixed_seed_reproduces_bytes(self, grid):
        a = generate_dataset("regression", 16, 2, 5, grid, target="scaled")
        b = generate_dataset("regression", 16, 2, 5, grid, target="scaled")
        assert a.content_hash() == b.content_hash()
        c = generate_dataset("regression", 16, 2, 6, grid, target="scaled")
        assert a.content_hash() != c.content_hash()

    def test_subset_is_prefix(self, grid):
        ds = generate_dataset("regression", 32, 1, 3, grid)
        sub = ds.subset(8)
        np.testing.assert_array_equal(sub.xi, ds.xi[:8])
        np.testing.assert_array_equal(sub.zeta, ds.zeta[:8])
        with pytest.raises(ValueError):
            ds.subset(0)


class TestTimeseries:
    def test_observing_every_node_reproduces_truth(self, grid):
        ds = generate_dataset("timeseries", 6, 2, 4, grid,
                              obs_nodes=range(grid.n_nodes))
        obs = ds.zeta[..., :2]
        truth = ds.zeta[..., 2:]
        np.testing.assert_array_equal(obs, truth)

    def test_sparse_observations_hold_last_value(self, grid):
        ds = generate_dataset("timeseries", 3, 1, 4, grid, obs_nodes=[0, 3])
        obs = ds.zeta[..., 0]
        truth = ds.zeta[..., 1]
        np.testing.assert_array_equal(obs[:, 0], truth[:, 0])
        np.testing.assert_array_equal(obs[:, 1], truth[:, 0])
        np.testing.assert_array_equal(obs[:, 2], truth[:, 0])
        np.testing.assert_array_equal(obs[:, 3], truth[:, 3])
        np.testing.assert_array_equal(obs[:, 6], truth[:, 3])

    def test_initial_state_is_truth_at_zero(self, grid):
        ds = generate_dataset("timeseries", 4, 2, 7, grid, obs_nodes=[0, 2, 4])
        np.testing.assert_array_equal(ds.xi, ds.zeta[:, 0, 2:])

    def test_node_slices(self, grid):
        ds = generate_dataset("timeseries", 4, 1, 8, grid, obs_nodes=[0, 2])
        assert ds.is_path
        assert ds.zeta_node(3).shape == (4, 2)

    def test_invalid_observation_nodes_rejected(self, grid):
        with pytest.raises(ValueError):
            generate_dataset("timeseries", 2, 1, 0, grid, obs_nodes=[99])


def test_validation():
    grid = TimeGrid(1.0, 2)
    with pytest.raises(ValueError):
        generate_dataset("regression", 0, 1, 0, grid)
    with pytest.raises(ValueError):
        generate_dataset("nope", 4, 1, 0, grid)
    with pytest.raises(ValueError):
        Dataset(xi=np.zeros((3, 1)), zeta=np.zeros((2, 1)))


# Accepted, a NaN xi failed at the first sweep as a "step too large or
# model blow-up" state error, and an infinite zeta as a costate error.
@pytest.mark.parametrize("field,value", [
    ("xi", np.nan), ("xi", -np.inf), ("zeta", np.inf), ("zeta", np.nan),
])
def test_non_finite_data_rejected(field, value):
    data = {"xi": np.zeros((3, 1)), "zeta": np.ones((3, 1))}
    data[field][1, 0] = value
    with pytest.raises(ValueError, match="finite"):
        Dataset(**data)


def test_vector_dataset_sample_view():
    # Vector data: every grid node sees the whole data vector.
    ds = Dataset(xi=np.array([[1.0, 2.0]]), zeta=np.array([[3.0, 4.0]]))
    np.testing.assert_array_equal(ds.xi[0], [1.0, 2.0])
    np.testing.assert_array_equal(ds.zeta_node(3), [[3.0, 4.0]])
    assert ds.dim_state == 2 and ds.dim_data == 2 and not ds.is_path
