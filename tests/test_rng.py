"""Counter-based generator: reference vectors, keying, and coupling contracts."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri

from mflangevin import rng
from mflangevin.rng import (PURPOSE_INIT, PURPOSE_STEP, _TILE, derive_key,
                            init_normals, keyed_normals, keyed_uniforms,
                            step_normals)


def _reference_uniforms(seed, purpose, *counters):
    """keyed_uniforms with Philox rounds that allocate fresh arrays every
    round, over all counters at once, and a uniform map that allocates
    its output."""
    words = [np.asarray(c).astype(np.uint64) & np.uint64(0xFFFFFFFF)
             for c in counters]
    shape = np.broadcast(*words).shape
    x = [np.broadcast_to(w, shape).astype(np.uint64) for w in words]
    k0, k1 = derive_key(seed, purpose)
    for r in range(10):
        rk0 = np.uint64((k0 + r * 0x9E3779B9) & 0xFFFFFFFF)
        rk1 = np.uint64((k1 + r * 0xBB67AE85) & 0xFFFFFFFF)
        p0 = x[0] * np.uint64(0xD2511F53)
        p1 = x[2] * np.uint64(0xCD9E8D57)
        x = [(p1 >> np.uint64(32)) ^ x[1] ^ rk0, p1 & np.uint64(0xFFFFFFFF),
             (p0 >> np.uint64(32)) ^ x[3] ^ rk1, p0 & np.uint64(0xFFFFFFFF)]
    bits = (x[0] << np.uint64(32)) | x[1]
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54


def _step_counters(fine_iters, n_particles, n_nodes, dim):
    """The counter words (component, particle, fine slot, node) of a
    step_normals draw, before broadcasting."""
    return [np.arange(dim).reshape(1, 1, -1),
            np.arange(n_particles).reshape(-1, 1, 1),
            np.asarray(fine_iters, dtype=np.int64).reshape(-1, 1, 1, 1),
            np.arange(n_nodes).reshape(1, -1, 1)]


def _reference_step_normals(seed, fine_iters, n_particles, n_nodes, dim):
    """step_normals from the allocating reference uniforms and an ndtri
    that allocates its output: the raw draws of every slot, shape
    (k, n_particles, n_nodes, dim)."""
    return ndtri(_reference_uniforms(
        seed, PURPOSE_STEP, *_step_counters(fine_iters, n_particles, n_nodes,
                                            dim)))


class TestPhiloxKnownAnswers:
    """Published Philox4x32-10 test vectors."""

    def test_zero_input(self, philox_words):
        out = philox_words(0, 0, 0, 0, key=(0, 0))
        assert [int(w) for w in out] == [0x6627e8d5, 0xe169c58d,
                                         0xbc57ac4c, 0x9b00dbd8]

    def test_all_ones_input(self, philox_words):
        out = philox_words(*(0xffffffff,) * 4, key=(0xffffffff, 0xffffffff))
        assert [int(w) for w in out] == [0x408f276d, 0x41c83b0e,
                                         0xa20bc7c6, 0x6d5451fd]

    def test_pi_digits_input(self, philox_words):
        out = philox_words(0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344,
                           key=(0xa4093822, 0x299f31d0))
        assert [int(w) for w in out] == [0xd16cfe09, 0x94fdcceb,
                                         0x5001e420, 0x24126ea1]

    def test_vectorised_matches_scalar(self, philox_words):
        c = np.arange(6)
        block = philox_words(c, 1, 2, 3, key=(7, 9))
        for i in range(6):
            single = philox_words(i, 1, 2, 3, key=(7, 9))
            assert all(int(b[i]) == int(s) for b, s in zip(block, single))


class TestInPlaceRounds:
    """The rounds run over tiles of at most ``_TILE`` counters in one
    scratch buffer allocated once per draw, and each draw is a fresh array
    of its own."""

    @pytest.mark.parametrize("fine,shape", [
        (np.arange(51), (32, 5, 2)),  # a stretch of 51 slots
        (np.arange(7, 8), (128, 9, 10)),  # one update of 11,520 normals
        # The Euler study's stretch of 64 slots: tiles of 38 and 26 slots.
        (np.arange(64), (32, 5, 2)),
        # One slot larger than a tile: tiles cut its particle axis.
        (np.arange(3, 5), (2048, 5, 2)),
        # 15,000 normals a slot: tiles cut the particle axis, mid-axis.
        (np.arange(2), (3, 5000, 1)),
    ], ids=["stretch", "update", "short-last-tile", "slot-above-tile",
            "middle-axis"])
    def test_step_normals_match_allocating_reference(self, fine, shape):
        got = step_normals(23, fine, *shape)
        want = _reference_step_normals(23, fine, *shape)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("counters", [
        (0, 0, 4, 0),
        # Size-1 and 0-d counters broadcast over 30,000 lanes.
        (np.arange(30_000), 0, np.zeros((1, 1), dtype=int), 3),
        (np.arange(5).reshape(5, 1, 1), np.arange(3000).reshape(1, -1, 1), 1,
         np.arange(4)),
    ], ids=["scalar", "size-one", "broadcast"])
    def test_uniforms_match_allocating_reference(self, counters):
        got = keyed_uniforms(9, PURPOSE_INIT, *counters)
        want = _reference_uniforms(9, PURPOSE_INIT, *counters)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_rounds_tiles_stay_within_the_bound(self, monkeypatch):
        # Two slots of 2,048 x 5 x 2 normals: each slot is cut into a tile
        # of _TILE // 10 whole particles and a short one.  The counters
        # of the tiles, in order, are every counter once, in C order.
        lanes = []
        rounds = rng._rounds

        def recording_rounds(mul, thru, spare, keys):
            lanes.append(np.stack([mul[0], thru[0], mul[1], thru[1]], axis=1))
            return rounds(mul, thru, spare, keys)

        monkeypatch.setattr(rng, "_rounds", recording_rounds)
        counters = _step_counters(np.arange(2), 2048, 5, 2)
        step_normals(23, np.arange(2), 2048, 5, 2)
        assert all(len(tile) <= _TILE for tile in lanes)
        step = _TILE // 10
        assert [len(tile) for tile in lanes] == [10 * step,
                                                 10 * (2048 - step)] * 2
        grid = np.stack(np.broadcast_arrays(*counters), axis=-1)
        np.testing.assert_array_equal(np.concatenate(lanes),
                                      grid.reshape(-1, 4))

    def test_concurrent_draws_give_the_serial_bytes(self):
        # The studies map their runs over threads, so draws on several
        # threads at once must share no scratch.  More threads than cores,
        # switching often, each drawing two-tile stretches.
        seeds = (3, 4, 5, 6)
        serial = [step_normals(s, np.arange(64), 32, 5, 2).tobytes()
                  for s in seeds]

        def draws(seed):
            return [step_normals(seed, np.arange(64), 32, 5, 2).tobytes()
                    for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(seeds)) as pool:
                concurrent = list(pool.map(draws, seeds, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, concurrent):
            assert all(b == want for b in got)

    def test_successive_draws_share_no_memory(self):
        a = keyed_normals(42, PURPOSE_STEP, 0, np.arange(10), 3, 1)
        b = keyed_normals(42, PURPOSE_STEP, 0, np.arange(10), 3, 1)
        assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("draw", [
        lambda: keyed_uniforms(5, PURPOSE_STEP, np.arange(3), 1, 2, 0),
        lambda: keyed_normals(5, PURPOSE_STEP, np.arange(3), 1, 2, 0),
        lambda: keyed_normals(5, PURPOSE_INIT, 0, 0, 4, 0),
        lambda: step_normals(5, np.arange(4, 7), 6, 3, 2),
        lambda: init_normals(5, 6, 3, 2),
    ], ids=["uniforms", "normals", "scalar", "step", "init"])
    def test_draws_own_exactly_their_bytes(self, draw):
        # A kept draw keeps nothing of the generator's buffers alive.
        out = draw()
        assert out.base is None or out.base.nbytes == out.nbytes

    def test_scalar_counters_give_a_scalar_draw(self):
        u = keyed_uniforms(0, PURPOSE_INIT, 0, 0, 4, 0)
        assert u.shape == () and 0.0 < u.item() < 1.0
        assert keyed_normals(0, PURPOSE_INIT, 0, 0, 4, 0).item() == ndtri(u)


class TestKeying:
    def test_same_inputs_same_outputs(self):
        a = keyed_normals(42, PURPOSE_STEP, 0, np.arange(10), 3, 1)
        b = keyed_normals(42, PURPOSE_STEP, 0, np.arange(10), 3, 1)
        np.testing.assert_array_equal(a, b)

    def test_purposes_are_independent_streams(self):
        a = keyed_normals(42, PURPOSE_STEP, 0, np.arange(10), 3, 1)
        b = keyed_normals(42, PURPOSE_INIT, 0, np.arange(10), 3, 1)
        assert not np.allclose(a, b)

    def test_seed_changes_output(self):
        a = keyed_normals(1, PURPOSE_STEP, 0, np.arange(10), 3, 1)
        b = keyed_normals(2, PURPOSE_STEP, 0, np.arange(10), 3, 1)
        assert not np.allclose(a, b)

    def test_derive_key_is_32bit_words(self):
        k0, k1 = derive_key(2**63 + 5, PURPOSE_STEP)
        assert 0 <= k0 < 2**32 and 0 <= k1 < 2**32

    def test_uniforms_in_open_interval(self):
        u = keyed_uniforms(0, PURPOSE_INIT, np.arange(10000), 0, 0, 0)
        assert np.all(u > 0.0) and np.all(u < 1.0)


class TestStreamIndependence:
    def test_cross_correlation_below_threshold(self):
        # Streams at distinct (particle, node) indices, 1e5 draws each.
        n = 100_000
        block = keyed_normals(7, PURPOSE_STEP, 0,
                              np.arange(2).reshape(-1, 1, 1),
                              np.arange(n).reshape(1, -1, 1),
                              np.arange(2).reshape(1, 1, -1))
        flat = block.transpose(1, 0, 2).reshape(n, 4)
        corr = np.corrcoef(flat, rowvar=False)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.01

    def test_moments_of_normals(self):
        x = keyed_normals(3, PURPOSE_STEP, 0, np.arange(200_000), 0, 0)
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.02


class TestBlockContracts:
    def test_init_block_extends_with_particle_count(self):
        small = init_normals(5, 8, 4, 3)
        large = init_normals(5, 32, 4, 3)
        np.testing.assert_array_equal(small, large[:8])

    def test_step_noise_shared_across_resolutions(self):
        # A range of 4 fine slots draws what the 4 slots draw one by one.
        block = step_normals(11, range(0, 4), 6, 3, 2)
        assert block.shape == (4, 6, 3, 2)
        for j in range(4):
            assert (block[j].tobytes()
                    == step_normals(11, [j], 6, 3, 2)[0].tobytes())

    def test_slots_come_as_a_one_dimensional_range(self):
        with pytest.raises(ValueError, match="1-D"):
            step_normals(11, np.arange(4)[:, None], 6, 3, 2)

    def test_distinct_iterations_differ(self):
        a = step_normals(11, [0], 6, 3, 2)
        b = step_normals(11, [1], 6, 3, 2)
        assert not np.allclose(a, b)
