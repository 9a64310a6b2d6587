"""Counter-based random number generation (Philox4x32-10).

Every random quantity in this library is produced by a stateless, keyed
generator: a 64-bit key derived from (seed, purpose) and a 128-bit counter
built from integer indices such as (component, particle, iteration, node).
Two runs that agree on seed and indices therefore draw bit-identical
numbers regardless of array shapes, execution order, or thread count.
This is what makes synchronous couplings exact: a run with N particles and
a run with 16N particles see the same Brownian increments on the particles
they share, and runs with different step sizes can consume the same
Brownian path by summing fine-resolution increments.

The generator is the Philox4x32 bijection with 10 rounds, implemented with
vectorised numpy integer arithmetic and checked against the published
known-answer vectors in the test suite.
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1

# Philox4x32 round multipliers and Weyl key increments.
_PHILOX_M = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_WEYL_0 = 0x9E3779B9
_WEYL_1 = 0xBB67AE85
_SHIFT32 = np.uint64(32)
_MASK32 = np.uint64(_M32)

# Purpose tags keep independent families of draws (initialisation noise,
# Langevin increments, data generation, ...) on unrelated key schedules.
PURPOSE_INIT = 0x11
PURPOSE_STEP = 0x22
PURPOSE_DATA = 0x33
PURPOSE_PROBE = 0x44


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_key(seed: int, purpose: int) -> tuple[int, int]:
    """Map (seed, purpose) to the two 32-bit Philox key words."""
    k = _splitmix64((seed & _M64) ^ _splitmix64(purpose & _M64))
    return k & _M32, (k >> 32) & _M32


def _as_counter_word(idx) -> np.ndarray:
    arr = np.asarray(idx, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise ValueError("counter indices must be nonnegative")
    return arr.astype(np.uint64) & _MASK32


def _philox_words(c0, c1, c2, c3, key: tuple[int, int], rounds: int = 10):
    """Philox4x32 on 32-bit words held in uint64 arrays, in place.

    A 32 x 32-bit product fits in 64 bits, so the words never change dtype
    inside the rounds: the high half is a shift, the low half a mask.  The
    two multiplied words and the two passed-through words each share one
    flat (2, n) buffer, and a third buffer takes each round's products, so
    a round is five array operations that allocate nothing; the row swaps
    of the Philox permutation are reversed views, not copies.  Returns the
    output words (x0, x1, x2, x3), each of the counters' broadcast shape.
    """
    words = [_as_counter_word(c) for c in (c0, c1, c2, c3)]
    shape = np.broadcast(*words).shape
    mul = np.empty((2,) + shape, dtype=np.uint64)
    thru = np.empty((2,) + shape, dtype=np.uint64)
    mul[0], thru[0], mul[1], thru[1] = words
    mul, thru = mul.reshape(2, -1), thru.reshape(2, -1)
    spare = np.empty_like(mul)
    k0, k1 = key[0] & _M32, key[1] & _M32
    # Row r holds round r's key words in the order they meet hi = (hi0, hi1).
    keys = np.array([[(k1 + r * _WEYL_1) & _M32, (k0 + r * _WEYL_0) & _M32]
                     for r in range(rounds)], dtype=np.uint64).reshape(-1, 2, 1)
    for k in keys:
        prod = np.multiply(mul, _PHILOX_M, out=spare)
        hi = np.right_shift(prod, _SHIFT32, out=mul)
        hi ^= thru[::-1]
        hi ^= k
        prod &= _MASK32
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0); the
        # passed-through words are spent, so their buffer is the next spare.
        mul, thru, spare = hi[::-1], prod[::-1], thru
    return tuple(w.reshape(shape) for w in (mul[0], thru[0], mul[1], thru[1]))


def keyed_uniforms(seed: int, purpose: int, c0, c1, c2, c3) -> np.ndarray:
    """Uniform draws on the open interval (0, 1), one per counter tuple.

    The 53 high bits of the words x0, x1 are gathered in x0's buffer and
    mapped into a fresh array, so a draw owns exactly its bytes and 0-d
    counters give a 0-d draw.
    """
    bits, w1, _, _ = _philox_words(c0, c1, c2, c3, derive_key(seed, purpose))
    bits <<= _SHIFT32
    bits |= w1
    bits >>= np.uint64(11)
    out = np.multiply(bits, 2.0**-53, out=np.empty(bits.shape))
    out += 2.0**-54
    return out


def keyed_normals(seed: int, purpose: int, c0, c1, c2, c3) -> np.ndarray:
    """Standard normal draws via the inverse Gaussian CDF, written over the
    uniforms."""
    from scipy.special import ndtri  # deferred: slow import
    u = keyed_uniforms(seed, purpose, c0, c1, c2, c3)
    return ndtri(u, out=u)


def _index_grid(n_rows: int, n_nodes: int, dim: int):
    rows = np.arange(n_rows).reshape(-1, 1, 1)
    nodes = np.arange(n_nodes).reshape(1, -1, 1)
    comps = np.arange(dim).reshape(1, 1, -1)
    return comps, rows, nodes


def init_normals(seed: int, n_particles: int, n_nodes: int,
                 dim_param: int) -> np.ndarray:
    """Standard normals for cloud initialisation, keyed by (seed, particle, node).

    Particle i's draws depend only on (seed, i), so enlarging the particle
    count extends the array without changing the draws of the particles it
    already had.
    """
    comps, parts, nodes = _index_grid(n_particles, n_nodes, dim_param)
    return keyed_normals(seed, PURPOSE_INIT, comps, parts, 0, nodes)


def step_normals(seed: int, fine_iters, n_particles: int, n_nodes: int,
                 dim_param: int) -> np.ndarray:
    """Standard normals of a range of fine Brownian slots, one block a slot.

    ``fine_iters`` is a 1-D range of finest-resolution slots; the draws are
    keyed by (seed, fine iteration, particle, node) and returned per slot,
    shape (k, n_particles, n_nodes, dim_param).  An update sums its own
    slots in order, so runs with different step sizes that share a seed
    discretise the same Brownian path.
    """
    fine = np.asarray(fine_iters, dtype=np.int64)
    if fine.ndim != 1:
        raise ValueError("fine_iters must be 1-D")
    comps, parts, nodes = _index_grid(n_particles, n_nodes, dim_param)
    return keyed_normals(seed, PURPOSE_STEP, comps, parts,
                         fine.reshape(-1, 1, 1, 1), nodes)
