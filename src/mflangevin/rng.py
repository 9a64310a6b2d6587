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
known-answer vectors in the test suite.  The rounds run over C-ordered
tiles of at most ``_TILE`` counters in one scratch buffer allocated once
per draw, so a draw's working memory is bounded whatever its size; each
output depends only on its counter, so the tiling changes no bit.
"""

from __future__ import annotations

import math

import numpy as np

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1

# Philox4x32 round multipliers and Weyl key increments.
_PHILOX_M = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_WEYL_0 = 0x9E3779B9
_WEYL_1 = 0xBB67AE85
_SHIFT32 = np.uint64(32)
_MASK32 = np.uint64(_M32)

# The most counters one pass of the rounds takes.  Smaller tiles bound a
# draw's memory more tightly, but one must hold an update of a typical
# study shape (11,520 normals): splitting those draws costs time.
_TILE = 12_288

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


def _rounds(mul, thru, spare, keys):
    """Philox4x32 rounds in place on 32-bit words held in uint64 (2, n) rows.

    ``mul`` holds the multiplied words (x0, x2), ``thru`` the passed-through
    words (x1, x3) and ``spare`` takes each round's products.  A 32 x 32-bit
    product fits in 64 bits, so the words never change dtype: the high half
    is a shift, the low half a mask.  A round is five array operations that
    allocate nothing; the row swaps of the Philox permutation are reversed
    views, not copies.  Returns the output rows ``(x0, x2)`` and ``(x1, x3)``.
    """
    for k in keys:
        prod = np.multiply(mul, _PHILOX_M, out=spare)
        hi = np.right_shift(prod, _SHIFT32, out=mul)
        hi ^= thru[::-1]
        hi ^= k
        prod &= _MASK32
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0); the
        # passed-through words are spent, so their buffer is the next spare.
        mul, thru, spare = hi[::-1], prod[::-1], thru
    return mul, thru


def _tiles(shape: tuple):
    """Cut an array of ``shape`` into blocks of at most ``_TILE`` elements,
    each contiguous in C order, in that order; yields each block's index
    and shape.

    The first axis whose trailing block fits a tile is cut into runs of
    whole trailing blocks, at each index of the axes before it.
    """
    if math.prod(shape) <= _TILE:
        yield (...,), shape
        return
    j = next(j for j in range(len(shape))
             if math.prod(shape[j + 1:]) <= _TILE)
    step = _TILE // math.prod(shape[j + 1:])
    for head in np.ndindex(shape[:j]):
        for lo in range(0, shape[j], step):
            hi = min(lo + step, shape[j])
            yield head + (slice(lo, hi), ...), (hi - lo,) + shape[j + 1:]


def _counter_words(c0, c1, c2, c3):
    """The four counter words and their broadcast shape.

    The words of a draw larger than one tile are read-only views of that
    shape, for the tiles to index; a smaller draw's words broadcast as the
    rounds' buffer takes them.
    """
    words = [_as_counter_word(c) for c in (c0, c1, c2, c3)]
    shape = np.broadcast(*words).shape
    if math.prod(shape) > _TILE:
        # np.broadcast_arrays costs about three times as much per draw.
        words = [np.broadcast_to(w, shape) for w in words]
    return words, shape


def _philox_tiles(words, shape: tuple, key: tuple[int, int],
                  rounds: int = 10):
    """Philox4x32 of the counter ``words`` of broadcast ``shape``, one tile
    at a time.

    The round keys are prepared once, and every tile's rounds run in three
    (2, tile) scratch rows cut from one buffer allocated once per call.
    Yields, for each tile of :func:`_tiles` in turn, its slice of the
    counters in flat C order and its output words (x0, x1, x2, x3) as flat
    rows, which the next tile overwrites.
    """
    k0, k1 = key[0] & _M32, key[1] & _M32
    # Row r holds round r's key words in the order they meet hi = (hi0, hi1).
    keys = np.array([[(k1 + r * _WEYL_1) & _M32, (k0 + r * _WEYL_0) & _M32]
                     for r in range(rounds)], dtype=np.uint64).reshape(-1, 2, 1)
    scratch = np.empty(6 * min(math.prod(shape), _TILE), dtype=np.uint64)
    lo = 0
    for idx, tile in _tiles(shape):
        n = math.prod(tile)
        mul, thru, spare = scratch[:6 * n].reshape(3, 2, n)
        # rows[a, b] is row b of mul (a = 0) or thru (a = 1), in tile shape.
        rows = scratch[:4 * n].reshape((2, 2) + tile)
        rows[0, 0], rows[1, 0], rows[0, 1], rows[1, 1] = (w[idx]
                                                          for w in words)
        mul, thru = _rounds(mul, thru, spare, keys)
        yield slice(lo, lo + n), (mul[0], thru[0], mul[1], thru[1])
        lo += n


def keyed_uniforms(seed: int, purpose: int, c0, c1, c2, c3) -> np.ndarray:
    """Uniform draws on the open interval (0, 1), one per counter tuple.

    The rounds run a tile at a time; the 53 high bits of each tile's words
    x0, x1 are gathered in x0's row and mapped straight into the tile's
    stretch of a fresh C-ordered array, so a draw owns exactly its bytes
    and 0-d counters give a 0-d draw.
    """
    words, shape = _counter_words(c0, c1, c2, c3)
    out = np.empty(shape)
    flat = out.reshape(-1)
    for part, (bits, w1, _, _) in _philox_tiles(words, shape,
                                                derive_key(seed, purpose)):
        bits <<= _SHIFT32
        bits |= w1
        bits >>= np.uint64(11)
        np.multiply(bits, 2.0**-53, out=flat[part])
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
