"""Counter-based random words built on the SplitMix64 finalizer.

Every random quantity in a simulated run is a pure function of
(seed, trial index, slot): the per-trial key is the index-th output of a
SplitMix64 stream seeded with mix64(seed), and slot t of a trial is output
t of a SplitMix64 stream seeded with that key. Because nothing is stateful,
any partition of the index range (shards, chunks, single records) yields
bit-identical trials, which is what makes sharded runs merge exactly.

trial_keys derives the keys of an index range once; trial_words takes them,
so a chunk that needs several slots derives each key only once. Offsets are
reduced mod 2^64 as Python ints, so numpy never does scalar arithmetic that
could overflow, and the mixing runs in place.

Uniform doubles are the top 53 bits of a word scaled into [0, 1), and
unit_threshold turns a probability into the integer bound that the top 53
bits are compared with instead, with exactly the same outcome.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

_V_GAMMA = np.uint64(GAMMA)
_V_C1 = np.uint64(_C1)
_V_C2 = np.uint64(_C2)

SEED_MAX = MASK64


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _C1) & MASK64
    z = ((z ^ (z >> 27)) * _C2) & MASK64
    return z ^ (z >> 31)


def _vec_mix64(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array, in place; returns z."""
    t = z >> np.uint64(30)
    z ^= t
    z *= _V_C1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _V_C2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def trial_keys(seed: int, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Per-trial keys of trials [start, stop) under `seed`; dtype uint64.

    out, when given, is a uint64 array of stop - start elements that
    receives the keys and is returned.
    """
    keys = np.multiply(np.arange(stop - start, dtype=np.uint64), _V_GAMMA, out=out)
    keys += np.uint64((mix64(seed) + (start + 1) * GAMMA) & MASK64)
    return _vec_mix64(keys)


def trial_words(
    seed: int,
    start: int,
    stop: int,
    slot: int,
    keys: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Random 64-bit words `slot` of trials [start, stop) under `seed`; dtype uint64.

    keys, when given, must be trial_keys(seed, start, stop); it is not
    changed. out is as for trial_keys.
    """
    offset = np.uint64(((slot + 1) * GAMMA) & MASK64)
    if keys is None:
        words = trial_keys(seed, start, stop, out=out)
        words += offset
    else:
        words = np.add(keys, offset, out=out)
    return _vec_mix64(words)


def unit_doubles(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map 64-bit words to doubles in [0, 1) using their top 53 bits.

    out, when given, is a float64 array of the same length that receives
    the doubles and is returned.
    """
    return np.multiply(words >> np.uint64(11), 2.0**-53, out=out, dtype=np.float64)


def unit_threshold(p: float) -> int:
    """ceil(p * 2^53): for p in [0, 1], (w >> 11) < it exactly when unit_doubles(w) < p.

    unit_doubles(w) is m * 2^-53 for the integer m = w >> 11, and p * 2^53
    is exact, so m * 2^-53 < p holds iff m < p * 2^53 iff m < ceil(p * 2^53).
    p = 1 gives 2^53, which every m is below.
    """
    return math.ceil(p * 2.0**53)


def shard_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    """Split [0, total) into `shards` contiguous index ranges.

    Ranges differ in length by at most one and cover the interval exactly;
    empty ranges are dropped when shards > total.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    base, extra = divmod(total, shards)
    ranges = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        if size:
            ranges.append((start, start + size))
        start += size
    return ranges
