"""Counter-based random words built on the SplitMix64 finalizer.

Every random quantity in a simulated run is a pure function of
(seed, trial index, slot): the per-trial key is the index-th output of a
SplitMix64 stream seeded with mix64(seed), and slot t of a trial is output
t of a SplitMix64 stream seeded with that key. Because nothing is stateful,
any partition of the index range (shards, chunks, single records) yields
bit-identical trials, which is what makes sharded runs merge exactly.

Uniform doubles are the top 53 bits of a word scaled into [0, 1).
"""

from __future__ import annotations

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
    z = z ^ (z >> np.uint64(30))
    z = z * _V_C1
    z = z ^ (z >> np.uint64(27))
    z = z * _V_C2
    return z ^ (z >> np.uint64(31))


def trial_words(seed: int, start: int, stop: int, slot: int) -> np.ndarray:
    """Random 64-bit words `slot` of trials [start, stop) under `seed`; dtype uint64."""
    idx = np.arange(start, stop, dtype=np.uint64)
    base = np.uint64(mix64(seed))
    keys = _vec_mix64(base + (idx + np.uint64(1)) * _V_GAMMA)
    offset = np.uint64(((slot + 1) * GAMMA) & MASK64)
    return _vec_mix64(keys + offset)


def unit_doubles(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in [0, 1) using their top 53 bits."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


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
