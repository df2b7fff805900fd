"""Reference computations the benchmark checks bellkit's outputs against.

Nothing here imports bellkit. The random stream is re-derived from its
documented layout: the per-trial key is output `index` of a SplitMix64
stream seeded with mix64(seed), slot t of a trial is output t of a
SplitMix64 stream seeded with that key, slot 0 holds the setting bits
(bits 63 and 62), slot 1 the primary draw and slot 2 the correlation draw,
and a uniform double is the top 53 bits of a word scaled into [0, 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
C1 = 0xBF58476D1CE4E5B9
C2 = 0x94D049BB133111EB

CHSH_MAX_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
CELLS = ("a", "b", "c", "d")          # trials per setting pair 00, 01, 10, 11
CORR = ("n00", "n01", "n10", "n11")   # correlated results per setting pair


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * C1) & MASK64
    z = ((z ^ (z >> 27)) * C2) & MASK64
    return z ^ (z >> 31)


def _equal_probabilities(angles) -> list[float]:
    """P(outcomes equal) = cos^2(dtheta/2) per setting pair 00, 01, 10, 11."""
    a0, a1, b0, b1 = angles
    return [math.cos(d / 2.0) ** 2 for d in (a0 - b0, a0 - b1, a1 - b0, a1 - b1)]


def quantum_trial(seed: int, index: int, angles) -> tuple[int, int, int, int]:
    """One uniform-settings quantum trial (s1, s2, o1, o2), in pure Python."""
    key = mix64((mix64(seed) + (index + 1) * GAMMA) & MASK64)
    w0, w1, w2 = (mix64((key + (slot + 1) * GAMMA) & MASK64) for slot in range(3))
    s1, s2 = (w0 >> 63) & 1, (w0 >> 62) & 1
    o1 = 1 if (w1 >> 11) * 2.0**-53 < 0.5 else -1
    p = _equal_probabilities(angles)[2 * s1 + s2]
    o2 = o1 if (w2 >> 11) * 2.0**-53 < p else -o1
    return s1, s2, o1, o2


def _vec_mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(C1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(C2)
    return z ^ (z >> np.uint64(31))


def _unit_doubles(words: np.ndarray) -> np.ndarray:
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def quantum_arrays(seed: int, trials: int, angles) -> tuple[np.ndarray, ...]:
    """All trials of a uniform-settings quantum run as int8 arrays (s1, s2, o1, o2).

    The vectorized twin of quantum_trial, used to write input files fast.
    """
    idx = np.arange(1, trials + 1, dtype=np.uint64)
    keys = _vec_mix64(np.uint64(mix64(seed)) + idx * np.uint64(GAMMA))
    w0, w1, w2 = (
        _vec_mix64(keys + np.uint64(((slot + 1) * GAMMA) & MASK64)) for slot in range(3)
    )
    s1 = (w0 >> np.uint64(63)).astype(np.int8)
    s2 = ((w0 >> np.uint64(62)) & np.uint64(1)).astype(np.int8)
    o1 = np.where(_unit_doubles(w1) < 0.5, 1, -1).astype(np.int8)
    p = np.array(_equal_probabilities(angles))[(s1.astype(np.intp) << 1) | s2]
    o2 = np.where(_unit_doubles(w2) < p, o1, -o1).astype(np.int8)
    return s1, s2, o1, o2


def tally_of(s1, s2, o1, o2) -> dict[str, int]:
    """The eight tally counts of trial arrays."""
    key = (s1.astype(np.intp) << 1) | s2
    counts = np.bincount(key, minlength=4)
    corr = np.bincount(key[o1 == o2], minlength=4)
    return dict(zip(CELLS + CORR, (int(v) for v in (*counts, *corr))))


def analytic_correlation(model: str, angles, s1: int, s2: int, flip: bool) -> float:
    """Expected E: cos(dtheta) for quantum, the sawtooth 1 - 2|dtheta|/pi for lhv."""
    dtheta = angles[s1] - angles[2 + s2]
    if model == "quantum":
        e = math.cos(dtheta)
    else:
        wrapped = abs(dtheta) % (2.0 * math.pi)
        wrapped = min(wrapped, 2.0 * math.pi - wrapped)
        e = 1.0 - 2.0 * wrapped / math.pi
    return -e if flip else e


def chsh_exact(t: dict) -> Fraction:
    """S = 2*(n00/a + n01/b + n10/c - n11/d - 1) as an exact rational."""
    return 2 * (
        Fraction(t["n00"], t["a"]) + Fraction(t["n01"], t["b"])
        + Fraction(t["n10"], t["c"]) - Fraction(t["n11"], t["d"]) - 1
    )


def epsilon_achieved(t: dict) -> Fraction:
    """Max over cell pairs of |c_x n_y - c_y n_x| / ((c_x + c_y) min(c_x, c_y))."""
    cells = [(t[c], t[n]) for c, n in zip(CELLS, CORR)]
    return max(
        Fraction(abs(cx * ny - cy * nx), (cx + cy) * min(cx, cy))
        for i, (cx, nx) in enumerate(cells)
        for cy, ny in cells[i + 1:]
    )
