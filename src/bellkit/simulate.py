"""Trial-stream generators: entangled-pair statistics and a hidden-variable model.

Both models share one random-word layout per trial (slot 0 settings,
slot 1 primary draw, slot 2 correlation draw) so a record is a pure
function of (config, trial index). The quantum sampler realizes
P(outcomes equal) = cos^2(dtheta/2), i.e. E(dtheta) = cos(dtheta), with
fair individual marginals. The hidden-variable sampler draws a shared
lambda uniform on [0, 2pi) and answers sign(cos(theta - lambda)) at each
station, which yields the sawtooth correlation E = 1 - 2|dtheta|/pi on
[0, pi] and can never exceed the local-realist bound.

One kernel, _chunk, serves trial_arrays and tally_for_range. It derives
each trial's key once and reads the setting pair k = 2*s1 + s2 as the top
two bits of slot 0. Whether a quantum trial's outcomes agree depends only
on slot 2 and k: (w2 >> 11) < ceil(p * 2^53), which is exactly
unit_doubles(w2) < p. Station 1's outcome (slot 1) is drawn only when the
outcomes themselves are wanted, so a bare tally reads two words per trial.
The kernel applies flip_station2 itself, so what it returns is whether a
trial is correlated, and the count and the trials are read from that.

A hidden-variable station's sign is decided in integers on the slot-1
word w, with np.cos only near an edge. The float expression is
cos(theta - lambda) >= 0 with lambda = (w >> 11) * 2^-53 * 2pi, and it
holds when lambda lies in the arc [theta - pi/2, theta + pi/2] mod 2pi.
In words that arc starts at
L = (floor((theta - pi/2) / (2pi) * 2^53) mod 2^53) << 11 and is 2^63 long,
so the station answers +1 when d = (w - L) mod 2^64 < 2^63; uint64
wraparound closes the circle. Station 1's outcome is d1 < 2^63, and a
trial is correlated when (d1 ^ d2) < 2^63. A word within M = 2^35 of
either edge of either station's arc ((d + M) mod 2^63 < 2M) takes the
float expression, with np.cos run on those words only.

Why the two agree bit for bit elsewhere, for |theta| <= 64: the float
phase fl(theta - fl(m * 2^-53 * fl(2pi))), m = w >> 11, is below 2^7 in
magnitude, so it is within 2^-51 + 2^-51 + 2^-47 < 2^-46 rad of the exact
theta - lambda (fl(2pi)'s error, then half an ulp in [4, 8) and in
[64, 128)). The edge's float (theta - pi/2) / (2pi) is below 2^4 turns
and within 2^-48 turns of the exact value (half an ulp in [64, 128) over
2pi, half an ulp in [8, 16), and fl(2pi)'s error), so after the exact
scaling by 2^53 and the floor, L >> 11 is within 2^5 + 1 steps of 2^-53
turns of the true arc start, and the arc's end lies exactly 2^52 steps
further. A word outside the margin has m at least 2^24 - 1 steps from
both, so theta - lambda is more than (2^24 - 34) * 2pi * 2^-53 > 2^-27 rad
from every zero of cos. The float phase, within 2^-46 rad of it, lies on
the same side of that zero, where |cos| > 2^-28, and any cos accurate to
2^-28 gives the sign that the integer test gives. The float error grows
with |theta|, so a config with an angle past 64 computes every chunk by
the float expression. The slack, 2^-27 rad against 2^-46, would allow a
far larger bound; 64 rad is already ten turns.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .rng import shard_ranges, trial_keys, trial_words, unit_doubles, unit_threshold
from .trials import SEED_MAX, Checked, TallyTable, merge_tallies

_CHUNK = 1 << 16

# Maximal-violation angles for the E00+E01+E10-E11 combination under the
# E = cos(theta_a - theta_b) convention.
CHSH_MAX_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)


def _finite(x: int | float) -> bool:
    """Whether x converts to a finite float."""
    try:
        return math.isfinite(x)
    except OverflowError:  # an int past the float range
        return False


def _shown(v: object) -> str:
    """A rejected value's type and the first 40 characters of its repr, for an error message."""
    try:
        text = repr(v)
    except ValueError:  # an int past Python's int-to-string digit limit
        text = "<too many digits>"
    return f"{type(v).__name__} {text[:40]}{'...' if len(text) > 40 else ''}"


class SimulationConfig(Checked, namedtuple(
        "SimulationConfig", "model theta_a0 theta_a1 theta_b0 theta_b1 trials seed setting_scheme flip_station2",
        defaults=(0, "uniform_random", False))):
    """Generator model, measurement angles (radians), trial count, seed.

    model is "quantum" or "lhv", the four angles finite ints or floats,
    trials a positive int, seed an int in 0..2^64 - 1 (default 0),
    setting_scheme "uniform_random" (the default) or "round_robin", and
    flip_station2 a bool (default False).
    """

    __slots__ = ()

    def _check(self):
        if self.model not in ("quantum", "lhv"):
            raise ConfigError(f"model must be 'quantum' or 'lhv', got {_shown(self.model)}")
        if self.setting_scheme not in ("uniform_random", "round_robin"):
            raise ConfigError(f"unknown setting scheme {_shown(self.setting_scheme)}")
        for name in ("theta_a0", "theta_a1", "theta_b0", "theta_b1"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not _finite(v):
                raise ConfigError(f"{name} must be a finite angle in radians, got {_shown(v)}")
        if not all(_finite(a - b) for a in self.station1_angles for b in self.station2_angles):
            raise ConfigError("every station-1 angle minus station-2 angle must be finite")
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {_shown(self.trials)}")
        if self.setting_scheme == "round_robin" and self.trials % 4 != 0:
            raise ConfigError("round_robin settings require trials divisible by 4")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed <= SEED_MAX:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {_shown(self.seed)}")
        if not isinstance(self.flip_station2, bool):
            raise ConfigError(f"flip_station2 must be true or false, got {_shown(self.flip_station2)}")

    @property
    def station1_angles(self) -> tuple[float, float]:
        return (self.theta_a0, self.theta_a1)

    @property
    def station2_angles(self) -> tuple[float, float]:
        return (self.theta_b0, self.theta_b1)

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        known = set(cls._fields)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {_shown(sorted(unknown))}")
        missing = [f for f in ("model", "trials") if f not in data]
        if missing:
            raise ConfigError(f"config missing fields: {', '.join(missing)}")
        defaults = {
            "theta_a0": 0.0, "theta_a1": 0.0, "theta_b0": 0.0, "theta_b1": 0.0,
        }
        return cls(**{**defaults, **data})


def correlation_probability(cfg: SimulationConfig, s1: int, s2: int) -> float:
    """Quantum P(outcomes equal) for a setting pair: cos^2(dtheta/2)."""
    dtheta = cfg.station1_angles[s1] - cfg.station2_angles[s2]
    return math.cos(dtheta / 2.0) ** 2


# The hidden-variable arc test (see the module docstring): the margin M in
# words, the largest |theta| it is exact for, and the arc's length 2^63.
_ARC_MARGIN = 1 << 35
_ANGLE_BOUND = 64.0
_HALF = np.uint64(1 << 63)
_LOW63 = np.uint64((1 << 63) - 1)


def _arc_starts(angles: tuple[float, ...]) -> np.ndarray:
    """L per setting pair k: the word at which the arc where cos(theta - lambda) >= 0 starts."""
    return np.array(
        [(math.floor((t - math.pi / 2) / (2.0 * math.pi) * 2.0**53) % (1 << 53)) << 11 for t in angles],
        dtype=np.uint64,
    )


def _near_edge(d: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Whether each d = (w - L) mod 2^64 lies within _ARC_MARGIN of 0 or of 2^63."""
    np.add(d, np.uint64(_ARC_MARGIN), out=scratch)
    scratch &= _LOW63
    return scratch < np.uint64(2 * _ARC_MARGIN)


def _cos_signs(
    words: np.ndarray, k: np.ndarray, angles: tuple[tuple[float, ...], ...], lam: np.ndarray | None = None
) -> list[np.ndarray]:
    """Whether cos(theta - lambda) >= 0 at each station, by the float expression.

    lambda = unit_doubles(words) * 2pi goes into lam (float64, allocated
    when None), and words is overwritten. The angle tables are float64
    even for int angles: np.take casts into out only from a dtype that
    casts to it safely.
    """
    lam = unit_doubles(words, out=lam)
    lam *= 2.0 * math.pi
    phase = words.view(np.float64)
    signs = []
    for table in angles:
        np.take(np.array(table, dtype=np.float64), k, out=phase)
        phase -= lam
        signs.append(np.cos(phase, out=phase) >= 0.0)
    return signs


def _work(size: int) -> list[np.ndarray]:
    """The four uint64 buffers _chunk overwrites, for chunks of up to size trials."""
    return [np.empty(size, dtype=np.uint64) for _ in range(4)]


def _chunk(
    cfg: SimulationConfig, start: int, stop: int, outcomes: bool, work: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(k, correlated, o1) for trials [start, stop), computed in the _work buffers.

    k is the setting pair 2*s1 + s2 (int64, a view of a buffer), correlated
    whether the trial is correlated (bool: its outcomes agree, or with
    flip_station2 differ), and o1 station 1's outcome (int8), or None
    unless outcomes is true.
    """
    keys, words, k, spare = (buffer[: stop - start] for buffer in work)
    trial_keys(cfg.seed, start, stop, out=keys)
    if cfg.setting_scheme == "round_robin":
        k = np.bitwise_and(np.arange(start, stop, dtype=np.int64), 3, out=k.view(np.int64))
    else:
        trial_words(keys, 0, out=k)
        k >>= np.uint64(62)
        k = k.view(np.int64)
    o1 = None
    if cfg.model == "quantum":
        thresholds = np.array(
            [unit_threshold(correlation_probability(cfg, j >> 1, j & 1)) for j in range(4)],
            dtype=np.uint64,
        )
        if outcomes:
            # unit_doubles(w) < 0.5 exactly when w < 2^63
            trial_words(keys, 1, out=words)
            o1 = np.where(words < _HALF, np.int8(1), np.int8(-1))
        trial_words(keys, 2, out=words)
        words >>= np.uint64(11)
        # the keys are spent, so their buffer takes each trial's threshold
        correlated = words < np.take(thresholds, k, out=keys)
    else:
        trial_words(keys, 1, out=words)
        # theta per station, looked up by k; sign(0) := +1, so the responder
        # is total and deterministic
        a, b = cfg.station1_angles, cfg.station2_angles
        angles = ((a[0], a[0], a[1], a[1]), (b[0], b[1], b[0], b[1]))
        if max(abs(t) for t in a + b) > _ANGLE_BOUND:
            # the keys are spent, so their buffer takes lambda
            positive1, positive2 = _cos_signs(words, k, angles, lam=keys.view(np.float64))
            correlated = positive1 == positive2
        else:
            starts = [_arc_starts(table) for table in angles]
            # d = (w - L) mod 2^64 per station, in the spent keys' buffer and
            # the spare one; words then serves as scratch, since w = d1 + L1
            d1 = np.subtract(words, np.take(starts[0], k, out=keys), out=keys)
            d2 = np.subtract(words, np.take(starts[1], k, out=spare), out=spare)
            near = _near_edge(d1, words)
            near |= _near_edge(d2, words)
            # the stations agree when d1 and d2 lie on the same side of 2^63
            correlated = np.bitwise_xor(d1, d2, out=words) < _HALF
            positive1 = d1 < _HALF if outcomes else None
            if near.any():
                at = np.flatnonzero(near)
                signs = _cos_signs(d1[at] + starts[0][k[at]], k[at], angles)
                correlated[at] = signs[0] == signs[1]
                if outcomes:
                    positive1[at] = signs[0]
        if outcomes:
            o1 = np.where(positive1, np.int8(1), np.int8(-1))
    if cfg.flip_station2:
        np.logical_not(correlated, out=correlated)
    return k, correlated, o1


def _arrays(k: np.ndarray, correlated: np.ndarray, o1: np.ndarray) -> tuple[np.ndarray, ...]:
    """(s1, s2, o1, o2) as int8 arrays from _chunk's output."""
    return (k >> 1).astype(np.int8), (k & 1).astype(np.int8), o1, np.where(correlated, o1, -o1)


def _check_range(cfg: SimulationConfig, start: int, stop: int) -> None:
    if not 0 <= start <= stop <= cfg.trials:
        raise ConfigError(f"index range [{start}, {stop}) outside 0..{cfg.trials}")


def trial_arrays(
    cfg: SimulationConfig, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized trials for index range [start, stop): (s1, s2, o1, o2).

    This evaluates the same kernel as tally_for_range, in one piece.
    """
    _check_range(cfg, start, stop)
    return _arrays(*_chunk(cfg, start, stop, True, _work(stop - start)))


def tally_for_range(
    cfg: SimulationConfig, start: int, stop: int, write: Callable[..., None] | None = None
) -> TallyTable:
    """Tally of the trials in index range [start, stop).

    This is the only chunk loop. When given, write receives each chunk's
    (s1, s2, o1, o2) arrays, as trial_arrays gives them, in index order,
    so a caller can stream the trials and tally them from one generation
    pass. Without it no outcome is built, and slot 1 of a quantum trial is
    not drawn. The range must lie within 0..cfg.trials.
    """
    _check_range(cfg, start, stop)
    # bin 2k + 1 counts the correlated trials of setting pair k, bin 2k the rest
    counts = np.zeros(8, dtype=np.int64)
    work = _work(min(_CHUNK, stop - start))
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        k, correlated, o1 = _chunk(cfg, lo, hi, write is not None, work)
        if write is not None:
            write(*_arrays(k, correlated, o1))
        k <<= 1
        k += correlated
        counts += np.bincount(k, minlength=8)
    return TallyTable.from_bins(counts.tolist())


class ExperimentRun(NamedTuple):
    tally: TallyTable


def run_experiment(cfg: SimulationConfig, shards: int = 1) -> ExperimentRun:
    """Tally cfg.trials trials.

    Shards partition the index range into contiguous blocks, tallied by at
    most os.cpu_count() worker threads and merged in order; because trials
    are counter-based, the merged tally is identical for every shard count.
    """
    ranges = shard_ranges(cfg.trials, shards)
    if len(ranges) == 1:
        tally = tally_for_range(cfg, *ranges[0])
    else:
        from concurrent.futures import ThreadPoolExecutor  # only here: a one-range run skips it

        workers = min(len(ranges), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda r: tally_for_range(cfg, *r), ranges))
        tally = parts[0]
        for part in parts[1:]:
            tally = merge_tallies(tally, part)
    return ExperimentRun(tally=tally)


def analytic_correlation(cfg: SimulationConfig, s1: int, s2: int) -> float:
    """Expected E for a setting pair under the configured model.

    Quantum: cos(dtheta). Hidden-variable: the sawtooth 1 - 2|dtheta|/pi
    with dtheta wrapped into [0, pi]. flip_station2 negates either.
    """
    dtheta = cfg.station1_angles[s1] - cfg.station2_angles[s2]
    if cfg.model == "quantum":
        e = math.cos(dtheta)
    else:
        wrapped = abs(dtheta) % (2.0 * math.pi)
        wrapped = min(wrapped, 2.0 * math.pi - wrapped)
        e = 1.0 - 2.0 * wrapped / math.pi
    return -e if cfg.flip_station2 else e
