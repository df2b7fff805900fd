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
outcomes themselves are wanted, so a bare tally reads two words per trial,
and flip_station2 turns agreement into disagreement after the count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Literal, NamedTuple

import numpy as np

from .errors import ConfigError
from .rng import SEED_MAX, shard_ranges, trial_keys, trial_words, unit_doubles, unit_threshold
from .trials import TallyTable, TrialRecord, merge_tallies

Model = Literal["quantum", "lhv"]
SettingScheme = Literal["uniform_random", "round_robin"]

_CHUNK = 1 << 16

# Maximal-violation angles for the E00+E01+E10-E11 combination under the
# E = cos(theta_a - theta_b) convention.
CHSH_MAX_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)


@dataclass(frozen=True)
class SimulationConfig:
    """Generator model, measurement angles (radians), trial count, seed."""

    model: Model
    theta_a0: float
    theta_a1: float
    theta_b0: float
    theta_b1: float
    trials: int
    seed: int = 0
    setting_scheme: SettingScheme = "uniform_random"
    flip_station2: bool = False

    def __post_init__(self):
        if self.model not in ("quantum", "lhv"):
            raise ConfigError(f"model must be 'quantum' or 'lhv', got {self.model!r}")
        if self.setting_scheme not in ("uniform_random", "round_robin"):
            raise ConfigError(f"unknown setting scheme {self.setting_scheme!r}")
        for name in ("theta_a0", "theta_a1", "theta_b0", "theta_b1"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ConfigError(f"{name} must be a finite angle in radians, got {v!r}")
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if self.setting_scheme == "round_robin" and self.trials % 4 != 0:
            raise ConfigError("round_robin settings require trials divisible by 4")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed <= SEED_MAX:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not isinstance(self.flip_station2, bool):
            raise ConfigError(f"flip_station2 must be true or false, got {self.flip_station2!r}")

    @property
    def station1_angles(self) -> tuple[float, float]:
        return (self.theta_a0, self.theta_a1)

    @property
    def station2_angles(self) -> tuple[float, float]:
        return (self.theta_b0, self.theta_b1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")
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


def _work(size: int) -> list[np.ndarray]:
    """The three uint64 buffers _chunk overwrites, for chunks of up to size trials."""
    return [np.empty(size, dtype=np.uint64) for _ in range(3)]


def _chunk(
    cfg: SimulationConfig, start: int, stop: int, outcomes: bool, work: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(k, equal, o1) for trials [start, stop), computed in the _work buffers.

    k is the setting pair 2*s1 + s2 (int64, a view of a buffer), equal
    whether the two outcomes agree before flip_station2 (bool), and o1
    station 1's outcome (int8), or None unless outcomes is true.
    """
    keys, words, k = (buffer[: stop - start] for buffer in work)
    trial_keys(cfg.seed, start, stop, out=keys)
    if cfg.setting_scheme == "round_robin":
        k = np.bitwise_and(np.arange(start, stop, dtype=np.int64), 3, out=k.view(np.int64))
    else:
        trial_words(cfg.seed, start, stop, 0, keys, out=k)
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
            trial_words(cfg.seed, start, stop, 1, keys, out=words)
            o1 = np.where(words < np.uint64(1 << 63), np.int8(1), np.int8(-1))
        trial_words(cfg.seed, start, stop, 2, keys, out=words)
        words >>= np.uint64(11)
        # the keys are spent, so their buffer takes each trial's threshold
        equal = words < np.take(thresholds, k, out=keys)
    else:
        trial_words(cfg.seed, start, stop, 1, keys, out=words)
        # the keys are spent, so their buffer takes lambda
        lam = unit_doubles(words, out=keys.view(np.float64))
        lam *= 2.0 * math.pi
        # cos(theta - lambda) per station, with theta looked up by k;
        # sign(0) := +1, so the responder is total and deterministic.
        # The tables are float64 even for int angles: np.take casts into
        # out only from a dtype that casts to it safely.
        a, b = cfg.station1_angles, cfg.station2_angles
        phase = words.view(np.float64)
        np.take(np.array([a[0], a[0], a[1], a[1]], dtype=np.float64), k, out=phase)
        phase -= lam
        positive1 = np.cos(phase, out=phase) >= 0.0
        np.take(np.array([b[0], b[1], b[0], b[1]], dtype=np.float64), k, out=phase)
        phase -= lam
        equal = (np.cos(phase, out=phase) >= 0.0) == positive1
        if outcomes:
            o1 = np.where(positive1, np.int8(1), np.int8(-1))
    return k, equal, o1


def _arrays(
    cfg: SimulationConfig, k: np.ndarray, equal: np.ndarray, o1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(s1, s2, o1, o2) as int8 arrays from _chunk's output."""
    if cfg.flip_station2:
        equal = ~equal
    return (k >> 1).astype(np.int8), (k & 1).astype(np.int8), o1, np.where(equal, o1, -o1)


def trial_arrays(
    cfg: SimulationConfig, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized trials for index range [start, stop): (s1, s2, o1, o2).

    This evaluates the same kernel as tally_for_range, in one piece.
    """
    if not 0 <= start <= stop <= cfg.trials:
        raise ConfigError(f"index range [{start}, {stop}) outside 0..{cfg.trials}")
    return _arrays(cfg, *_chunk(cfg, start, stop, True, _work(stop - start)))


def sample_trial(cfg: SimulationConfig, index: int) -> TrialRecord:
    """The trial at a given position of the seeded stream."""
    if not 0 <= index < cfg.trials:
        raise ConfigError(f"trial index {index} outside 0..{cfg.trials - 1}")
    s1, s2, o1, o2 = trial_arrays(cfg, index, index + 1)
    return TrialRecord(int(s1[0]), int(s2[0]), int(o1[0]), int(o2[0]))


def tally_for_range(
    cfg: SimulationConfig, start: int, stop: int, write: Callable[..., None] | None = None
) -> TallyTable:
    """Tally of the trials in index range [start, stop).

    This is the only chunk loop. When given, write receives each chunk's
    (s1, s2, o1, o2) arrays, as trial_arrays gives them, in index order,
    so a caller can stream the trials and tally them from one generation
    pass. Without it no outcome is built, and slot 1 of a quantum trial is
    not drawn.
    """
    # bin 2k: outcomes differ under setting pair k; bin 2k + 1: they agree
    counts = np.zeros(8, dtype=np.int64)
    # Without a hook one set of buffers serves every chunk. With one, each
    # chunk gets its own, freed before write runs, so they do not add to
    # the writer's memory peak.
    work = _work(min(_CHUNK, max(stop - start, 0))) if write is None else None
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        k, equal, o1 = _chunk(cfg, lo, hi, write is not None, work or _work(hi - lo))
        trials = _arrays(cfg, k, equal, o1) if write is not None else ()
        k <<= 1
        k += equal
        counts += np.bincount(k, minlength=8)
        del k
        if write is not None:
            write(*trials)
    a, b, c, d = (counts[0::2] + counts[1::2]).tolist()
    n00, n01, n10, n11 = counts[1::2].tolist()
    if cfg.flip_station2:
        n00, n01, n10, n11 = a - n00, b - n01, c - n10, d - n11
    return TallyTable(a=a, b=b, c=c, d=d, n00=n00, n01=n01, n10=n10, n11=n11)


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
