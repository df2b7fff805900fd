"""Trial-stream generators: entangled-pair statistics and a hidden-variable model.

Both models share one random-word layout per trial (slot 0 settings,
slot 1 primary draw, slot 2 correlation draw) so a record is a pure
function of (config, trial index). The quantum sampler realizes
P(outcomes equal) = cos^2(dtheta/2), i.e. E(dtheta) = cos(dtheta), with
fair individual marginals. The hidden-variable sampler draws a shared
lambda uniform on [0, 2pi) and answers sign(cos(theta - lambda)) at each
station, which yields the sawtooth correlation E = 1 - 2|dtheta|/pi on
[0, pi] and can never exceed the local-realist bound.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Literal, NamedTuple

import numpy as np

from .errors import ConfigError
from .rng import SEED_MAX, shard_ranges, trial_words, unit_doubles
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


def _settings_for_range(cfg: SimulationConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    if cfg.setting_scheme == "round_robin":
        key = np.arange(start, stop, dtype=np.int64) % 4
        return (key >> 1).astype(np.int8), (key & 1).astype(np.int8)
    w0 = trial_words(cfg.seed, start, stop, slot=0)
    s1 = ((w0 >> np.uint64(63)) & np.uint64(1)).astype(np.int8)
    s2 = ((w0 >> np.uint64(62)) & np.uint64(1)).astype(np.int8)
    return s1, s2


def trial_arrays(
    cfg: SimulationConfig, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized trials for index range [start, stop): (s1, s2, o1, o2).

    This is the single source of randomness for both models; every other
    surface (per-record sampling, tallying, emitting) evaluates it.
    """
    if not 0 <= start <= stop <= cfg.trials:
        raise ConfigError(f"index range [{start}, {stop}) outside 0..{cfg.trials}")
    s1, s2 = _settings_for_range(cfg, start, stop)
    if cfg.model == "quantum":
        u_outcome = unit_doubles(trial_words(cfg.seed, start, stop, slot=1))
        o1 = np.where(u_outcome < 0.5, 1, -1).astype(np.int8)
        p_table = np.array(
            [correlation_probability(cfg, k >> 1, k & 1) for k in range(4)],
            dtype=np.float64,
        )
        u_corr = unit_doubles(trial_words(cfg.seed, start, stop, slot=2))
        correlated = u_corr < p_table[(s1 << 1) | s2]
        o2 = np.where(correlated, o1, -o1).astype(np.int8)
    else:
        lam = 2.0 * math.pi * unit_doubles(trial_words(cfg.seed, start, stop, slot=1))
        a_angles = np.array(cfg.station1_angles, dtype=np.float64)
        b_angles = np.array(cfg.station2_angles, dtype=np.float64)
        # sign(0) := +1, so the responder is total and deterministic
        o1 = np.where(np.cos(a_angles[s1] - lam) >= 0.0, 1, -1).astype(np.int8)
        o2 = np.where(np.cos(b_angles[s2] - lam) >= 0.0, 1, -1).astype(np.int8)
    if cfg.flip_station2:
        o2 = (-o2).astype(np.int8)
    return s1, s2, o1, o2


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

    This is the only loop over trial_arrays chunks. When given, write
    receives each chunk's (s1, s2, o1, o2) arrays in index order, so a
    caller can stream the trials and tally them from one generation pass.
    """
    # bins 0..3: anti-correlated per setting pair; bins 4..7: correlated
    counts = np.zeros(8, dtype=np.int64)
    for lo in range(start, stop, _CHUNK):
        s1, s2, o1, o2 = trial_arrays(cfg, lo, min(lo + _CHUNK, stop))
        if write is not None:
            write(s1, s2, o1, o2)
        counts += np.bincount((o1 == o2) * 4 + s1 * 2 + s2, minlength=8)
    total = counts[:4] + counts[4:]
    return TallyTable(
        a=int(total[0]), b=int(total[1]), c=int(total[2]), d=int(total[3]),
        n00=int(counts[4]), n01=int(counts[5]), n10=int(counts[6]), n11=int(counts[7]),
    )


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
