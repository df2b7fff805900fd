"""Golden values that pin the random stream bit for bit.

Every other determinism test compares the stream with itself; these
compare it with fixed numbers, so a rewrite of the kernel, the chunking or
the serializer cannot change a tally or an emitted byte unnoticed. The
trial count 300,004 is a multiple of 4 (round-robin needs one) and of
neither 2^16 nor 2^18, so the last chunk is always partial.
"""

import hashlib

import numpy as np
import pytest

from bellkit import CHSH_MAX_ANGLES, SimulationConfig, run_experiment
from bellkit.cli import main
from bellkit.rng import trial_words, unit_doubles

SEED_MAX = 2**64 - 1
GOLDEN_TRIALS = 300_004
LHV_ANGLES = (0.0, 1.2, 0.4, -0.9)

# (model, setting scheme, flip_station2, seed) -> (a, b, c, d, n00, n01, n10, n11)
GOLDEN_TALLIES = {
    ("quantum", "uniform_random", False, 0): (75064, 75116, 74517, 75307, 64195, 64124, 63560, 11014),
    ("quantum", "uniform_random", False, SEED_MAX): (75173, 74870, 75196, 74765, 64177, 63989, 64300, 11099),
    ("quantum", "uniform_random", True, 0): (75064, 75116, 74517, 75307, 10869, 10992, 10957, 64293),
    ("quantum", "uniform_random", True, SEED_MAX): (75173, 74870, 75196, 74765, 10996, 10881, 10896, 63666),
    ("quantum", "round_robin", False, 0): (75001, 75001, 75001, 75001, 64063, 64020, 64119, 10899),
    ("quantum", "round_robin", False, SEED_MAX): (75001, 75001, 75001, 75001, 64040, 63964, 64067, 11103),
    ("quantum", "round_robin", True, 0): (75001, 75001, 75001, 75001, 10938, 10981, 10882, 64102),
    ("quantum", "round_robin", True, SEED_MAX): (75001, 75001, 75001, 75001, 10961, 11037, 10934, 63898),
    ("lhv", "uniform_random", False, 0): (75064, 75116, 74517, 75307, 65716, 53558, 55686, 24934),
    ("lhv", "uniform_random", False, SEED_MAX): (75173, 74870, 75196, 74765, 65667, 53648, 56023, 24789),
    ("lhv", "uniform_random", True, 0): (75064, 75116, 74517, 75307, 9348, 21558, 18831, 50373),
    ("lhv", "uniform_random", True, SEED_MAX): (75173, 74870, 75196, 74765, 9506, 21222, 19173, 49976),
    ("lhv", "round_robin", False, 0): (75001, 75001, 75001, 75001, 65461, 53271, 55960, 24970),
    ("lhv", "round_robin", False, SEED_MAX): (75001, 75001, 75001, 75001, 65491, 53683, 56007, 24933),
    ("lhv", "round_robin", True, 0): (75001, 75001, 75001, 75001, 9540, 21730, 19041, 50031),
    ("lhv", "round_robin", True, SEED_MAX): (75001, 75001, 75001, 75001, 9510, 21318, 18994, 50068),
}

# SHA-256 of `simulate --emit-trials` for 10^4 uniform quantum trials,
# seed 42, at the maximal-violation angles.
GOLDEN_EMIT_SHA256 = {
    "jsonl": "198035e103b68b3eb871fae3b44475705e3b14133044b0a3530cf26d5b491768",
    "csv": "2aeb7432070c08ef929e4a16f1d9e36c5041e1bc32f035a4f519092f08571cdb",
}


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("case", sorted(GOLDEN_TALLIES, key=repr), ids=repr)
def test_golden_tally(case, shards):
    model, scheme, flip, seed = case
    a0, a1, b0, b1 = CHSH_MAX_ANGLES if model == "quantum" else LHV_ANGLES
    cfg = SimulationConfig(
        model=model, theta_a0=a0, theta_a1=a1, theta_b0=b0, theta_b1=b1,
        trials=GOLDEN_TRIALS, seed=seed, setting_scheme=scheme, flip_station2=flip,
    )
    tally = run_experiment(cfg, shards=shards).tally
    assert tuple(tally.to_dict().values()) == GOLDEN_TALLIES[case]


@pytest.mark.parametrize("fmt", sorted(GOLDEN_EMIT_SHA256))
def test_golden_emitted_trials(fmt, tmp_path, capsys):
    emitted = tmp_path / f"trials.{fmt}"
    code = main([
        "simulate", "--model", "quantum", "--angles", ",".join(map(repr, CHSH_MAX_ANGLES)),
        "--trials", "10000", "--seed", "42", "--out", str(tmp_path / "tally.json"),
        "--emit-trials", str(emitted), "--emit-format", fmt,
    ])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(emitted.read_bytes()).hexdigest() == GOLDEN_EMIT_SHA256[fmt]


# Pure-Python scalar reference for the counter-based stream: the per-trial
# key is output `index` of SplitMix64 seeded with mix64(seed), and word
# `slot` of a trial is output `slot` of SplitMix64 seeded with that key.
MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_key(seed: int, index: int) -> int:
    return mix64((mix64(seed) + (index + 1) * GAMMA) & MASK64)


def trial_word(seed: int, index: int, slot: int) -> int:
    return mix64((trial_key(seed, index) + (slot + 1) * GAMMA) & MASK64)


def unit_double(word: int) -> float:
    return (word >> 11) * 2.0**-53


# Index ranges that start the stream and cross the 2^16 and 2^18 boundaries.
DIFF_RANGES = [(0, 40), ((1 << 16) - 20, (1 << 16) + 20), ((1 << 18) - 20, (1 << 18) + 20)]


@pytest.mark.parametrize("seed", [0, 1, SEED_MAX])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_trial_words_match_scalar_reference(seed, slot):
    for start, stop in DIFF_RANGES:
        words = trial_words(seed, start, stop, slot=slot)
        assert words.dtype == np.uint64
        expected = [trial_word(seed, i, slot) for i in range(start, stop)]
        assert words.tolist() == expected
        assert unit_doubles(words).tolist() == [unit_double(w) for w in expected]

