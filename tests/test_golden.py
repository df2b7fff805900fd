"""Golden values that pin the random stream bit for bit.

Every other determinism test compares the stream with itself; these
compare it with fixed numbers, so a rewrite of the kernel, the chunking or
the serializer cannot change a tally or an emitted byte unnoticed. The
trial count 300,004 is a multiple of 4 (round-robin needs one) and of
neither 2^16 nor 2^18, so the last chunk is always partial.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bellkit import CHSH_MAX_ANGLES, SimulationConfig, run_experiment
from bellkit.cli import main
from bellkit.rng import trial_keys, trial_words, unit_doubles

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

# An LHV tally with one angle past the kernel's |theta| bound, so every
# chunk takes the np.cos path; (model, scheme, flip, seed) as above.
FALLBACK_ANGLES = (0.0, 1.2, 0.4, -100.0)
GOLDEN_FALLBACK_TALLY = (75064, 75116, 74517, 75307, 65716, 62332, 55686, 59280)

# SHA-256 of `simulate --emit-trials` for 10^4 uniform quantum trials,
# seed 42, at the maximal-violation angles.
GOLDEN_EMIT_SHA256 = {
    "jsonl": "198035e103b68b3eb871fae3b44475705e3b14133044b0a3530cf26d5b491768",
    "csv": "2aeb7432070c08ef929e4a16f1d9e36c5041e1bc32f035a4f519092f08571cdb",
}
# The same for 10^4 LHV trials at LHV_ANGLES, which pins station 1's outcome.
GOLDEN_LHV_EMIT_SHA256 = "7335e0d33b9560cd8be17fc80b24aceb010e5d22d992ffb3c98a7a160159e5d3"


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


@pytest.mark.parametrize("shards", [1, 3])
def test_golden_tally_past_the_angle_bound(shards):
    a0, a1, b0, b1 = FALLBACK_ANGLES
    cfg = SimulationConfig(
        model="lhv", theta_a0=a0, theta_a1=a1, theta_b0=b0, theta_b1=b1,
        trials=GOLDEN_TRIALS, seed=0,
    )
    tally = run_experiment(cfg, shards=shards).tally
    assert tuple(tally.to_dict().values()) == GOLDEN_FALLBACK_TALLY


def emitted_sha256(model, angles, fmt, tmp_path, capsys) -> str:
    emitted = tmp_path / f"trials.{fmt}"
    code = main([
        "simulate", "--model", model, "--angles", ",".join(map(repr, angles)),
        "--trials", "10000", "--seed", "42", "--out", str(tmp_path / "tally.json"),
        "--emit-trials", str(emitted), "--emit-format", fmt,
    ])
    capsys.readouterr()
    assert code == 0
    return hashlib.sha256(emitted.read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", sorted(GOLDEN_EMIT_SHA256))
def test_golden_emitted_trials(fmt, tmp_path, capsys):
    assert emitted_sha256("quantum", CHSH_MAX_ANGLES, fmt, tmp_path, capsys) == GOLDEN_EMIT_SHA256[fmt]


def test_golden_emitted_lhv_trials(tmp_path, capsys):
    assert emitted_sha256("lhv", LHV_ANGLES, "jsonl", tmp_path, capsys) == GOLDEN_LHV_EMIT_SHA256


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
        words = trial_words(trial_keys(seed, start, stop), slot=slot)
        assert words.dtype == np.uint64
        expected = [trial_word(seed, i, slot) for i in range(start, stop)]
        assert words.tolist() == expected
        assert unit_doubles(words).tolist() == [unit_double(w) for w in expected]



# Tally files for the analyze golden pins: counts near 10^3 and near 2^63,
# uniform and non-uniform cells, violated, clean and on the S = 2 boundary,
# one empty cell (exit 1) and one file with a recorded seed.
BIG = 2**63
ANALYZE_TALLIES = {
    "k_violated": (1000, 1000, 1000, 1000, 854, 854, 854, 146),
    "k_clean": (1000, 1000, 1000, 1000, 500, 500, 500, 500),
    "k_boundary": (1000, 1000, 1000, 1000, 1000, 1000, 500, 500),
    "k_maximal": (1000, 1000, 1000, 1000, 1000, 1000, 1000, 0),
    "k_anti": (1000, 1000, 1000, 1000, 0, 0, 0, 1000),
    "k_nonuniform_violated": (997, 1003, 1011, 989, 850, 860, 870, 140),
    "k_nonuniform_clean": (997, 1003, 1011, 989, 500, 480, 520, 510),
    "k_nonuniform_small": (1, 1, 1, 2, 1, 1, 1, 1),
    "k_empty_cell": (1000, 0, 1000, 1000, 854, 0, 854, 146),
    "k_seeded": (1000, 1000, 1000, 1000, 853, 855, 851, 147),
    "big_violated": (BIG + 5,) * 4 + ((BIG + 5) * 854 // 1000,) * 3 + ((BIG + 5) * 146 // 1000,),
    "big_clean": (BIG + 5,) * 4 + ((BIG + 5) // 2,) * 4,
    "big_nonuniform_violated": (BIG - 1, BIG + 12345, BIG - 98765, BIG + 3,
                                BIG // 7 * 6, BIG // 8 * 7, BIG // 9 * 8, BIG // 6),
    "big_nonuniform_clean": (BIG - 1, BIG + 12345, BIG - 98765, BIG + 3,
                             BIG // 2, BIG // 3, BIG // 2 + 7, BIG // 2 - 7),
    "big_max_count": (2**64 - 1, BIG, BIG + 1, 2**64 - 2, 2**64 - 1, BIG, BIG - 1, 0),
    "big_seeded": (BIG,) * 4 + (BIG - 3, BIG - 2, BIG - 1, 1),
}
ANALYZE_SEEDS = {"k_seeded": 12345, "big_seeded": SEED_MAX}
ANALYZE_FLAGS = (["--epsilon", "0.01"], ["--delta", "1/20"], ["--bell1964", "9,10,1,10,1,10"])

# name -> (exit codes, SHA-256 of the stdout of every flag mix in order)
# for `analyze --tally name` under each subset of ANALYZE_FLAGS
GOLDEN_ANALYZE = {
    "big_clean": ((0, 0, 0, 0, 0, 0, 0, 0), "874a8777123ada3c90ea3b19ead797f307a84509608e841deaf5a48f6ee3ae55"),
    "big_max_count": ((3, 3, 3, 3, 3, 3, 3, 3), "99565d1b9bd8684db46a2169251c1c41fa78f22e6af20bebd2b3c5ac1eb355d7"),
    "big_nonuniform_clean": ((0, 0, 0, 0, 0, 0, 0, 0), "732100d4031f8a72d892e8ef9dadfa0707c9b230a09b844af0dad48fdaf9732e"),
    "big_nonuniform_violated": ((3, 3, 3, 3, 3, 3, 3, 3), "9dd96d4ea4219a36fdf05501f4190067e18042984ee643cae4f3c356febd6e29"),
    "big_seeded": ((3, 3, 3, 3, 3, 3, 3, 3), "f2d65c7d468950b63ac39ebfdc8b0823f8955c070aad4b939b4e4d3c14f1bf01"),
    "big_violated": ((3, 3, 3, 3, 3, 3, 3, 3), "835fc9689ca3c407e795f889d30ee188db6779b464e6347da81a4643d1188dd8"),
    "k_anti": ((0, 0, 0, 0, 0, 0, 0, 0), "c79c8209fe95ddc72a4cdd88bc9340658fb10e0ac57f3471fbec21285128c1b8"),
    "k_boundary": ((0, 0, 0, 0, 0, 0, 0, 0), "2a6a82be5bf587681b207d34127df46e5e229b40e3006265e7baeeba585106b3"),
    "k_clean": ((0, 0, 0, 0, 0, 0, 0, 0), "d99c788275e6879916c621c6b718655edc03eef5e92045203b7813fcbd1d2d50"),
    "k_empty_cell": ((1, 1, 1, 1, 1, 1, 1, 1), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "k_maximal": ((3, 3, 3, 3, 3, 3, 3, 3), "bf93b74575dd21be2b7b31616b6227b54b3fefd5939675cf442170cf8568315e"),
    "k_nonuniform_clean": ((0, 0, 0, 0, 0, 0, 0, 0), "5c2d22b0d98eb83b89120b2d9c5dfe6945af66bb85578c081f1512ebd24e3ddd"),
    "k_nonuniform_small": ((3, 3, 3, 3, 3, 3, 3, 3), "6563400d709d62169dd1096a47fd36128859bdfcfe3b57ecf12eb5483f7d6e5f"),
    "k_nonuniform_violated": ((3, 3, 3, 3, 3, 3, 3, 3), "d8a5a41b536719fef34eaa55101c3a83bb93c9ee5de32af81089b673b38a6d8d"),
    "k_seeded": ((3, 3, 3, 3, 3, 3, 3, 3), "c1115b6860876439e425745da322670ad556b46aca0225954c4674c40b28d8d3"),
    "k_violated": ((3, 3, 3, 3, 3, 3, 3, 3), "6527d87011793958a14ee1a4f2aaae39ed2493449ca6fbce4e05dc280b4b2a7c"),
}


def analyze_golden(name, capsys) -> tuple[tuple[int, ...], str]:
    """Run analyze on the tally file `name` under every flag mix; exit codes and stdout digest."""
    codes = []
    digest = hashlib.sha256()
    for mask in range(1 << len(ANALYZE_FLAGS)):
        flags = [arg for i, pair in enumerate(ANALYZE_FLAGS) if mask >> i & 1 for arg in pair]
        codes.append(main(["analyze", "--tally", name, *flags]))
        digest.update(capsys.readouterr().out.encode())
    return tuple(codes), digest.hexdigest()


@pytest.mark.parametrize("name", sorted(ANALYZE_TALLIES))
def test_golden_analyze_stdout(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    counts = dict(zip(("a", "b", "c", "d", "n00", "n01", "n10", "n11"), ANALYZE_TALLIES[name]))
    if name in ANALYZE_SEEDS:
        counts["seed"] = ANALYZE_SEEDS[name]
    Path(name).write_text(json.dumps(counts, indent=2) + "\n", encoding="utf-8")
    assert analyze_golden(name, capsys) == GOLDEN_ANALYZE[name]
