"""Generator models: analytic correlations, marginals, determinism, sharding.

Statistical checks use fixed seeds, so they are deterministic in practice;
the 5-standard-deviation envelopes mean that even under a seed change each
check would fail spuriously with probability on the order of 1e-6.
"""

import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellkit import (
    CHSH_MAX_ANGLES,
    ConfigError,
    SimulationConfig,
    chsh_exact,
    chsh_statistic,
    merge_tallies,
    run_experiment,
)
from bellkit.cli import main
from bellkit.rng import shard_ranges, unit_doubles, unit_threshold
from bellkit.simulate import (
    _chunk,
    _work,
    analytic_correlation,
    correlation_probability,
    tally_for_range,
    trial_arrays,
)
from bellkit.stats import max_strength
from bellkit.trials import load_tally


def make_config(model="quantum", angles=CHSH_MAX_ANGLES, trials=1000, seed=7, **kw):
    a0, a1, b0, b1 = angles
    return SimulationConfig(
        model=model, theta_a0=a0, theta_a1=a1, theta_b0=b0, theta_b1=b1,
        trials=trials, seed=seed, **kw,
    )


def se_of_s(tally):
    """Standard error of the S estimate from per-cell binomial variances."""
    total = 0.0
    for n, m in zip(tally.corr_counts, tally.setting_counts):
        e = 2 * n / m - 1
        total += (1 - e * e) / m
    return math.sqrt(total)


class TestConfig:
    def test_round_robin_needs_multiple_of_four(self):
        with pytest.raises(ConfigError):
            make_config(trials=10, setting_scheme="round_robin")

    def test_bad_model(self):
        with pytest.raises(ConfigError):
            make_config(model="classical")

    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            make_config(trials=0)

    def test_one_trial(self):
        assert run_experiment(make_config(trials=1)).tally.total_trials == 1

    def test_bad_angle(self):
        with pytest.raises(ConfigError):
            make_config(angles=(0.0, float("inf"), 0.0, 0.0))

    def test_seed_domain(self):
        with pytest.raises(ConfigError):
            make_config(seed=-1)
        with pytest.raises(ConfigError):
            make_config(seed=2**64)

    def test_dict_round_trip(self):
        cfg = make_config(setting_scheme="round_robin", trials=8, flip_station2=True)
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict({"model": "lhv", "trials": 4, "bogus": 1})


class TestCorrelationProbability:
    def test_identical_analyzers(self):
        cfg = make_config(angles=(0.3, 0.0, 0.3, 0.0))
        assert correlation_probability(cfg, 0, 0) == pytest.approx(1.0)

    def test_opposite_analyzers(self):
        cfg = make_config(angles=(math.pi, 0.0, 0.0, 0.0))
        assert correlation_probability(cfg, 0, 0) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_analyzers(self):
        cfg = make_config(angles=(math.pi / 2, 0.0, 0.0, 0.0))
        assert correlation_probability(cfg, 0, 0) == pytest.approx(0.5)


class TestQuantumSampler:
    def test_empirical_fractions_match_analytic(self):
        cfg = make_config(trials=200_000, seed=11)
        tally = run_experiment(cfg).tally
        for key, (n, m) in enumerate(zip(tally.corr_counts, tally.setting_counts)):
            assert m >= 10_000
            p = correlation_probability(cfg, key >> 1, key & 1)
            spread = math.sqrt(m * p * (1 - p))
            assert abs(n - m * p) <= 5 * spread

    def test_outcome_marginals_fair(self):
        cfg = make_config(trials=100_000, seed=3)
        _, _, o1, o2 = trial_arrays(cfg, 0, cfg.trials)
        for plus in (int((o1 == 1).sum()), int((o2 == 1).sum())):
            assert abs(plus - cfg.trials / 2) <= 5 * math.sqrt(cfg.trials) / 2

    def test_degenerate_angles(self):
        # all analyzers aligned: every trial correlated
        cfg = make_config(angles=(0.4, 0.4, 0.4, 0.4), trials=2000, seed=5)
        tally = run_experiment(cfg).tally
        assert tally.corr_counts == tally.setting_counts

    def test_flip_station2_negates_correlation(self):
        cfg = make_config(trials=50_000, seed=9)
        flipped = make_config(trials=50_000, seed=9, flip_station2=True)
        t, tf = run_experiment(cfg).tally, run_experiment(flipped).tally
        assert t.setting_counts == tf.setting_counts
        assert tuple(m - n for m, n in zip(t.setting_counts, t.corr_counts)) == tf.corr_counts
        assert chsh_statistic(tf).s == pytest.approx(-chsh_statistic(t).s, abs=1e-12)


@pytest.mark.parametrize("model", ["quantum", "lhv"])
@pytest.mark.parametrize("scheme", ["uniform_random", "round_robin"])
@pytest.mark.parametrize("flip", [False, True])
def test_correlations_calibrated_across_seeds(model, scheme, flip):
    # non-maximal angles: each setting pair has its own E, so a bias in one cell shows
    for seed in range(1, 6):
        cfg = make_config(model=model, angles=(0.0, 1.2, 0.4, -0.9), trials=400_000,
                          seed=seed, setting_scheme=scheme, flip_station2=flip)
        tally = run_experiment(cfg).tally
        for key, (n, m) in enumerate(zip(tally.corr_counts, tally.setting_counts)):
            e = analytic_correlation(cfg, key >> 1, key & 1)
            assert abs(2 * n / m - 1 - e) <= 5 * math.sqrt((1 - e * e) / m), (seed, key)


def pooled_cell_statistics(cells, shift=0.0):
    """chi^2 and the largest |z| of (n, correlated, p) cells against Binomial(n, p).

    A nonzero shift moves each p that far toward 1/2 first.
    """
    chi2, z_max = 0.0, 0.0
    for n, x, p in cells:
        p += shift if p < 0.5 else -shift
        z = (x - n * p) / math.sqrt(n * p * (1 - p))
        chi2 += z * z
        z_max = max(z_max, abs(z))
    return chi2, z_max


def test_pooled_chi_square_against_analytic_correlations():
    """The 256 cells of 64 seeded random configs, 2^21 trials each, against p = (1 + E)/2.

    The configs cover both models, both setting schemes and both flips, with
    angles drawn from [-4, 4]. Each cell's correlated count is
    Binomial(n, p) given its trial count n, so sum z^2 is chi^2 on 256
    degrees of freedom. The test fails with probability about 10^-6 per
    statistic: chi^2 above its 1 - 10^-6 quantile (about 378, by the
    Wilson-Hilferty cube-root approximation), or any |z| above the two-sided
    Bonferroni bound for 256 cells at 10^-6 (about 5.89).

    Smallest bias detected: a shift delta in every cell's p adds
    sum n delta^2 / (p(1 - p)) >= 4 * 2^21 * 64 * delta^2 = 2^29 delta^2 to the
    mean of chi^2 (256). delta = 5*10^-4 adds at least 134, which reaches the
    quantile; delta = 10^-3 adds at least 537, about eight standard deviations
    past it. The 5-sigma per-cell checks above miss a bias below ~8*10^-3.
    The last assertion feeds the same statistic p shifted by 10^-3.
    """
    rng = random.Random(16)
    cells = []
    for i in range(64):
        cfg = make_config(model=("quantum", "lhv")[i % 2], angles=[rng.uniform(-4, 4) for _ in range(4)],
                          trials=2**21, seed=rng.getrandbits(64),
                          setting_scheme=("uniform_random", "round_robin")[i // 2 % 2],
                          flip_station2=bool(i // 4 % 2))
        tally = run_experiment(cfg).tally
        for key, (x, n) in enumerate(zip(tally.corr_counts, tally.setting_counts)):
            cells.append((n, x, (1 + analytic_correlation(cfg, key >> 1, key & 1)) / 2))
    k, alpha = len(cells), 1e-6
    unit = NormalDist()
    h = 2 / (9 * k)
    chi2_limit = k * (1 - h + unit.inv_cdf(1 - alpha) * math.sqrt(h)) ** 3
    z_limit = unit.inv_cdf(1 - alpha / (2 * k))
    chi2, z_max = pooled_cell_statistics(cells)
    assert chi2 < chi2_limit, (chi2, chi2_limit)
    assert z_max < z_limit, (z_max, z_limit)
    assert pooled_cell_statistics(cells, shift=1e-3)[0] > chi2_limit


def test_paper_bounds_hold_exactly_on_simulated_tallies():
    """sigma_r >= Delta/2 and the achieved epsilon >= Delta/4 on every violating simulated tally.

    test_bounds.py checks both as a property of every tally; this sweep shows
    the paper's claim on the simulator's own output, on the 15 of its 200
    seeded configs that violate.
    """
    rng = random.Random(2017)
    violating = 0
    for model, scheme, flip in itertools.product(
            ("quantum", "lhv"), ("uniform_random", "round_robin"), (False, True)):
        for _ in range(25):
            cfg = make_config(model=model, angles=[rng.uniform(-4, 4) for _ in range(4)],
                              trials=400, seed=rng.getrandbits(64), setting_scheme=scheme,
                              flip_station2=flip)
            t = run_experiment(cfg).tally
            if 0 in t.setting_counts:
                continue
            delta = chsh_exact(t) - 2
            if delta <= 0:
                continue
            violating += 1
            rates = [Fraction(n, m) for n, m in zip(t.corr_counts, t.setting_counts)]
            assert max(rates) - min(rates) >= delta / 2, t
            assert Fraction(*max_strength(t.setting_counts, t.corr_counts)) >= delta / 4, t
    assert violating >= 10


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5, 10**6])
def test_epsilon_tends_to_its_maximal_violation_value(n):
    """At the maximal-violation angles the achieved epsilon tends to sqrt(2)/4 as 1/sqrt(N).

    There every rate but r11's is (2 + sqrt(2))/4 and r11 is (2 - sqrt(2))/4,
    so the strongest pair has strength sqrt(2)/4 ~ 0.354, far above the
    paper's floor Delta/12 ~ 0.069. Calibration on other seeds (3,000 each
    at N = 10^3 and 10^4, 200 each at every N here): sqrt(N) * (epsilon -
    sqrt(2)/4) had mean 0.78 and standard deviation 0.53 at every N, and
    lay in [-1.09, 2.70]. The tolerance 4/sqrt(N) is over 6 standard
    deviations from that mean on either side.
    """
    rng = random.Random(16)
    for _ in range(20):
        t = run_experiment(make_config(trials=n, seed=rng.getrandbits(64))).tally
        epsilon = Fraction(*max_strength(t.setting_counts, t.corr_counts))
        assert abs(epsilon - math.sqrt(2) / 4) < 4 / math.sqrt(n), (n, float(epsilon))
        assert epsilon > (chsh_exact(t) - 2) / 12


class TestLhvSampler:
    def test_sawtooth_correlation(self):
        # analytic E = 1 - 2|dtheta|/pi on [0, pi]
        cfg = make_config(model="lhv", angles=(0.0, math.pi / 2, math.pi / 4, -math.pi / 4),
                          trials=400_000, seed=13)
        tally = run_experiment(cfg).tally
        for key, (n, m) in enumerate(zip(tally.corr_counts, tally.setting_counts)):
            e_hat = 2 * n / m - 1
            e = analytic_correlation(cfg, key >> 1, key & 1)
            assert e_hat == pytest.approx(e, abs=5 / math.sqrt(m))

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_never_violates_chsh(self, seed):
        rng = random.Random(seed)
        angles = tuple(rng.uniform(-math.pi, math.pi) for _ in range(4))
        cfg = make_config(model="lhv", angles=angles, trials=1_000_000, seed=seed)
        tally = run_experiment(cfg).tally
        s = chsh_statistic(tally)
        assert s.s <= 2 + 5 * se_of_s(tally)

    def test_analytic_endpoints(self):
        cfg = make_config(model="lhv", angles=(0.0, math.pi, math.pi / 2, 0.0), trials=4)
        assert analytic_correlation(cfg, 0, 1) == 1.0       # dtheta = 0
        assert analytic_correlation(cfg, 1, 1) == -1.0      # dtheta = pi
        assert analytic_correlation(cfg, 0, 0) == pytest.approx(0.0)  # dtheta = -pi/2


class TestSettings:
    def test_uniform_random_setting_independence(self):
        cfg = make_config(trials=200_000, seed=21)
        s1, s2, _, _ = trial_arrays(cfg, 0, cfg.trials)
        counts = {pair: int(((s1 == pair[0]) & (s2 == pair[1])).sum())
                  for pair in itertools.product((0, 1), repeat=2)}
        # each pair near N/4
        for pair in itertools.product((0, 1), repeat=2):
            assert abs(counts[pair] - cfg.trials / 4) <= 5 * math.sqrt(cfg.trials * 3 / 16)
        # s2 conditioned on s1 stays fair
        for s1 in (0, 1):
            row = counts[(s1, 0)] + counts[(s1, 1)]
            assert abs(counts[(s1, 0)] - row / 2) <= 5 * math.sqrt(row) / 2

    def test_round_robin_exact_uniformity(self):
        cfg = make_config(trials=4000, setting_scheme="round_robin")
        tally = run_experiment(cfg).tally
        assert tally.setting_counts == (1000, 1000, 1000, 1000)

    def test_round_robin_cycles_in_order(self):
        cfg = make_config(trials=8, setting_scheme="round_robin")
        s1, s2, _, _ = trial_arrays(cfg, 0, cfg.trials)
        pairs = list(zip(s1.tolist(), s2.tolist()))
        assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)] * 2


class TestDeterminism:
    def test_same_seed_same_tally(self):
        t1 = run_experiment(make_config(trials=30_000, seed=77)).tally
        t2 = run_experiment(make_config(trials=30_000, seed=77)).tally
        assert t1 == t2

    def test_different_seed_different_tally(self):
        t1 = run_experiment(make_config(trials=30_000, seed=77)).tally
        t2 = run_experiment(make_config(trials=30_000, seed=78)).tally
        assert t1 != t2

    @pytest.mark.parametrize("shards", [2, 3, 4, 7])
    def test_shard_count_invariance(self, shards):
        cfg = make_config(trials=10_001, seed=5)
        assert run_experiment(cfg, shards=shards).tally == run_experiment(cfg).tally

    @given(total=st.integers(1, 10**4), shards=st.integers(1, 64))
    def test_shard_ranges_split_evenly(self, total, shards):
        ranges = shard_ranges(total, shards)
        assert len(ranges) == min(shards, total)
        assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
        assert ranges[-1][1] == total
        sizes = [stop - start for start, stop in ranges]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("shards", [0, -1])
    def test_shard_ranges_refuse_fewer_than_one_shard(self, shards):
        with pytest.raises(ValueError, match="shard count must be >= 1"):
            shard_ranges(10, shards)

    @pytest.mark.parametrize("cores, workers", [(2, 2), (16, 7), (None, 1)])
    def test_workers_capped_at_core_count(self, monkeypatch, cores, workers):
        seen = []

        class InlinePool:
            """Records max_workers and runs every range in the calling thread."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        cfg = make_config(trials=10_001, seed=5)
        expected = run_experiment(cfg).tally
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr("bellkit.simulate.os.cpu_count", lambda: cores)
        assert run_experiment(cfg, shards=7).tally == expected
        assert seen == [workers]

    def test_manual_shard_merge(self):
        cfg = make_config(trials=10_000, seed=5)
        quarters = [tally_for_range(cfg, i * 2500, (i + 1) * 2500) for i in range(4)]
        merged = quarters[0]
        for part in quarters[1:]:
            merged = merge_tallies(merged, part)
        assert merged == run_experiment(cfg).tally

    def test_scalar_sampler_matches_stream(self):
        for model in ("quantum", "lhv"):
            cfg = make_config(model=model, trials=300, seed=23)
            stream = list(zip(*(a.tolist() for a in trial_arrays(cfg, 0, cfg.trials))))
            single = [tuple(a.item() for a in trial_arrays(cfg, i, i + 1)) for i in range(cfg.trials)]
            assert stream == single

    def test_index_out_of_range(self):
        cfg = make_config(trials=10)
        with pytest.raises(ConfigError):
            trial_arrays(cfg, 10, 11)

    def test_empty_range(self):
        assert [a.size for a in trial_arrays(make_config(trials=10), 3, 3)] == [0, 0, 0, 0]

    @pytest.mark.parametrize("start, stop", [(0, 1000), (-3, 5)])
    def test_tally_for_range_refuses_indices_outside_the_config(self, start, stop):
        written = []
        with pytest.raises(ConfigError, match=r"outside 0\.\.8"):
            tally_for_range(make_config(trials=8), start, stop, write=lambda *arrays: written.append(arrays))
        assert written == []

    def test_tally_for_range_empty_range(self):
        assert tally_for_range(make_config(trials=8), 3, 3).total_trials == 0


LHV_ANGLES = (0.0, 1.2, 0.4, -0.9)
COS2_PI_8 = math.cos(math.pi / 8) ** 2  # P(outcomes equal) at the maximal-violation angles
ARC_MARGIN = 2**35
# word offsets from an arc edge: on it, next to it, one step of w >> 11 away, and around the margin
EDGE_OFFSETS = (
    0, 1, -1, 2**11 - 1, 2**11, -(2**11),
    ARC_MARGIN - 1, ARC_MARGIN, ARC_MARGIN + 1, -ARC_MARGIN - 1, -ARC_MARGIN, -ARC_MARGIN + 1,
)


def arc_start(theta: float) -> int:
    """The word at which the arc where cos(theta - lambda) >= 0 starts, lambda = (w >> 11) * 2^-53 * 2pi."""
    return (math.floor((theta - math.pi / 2) / (2 * math.pi) * 2.0**53) % 2**53) << 11


class TestKernel:
    """The chunk kernel: integer thresholds, the no-hook fork, bounded memory."""

    @given(
        word=st.integers(0, 2**64 - 1),
        p=st.floats(0.0, 1.0),
        near=st.integers(-2, 2),
        low=st.integers(0, 2**11 - 1),
    )
    @example(word=0, p=0.0, near=0, low=0)
    @example(word=2**64 - 1, p=1.0, near=-1, low=2**11 - 1)
    @example(word=2**63, p=0.5, near=0, low=0)
    @example(word=2**63 - 1, p=math.nextafter(0.5, 0.0), near=-1, low=2**11 - 1)
    @example(word=2**63, p=math.nextafter(0.5, 1.0), near=0, low=0)
    @example(word=0, p=COS2_PI_8, near=-1, low=2**11 - 1)
    @example(word=0, p=math.nextafter(COS2_PI_8, 0.0), near=0, low=0)
    @example(word=0, p=math.nextafter(COS2_PI_8, 1.0), near=-1, low=1)
    @example(word=1 << 11, p=5e-324, near=0, low=0)
    def test_integer_threshold_matches_unit_double(self, word, p, near, low):
        threshold = unit_threshold(p)
        assert 0 <= threshold <= 2**53
        # an arbitrary word, and one whose top 53 bits lie next to the threshold
        top = min(max(threshold + near, 0), 2**53 - 1)
        words = np.array([word, (top << 11) | low], dtype=np.uint64)
        as_int = (words >> np.uint64(11)) < np.uint64(threshold)
        assert as_int.tolist() == (unit_doubles(words) < p).tolist()

    def test_quantum_comparisons_strict_at_the_threshold(self, monkeypatch):
        # words exactly at each bound: a station-1 word of 2^63 draws -1, and a
        # slot-2 word whose top 53 bits equal its pair's threshold is not correlated
        cfg = make_config(trials=8, setting_scheme="round_robin")
        thresholds = [unit_threshold(correlation_probability(cfg, k >> 1, k & 1)) for k in range(4)]
        assert all(0 < t < 2**53 for t in thresholds)
        crafted = {
            1: [2**63 - 1, 2**63] * 4,
            2: [t << 11 for t in thresholds] + [((t - 1) << 11) | (2**11 - 1) for t in thresholds],
        }

        def words(keys, slot, out):
            out[:] = np.array(crafted[slot], dtype=np.uint64)
            return out

        monkeypatch.setattr("bellkit.simulate.trial_words", words)
        chunks = []
        tally = tally_for_range(cfg, 0, 8, write=lambda *trials: chunks.append(trials))
        [(_, _, o1, o2)] = chunks
        assert o1.tolist() == [1, -1] * 4
        assert (o1 == o2).tolist() == [False] * 4 + [True] * 4
        assert tally.corr_counts == (1, 1, 1, 1)
        assert tally_for_range(cfg, 0, 8) == tally

    @settings(max_examples=200, deadline=None)
    @given(
        angles=st.lists(
            st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi, 64.0, -64.0])
            | st.floats(-64.0, 64.0),
            min_size=4, max_size=4,
        ),
        offsets=st.lists(st.integers(-2 * ARC_MARGIN, 2 * ARC_MARGIN), max_size=8),
        flip=st.booleans(),
    )
    # station 2 antipodal to station 1 in pair (0, 0): d1 ^ d2 is 2^63 for every word
    @example(angles=[0.0, 1.2, math.pi, -0.9], offsets=[], flip=False)
    def test_lhv_arc_test_matches_cos_at_the_edges(self, angles, offsets, flip):
        # words on, next to and around both edges of each station's arc, per
        # setting pair; np.cos must run on exactly the words in the margin
        a0, a1, b0, b1 = angles
        tables = ([a0, a0, a1, a1], [b0, b1, b0, b1])
        starts = [[arc_start(t) for t in table] for table in tables]
        per_pair = [
            [(start + half + off) % 2**64
             for start in (starts[0][k], starts[1][k]) for half in (0, 2**63)
             for off in EDGE_OFFSETS + tuple(offsets)]
            for k in range(4)
        ]
        # trial i of a round-robin run has k = i % 4
        words = np.array([w for group in zip(*per_pair) for w in group], dtype=np.uint64)
        k = np.arange(words.size) % 4
        lam = unit_doubles(words) * (2.0 * math.pi)
        positive1 = np.cos(np.array(tables[0])[k] - lam) >= 0.0
        positive2 = np.cos(np.array(tables[1])[k] - lam) >= 0.0
        near = np.zeros(words.size, dtype=bool)
        for table in starts:
            d = words - np.array(table, dtype=np.uint64)[k]
            near |= ((d + np.uint64(ARC_MARGIN)) & np.uint64(2**63 - 1)) < np.uint64(2 * ARC_MARGIN)

        cos, cosines = np.cos, []

        def counting_cos(x, *args, **kwargs):
            cosines.append(x.size)
            return cos(x, *args, **kwargs)

        def crafted(keys, slot, out):
            out[:] = words
            return out

        cfg = make_config(
            model="lhv", angles=angles, trials=words.size, setting_scheme="round_robin",
            flip_station2=flip,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("bellkit.simulate.trial_words", crafted)
            patch.setattr(np, "cos", counting_cos)
            got_k, correlated, o1 = _chunk(cfg, 0, words.size, True, _work(words.size))
        assert got_k.tolist() == k.tolist()
        assert o1.tolist() == np.where(positive1, 1, -1).tolist()
        assert correlated.tolist() == ((positive1 == positive2) != flip).tolist()
        n_near = int(np.count_nonzero(near))
        assert cosines == ([n_near, n_near] if n_near else [])

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("scheme", ["uniform", "round-robin"])
    def test_cli_tally_exact_at_zero_and_pi(self, tmp_path, capsys, scheme, flip):
        cases = (("0.3,0.3,0.3,0.3", True), ("0,0,3.141592653589793,3.141592653589793", False))
        for angles, all_equal in cases:
            out = tmp_path / "tally.json"
            code = main([
                "simulate", "--model", "quantum", "--angles", angles, "--trials", "40000",
                "--seed", "42", "--settings", scheme, "--out", str(out),
            ] + (["--flip-station2"] if flip else []))
            capsys.readouterr()
            assert code == 0
            tally, _ = load_tally(out)
            equal = all_equal != flip
            assert tally.corr_counts == (tally.setting_counts if equal else (0, 0, 0, 0))

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("scheme", ["uniform_random", "round_robin"])
    @pytest.mark.parametrize("model", ["quantum", "lhv"])
    def test_tally_without_hook_matches_emitted_trials(self, model, scheme, flip, seed):
        # a range that starts and ends off the 2^16 chunk grid
        start, stop = 12345, 12345 + 3 * 2**16 + 7
        cfg = make_config(
            model=model, angles=CHSH_MAX_ANGLES if model == "quantum" else LHV_ANGLES,
            trials=4 * 2**16, seed=seed, setting_scheme=scheme, flip_station2=flip,
        )
        chunks = []
        hooked = tally_for_range(cfg, start, stop, write=lambda *arrays: chunks.append(arrays))
        # checked after the loop: every chunk reuses one set of kernel buffers,
        # so a chunk's arrays must not alias them
        edges = [*range(start, stop, 2**16), stop]
        assert len(chunks) == len(edges) - 1
        for lo, hi, chunk in zip(edges, edges[1:], chunks):
            for got, want in zip(chunk, trial_arrays(cfg, lo, hi)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        emitted = [np.concatenate(parts) for parts in zip(*chunks)]
        # chunking is invisible: the chunks match the range in one piece, and in
        # two pieces split off the chunk grid and off the round-robin period
        mid = start + 2**16 + 3
        halves = zip(trial_arrays(cfg, start, mid), trial_arrays(cfg, mid, stop))
        for whole in (trial_arrays(cfg, start, stop), map(np.concatenate, halves)):
            for got, want in zip(emitted, whole):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        s1, s2, o1, o2 = (a.astype(np.int64) for a in emitted)
        k = 2 * s1 + s2
        counted = (
            tuple(np.bincount(k, minlength=4).tolist())
            + tuple(np.bincount(k[o1 == o2], minlength=4).tolist())
        )
        assert tuple(tally_for_range(cfg, start, stop).to_dict().values()) == counted
        assert tuple(hooked.to_dict().values()) == counted

    @pytest.mark.parametrize("scheme", ["uniform_random", "round_robin"])
    @pytest.mark.parametrize("model", ["quantum", "lhv"])
    def test_int_angles_tally_as_floats(self, tmp_path, capsys, model, scheme):
        # JSON config documents give ints for whole-number angles
        angles = {"theta_a0": 0, "theta_a1": 1, "theta_b0": 2, "theta_b1": -3}
        as_ints = SimulationConfig(
            model=model, trials=2000, seed=5, setting_scheme=scheme, **angles
        )
        as_floats = SimulationConfig.from_dict(
            {**as_ints.to_dict(), **{name: float(v) for name, v in angles.items()}}
        )
        want = run_experiment(as_floats).tally
        assert run_experiment(as_ints).tally == want
        for got, expected in zip(trial_arrays(as_ints, 0, 2000), trial_arrays(as_floats, 0, 2000)):
            assert np.array_equal(got, expected)
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "tally.json"
        cfg_path.write_text(json.dumps({
            "model": model, "trials": 2000, "seed": 5, "setting_scheme": scheme, **angles,
        }))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert load_tally(out)[0] == want

    @pytest.mark.parametrize("scheme", ["uniform_random", "round_robin"])
    @pytest.mark.parametrize("model", ["quantum", "lhv"])
    def test_tally_memory_bounded_by_the_chunk(self, model, scheme):
        def peak(trials):
            cfg = make_config(model=model, trials=trials, seed=1, setting_scheme=scheme)
            tracemalloc.start()
            try:
                tally_for_range(cfg, 0, trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2**16)  # warm-up: numpy's first-use allocations are not the kernel's
        small, large = peak(2**18), peak(2**21)
        # the same up to interpreter objects, which move the peak by under 1 KiB;
        # one chunk-sized buffer kept per chunk would add 512 KiB per 2^16 trials
        assert abs(large - small) <= 4096
        assert large <= 4 * 2**20  # eight 2^16-element 64-bit buffers
