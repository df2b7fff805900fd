"""Generator models: analytic correlations, marginals, determinism, sharding.

Statistical checks use fixed seeds, so they are deterministic in practice;
the 5-standard-deviation envelopes mean that even under a seed change each
check would fail spuriously with probability on the order of 1e-6.
"""

import itertools
import math
import random

import pytest

from bellkit import (
    CHSH_MAX_ANGLES,
    ConfigError,
    SimulationConfig,
    chsh_statistic,
    merge_tallies,
    run_experiment,
    sample_trial,
)
from bellkit.simulate import (
    analytic_correlation,
    correlation_probability,
    tally_for_range,
    trial_arrays,
)


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
        monkeypatch.setattr("bellkit.simulate.ThreadPoolExecutor", InlinePool)
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
            scalar = [sample_trial(cfg, i) for i in range(cfg.trials)]
            assert stream == [(r.s1, r.s2, r.o1, r.o2) for r in scalar]

    def test_index_out_of_range(self):
        cfg = make_config(trials=10)
        with pytest.raises(ConfigError):
            sample_trial(cfg, 10)
