"""Exhaustive enumeration and the necessity-condition checks."""

import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

import bellkit.oracle
import bellkit.stats
from bellkit import (
    DomainError,
    EnumerationCapError,
    TallyTable,
    bounds_report,
    chsh_exact,
    chsh_statistic,
    enumerate_uniform_tallies,
    nosignalling_deltas,
    skew,
    verify_necessary_conditions,
)
from bellkit.oracle import CONDITIONS
from bellkit.stats import chsh_numerator, max_strength, skew_counts, thresholds


def per_tally_verify(q):
    """(checked, counterexamples) with every condition checked on one tally
    at a time: the reference for verify_necessary_conditions, which walks
    the enumeration by slabs. Its helpers are read where the oracle reads
    them, chsh_statistic from bellkit.stats and the rest from bellkit.oracle,
    so a test that patches one there patches both."""
    oracle = bellkit.oracle
    settings, n_total, abcd = (q, q, q, q), 4 * q, q**4
    checked = 0
    failures = []
    for corr in oracle.enumerate_uniform_tallies(q):
        checked += 1
        s_prime, s_prime_max, s_prime_min = oracle.sprime_counts(corr)
        if not s_prime_min <= s_prime <= s_prime_max:
            failures.append((TallyTable(q, q, q, q, *corr), "sprime_bounds"))
        x = oracle.chsh_numerator(settings, corr) - abcd
        if x <= 0:
            continue
        tally = TallyTable(q, q, q, q, *corr)
        sigma = bellkit.stats.chsh_statistic(tally).sigma
        (skew_num, skew_den), (floor_num, floor_den) = oracle.thresholds(n_total, 2 * x, abcd)
        eps_num, eps_den = oracle.max_strength(settings, corr)
        if sigma == 0:
            failures.append((tally, "uniformity_no_violation"))
        if sigma < 1:
            failures.append((tally, "sigma_ge_1"))
        if not sigma * skew_den > skew_num:
            failures.append((tally, "sigma_gt_NDelta_24"))
        if not eps_num * floor_den > floor_num * eps_den:
            failures.append((tally, "eps_gt_Delta_12"))
    return checked, tuple(failures)


def kinks(corr, q):
    """The n11 at which the S' bounds of corr's slab are checked: 0, the least
    and the greatest of n00, n01 and n10, and q."""
    return 0, min(corr[:3]), max(corr[:3]), q


def violating_prefix(corr, q):
    """The n11 of corr's slab whose tally has S > 2, by chsh_exact; they run 0..last."""
    return [n11 for n11 in range(q + 1) if chsh_exact(TallyTable(q, q, q, q, *corr[:3], n11)) > 2]


def check_points(corr, last):
    """The n11 at which the conditions that bind under S > 2 are checked, in
    order, by their general definition: 0 and last, and the least and the
    greatest of n00, n01 and n10 where they lie in 0..last (on uniform
    settings they never do); none when no tally of corr's slab violates."""
    return sorted({0, last} | {n for n in (min(corr[:3]), max(corr[:3])) if n <= last}) if last >= 0 else []


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_uniform_tallies(1)) == 16
        assert sum(1 for _ in enumerate_uniform_tallies(4)) == 625

    def test_first_tally_all_zero(self):
        assert next(enumerate_uniform_tallies(3)) == (0, 0, 0, 0)

    def test_lexicographic_order(self):
        keys = list(enumerate_uniform_tallies(1))
        assert keys == sorted(keys)
        assert keys[1] == (0, 0, 0, 1)

    def test_all_distinct_and_in_range(self):
        seq = list(enumerate_uniform_tallies(2))
        assert len(set(seq)) == len(seq) == 81
        for corr in seq:
            assert len(corr) == 4
            assert all(0 <= n <= 2 for n in corr)

    def test_cap_guard(self):
        # (100 + 1)^4 tallies exceed the cap, refused by both entry points before any is enumerated
        with pytest.raises(EnumerationCapError, match="cap 100000000"):
            next(enumerate_uniform_tallies(100))
        with pytest.raises(EnumerationCapError, match="cap 100000000"):
            verify_necessary_conditions(100)

    def test_size_equal_to_cap_allowed(self):
        # (99 + 1)^4 is the cap exactly: admitted, and checked without enumerating it
        assert bellkit.oracle._checked_size(99) == 99

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None])
    def test_non_int_refused(self, n):
        with pytest.raises(DomainError, match="n_per_setting"):
            next(enumerate_uniform_tallies(n))
        with pytest.raises(DomainError, match="n_per_setting"):
            verify_necessary_conditions(n)


class TestVerification:
    @pytest.mark.parametrize("q,expected", [(1, 16), (4, 625), (6, 2401)])
    def test_no_counterexamples_small(self, q, expected):
        report = verify_necessary_conditions(q)
        assert report.checked == expected
        assert report.counterexamples == ()
        assert report.ok

    def test_report_fields(self):
        report = verify_necessary_conditions(2)
        assert report.conditions == CONDITIONS
        assert report.n_per_setting == 2
        assert report.elapsed_seconds >= 0

    def test_json_shape(self):
        payload = json.loads(json.dumps(verify_necessary_conditions(1).to_dict()))
        assert payload["checked"] == 16
        assert payload["counterexamples"] == []
        assert set(payload) == {
            "checked", "n_per_setting", "conditions", "counterexamples", "elapsed_seconds",
        }

    @pytest.mark.parametrize("q", range(1, 7))
    def test_pipeline_runs_on_violating_tallies_only(self, monkeypatch, q):
        summarized = []

        def counted(tally):
            summarized.append(tally)
            return chsh_statistic(tally)

        monkeypatch.setattr(bellkit.stats, "chsh_statistic", counted)
        assert verify_necessary_conditions(q).ok
        tallies = [TallyTable(q, q, q, q, *corr) for corr in itertools.product(range(q + 1), repeat=4)]
        violating = {t for t in tallies if chsh_exact(t) > 2}
        assert violating and set(summarized) <= violating
        # every call is on a violating tally, and the calls are each slab's check points, in order
        expected = []
        for slab in itertools.product(range(q + 1), repeat=3):
            prefix = violating_prefix(slab, q)
            assert prefix == list(range(len(prefix)))
            expected += [TallyTable(q, q, q, q, *slab, n11) for n11 in check_points(slab, len(prefix) - 1)]
        assert summarized == expected

    def test_cap_checked_before_any_slab(self):
        # a slab of 10^30 + 1 tallies cannot even be asked for
        with pytest.raises(EnumerationCapError):
            verify_necessary_conditions(10**30)

    @staticmethod
    def patch_thresholds(monkeypatch, replace):
        """Route the oracle's thresholds through replace(tally, pairs), with the tally chsh_statistic last saw."""
        seen = []

        def summarized(tally):
            seen.append(tally)
            return chsh_statistic(tally)

        def patched(n_total, num, den):
            return replace(seen[-1], thresholds(n_total, num, den))

        monkeypatch.setattr(bellkit.stats, "chsh_statistic", summarized)
        monkeypatch.setattr(bellkit.oracle, "thresholds", patched)

    @pytest.mark.parametrize("q", [2, 5])
    def test_thresholds_are_the_printed_ones(self, monkeypatch, q):
        # the pairs the oracle compares against are the required_skew and
        # epsilon_floor that bounds_report gives analyze to print
        compared = []

        def record(tally, pairs):
            compared.append((tally, pairs))
            return pairs

        self.patch_thresholds(monkeypatch, record)
        assert verify_necessary_conditions(q).ok
        assert compared
        for tally, (skew_pair, floor_pair) in compared:
            printed = bounds_report(tally)
            assert Fraction(*skew_pair) == printed.required_skew
            assert Fraction(*floor_pair) == printed.epsilon_floor

    @pytest.mark.parametrize("threshold, condition, value", [
        ("required_skew", "sigma_gt_NDelta_24", lambda tally: Fraction(10**9)),
        ("epsilon_floor", "eps_gt_Delta_12", lambda tally: Fraction(10**9)),
        # a threshold equal to the tally's own value fails: both conditions are strict
        ("required_skew", "sigma_gt_NDelta_24", lambda tally: Fraction(skew(tally)[0])),
        ("epsilon_floor", "eps_gt_Delta_12",
         lambda tally: nosignalling_deltas(tally).epsilon_achieved_exact),
    ], ids=["required_skew-sigma_gt_NDelta_24", "epsilon_floor-eps_gt_Delta_12",
            "required_skew-at-own-sigma", "epsilon_floor-at-own-epsilon"])
    def test_checks_the_printed_thresholds(self, monkeypatch, threshold, condition, value):
        # the oracle decides each condition on the pairs of the shared thresholds
        def replace(tally, pairs):
            replaced = dict(zip(("required_skew", "epsilon_floor"), pairs))
            replaced[threshold] = value(tally).as_integer_ratio()
            return replaced["required_skew"], replaced["epsilon_floor"]

        self.patch_thresholds(monkeypatch, replace)
        tallies = [TallyTable(2, 2, 2, 2, *corr) for corr in enumerate_uniform_tallies(2)]
        violating = [t for t in tallies if chsh_exact(t) > 2]
        assert violating
        report = verify_necessary_conditions(2)
        assert report.counterexamples == tuple((t, condition) for t in violating)


class TestSlabWalk:
    """verify_necessary_conditions against the per-tally reference."""

    @staticmethod
    def report(q):
        report = verify_necessary_conditions(q)
        return report.checked, report.counterexamples

    @staticmethod
    def fail_every_violating_tally(monkeypatch):
        # thresholds no tally meets put every violating tally into the report, twice
        unmet = (10**9, 1), (10**9, 1)
        monkeypatch.setattr(bellkit.oracle, "thresholds", lambda n_total, num, den: unmet)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_matches_per_tally_reference(self, q):
        assert self.report(q) == per_tally_verify(q) == ((q + 1) ** 4, ())

    @pytest.mark.parametrize("q", range(1, 9))
    def test_matches_reference_when_every_violating_tally_fails(self, monkeypatch, q):
        self.fail_every_violating_tally(monkeypatch)
        expected = per_tally_verify(q)
        assert len(expected[1]) == 2 * sum(
            1 for corr in enumerate_uniform_tallies(q) if chsh_exact(TallyTable(q, q, q, q, *corr)) > 2)
        assert self.report(q) == expected

    @pytest.mark.parametrize("kink", range(4))
    @pytest.mark.parametrize("q", [3, 5])
    def test_broken_bound_at_a_kink_falls_back_to_every_tally(self, monkeypatch, q, kink):
        # S' is pushed past S'_max at one kink of every third slab, and every
        # violating tally also fails its thresholds, so the fallback must
        # interleave both kinds of counterexample as the reference does
        real = bellkit.oracle.sprime_counts

        def broken_at(corr):
            return sum(corr[:3]) % 3 == 0 and corr[3] == kinks(corr, q)[kink]

        def broken(corr):
            s_prime, s_prime_max, s_prime_min = real(corr)
            if broken_at(corr):
                s_prime = s_prime_max + 1
            return s_prime, s_prime_max, s_prime_min

        monkeypatch.setattr(bellkit.oracle, "sprime_counts", broken)
        self.fail_every_violating_tally(monkeypatch)
        checked, expected = per_tally_verify(q)
        assert [t.corr_counts for t, condition in expected if condition == "sprime_bounds"] == [
            corr for corr in enumerate_uniform_tallies(q) if broken_at(corr)]
        assert self.report(q) == (checked, expected)

    @pytest.mark.parametrize("point", ["0", "last"])
    @pytest.mark.parametrize("fault", ["sigma", "required_skew", "epsilon_floor", "max_strength"])
    @pytest.mark.parametrize("q", [4, 5])
    def test_broken_condition_at_a_check_point_walks_the_prefix(self, monkeypatch, q, fault, point):
        # a condition's slack is pushed negative at one check point of every
        # third slab, 0 or last, and nowhere else, so only the probe of that
        # point can send the slab to the walk that reports it; lo and hi, the
        # other check points the definition admits, never lie in the prefix
        broken = set()
        for corr in enumerate_uniform_tallies(q):
            prefix = violating_prefix(corr, q)
            if sum(corr[:3]) % 3 == 0 and prefix and corr[3] == {"0": 0, "last": prefix[-1]}[point]:
                broken.add(corr)
        unmet = 10**9, 1
        if fault == "sigma":
            def summarized(tally):
                summary = chsh_statistic(tally)
                return summary._replace(sigma=0) if tally.corr_counts in broken else summary

            monkeypatch.setattr(bellkit.stats, "chsh_statistic", summarized)
        elif fault == "max_strength":
            monkeypatch.setattr(bellkit.oracle, "max_strength", lambda settings, corr: (
                (0, 1) if corr in broken else max_strength(settings, corr)))
        else:
            def replace(tally, pairs):
                if tally.corr_counts not in broken:
                    return pairs
                return (unmet, pairs[1]) if fault == "required_skew" else (pairs[0], unmet)

            TestVerification.patch_thresholds(monkeypatch, replace)
        checked, expected = per_tally_verify(q)
        assert broken and {t.corr_counts for t, condition in expected} == broken
        assert self.report(q) == (checked, expected)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_sprime_checked_at_four_points_per_slab(self, monkeypatch, q):
        calls = []
        real = bellkit.oracle.sprime_counts

        def counted(corr):
            calls.append(corr)
            return real(corr)

        monkeypatch.setattr(bellkit.oracle, "sprime_counts", counted)
        assert verify_necessary_conditions(q).ok
        per_slab = Counter(corr[:3] for corr in calls)
        assert len(per_slab) == (q + 1) ** 3
        assert max(per_slab.values()) <= 4
        assert all(corr[3] in kinks(corr, q) for corr in calls)


class TestCheckPoints:
    """The lemma behind the oracle's check points, from stats' integer core alone:
    on a slab's violating prefix each slack is least at a check point."""

    @staticmethod
    def slacks(q, corr):
        """Each condition's integer slack at a violating uniform tally, negative exactly where it fails."""
        settings = (q, q, q, q)
        x = chsh_numerator(settings, corr) - q**4
        sigma = skew_counts(corr)[0]
        (skew_num, skew_den), (floor_num, floor_den) = thresholds(4 * q, 2 * x, q**4)
        eps_num, eps_den = max_strength(settings, corr)
        return {
            "uniformity_no_violation": sigma - 1,  # sigma != 0 for an integer sigma >= 0
            "sigma_ge_1": sigma - 1,
            # a strict A > B between integers is A - B - 1 >= 0
            "sigma_gt_NDelta_24": sigma * skew_den - skew_num - 1,
            "eps_gt_Delta_12": eps_num * floor_den - floor_num * eps_den - 1,
        }

    @pytest.mark.parametrize("q", range(1, 9))
    def test_least_slack_of_the_prefix_is_at_a_check_point(self, q):
        for slab in itertools.product(range(q + 1), repeat=3):
            prefix = [n11 for n11 in range(q + 1) if chsh_numerator((q, q, q, q), (*slab, n11)) > q**4]
            assert prefix == list(range(len(prefix)))
            if not prefix:
                continue
            # n00 + n01 + n10 - n11 > 2q puts the prefix below the kinks of sigma
            assert prefix[-1] < min(slab) and check_points(slab, prefix[-1]) == sorted({0, prefix[-1]})
            every = [self.slacks(q, (*slab, n11)) for n11 in prefix]
            points = check_points(slab, prefix[-1])
            for condition in CONDITIONS:
                if condition != "sprime_bounds":
                    least = min(slacks[condition] for slacks in every)
                    assert least == min(every[n11][condition] for n11 in points), (slab, condition)
