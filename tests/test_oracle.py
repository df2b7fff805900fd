"""Exhaustive enumeration and the necessity-condition checks."""

import itertools
import json
from fractions import Fraction

import pytest

import bellkit.oracle
from bellkit import (
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
from bellkit.bounds import _thresholds
from bellkit.oracle import CONDITIONS


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
        with pytest.raises(EnumerationCapError):
            list(enumerate_uniform_tallies(100, cap=10**4))

    def test_size_equal_to_cap_allowed(self):
        assert sum(1 for _ in enumerate_uniform_tallies(1, cap=16)) == 16


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

        monkeypatch.setattr(bellkit.oracle, "chsh_statistic", counted)
        assert verify_necessary_conditions(q).ok
        tallies = [TallyTable(q, q, q, q, *corr) for corr in itertools.product(range(q + 1), repeat=4)]
        violating = [t for t in tallies if chsh_exact(t) > 2]
        assert violating
        assert summarized == violating

    def test_cap_propagates(self):
        with pytest.raises(EnumerationCapError):
            verify_necessary_conditions(40, cap=10**5)

    @staticmethod
    def patch_thresholds(monkeypatch, replace):
        """Route the oracle's _thresholds through replace(tally, pairs), with the tally chsh_statistic last saw."""
        seen = []

        def summarized(tally):
            seen.append(tally)
            return chsh_statistic(tally)

        def thresholds(n_total, num, den):
            return replace(seen[-1], _thresholds(n_total, num, den))

        monkeypatch.setattr(bellkit.oracle, "chsh_statistic", summarized)
        monkeypatch.setattr(bellkit.oracle, "_thresholds", thresholds)

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
        # the oracle decides each condition on the pairs of the shared _thresholds
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
