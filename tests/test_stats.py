"""Correlation coefficients, test values, skew, S' bounds, the 1964 forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bellkit import (
    DomainError,
    EmptyCellError,
    InvariantError,
    TallyTable,
    ThreeSettingTally,
    bell1964_statistic,
    chsh_exact,
    chsh_statistic,
    skew,
    uniform_prob_s,
)
from bellkit.stats import _correlation, chsh_numerator, rate_numerators, sprime_counts, violation_possible_counts

# S and the E values live in [-4, 4]; the agreement tolerance between
# evaluation routes is 4 units in the last place at that magnitude.
S_TOL = 4 * math.ulp(4.0)


@st.composite
def populated_tallies(draw, max_count=500):
    counts = [draw(st.integers(1, max_count)) for _ in range(4)]
    ns = [draw(st.integers(0, c)) for c in counts]
    return TallyTable(
        a=counts[0], b=counts[1], c=counts[2], d=counts[3],
        n00=ns[0], n01=ns[1], n10=ns[2], n11=ns[3],
    )


@st.composite
def uniform_tallies(draw, max_per_setting=200):
    q = draw(st.integers(1, max_per_setting))
    ns = [draw(st.integers(0, q)) for _ in range(4)]
    return TallyTable(a=q, b=q, c=q, d=q, n00=ns[0], n01=ns[1], n10=ns[2], n11=ns[3])


class TestChshStatistic:
    def test_maximal_tally(self):
        t = TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0)
        s = chsh_statistic(t)
        assert s.s == 4.0
        # cross-check as the E-sum 1 + 1 + 1 - (-1)
        assert (s.e00, s.e01, s.e10, s.e11) == (1.0, 1.0, 1.0, -1.0)
        assert s.violated
        assert s.violation_magnitude == 2.0

    def test_uniform_half(self):
        t = TallyTable(a=4, b=4, c=4, d=4, n00=2, n01=2, n10=2, n11=2)
        s = chsh_statistic(t)
        assert s.s == 0.0
        assert not s.violated

    def test_boundary_not_violated(self):
        t = TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=4)
        s = chsh_statistic(t)
        assert s.s == 2.0
        assert not s.violated
        assert s.violation_magnitude == 0.0

    def test_empty_cell_rejected(self):
        with pytest.raises(EmptyCellError, match="'b'"):
            chsh_statistic(TallyTable(a=4, b=0, c=4, d=4, n00=1, n10=1, n11=1))

    def test_invalid_tally_rejected(self):
        with pytest.raises(InvariantError):
            chsh_statistic(TallyTable(a=4, b=4, c=4, d=4, n00=5))

    @given(populated_tallies())
    def test_esum_matches_closed_form(self, t):
        s = chsh_statistic(t)
        esum = s.e00 + s.e01 + s.e10 - s.e11
        assert abs(esum - s.s) <= S_TOL

    @given(populated_tallies())
    def test_s_in_algebraic_range(self, t):
        s = chsh_statistic(t)
        assert -4.0 <= s.s <= 4.0
        assert Fraction(-4) <= s.s_exact <= Fraction(4)

    @given(st.integers(1, 300), st.integers(0, 300))
    def test_equal_probabilities_never_violate(self, q, n_raw):
        n = min(n_raw, q)
        t = TallyTable(a=q, b=q, c=q, d=q, n00=n, n01=n, n10=n, n11=n)
        s = chsh_statistic(t)
        assert s.s_exact <= 2
        assert not s.violated


class TestUniformProbS:
    def test_extremes(self):
        assert uniform_prob_s(1.0) == 2.0
        assert uniform_prob_s(0.5) == 0.0
        assert uniform_prob_s(0.0) == -2.0

    def test_domain(self):
        with pytest.raises(DomainError):
            uniform_prob_s(1.1)
        with pytest.raises(DomainError):
            uniform_prob_s(-0.1)


class TestSkewSprime:
    def test_skew_examples(self):
        assert skew(TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0)) == (4, 4, 0)
        assert skew(TallyTable(a=4, b=4, c=4, d=4, n00=2, n01=2, n10=2, n11=2)) == (0, 2, 2)
        assert skew(TallyTable(a=4, b=4, c=4, d=4, n00=3, n01=1, n10=2, n11=2)) == (2, 3, 1)

    def test_sprime_examples(self):
        t = TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0)
        assert sprime_counts(t.corr_counts) == (12, 12, -4)
        t = TallyTable(a=4, b=4, c=4, d=4, n00=2, n01=2, n10=2, n11=2)
        assert sprime_counts(t.corr_counts) == (4, 4, 4)
        t = TallyTable(a=4, b=4, c=4, d=4, n00=3, n01=1, n10=2, n11=2)
        assert sprime_counts(t.corr_counts) == (4, 2 * 1 + 3 * 2, 0)

    @given(populated_tallies())
    def test_bounds_order(self, t):
        s_prime, s_max, s_min = sprime_counts(t.corr_counts)
        assert s_min <= s_prime <= s_max

    @given(populated_tallies())
    def test_both_closed_forms_agree(self, t):
        sigma, n_max, n_min = skew(t)
        _, s_max, s_min = sprime_counts(t.corr_counts)
        assert s_max == 3 * n_max - n_min == 2 * n_min + 3 * sigma
        assert s_min == 3 * n_min - n_max == 2 * n_min - sigma


COUNT_MAX = 2**64 - 1


class TestFloatsMatchExactRationals:
    """int / int rounds correctly, so no Fraction is needed to get the float."""

    @given(st.data(), st.integers(1, COUNT_MAX))
    def test_correlation(self, data, trial_count):
        corr_count = data.draw(st.integers(0, trial_count))
        expected = float(Fraction(2 * corr_count - trial_count, trial_count))
        assert _correlation(corr_count, trial_count) == expected

    @given(populated_tallies(COUNT_MAX), st.booleans())
    @example(TallyTable(a=3, b=3, c=3, d=3, n00=3, n01=3, n10=3, n11=3), False)  # S = 2 exactly
    @example(TallyTable(a=COUNT_MAX, b=COUNT_MAX, c=COUNT_MAX, d=COUNT_MAX - 1,
                        n00=COUNT_MAX, n01=COUNT_MAX, n10=COUNT_MAX - 1, n11=1), False)
    def test_violation_magnitude(self, t, full):
        if full:  # n00 = a, n01 = b, n10 = c: S = 4 - 2*n11/d, above 2 unless n11 = d
            t = t._replace(n00=t.a, n01=t.b, n10=t.c)
        summary = chsh_statistic(t)
        expected = float(summary.s_exact - 2) if summary.s_exact > 2 else 0.0
        assert summary.violation_magnitude == expected

    @given(populated_tallies(COUNT_MAX), st.booleans())
    @example(TallyTable(a=3, b=3, c=3, d=3, n00=3, n01=3, n10=3, n11=3), False)  # S = 2 exactly
    @example(TallyTable(a=1, b=2, c=3, d=4, n00=1, n01=2, n10=3, n11=4), False)  # S = 2 exactly
    @example(TallyTable(a=COUNT_MAX, b=COUNT_MAX, c=COUNT_MAX, d=COUNT_MAX,
                        n00=COUNT_MAX, n01=COUNT_MAX, n10=COUNT_MAX, n11=COUNT_MAX - 1), False)
    def test_s_and_violation_from_the_exact_value(self, t, full):
        if full:  # n00 = a, n01 = b, n10 = c: S = 4 - 2*n11/d, above 2 unless n11 = d
            t = t._replace(n00=t.a, n01=t.b, n10=t.c)
        summary = chsh_statistic(t)
        assert summary.s == float(summary.s_exact)
        assert summary.violated == (summary.s_exact > 2)


class TestIntegerForms:
    """The integer forms the oracle screens every tally with, against the TallyTable statistics."""

    @given(populated_tallies(COUNT_MAX))
    @example(TallyTable(a=3, b=3, c=3, d=3, n00=3, n01=3, n10=3, n11=3))  # S = 2 exactly
    @example(TallyTable(a=1, b=2, c=3, d=4, n00=1, n01=2, n10=3, n11=4))  # S = 2 exactly
    @example(TallyTable(a=1, b=2, c=3, d=4, n00=1, n01=2, n10=3, n11=3))
    def test_violation_decision_matches_chsh_exact(self, t):
        a, b, c, d = t.setting_counts
        violates = chsh_numerator(t.setting_counts, t.corr_counts) > a * b * c * d
        assert violates == (chsh_exact(t) > 2)

    @given(populated_tallies(COUNT_MAX))
    def test_sprime_counts_matches_sprime(self, t):
        corr = t.corr_counts
        n00, n01, n10, n11 = corr
        reference = (n00 + n01 + n10 - n11, 3 * max(corr) - min(corr), 3 * min(corr) - max(corr))
        assert sprime_counts(corr) == reference

    @given(populated_tallies(COUNT_MAX))
    def test_rate_numerators_are_the_rates_over_abcd(self, t):
        a, b, c, d = t.setting_counts
        rates = [Fraction(m, a * b * c * d) for m in rate_numerators(t.setting_counts, t.corr_counts)]
        assert rates == [Fraction(n, cell) for n, cell in zip(t.corr_counts, t.setting_counts)]

    def test_rate_form_is_strict(self):
        # every m = 4 * 4^3 gives 2*min m + 3*sigma_m = 2*abcd exactly: S = 2, no violation possible
        assert not violation_possible_counts((4, 4, 4, 4), (4, 4, 4, 4))
        assert violation_possible_counts((4, 4, 4, 4), (4, 4, 4, 3))


class TestBell1964:
    def test_equal_fractions(self):
        t = ThreeSettingTally(n_ac=1, n_ba=1, n_bc=1, N_ac=2, N_ba=2, N_bc=2)
        r = bell1964_statistic(t)
        assert r.fraction_form == -0.5
        assert r.corr_form == 0.0
        assert not r.violated

    def test_boundary(self):
        t = ThreeSettingTally(n_ac=4, n_ba=2, n_bc=2, N_ac=4, N_ba=4, N_bc=4)
        r = bell1964_statistic(t)
        assert r.fraction_form == 0.0
        assert r.corr_form == 1.0
        assert not r.violated

    def test_violation(self):
        t = ThreeSettingTally(n_ac=4, n_ba=1, n_bc=1, N_ac=4, N_ba=4, N_bc=5)
        r = bell1964_statistic(t)
        assert r.fraction_form == pytest.approx(1 - 0.25 - 0.2)
        assert r.fraction_form_exact == Fraction(11, 20)
        assert r.violated

    def test_empty_pair_rejected(self):
        with pytest.raises(EmptyCellError):
            bell1964_statistic(ThreeSettingTally(n_ac=0, n_ba=0, n_bc=0, N_ac=0, N_ba=1, N_bc=1))

    @given(
        st.tuples(*[st.integers(1, 400) for _ in range(3)]),
        st.tuples(*[st.integers(0, 400) for _ in range(3)]),
    )
    def test_forms_linked_exactly(self, totals, ns):
        ns = tuple(min(n, m) for n, m in zip(ns, totals))
        t = ThreeSettingTally(
            n_ac=ns[0], n_ba=ns[1], n_bc=ns[2],
            N_ac=totals[0], N_ba=totals[1], N_bc=totals[2],
        )
        r = bell1964_statistic(t)
        assert r.corr_form_exact == 2 * r.fraction_form_exact + 1
        assert abs(r.corr_form - (2 * r.fraction_form + 1)) <= S_TOL


class TestExactValue:
    @given(uniform_tallies())
    def test_exact_matches_sprime_identity(self, t):
        # S = 2*(S' - q)/q on uniform tallies, exactly
        q = t.a
        s_prime, _, _ = sprime_counts(t.corr_counts)
        assert chsh_exact(t) == Fraction(2 * (s_prime - q), q)

    @given(st.data(), st.tuples(*[st.integers(1, COUNT_MAX)] * 4))
    def test_one_numerator_matches_four_ratios(self, data, cells):
        a, b, c, d = cells
        n00, n01, n10, n11 = (data.draw(st.integers(0, m)) for m in cells)
        t = TallyTable(a=a, b=b, c=c, d=d, n00=n00, n01=n01, n10=n10, n11=n11)
        reference = 2 * (Fraction(n00, a) + Fraction(n01, b) + Fraction(n10, c) - Fraction(n11, d) - 1)
        assert chsh_exact(t) == reference
