"""Necessity thresholds and the no-signalling delta family."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bellkit import (
    DomainError,
    EmptyCellError,
    TallyTable,
    bounds_report,
    build_analysis_report,
    chsh_exact,
    epsilon_floor,
    min_trials,
    nosignalling_deltas,
    required_skew,
    skew,
    violation_possible,
)
from bellkit.bounds import PHYSICAL_PAIRS, as_exact
from bellkit.stats import max_strength, thresholds, violation_possible_counts


@st.composite
def uniform_tallies(draw, max_per_setting=200):
    q = draw(st.integers(1, max_per_setting))
    ns = [draw(st.integers(0, q)) for _ in range(4)]
    return TallyTable(a=q, b=q, c=q, d=q, n00=ns[0], n01=ns[1], n10=ns[2], n11=ns[3])


@st.composite
def populated_tallies(draw, max_count=300):
    counts = [draw(st.integers(1, max_count)) for _ in range(4)]
    ns = [draw(st.integers(0, c)) for c in counts]
    return TallyTable(
        a=counts[0], b=counts[1], c=counts[2], d=counts[3],
        n00=ns[0], n01=ns[1], n10=ns[2], n11=ns[3],
    )


class TestAsExact:
    def test_decimal_intent_of_floats(self):
        assert as_exact(0.01) == Fraction(1, 100)
        assert as_exact(0.828) == Fraction(828, 1000)

    def test_strings_and_fractions_pass_through(self):
        assert as_exact("3/40") == Fraction(3, 40)
        assert as_exact(Fraction(1, 3)) == Fraction(1, 3)
        assert as_exact(2) == Fraction(2)

    def test_rejects_non_numbers(self):
        with pytest.raises(DomainError):
            as_exact("abc")
        with pytest.raises(DomainError):
            as_exact(float("nan"))

    def test_numpy_floats_read_through_their_shortest_decimal(self):
        # repr(np.float64(0.01)) is "np.float64(0.01)" under numpy 2, which is not a number
        assert as_exact(np.float64(0.01)) == Fraction(1, 100)
        assert min_trials(np.float64(0.01)) == 201
        # the shortest decimal of the float32 itself, not of the double it widens to
        assert as_exact(np.float32(0.1)) == Fraction(1, 10)
        assert min_trials(np.float32(0.5)) == min_trials(0.5) == 5

    def test_numpy_integers_convert_losslessly(self):
        assert as_exact(np.int64(2)) == 2
        assert as_exact(np.uint64(2**64 - 1)) == 2**64 - 1
        assert min_trials(np.int64(2)) == min_trials(2) == 2

    @pytest.mark.parametrize("value", [True, np.bool_(False), None, 1j])
    def test_bools_and_non_reals_refused(self, value):
        with pytest.raises(DomainError, match="expected a number"):
            as_exact(value)

    def test_zero_with_a_huge_exponent_is_zero(self):
        assert as_exact("0e999999999") == 0
        assert bounds_report(TallyTable(4, 4, 4, 4, 4, 4, 4, 0), delta="0e999999999").delta == 0

    # 12345e4299 is about 10^4303 and 1e4301 is the smallest size the rule refuses: their
    # written exponents are in range, their sizes are not; each of the others would give
    # a Fraction with a numerator or denominator past 4300 digits
    @pytest.mark.parametrize("text", ["12345e4299", "1e4301", "0." + "1" * 5000, "1" * 5000 + "e-1000",
                                      "1.5e-4300"],
                             ids=["size", "size-edge", "digits", "digits-with-exponent", "last-digit"])
    def test_values_past_the_int_string_limit_are_refused(self, text):
        with pytest.raises(DomainError, match="out of range"):
            as_exact(text)

    def test_digit_and_size_limits_are_inclusive(self):
        assert as_exact("7" * 4300) == int("7" * 4300)
        assert as_exact("1e4300") == 10**4300


def test_huge_exponent_refused_at_once():
    """Fraction would expand 1e-999999999 into a billion digits and not finish."""
    assert as_exact("1e-4300") == Fraction(1, 10**4300)
    code = (
        "from bellkit import DomainError, min_trials\n"
        "from bellkit.bounds import as_exact\n"
        "for call in (as_exact, min_trials):\n"
        "    try:\n"
        "        call('1e-999999999')\n"
        "        raise SystemExit(f'{call.__name__} accepted 1e-999999999')\n"
        "    except DomainError:\n"
        "        pass\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr


class TestViolationPossible:
    def test_examples(self):
        assert violation_possible(n_min=0, sigma=4, n_total=16)
        assert not violation_possible(n_min=2, sigma=0, n_total=16)

    def test_strict_boundary(self):
        # 2*(N/4) + 0 = N/2 fails the strict inequality; an odd N has no integer boundary
        assert not violation_possible(n_min=4, sigma=0, n_total=16)
        assert violation_possible(n_min=4, sigma=0, n_total=15)
        assert not violation_possible(n_min=4, sigma=0, n_total=17)

    def test_tight_at_s_equal_2(self):
        # n = (3, 3, 3, 1) at 4 trials per setting reaches S' = 3*n_max - n_min = N/2,
        # so S is exactly 2: 2*n_min + 3*sigma = 2 + 6 = N/2 and no violation is possible
        t = TallyTable(a=4, b=4, c=4, d=4, n00=3, n01=3, n10=3, n11=1)
        sigma, _, n_min = skew(t)
        assert (sigma, n_min) == (2, 1)
        assert chsh_exact(t) == 2
        assert not violation_possible(n_min, sigma, t.total_trials)
        assert not bounds_report(t).violation_possible

    def test_no_trials_rejected(self):
        with pytest.raises(DomainError):
            violation_possible(0, 0, 0)

    @given(uniform_tallies(max_per_setting=2**64 - 1))
    @example(TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=4))  # on the boundary
    def test_rate_form_is_this_test_on_uniform_tallies(self, t):
        sigma, _, n_min = skew(t)
        rate_form = violation_possible_counts(t.setting_counts, t.corr_counts)
        assert rate_form == violation_possible(n_min, sigma, t.total_trials)
        assert bounds_report(t).violation_possible == rate_form

    def test_every_small_violation_is_possible(self):
        """Every tally with a..d in 1..3: the rate form admits each violation, where the
        uniform-settings form misses some."""
        violating, missed = 0, 0
        for settings in itertools.product(range(1, 4), repeat=4):
            for corr in itertools.product(*(range(cell + 1) for cell in settings)):
                t = TallyTable(*settings, *corr)
                if chsh_exact(t) > 2:
                    violating += 1
                    sigma, _, n_min = skew(t)
                    missed += not violation_possible(n_min, sigma, t.total_trials)
                    assert bounds_report(t).violation_possible, t
        assert violating and missed

    def test_empty_cell_admits_no_violation(self):
        # S is undefined, so a requested delta's report says no violation is possible
        t = TallyTable(a=4, b=4, c=0, d=4, n00=4, n01=4, n11=0)
        assert not bounds_report(t, delta=1).violation_possible


class TestRequiredSkew:
    def test_examples(self):
        assert required_skew(24, 1) == 1
        assert required_skew(16, 0) == 0
        assert float(required_skew(8, 2 * math.sqrt(2) - 2)) == pytest.approx(0.276, abs=5e-4)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            required_skew(8, -0.1)

    def test_no_trials_rejected(self):
        with pytest.raises(DomainError):
            required_skew(0, 1)

    @given(st.integers(1, 10**6), st.fractions(0, 4))
    def test_three_times_bound_is_count_margin(self, n, delta):
        assert required_skew(n, delta) * 3 == Fraction(n) * delta / 8


class TestMinTrials:
    def test_examples(self):
        assert min_trials(0.01) == 201
        assert min_trials(2) == 2
        assert min_trials(0.5) == 5

    def test_exact_rational(self):
        assert min_trials(Fraction(1, 100)) == 201
        assert min_trials("0.01") == 201

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            min_trials(0)
        with pytest.raises(DomainError):
            min_trials(-1)

    @given(st.fractions(Fraction(1, 10**6), 10).filter(lambda f: f > 0))
    def test_strictly_exceeds(self, eps):
        n = min_trials(eps)
        assert n > 2 / eps
        assert n - 1 <= 2 / eps


class TestEpsilonFloor:
    def test_zero(self):
        assert epsilon_floor(0) == 0

    def test_quantum_maximum(self):
        value = float(epsilon_floor(2 * math.sqrt(2) - 2))
        assert value == pytest.approx(0.069036, abs=5e-7)

    def test_decimal(self):
        assert epsilon_floor(1.2) == Fraction(1, 10)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            epsilon_floor(-0.5)


class TestNoSignalling:
    def test_worked_pair(self):
        t = TallyTable(a=100, b=100, c=100, d=100, n00=50, n01=60, n10=55, n11=45)
        report = nosignalling_deltas(t)
        ab = next(d for d in report.deltas if (d.alpha, d.beta) == ("a", "b"))
        assert ab.value_exact == Fraction(100 * 60 - 100 * 50, 100 * 200)
        assert ab.value == 0.05

    def test_uniform_reduction_example(self):
        t = TallyTable(a=100, b=100, c=100, d=100, n00=50, n01=60, n10=55, n11=45)
        report = nosignalling_deltas(t)
        assert report.epsilon_achieved_exact == Fraction(15, 200)
        assert report.epsilon_achieved == 0.075

    def test_all_equal_gives_zero(self):
        t = TallyTable(a=50, b=50, c=50, d=50, n00=20, n01=20, n10=20, n11=20)
        report = nosignalling_deltas(t)
        assert report.epsilon_achieved_exact == 0
        assert all(d.value_exact == 0 for d in report.deltas)

    def test_twelve_ordered_pairs(self):
        t = TallyTable(a=10, b=10, c=10, d=10, n00=1, n01=2, n10=3, n11=4)
        report = nosignalling_deltas(t)
        assert len(report.deltas) == 12
        pairs = {(d.alpha, d.beta) for d in report.deltas}
        assert len(pairs) == 12
        assert all(alpha != beta for alpha, beta in pairs)

    def test_physical_pairs_tagged(self):
        t = TallyTable(a=10, b=10, c=10, d=10, n00=1, n01=2, n10=3, n11=4)
        report = nosignalling_deltas(t)
        physical = {frozenset((d.alpha, d.beta)) for d in report.deltas if d.physical}
        assert physical == set(PHYSICAL_PAIRS)
        assert sum(d.physical for d in report.deltas) == 8

    def test_empty_cell_rejected(self):
        with pytest.raises(EmptyCellError):
            nosignalling_deltas(TallyTable(a=10, b=0, c=10, d=10, n00=1, n10=1, n11=1))

    def test_pairs_failing_strictness(self):
        t = TallyTable(a=100, b=100, c=100, d=100, n00=50, n01=60, n10=55, n11=45)
        report = nosignalling_deltas(t)
        # achieved epsilon is an infimum: not admissible itself
        assert report.pairs_failing(report.epsilon_achieved_exact)
        assert not report.pairs_failing(Fraction(76, 1000))
        assert report.pairs_failing(0.01)

    def test_orientations_share_strength(self):
        # the criterion divides by min(alpha, beta), so unbalanced cells
        # still yield one strength per unordered pair
        t = TallyTable(a=10, b=1000, c=10, d=10, n00=5, n01=100, n10=5, n11=5)
        report = nosignalling_deltas(t)
        ab = next(d for d in report.deltas if (d.alpha, d.beta) == ("a", "b"))
        ba = next(d for d in report.deltas if (d.alpha, d.beta) == ("b", "a"))
        assert ab.strength_exact == ba.strength_exact
        assert ab.value_exact != -ba.value_exact  # probability deltas are not symmetric

    @given(uniform_tallies())
    def test_uniform_settings_reduction(self, t):
        sigma, _, _ = skew(t)
        report = nosignalling_deltas(t)
        assert report.epsilon_achieved_exact == Fraction(2 * sigma, t.total_trials)

    @given(populated_tallies())
    def test_achieved_is_max_strength(self, t):
        report = nosignalling_deltas(t)
        assert report.epsilon_achieved_exact == max(d.strength_exact for d in report.deltas)
        assert report.epsilon_achieved_exact >= 0

    @given(populated_tallies())
    @example(TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0))  # both bounds tight
    def test_rate_gap_and_epsilon_bound_the_violation(self, t):
        """sigma_r >= Delta/2 and the achieved epsilon >= Delta/4 on every tally, Delta = S - 2.

        With rates r_xy = n_xy/cell, Delta = 2(r00 + r01 + r10 - r11) - 4 is
        at most 2(r_max - r_min), and every pair strength is at least half its
        rate gap. They are three times the paper's N*Delta/24 and Delta/12 on
        uniform tallies.
        """
        delta = chsh_exact(t) - 2
        rates = [Fraction(n, m) for n, m in zip(t.corr_counts, t.setting_counts)]
        assert max(rates) - min(rates) >= delta / 2
        assert Fraction(*max_strength(t.setting_counts, t.corr_counts)) >= delta / 4

    @given(populated_tallies(max_count=2**64 - 1))
    def test_integer_form_is_max_of_twelve_strengths(self, t):
        report = nosignalling_deltas(t)
        strengths = [d.strength_exact for d in report.deltas]
        assert len(strengths) == 12
        integer_form = Fraction(*max_strength(t.setting_counts, t.corr_counts))
        assert integer_form == max(strengths)
        # the oracle's integer epsilon is the one analyze prints
        assert report.epsilon_achieved_exact == integer_form


class TestBoundsReport:
    def test_achieved_delta_default(self):
        t = TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0)
        rep = bounds_report(t)
        assert rep.delta == chsh_exact(t) - 2 == 2
        assert rep.delta_source == "achieved"
        assert rep.delta_small == Fraction(16 * 2, 8) == 4
        assert rep.required_skew * 3 == rep.delta_small
        assert rep.violation_possible

    def test_requested_delta_and_epsilon(self):
        t = TallyTable(a=4, b=4, c=4, d=4, n00=2, n01=2, n10=2, n11=2)
        rep = bounds_report(t, delta="0.5", epsilon="0.01")
        assert rep.delta == Fraction(1, 2)
        assert rep.delta_source == "requested"
        assert rep.min_trials == 201
        assert rep.min_trials_epsilon == Fraction(1, 100)

    def test_min_trials_falls_back_to_floor(self):
        t = TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0)
        rep = bounds_report(t)
        # floor = 2/12 = 1/6; smallest N > 12 is 13
        assert rep.epsilon_floor == Fraction(1, 6)
        assert rep.min_trials == 13

    def test_no_violation_no_epsilon_no_min_trials(self):
        t = TallyTable(a=4, b=4, c=4, d=4, n00=2, n01=2, n10=2, n11=2)
        rep = bounds_report(t)
        assert rep.delta == 0
        assert rep.min_trials is None

    def test_achieved_delta_needs_every_cell(self):
        with pytest.raises(EmptyCellError):
            bounds_report(TallyTable(a=4, b=4, c=0, d=4, n00=4, n01=4, n11=0))

    @given(populated_tallies(max_count=2**64 - 1), st.none() | st.fractions(0, 2))
    @example(TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0), None)
    def test_thresholds_are_the_shared_pairs(self, t, delta):
        """required_skew = N*Delta/24 and epsilon_floor = Delta/12, built from thresholds."""
        rep = bounds_report(t, delta=delta)
        n_total = t.total_trials
        magnitude = max(Fraction(0), chsh_exact(t) - 2) if delta is None else delta
        skew_pair, floor_pair = thresholds(n_total, magnitude.numerator, magnitude.denominator)
        assert rep.delta == magnitude
        assert rep.required_skew == Fraction(*skew_pair) == n_total * magnitude / 24
        assert rep.epsilon_floor == Fraction(*floor_pair) == magnitude / 12


class TestReportIdentities:
    """Cross-field identities of the analyze report."""

    @given(populated_tallies(max_count=2**64 - 1), st.none() | st.fractions(0, 2))
    @example(TallyTable(a=1, b=1, c=1, d=2, n00=1, n01=1, n10=1, n11=1), None)  # S = 3
    @example(TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0), None)
    def test_every_populated_tally(self, t, delta):
        doc = build_analysis_report(t, delta=delta).to_dict()
        chsh, ns, bounds = doc["chsh"], doc["nosignalling"], doc["bounds"]
        s = Fraction(chsh["s_exact"])
        assert chsh["violated"] == (s > 2)
        assert bounds["violation_possible"] or not chsh["violated"]
        if delta is None:
            assert Fraction(bounds["delta_exact"]) == max(Fraction(0), s - 2)
        assert Fraction(bounds["delta_small_exact"]) == 3 * Fraction(bounds["required_skew_exact"])
        largest = max(abs(Fraction(d["value_exact"])) for d in ns["deltas"])
        assert Fraction(ns["epsilon_achieved_exact"]) == largest
        assert chsh["s_prime_min"] <= chsh["s_prime"] <= chsh["s_prime_max"]

    @given(uniform_tallies(max_per_setting=2**64 - 1))
    @example(TallyTable(a=4, b=4, c=4, d=4, n00=4, n01=4, n10=4, n11=0))
    def test_violation_exceeds_the_required_skew_on_uniform_tallies(self, t):
        """The paper's sigma > N*Delta/24, stated for a = b = c = d."""
        doc = build_analysis_report(t).to_dict()
        if doc["chsh"]["violated"]:
            assert doc["chsh"]["sigma"] > Fraction(doc["bounds"]["required_skew_exact"])
