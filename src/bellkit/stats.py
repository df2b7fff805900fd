"""Correlation coefficients, CHSH test statistics, and the integer core.

The integer core holds every count form the analyzer and the oracle
share: rate_numerators, chsh_numerator, skew_counts, sprime_counts,
violation_possible_counts, strength, max_strength and thresholds. They
take count tuples and build no TallyTable or Fraction; bounds builds its
Fractions from them, and the oracle compares them by cross-multiplication.
Ratio statistics are exact rationals rounded once to float, so strict
comparisons such as S > 2 are decided on the exact value. S is one exact
rational: an integer numerator over the product abcd of the cell counts.
chsh_exact, skew and chsh_statistic apply the core to a tally; bounds
takes the achieved Delta = max(0, S - 2) from chsh_exact. max_strength is
the oracle's integer form of the achieved epsilon, which bounds reads as
the largest strength of the twelve deltas it lists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, EmptyCellError
from .trials import TallyTable, ThreeSettingTally


class ChshSummary(NamedTuple):
    """All statistics derived from one tally.

    E values and S are floats correctly rounded from the exact rationals;
    s_exact retains the unrounded test value for exact threshold checks.
    sigma is the range (max minus min) of the four correlated counts,
    s_prime their signed combination n00 + n01 + n10 - n11, bounded by
    s_prime_min and s_prime_max as functions of sigma and n_min alone.
    """

    e00: float
    e01: float
    e10: float
    e11: float
    s: float
    s_exact: Fraction
    sigma: int
    n_max: int
    n_min: int
    s_prime: int
    s_prime_max: int
    s_prime_min: int
    violated: bool
    violation_magnitude: float


def _correlation(corr_count: int, trial_count: int) -> float:
    # int / int is correctly rounded, so this is float(Fraction(...)) bit for bit
    return (2 * corr_count - trial_count) / trial_count


def uniform_prob_s(p: float) -> float:
    """Test value when all four correlation probabilities equal p: 2*(2p - 1).

    At most 2, with equality only at p = 1, so uniform correlation
    probabilities can never violate the CHSH bound.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p!r}")
    return 2.0 * (2.0 * p - 1.0)


def skew_counts(corr: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """Range of the four correlated counts n00..n11: (sigma, n_max, n_min)."""
    n_max = max(corr)
    n_min = min(corr)
    return n_max - n_min, n_max, n_min


def sprime_counts(corr: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """S' = n00 + n01 + n10 - n11 of the four correlated counts, and its skew bounds.

    Returns (s_prime, s_prime_max, s_prime_min) with
    s_prime_max = 2*n_min + 3*sigma = 3*n_max - n_min and
    s_prime_min = 2*n_min - sigma = 3*n_min - n_max.
    """
    n00, n01, n10, n11 = corr
    sigma, _, n_min = skew_counts(corr)
    return n00 + n01 + n10 - n11, 2 * n_min + 3 * sigma, 2 * n_min - sigma


def rate_numerators(settings: tuple[int, int, int, int], corr: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """m_i = n_i*abcd/cell_i: the rates n00/a, n01/b, n10/c, n11/d over their common denominator abcd."""
    a, b, c, d = settings
    n00, n01, n10, n11 = corr
    cd, ab = c * d, a * b
    return n00 * b * cd, n01 * a * cd, n10 * ab * d, n11 * ab * c


def chsh_numerator(settings: tuple[int, int, int, int], corr: tuple[int, int, int, int]) -> int:
    """X = n00*bcd + n01*acd + n10*abd - n11*abc - abcd, so S = 2X/(abcd).

    For populated cells, S > 2 exactly when X > abcd.
    """
    m00, m01, m10, m11 = rate_numerators(settings, corr)
    a, b, c, d = settings
    return m00 + m01 + m10 - m11 - a * b * c * d


def violation_possible_counts(settings: tuple[int, int, int, int], corr: tuple[int, int, int, int]) -> bool:
    """Strict necessary condition for S > 2 under any settings: 2*min m + 3*(max m - min m) > 2*abcd.

    S > 2 is S' of the rate numerators m exceeding 2*abcd, and S' <= 3*max m - min m.
    On a = b = c = d it is 2*n_min + 3*sigma > N/2; with an empty cell it is False.
    """
    a, b, c, d = settings
    return sprime_counts(rate_numerators(settings, corr))[1] > 2 * a * b * c * d


_CELL_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))  # unordered pairs of setting cells


def strength(ca: int, cb: int, na: int, nb: int) -> tuple[int, int]:
    """Pair strength |ca*nb - cb*na| / ((ca+cb)*min(ca, cb)) as (numerator, denominator)."""
    return abs(ca * nb - cb * na), (ca + cb) * min(ca, cb)


def max_strength(settings: tuple[int, int, int, int], corr: tuple[int, int, int, int]) -> tuple[int, int]:
    """The largest pair strength over the setting cells, as (numerator, denominator).

    Every setting count must be positive. The strength is the same for
    both orientations of a pair, so the six unordered pairs suffice; they
    are compared by integer cross-multiplication.
    """
    best_num, best_den = 0, 1
    for i, j in _CELL_PAIRS:
        num, den = strength(settings[i], settings[j], corr[i], corr[j])
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def thresholds(n_total: int, num: int, den: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The strict bounds N*Delta/24 and Delta/12 for Delta = num/den, as (numerator, denominator) pairs.

    These are the paper's thresholds, stated once: required_skew,
    epsilon_floor and bounds_report build their Fractions from the pairs,
    and the oracle compares against them by cross-multiplication. The
    pairs are not reduced; Delta/12 does not depend on N.
    """
    return (n_total * num, 24 * den), (num, 12 * den)


def skew(t: TallyTable) -> tuple[int, int, int]:
    """Range of the tally's correlated counts: (sigma, n_max, n_min)."""
    return skew_counts(t.corr_counts)


def chsh_exact(t: TallyTable) -> Fraction:
    """Exact S = 2*(n00/a + n01/b + n10/c - n11/d - 1), one integer numerator over abcd."""
    t.require_populated()
    a, b, c, d = t.setting_counts
    return Fraction(2 * chsh_numerator(t.setting_counts, t.corr_counts), a * b * c * d)


def chsh_statistic(t: TallyTable) -> ChshSummary:
    """Compute the full CHSH summary for a tally with all cells populated.

    S = E00 + E01 + E10 - E11; a violation is the strict inequality S > 2,
    decided on the exact rational value p/q in integers.
    """
    s_exact = chsh_exact(t)
    p, q = s_exact.numerator, s_exact.denominator
    corr = t.corr_counts
    violated = p > 2 * q
    # p / q and (p - 2q) / q are float(s_exact) and float(s_exact - 2) bit for bit,
    # as int / int is correctly rounded
    return ChshSummary(*map(_correlation, corr, t.setting_counts), p / q, s_exact,
                       *skew_counts(corr), *sprime_counts(corr), violated,
                       (p - 2 * q) / q if violated else 0.0)


class Bell1964Result(NamedTuple):
    """Both forms of the three-setting 1964 statistic.

    corr_form = E_ac - E_ba - E_bc, bounded by 1 under local realism;
    fraction_form = n_ac/N_ac - n_ba/N_ba - n_bc/N_bc, bounded by 0.
    The two are linked exactly by corr_form = 2*fraction_form + 1.
    """

    corr_form: float
    fraction_form: float
    corr_form_exact: Fraction
    fraction_form_exact: Fraction
    violated: bool


def bell1964_statistic(t: ThreeSettingTally) -> Bell1964Result:
    """Evaluate the original three-setting inequality in both forms."""
    for pair in ("ac", "ba", "bc"):
        if getattr(t, f"N_{pair}") == 0:
            raise EmptyCellError(f"N_{pair}")
    frac = (
        Fraction(t.n_ac, t.N_ac)
        - Fraction(t.n_ba, t.N_ba)
        - Fraction(t.n_bc, t.N_bc)
    )
    corr = 2 * frac + 1
    return Bell1964Result(
        corr_form=float(corr),
        fraction_form=float(frac),
        corr_form_exact=corr,
        fraction_form_exact=frac,
        violated=frac > 0,
    )
