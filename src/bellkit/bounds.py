"""Necessary conditions for CHSH violation and the no-signalling analysis.

Built on stats' integer core. The achieved Delta = max(0, S - 2) comes
from chsh_exact, and the achieved epsilon is the largest strength of the
twelve deltas nosignalling_deltas lists. All threshold comparisons here
are strict inequalities evaluated in exact rational arithmetic. Every
tolerance and magnitude goes through as_exact, the number rule the CLI's
--epsilon and --delta share; a float is read through its shortest decimal
(0.01 means 1/100, not the nearest binary double), so integer thresholds
like the minimum trial count land exactly where the decimal value puts
them.
"""

from __future__ import annotations

import itertools
import math
import numbers
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .stats import chsh_exact, strength, thresholds, violation_possible_counts
from .trials import CELL_LABELS, TallyTable

# Unordered setting-cell pairs whose comparison is a physical marginal
# test: one station's setting is held fixed while the other's varies.
PHYSICAL_PAIRS = (
    frozenset(("a", "b")),
    frozenset(("c", "d")),
    frozenset(("a", "c")),
    frozenset(("b", "d")),
)


def as_exact(value) -> Fraction:
    """Convert a tolerance/magnitude input to an exact rational.

    Integers (numpy's too, but not bools) and Fractions convert losslessly.
    Text with "/" is read as a Fraction and other text as a Decimal, so
    0e999999999 is 0. A nonzero Decimal with more than 4300 digits, a last
    digit below 10^-4300 or a size of 10^4301 or more is refused before it
    is expanded, as Python's 4300-digit limit on int strings makes
    Fraction(text) do. Any other real scalar, a float or a numpy float of
    any width, is read as its str, the shortest decimal of its own type, so
    the decimal the caller typed is honored: np.float32(0.1) is 1/10.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return Fraction(int(value))
        value = str(value)
    if not isinstance(value, str):
        raise DomainError(f"expected a number, got {value!r}")
    try:
        number = Fraction(value) if "/" in value else Decimal(value)
        if isinstance(number, Decimal) and number.is_finite() and number:
            _, digits, exponent = number.as_tuple()
            if len(digits) > 4300 or exponent < -4300 or number.adjusted() > 4300:
                raise DomainError(f"digits or exponent out of range: {value!r}")
        return Fraction(number)
    except (ValueError, ArithmeticError) as exc:  # as for x/0, NaN and infinity
        raise DomainError(f"not a number: {value!r}") from exc


class MarginalDelta(NamedTuple):
    """One ordered-pair marginal probability difference.

    value is (alpha*n_beta - beta*n_alpha) / (alpha*(alpha+beta)) for cell
    counts alpha, beta and correlated counts n_alpha, n_beta. strength is
    the pair strength of stats.strength, which the smallness criterion compares
    against epsilon; it is the same for both orientations of a pair.
    """

    alpha: str
    beta: str
    value: float
    value_exact: Fraction
    strength_exact: Fraction
    physical: bool


class NoSignallingReport(NamedTuple):
    """All twelve ordered-pair marginal deltas plus the achieved epsilon.

    epsilon_achieved is the infimum of tolerances satisfying the strict
    smallness criterion for every pair; being an infimum it is not itself
    admissible unless every delta vanishes. The four physically meaningful
    unordered pairs are tagged via MarginalDelta.physical.
    """

    deltas: tuple[MarginalDelta, ...]
    epsilon_achieved: float
    epsilon_achieved_exact: Fraction

    def pairs_failing(self, epsilon) -> tuple[MarginalDelta, ...]:
        """Ordered pairs whose strength breaks the strict criterion at epsilon."""
        eps = as_exact(epsilon)
        return tuple(d for d in self.deltas if d.strength_exact >= eps)


def nosignalling_deltas(t: TallyTable) -> NoSignallingReport:
    """Marginal probability differences for all ordered cell pairs.

    Requires every setting cell populated. The achieved epsilon is the
    largest strength among the twelve deltas listed.
    """
    t.require_populated()
    counts, corr = t.setting_counts, t.corr_counts
    deltas = []
    for i, j in itertools.permutations(range(4), 2):
        alpha, beta = CELL_LABELS[i], CELL_LABELS[j]
        ca, cb, na, nb = counts[i], counts[j], corr[i], corr[j]
        value = Fraction(ca * nb - cb * na, ca * (ca + cb))
        deltas.append(
            MarginalDelta(
                alpha=alpha,
                beta=beta,
                value=float(value),
                value_exact=value,
                strength_exact=Fraction(*strength(ca, cb, na, nb)),
                physical=frozenset((alpha, beta)) in PHYSICAL_PAIRS,
            )
        )
    achieved = max(d.strength_exact for d in deltas)
    return NoSignallingReport(
        deltas=tuple(deltas),
        epsilon_achieved=float(achieved),
        epsilon_achieved_exact=achieved,
    )


def violation_possible(n_min: int, sigma: int, n_total: int) -> bool:
    """Strict necessary condition for a violation at a = b = c = d: 2*n_min + 3*sigma > N/2, in integers."""
    if n_total <= 0:
        raise DomainError(f"trial count must be positive, got {n_total}")
    if n_min < 0 or sigma < 0:
        raise DomainError("n_min and sigma must be nonnegative")
    return 2 * (2 * n_min + 3 * sigma) > n_total


def _magnitude(delta) -> Fraction:
    """delta as an exact violation magnitude, which must be nonnegative."""
    magnitude = as_exact(delta)
    if magnitude < 0:
        raise DomainError(f"violation magnitude must be nonnegative, got {delta!r}")
    return magnitude


def required_skew(n_total: int, delta) -> Fraction:
    """Strict lower bound N*Delta/24 on the skew needed to exceed 2 by Delta.

    Callers compare sigma > required_skew strictly; the bound is returned
    as an exact rational.
    """
    if n_total <= 0:
        raise DomainError(f"trial count must be positive, got {n_total}")
    magnitude = _magnitude(delta)
    bound, _ = thresholds(n_total, magnitude.numerator, magnitude.denominator)
    return Fraction(*bound)


def epsilon_floor(delta) -> Fraction:
    """Strict lower bound Delta/12 on the achievable no-signalling tolerance.

    Holds for any uniform-settings experiment violating by Delta,
    independent of the number of trials.
    """
    magnitude = _magnitude(delta)
    _, floor = thresholds(0, magnitude.numerator, magnitude.denominator)
    return Fraction(*floor)


def min_trials(epsilon) -> int:
    """Smallest trial count N strictly greater than 2/epsilon."""
    eps = as_exact(epsilon)
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    return math.floor(2 / eps) + 1


class BoundsReport(NamedTuple):
    """Necessity thresholds for a tally at a given violation magnitude.

    delta is the magnitude the thresholds are computed for (the achieved
    excess over 2 unless a target was requested); delta_small = N*delta/8
    converts it to count units, and required_skew = delta_small/3 exactly,
    the paper's bound for a = b = c = d. violation_possible asks whether any
    violation is count-compatible under any settings, in rate form.
    min_trials is the smallest N compatible with min_trials_epsilon, which
    is the requested tolerance when given, else the epsilon floor.
    """

    delta: Fraction
    delta_source: str
    delta_small: Fraction
    required_skew: Fraction
    violation_possible: bool
    epsilon_floor: Fraction
    min_trials: int | None
    min_trials_epsilon: Fraction | None


def bounds_report(t: TallyTable, delta=None, epsilon=None) -> BoundsReport:
    """Assemble the necessity thresholds for a tally.

    delta defaults to the achieved violation magnitude max(0, S - 2), with S
    from chsh_exact, which needs every setting cell populated. epsilon, when
    given, is the requested no-signalling tolerance.
    """
    n_total = t.total_trials
    magnitude = max(0, chsh_exact(t) - 2) if delta is None else _magnitude(delta)
    num, den = magnitude.numerator, magnitude.denominator
    skew_bound, floor_bound = thresholds(n_total, num, den)
    floor = Fraction(*floor_bound)
    eps_for_n = as_exact(epsilon) if epsilon is not None else (floor if floor > 0 else None)
    return BoundsReport(
        delta=Fraction(num, den),
        delta_source="achieved" if delta is None else "requested",
        delta_small=Fraction(n_total * num, 8 * den),
        required_skew=Fraction(*skew_bound),
        violation_possible=violation_possible_counts(t.setting_counts, t.corr_counts),
        epsilon_floor=floor,
        min_trials=min_trials(eps_for_n) if eps_for_n is not None else None,
        min_trials_epsilon=eps_for_n,
    )
