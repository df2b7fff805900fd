"""Exhaustive verification of the necessity conditions on small tallies.

Enumerates every uniform-settings tally (a=b=c=d) with K trials per
setting, where K <= 99 keeps the (K + 1)^4 tallies within CAP = 10^8, and
checks, in exact arithmetic, that each derived inequality holds with zero
counterexamples:

  sigma_ge_1:               S > 2 implies sigma >= 1
  sigma_gt_NDelta_24:       S > 2 implies sigma > N*(S-2)/24
  eps_gt_Delta_12:          S > 2 implies achieved epsilon > (S-2)/12
  sprime_bounds:            S'_min <= S' <= S'_max for every tally
  uniformity_no_violation:  sigma = 0 implies S <= 2

The enumeration is walked one slab at a time: the q + 1 tallies that
share (n00, n01, n10) while n11 runs over 0..q; `checked` counts every
tally the enumerator yields. S > 2 is X = chsh_numerator - abcd > 0, and
X falls by abc per unit of n11, so the violating tallies are a prefix
0..last of the slab. S' is checked at the kinks of its convex, piecewise
linear slacks: n11 = 0, q, and the least (lo) and greatest (hi) of n00,
n01 and n10. The four conditions that read "S > 2 implies" are checked at
the check points 0 and last, which is exact: S > 2 reads
n00 + n01 + n10 - n11 > 2q, and no two of n00, n01, n10 sum past 2q, so
n11 < lo on the prefix. There sigma = hi - n11, epsilon is sigma/(2q) and
Delta = 2X/abcd, so every slack is linear in n11 and least at an end (the
kinks lo and hi of sigma never lie in the prefix). A slab that fails a
check is walked tally by tally, its prefix, or every tally when S' fails,
so the counterexamples and their order are those of a per-tally check.
A checked tally becomes a TallyTable and goes through chsh_statistic, the
analyzer's summary, for sigma; it is compared by cross-multiplication
with the pairs of stats.thresholds, from which bounds_report builds the
printed required_skew and epsilon_floor, and with stats.max_strength,
the integer form of the achieved epsilon. Exact arithmetic matters: some
conditions sit on strict-inequality boundaries (S exactly 2) where
floating point could manufacture or hide a counterexample.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator, NamedTuple

from . import stats
from .errors import DomainError, EnumerationCapError
from .stats import chsh_numerator, max_strength, sprime_counts, thresholds
from .trials import TallyTable

CONDITIONS = (
    "sigma_ge_1",
    "sigma_gt_NDelta_24",
    "eps_gt_Delta_12",
    "sprime_bounds",
    "uniformity_no_violation",
)
# the conditions that only bind when S > 2, in the order a tally's failures are reported
_VIOLATION_CONDITIONS = ("uniformity_no_violation", "sigma_ge_1", "sigma_gt_NDelta_24", "eps_gt_Delta_12")

# The most tallies one run enumerates: (K + 1)^4 <= CAP admits K <= 99.
CAP = 10**8


class CounterexampleReport(NamedTuple):
    """Outcome of an exhaustive run: tallies checked and any failures found."""

    checked: int
    counterexamples: tuple[tuple[TallyTable, str], ...]
    n_per_setting: int
    elapsed_seconds: float
    # not annotated, so a class attribute rather than a field
    conditions = CONDITIONS

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "n_per_setting": self.n_per_setting,
            "conditions": list(self.conditions),
            "counterexamples": [
                {"tally": tally.to_dict(), "condition": condition}
                for tally, condition in self.counterexamples
            ],
            "elapsed_seconds": self.elapsed_seconds,
        }


def _checked_size(n_per_setting: int) -> int:
    """n_per_setting, once it is an int >= 1 whose (n_per_setting + 1)^4 tallies number at most CAP."""
    q = n_per_setting
    if isinstance(q, bool) or not isinstance(q, int):
        raise DomainError(f"n_per_setting must be an integer, got {type(q).__name__}")
    if q < 1:
        raise DomainError(f"n_per_setting must be >= 1, got {q}")
    if (q + 1) ** 4 > CAP:
        raise EnumerationCapError(f"enumeration of ({q} + 1)^4 tallies exceeds cap {CAP}")
    return q


def enumerate_uniform_tallies(n_per_setting: int) -> Iterator[tuple[int, int, int, int]]:
    """The correlated counts (n00, n01, n10, n11) of every tally with
    a=b=c=d=n_per_setting, in lexicographic order.

    Yields (n_per_setting+1)^4 tuples; raises DomainError unless n_per_setting
    is an int >= 1, and EnumerationCapError if the count exceeds CAP.
    """
    q = _checked_size(n_per_setting)
    yield from itertools.product(range(q + 1), repeat=4)


def _sprime_holds(corr: tuple[int, int, int, int]) -> bool:
    """Whether S'_min <= S' <= S'_max for the four correlated counts."""
    s_prime, s_prime_max, s_prime_min = sprime_counts(corr)
    return s_prime_min <= s_prime <= s_prime_max


def _violation_failures(tally: TallyTable, x: int) -> list[str]:
    """The conditions bound by S > 2 that a uniform tally fails; x = chsh_numerator - abcd > 0."""
    q = tally.a
    # read from stats at each call, so a wrapper set there later (a tracer's) sees it
    sigma = stats.chsh_statistic(tally).sigma
    # Delta = S - 2 = 2X/abcd
    (skew_num, skew_den), (floor_num, floor_den) = thresholds(4 * q, 2 * x, q**4)
    eps_num, eps_den = max_strength(tally.setting_counts, tally.corr_counts)
    holds = sigma != 0, sigma >= 1, sigma * skew_den > skew_num, eps_num * floor_den > floor_num * eps_den
    return [condition for condition, held in zip(_VIOLATION_CONDITIONS, holds) if not held]


def verify_necessary_conditions(n_per_setting: int) -> CounterexampleReport:
    """Check every condition on every enumerated tally; report failures verbatim.

    One (n00, n01, n10) slab at a time, as the module docstring sets out.
    On the violating prefix 0..last, n11 < min(n00, n01, n10), so sigma,
    epsilon = sigma/(2q) and Delta are linear in n11 and each condition is
    decided at the check points 0 and last (S' at 0, lo, hi and q). A slab
    that fails at one of them is walked tally by tally instead.
    """
    started = time.perf_counter()
    q = _checked_size(n_per_setting)
    settings = (q, q, q, q)
    abc, abcd = q**3, q**4
    failures: list[tuple[TallyTable, str]] = []
    checked = 0
    tallies = enumerate_uniform_tallies(q)
    while slab := list(itertools.islice(tallies, q + 1)):
        checked += len(slab)
        n00, n01, n10, _ = slab[0]
        lo, hi = min(n00, n01, n10), max(n00, n01, n10)
        # X = x0 - n11*abc is positive exactly for n11 <= last; -1 when no tally violates
        x0 = chsh_numerator(settings, slab[0]) - abcd
        last = max(-1, (x0 - 1) // abc)
        sprime_holds = all(map(_sprime_holds, (slab[0], slab[lo], slab[hi], slab[q])))
        if sprime_holds and (last < 0 or not any(
                _violation_failures(TallyTable(*settings, *slab[n11]), x0 - n11 * abc) for n11 in sorted({0, last}))):
            continue
        for n11, corr in enumerate(slab[: last + 1] if sprime_holds else slab):
            tally = TallyTable(q, q, q, q, *corr)
            if not (sprime_holds or _sprime_holds(corr)):
                failures.append((tally, "sprime_bounds"))
            if n11 <= last:
                failures.extend((tally, condition) for condition in _violation_failures(tally, x0 - n11 * abc))
    return CounterexampleReport(
        checked=checked,
        counterexamples=tuple(failures),
        n_per_setting=n_per_setting,
        elapsed_seconds=time.perf_counter() - started,
    )
