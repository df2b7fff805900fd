"""Exhaustive verification of the necessity conditions on small tallies.

Enumerates every uniform-settings tally (a=b=c=d) up to a given count per
setting and checks, in exact arithmetic, that each derived inequality
holds with zero counterexamples:

  sigma_ge_1:               S > 2 implies sigma >= 1
  sigma_gt_NDelta_24:       S > 2 implies sigma > N*(S-2)/24
  eps_gt_Delta_12:          S > 2 implies achieved epsilon > (S-2)/12
  sprime_bounds:            S'_min <= S' <= S'_max for every tally
  uniformity_no_violation:  sigma = 0 implies S <= 2

Every tally is screened in integers: the S' bounds, and S > 2 as the
chsh_exact numerator exceeding abcd. The other four conditions all read
"S > 2 implies ...", so only a violating tally becomes a TallyTable and
goes through the analyzer's pipeline (chsh_statistic, bounds_report, and
the achieved epsilon of nosignalling_deltas). The two thresholds are the
required_skew and epsilon_floor of the same bounds_report that `analyze`
prints, so the oracle checks what a user reads. Exact arithmetic matters:
several conditions sit on strict-inequality boundaries (S exactly 2) where
floating point could manufacture or hide a counterexample.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import ClassVar, Iterator

from .bounds import bounds_report, epsilon_achieved
from .errors import DomainError, EnumerationCapError
from .stats import chsh_numerator, chsh_statistic, sprime_counts
from .trials import TallyTable

CONDITIONS = (
    "sigma_ge_1",
    "sigma_gt_NDelta_24",
    "eps_gt_Delta_12",
    "sprime_bounds",
    "uniformity_no_violation",
)

DEFAULT_CAP = 10**8


@dataclass(frozen=True)
class CounterexampleReport:
    """Outcome of an exhaustive run: tallies checked and any failures found."""

    checked: int
    counterexamples: tuple[tuple[TallyTable, str], ...]
    n_per_setting: int
    elapsed_seconds: float
    conditions: ClassVar[tuple[str, ...]] = CONDITIONS

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


def enumerate_uniform_tallies(
    n_per_setting: int, cap: int = DEFAULT_CAP
) -> Iterator[tuple[int, int, int, int]]:
    """The correlated counts (n00, n01, n10, n11) of every tally with
    a=b=c=d=n_per_setting, in lexicographic order.

    Yields (n_per_setting+1)^4 tuples; raises EnumerationCapError if that exceeds cap.
    """
    q = n_per_setting
    if q < 1:
        raise DomainError(f"n_per_setting must be >= 1, got {q}")
    size = (q + 1) ** 4
    if size > cap:
        raise EnumerationCapError(f"enumeration of ({q} + 1)^4 tallies exceeds cap {cap}")
    yield from itertools.product(range(q + 1), repeat=4)


def verify_necessary_conditions(n_per_setting: int, cap: int = DEFAULT_CAP) -> CounterexampleReport:
    """Check every condition on every enumerated tally; report failures verbatim.

    Every tally is screened in integers, with no TallyTable and no Fraction:
    the S' bounds, and whether S > 2. Each violating tally is then pushed
    through the analyzer's pipeline (chsh_statistic, bounds_report and the
    achieved epsilon that nosignalling_deltas reports), so the conditions
    that only bind under a violation exercise the code paths analyze uses.
    """
    started = time.perf_counter()
    q = n_per_setting
    settings = (q, q, q, q)
    abcd = q**4
    checked = 0
    failures: list[tuple[TallyTable, str]] = []
    for corr in enumerate_uniform_tallies(n_per_setting, cap=cap):
        checked += 1
        s_prime, s_prime_max, s_prime_min = sprime_counts(corr)
        if not s_prime_min <= s_prime <= s_prime_max:
            failures.append((TallyTable(q, q, q, q, *corr), "sprime_bounds"))
        if chsh_numerator(settings, corr) <= abcd:
            continue
        tally = TallyTable(q, q, q, q, *corr)
        summary = chsh_statistic(tally)
        bounds = bounds_report(tally)
        if summary.sigma == 0:
            failures.append((tally, "uniformity_no_violation"))
        if summary.sigma < 1:
            failures.append((tally, "sigma_ge_1"))
        if not summary.sigma > bounds.required_skew:
            failures.append((tally, "sigma_gt_NDelta_24"))
        if not epsilon_achieved(settings, corr) > bounds.epsilon_floor:
            failures.append((tally, "eps_gt_Delta_12"))
    return CounterexampleReport(
        checked=checked,
        counterexamples=tuple(failures),
        n_per_setting=n_per_setting,
        elapsed_seconds=time.perf_counter() - started,
    )
