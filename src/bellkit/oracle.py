"""Exhaustive verification of the necessity conditions on small tallies.

Enumerates every uniform-settings tally (a=b=c=d) up to a given count per
setting and checks, in exact rational arithmetic, that each derived
inequality holds with zero counterexamples:

  sigma_ge_1:               S > 2 implies sigma >= 1
  sigma_gt_NDelta_24:       S > 2 implies sigma > N*(S-2)/24
  eps_gt_Delta_12:          S > 2 implies achieved epsilon > (S-2)/12
  sprime_bounds:            S'_min <= S' <= S'_max for every tally
  uniformity_no_violation:  sigma = 0 implies S <= 2

The two thresholds are the required_skew and epsilon_floor of the same
bounds_report that `analyze` prints, so the oracle checks what a user reads.
Exact arithmetic matters: several conditions sit on strict-inequality
boundaries (S exactly 2) where floating point could manufacture or hide a
counterexample.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import ClassVar, Iterator

from .bounds import bounds_report, nosignalling_deltas
from .errors import DomainError, EnumerationCapError
from .stats import chsh_statistic
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


def enumerate_uniform_tallies(n_per_setting: int, cap: int = DEFAULT_CAP) -> Iterator[TallyTable]:
    """All tallies with a=b=c=d=n_per_setting, in lexicographic n-order.

    Yields (n_per_setting+1)^4 tallies; raises EnumerationCapError if that exceeds cap.
    """
    q = n_per_setting
    if q < 1:
        raise DomainError(f"n_per_setting must be >= 1, got {q}")
    size = (q + 1) ** 4
    if size > cap:
        raise EnumerationCapError(f"enumeration of ({q} + 1)^4 tallies exceeds cap {cap}")
    for n00, n01, n10, n11 in itertools.product(range(q + 1), repeat=4):
        yield TallyTable(a=q, b=q, c=q, d=q, n00=n00, n01=n01, n10=n10, n11=n11)


def verify_necessary_conditions(n_per_setting: int, cap: int = DEFAULT_CAP) -> CounterexampleReport:
    """Check every condition on every enumerated tally; report failures verbatim.

    Each tally is pushed through the real statistics pipeline (test value,
    skew, S' bounds, marginal deltas, bounds_report) rather than any
    algebraic shortcut, so this exercises the same code paths the analyzer uses.
    """
    started = time.perf_counter()
    checked = 0
    failures: list[tuple[TallyTable, str]] = []
    for tally in enumerate_uniform_tallies(n_per_setting, cap=cap):
        checked += 1
        summary = chsh_statistic(tally)
        if not summary.s_prime_min <= summary.s_prime <= summary.s_prime_max:
            failures.append((tally, "sprime_bounds"))
        if summary.sigma == 0 and summary.s_exact > 2:
            failures.append((tally, "uniformity_no_violation"))
        if summary.s_exact > 2:
            bounds = bounds_report(tally)
            if summary.sigma < 1:
                failures.append((tally, "sigma_ge_1"))
            if not summary.sigma > bounds.required_skew:
                failures.append((tally, "sigma_gt_NDelta_24"))
            if not nosignalling_deltas(tally).epsilon_achieved_exact > bounds.epsilon_floor:
                failures.append((tally, "eps_gt_Delta_12"))
    return CounterexampleReport(
        checked=checked,
        counterexamples=tuple(failures),
        n_per_setting=n_per_setting,
        elapsed_seconds=time.perf_counter() - started,
    )

