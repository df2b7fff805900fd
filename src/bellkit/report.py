"""Self-contained analysis reports: every number recomputable from the tally."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import __version__, bounds, stats
from .bounds import BoundsReport, NoSignallingReport, as_exact
from .stats import Bell1964Result, ChshSummary
from .trials import TallyTable


class AnalysisReport(NamedTuple):
    """Everything the analyzer derives from one tally, plus provenance."""

    tally: TallyTable
    chsh: ChshSummary
    nosignalling: NoSignallingReport
    bounds: BoundsReport
    bell1964: Bell1964Result | None
    epsilon_requested: Fraction | None
    metadata: dict

    def to_dict(self) -> dict:
        """The JSON report; chsh, each delta and bell1964 are their records' fields."""
        ns = self.nosignalling
        b = self.bounds
        ns_section = {**_record_dict(ns, omit="deltas"),
                      "deltas": [_record_dict(d, omit="strength_exact") for d in ns.deltas]}
        if self.epsilon_requested is not None:
            failing = ns.pairs_failing(self.epsilon_requested)
            ns_section["epsilon_requested"] = float(self.epsilon_requested)
            ns_section["pass"] = not failing
            ns_section["pairs_failing"] = [[d.alpha, d.beta] for d in failing]
        bounds_section = {
            "delta": float(b.delta),
            "delta_exact": str(b.delta),
            "delta_source": b.delta_source,
            "delta_small": float(b.delta_small),
            "delta_small_exact": str(b.delta_small),
            "required_skew": float(b.required_skew),
            "required_skew_exact": str(b.required_skew),
            "violation_possible": b.violation_possible,
            "epsilon_floor": float(b.epsilon_floor),
            "epsilon_floor_exact": str(b.epsilon_floor),
            "min_trials": b.min_trials,
            "min_trials_epsilon": (
                float(b.min_trials_epsilon) if b.min_trials_epsilon is not None else None
            ),
        }
        return {
            "tally": self.tally.to_dict(),
            "chsh": _record_dict(self.chsh),
            "nosignalling": ns_section,
            "bounds": bounds_section,
            "bell1964": _record_dict(self.bell1964) if self.bell1964 is not None else None,
            "metadata": self.metadata,
        }


def _record_dict(record, omit: str = "") -> dict:
    """A record's fields except omit, in declaration order, each Fraction as its exact string."""
    return {name: str(v) if isinstance(v, Fraction) else v
            for name, v in record._asdict().items() if name != omit}


def build_analysis_report(
    tally: TallyTable,
    epsilon=None,
    delta=None,
    bell1964: Bell1964Result | None = None,
    input_path: str | None = None,
    input_sha256: str | None = None,
    seed: int | None = None,
) -> AnalysisReport:
    """Run the full analysis pipeline on a validated tally."""
    eps = as_exact(epsilon) if epsilon is not None else None
    # the three stages are read from their modules at each call, so a wrapper set
    # there after this module loaded (a tracer's) sees them
    return AnalysisReport(
        tally=tally,
        chsh=stats.chsh_statistic(tally),
        nosignalling=bounds.nosignalling_deltas(tally),
        bounds=bounds.bounds_report(tally, delta=delta, epsilon=eps),
        bell1964=bell1964,
        epsilon_requested=eps,
        metadata={
            "tool": "bellkit",
            "version": __version__,
            "input_path": input_path,
            "input_sha256": input_sha256,
            "seed": seed,
        },
    )
