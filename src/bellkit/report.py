"""Self-contained analysis reports: every number recomputable from the tally."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .bounds import BoundsReport, NoSignallingReport, as_exact, bounds_report, nosignalling_deltas
from .stats import Bell1964Result, ChshSummary, chsh_statistic
from .trials import TallyTable


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer derives from one tally, plus provenance."""

    tally: TallyTable
    chsh: ChshSummary
    nosignalling: NoSignallingReport
    bounds: BoundsReport
    bell1964: Bell1964Result | None
    epsilon_requested: Fraction | None
    metadata: dict

    def to_dict(self) -> dict:
        chsh = self.chsh
        ns = self.nosignalling
        b = self.bounds
        chsh_section = {
            "e00": chsh.e00,
            "e01": chsh.e01,
            "e10": chsh.e10,
            "e11": chsh.e11,
            "s": chsh.s,
            "s_exact": str(chsh.s_exact),
            "sigma": chsh.sigma,
            "n_max": chsh.n_max,
            "n_min": chsh.n_min,
            "s_prime": chsh.s_prime,
            "s_prime_max": chsh.s_prime_max,
            "s_prime_min": chsh.s_prime_min,
            "violated": chsh.violated,
            "violation_magnitude": chsh.violation_magnitude,
        }
        ns_section = {
            "epsilon_achieved": ns.epsilon_achieved,
            "epsilon_achieved_exact": str(ns.epsilon_achieved_exact),
            "deltas": [
                {
                    "alpha": d.alpha,
                    "beta": d.beta,
                    "value": d.value,
                    "value_exact": str(d.value_exact),
                    "physical": d.physical,
                }
                for d in ns.deltas
            ],
        }
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
        bell_section = None
        if self.bell1964 is not None:
            bell_section = {
                "corr_form": self.bell1964.corr_form,
                "fraction_form": self.bell1964.fraction_form,
                "corr_form_exact": str(self.bell1964.corr_form_exact),
                "fraction_form_exact": str(self.bell1964.fraction_form_exact),
                "violated": self.bell1964.violated,
            }
        return {
            "tally": self.tally.to_dict(),
            "chsh": chsh_section,
            "nosignalling": ns_section,
            "bounds": bounds_section,
            "bell1964": bell_section,
            "metadata": self.metadata,
        }


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
    return AnalysisReport(
        tally=tally,
        chsh=chsh_statistic(tally),
        nosignalling=nosignalling_deltas(tally),
        bounds=bounds_report(tally, delta=delta, epsilon=epsilon),
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
