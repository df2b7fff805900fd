"""bellkit: simulator and statistics toolkit for CHSH/Bell-test experiments.

Every public name loads on first use (PEP 562), from the module that
_EXPORTS names for it: importing bellkit loads no submodule, and each
command compiles only the modules it runs. Only simulation needs numpy,
so analyzing a tally and running the oracle do not import it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("BellkitError", "ConfigError", "DomainError", "EmptyCellError",
               "EnumerationCapError", "InvariantError", "ParseError"),
    "trials": ("TallyTable", "ThreeSettingTally", "TrialRecord", "load_tally", "merge_tallies",
               "parse_trial_line", "read_trials", "serialize_trial_line", "tally_from_trials",
               "write_tally"),
    "stats": ("Bell1964Result", "ChshSummary", "bell1964_statistic", "chsh_exact",
              "chsh_statistic", "skew", "uniform_prob_s"),
    "bounds": ("BoundsReport", "MarginalDelta", "NoSignallingReport", "bounds_report",
               "epsilon_floor", "min_trials", "nosignalling_deltas", "required_skew",
               "violation_possible"),
    "oracle": ("CounterexampleReport", "enumerate_uniform_tallies", "verify_necessary_conditions"),
    "report": ("AnalysisReport", "build_analysis_report"),
    "simulate": ("CHSH_MAX_ANGLES", "ExperimentRun", "SimulationConfig", "analytic_correlation",
                 "run_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
