"""bellkit: simulator and statistics toolkit for CHSH/Bell-test experiments.

The simulate names load on first use (PEP 562): only simulation needs
numpy, so importing bellkit, analyzing a tally and running the oracle do
not import it.
"""

__version__ = "0.1.0"

from .errors import (
    BellkitError,
    ConfigError,
    DomainError,
    EmptyCellError,
    EnumerationCapError,
    InvariantError,
    ParseError,
)
from .trials import (
    TallyTable,
    ThreeSettingTally,
    TrialRecord,
    load_tally,
    merge_tallies,
    parse_trial_line,
    read_trials,
    serialize_trial_line,
    tally_from_trials,
    write_tally,
)
from .stats import (
    Bell1964Result,
    ChshSummary,
    bell1964_statistic,
    chsh_exact,
    chsh_statistic,
    skew,
    uniform_prob_s,
)
from .bounds import (
    BoundsReport,
    MarginalDelta,
    NoSignallingReport,
    bounds_report,
    epsilon_floor,
    min_trials,
    nosignalling_deltas,
    required_skew,
    violation_possible,
)
from .oracle import (
    CounterexampleReport,
    enumerate_uniform_tallies,
    verify_necessary_conditions,
)
from .report import AnalysisReport, build_analysis_report

__all__ = [
    "__version__",
    "AnalysisReport",
    "Bell1964Result",
    "BellkitError",
    "BoundsReport",
    "CHSH_MAX_ANGLES",
    "ChshSummary",
    "ConfigError",
    "CounterexampleReport",
    "DomainError",
    "EmptyCellError",
    "EnumerationCapError",
    "ExperimentRun",
    "InvariantError",
    "MarginalDelta",
    "NoSignallingReport",
    "ParseError",
    "SimulationConfig",
    "TallyTable",
    "ThreeSettingTally",
    "TrialRecord",
    "analytic_correlation",
    "bell1964_statistic",
    "bounds_report",
    "build_analysis_report",
    "chsh_exact",
    "chsh_statistic",
    "enumerate_uniform_tallies",
    "epsilon_floor",
    "load_tally",
    "merge_tallies",
    "min_trials",
    "nosignalling_deltas",
    "parse_trial_line",
    "read_trials",
    "required_skew",
    "run_experiment",
    "serialize_trial_line",
    "skew",
    "tally_from_trials",
    "uniform_prob_s",
    "verify_necessary_conditions",
    "violation_possible",
    "write_tally",
]

_SIMULATE_NAMES = frozenset(
    {"CHSH_MAX_ANGLES", "ExperimentRun", "SimulationConfig", "analytic_correlation", "run_experiment"}
)


def __getattr__(name: str):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
