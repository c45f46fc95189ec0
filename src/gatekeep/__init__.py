"""Equilibrium, welfare, and policy computations for staged-entry screening economies."""

__version__ = "0.1.0"

from .economy import (
    ConstantCost,
    CostSchedule,
    HyperbolicCost,
    LogCutoffs,
    PiecewiseLinearCost,
    PowerBoundedCost,
    Primitives,
    Regime,
    expected_joint_profit,
    expected_profit_given_signal,
    flow_profit,
    flow_revenue,
)
from .equilibrium import (
    EquilibriumSolution,
    MelitzLimit,
    ac_residual,
    fe_residual,
    melitz_limit_perfect,
    melitz_limit_zero,
    solve_ac_intercept,
    solve_equilibrium,
)
from .errors import (
    BracketFailureError,
    DomainError,
    GatekeepError,
    InconsistentEquilibriumError,
    IterationCapError,
    KinkError,
    NearSingularCorrelationError,
    ParseError,
    TiltOverflowError,
    ToleranceNotMetError,
    ValidationError,
)
from .normal import (
    bvn_cdf,
    std_normal_cdf,
    std_normal_pdf,
    tilted_upper_tail,
    tilted_upper_tail2,
)
from .policy import (
    ContractPoint,
    PolicyBundle,
    decentralize_cutoff,
    intermediation_schedule,
    pigouvian_welfare,
    planner_cutoff,
    planner_kernel,
)
from .welfare import (
    Aggregates,
    DeclineCertificate,
    LogWelfareDerivative,
    OptimalPrecision,
    SweepRecord,
    bounded_decline_certificate,
    compute_aggregates,
    find_optimal_precision,
    log_welfare_derivative,
    sweep_records,
    welfare_selection_burden,
)
from .config import GridSpec, RunConfig, config_hash, format_config, parse_config

#: names re-exported from ``oracle``, which needs numpy and scipy; it is
#: imported on first access so the solver paths load only the standard library
_ORACLE_NAMES = frozenset({
    "McEstimate",
    "estimate_aggregates",
    "estimate_profit_given_signal",
    "quadrature_reference",
    "sample_log_population",
    "simulate_operating_mass",
    "z_score",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
