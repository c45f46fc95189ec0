"""Equilibrium, welfare, and policy computations for staged-entry screening economies."""

__version__ = "0.1.0"

from .economy import (
    ConstantCost,
    HyperbolicCost,
    LogCutoffs,
    PiecewiseLinearCost,
    PowerBoundedCost,
    Primitives,
    Regime,
    expected_joint_profit,
    expected_profit_given_signal,
)
from .equilibrium import (
    EquilibriumSolution,
    MelitzLimit,
    fe_residual,
    melitz_limit_perfect,
    melitz_limit_zero,
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
from .normal import bvn_cdf, std_normal_cdf
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

#: names re-exported from the module that defines them, which is imported on
#: their first access: ``oracle`` needs numpy, so the solver paths
#: load only the standard library, and only the pigouvian mode needs ``policy``
_LAZY = {
    "McEstimate": "oracle",
    "estimate_aggregates": "oracle",
    "estimate_profit_given_signal": "oracle",
    "quadrature_reference": "oracle",
    "sample_log_population": "oracle",
    "simulate_operating_mass": "oracle",
    "z_score": "oracle",
    "ContractPoint": "policy",
    "PolicyBundle": "policy",
    "decentralize_cutoff": "policy",
    "intermediation_schedule": "policy",
    "pigouvian_welfare": "policy",
    "planner_cutoff": "policy",
    "planner_kernel": "policy",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
