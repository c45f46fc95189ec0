"""Every input in the benchmark's parameter box either solves or raises a GatekeepError."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gatekeep.economy import (
    RHO_MAX,
    RHO_MIN,
    ConstantCost,
    HyperbolicCost,
    PiecewiseLinearCost,
    PowerBoundedCost,
    Primitives,
    Regime,
)
from gatekeep.equilibrium import solve_equilibrium
from gatekeep.errors import GatekeepError
from gatekeep.normal import bvn_cdf
from gatekeep.welfare import compute_aggregates

# The parameter box of the solve_sweep benchmark workload (perfbench/workloads.py):
# the neighbourhood of the paper's calibration, for each schedule kind.
PRIMITIVE_BOX = {"sigma": (1.5, 2.5), "f": (0.10, 0.20), "f_n": (0.003, 0.008), "delta": (0.07, 0.13)}
SCHEDULE_BOXES = {
    ConstantCost: {"f_b": (2.0, 4.0)},
    PowerBoundedCost: {"f_b0": (2.0, 4.0), "kappa": (1.0, 3.0), "alpha": (4.0, 12.0)},
    PiecewiseLinearCost: {
        "rho_low": (0.2, 0.4), "rho_high": (0.8, 0.95), "f_low": (0.7, 1.3), "f_high": (4.0, 6.0),
    },
    HyperbolicCost: {"f_b0": (0.5, 3.0)},
}


def _builds(cls, box):
    return st.builds(cls, **{key: st.floats(lo, hi) for key, (lo, hi) in box.items()})


@given(
    prim=_builds(Primitives, PRIMITIVE_BOX),
    schedule=st.one_of(*(_builds(cls, box) for cls, box in SCHEDULE_BOXES.items())),
    rho=st.floats(min_value=RHO_MIN, max_value=RHO_MAX),
)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_solve_returns_or_raises_gatekeep_error(prim, schedule, rho):
    regime = Regime(rho, schedule)
    try:
        eq = solve_equilibrium(prim, regime)
        agg = compute_aggregates(prim, regime, eq.cutoffs)
    except GatekeepError:
        return
    # returning means the residual, stationarity and welfare-identity checks passed
    assert not math.isnan(eq.cutoffs.t_star) and not math.isnan(eq.cutoffs.p_star)
    assert math.isfinite(agg.welfare) and agg.welfare > 0.0


# correlations in both branches of bvn_cdf, with the near-singular edges
BVN_RHO = st.one_of(
    st.floats(-0.925, 0.925, exclude_min=True, exclude_max=True),
    st.floats(0.925, 1.0),
    st.floats(-1.0, -0.925),
)


@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    y=st.floats(allow_nan=False, allow_infinity=False),
    rho=BVN_RHO,
)
@settings(max_examples=500, derandomize=True, deadline=None)
def test_bvn_cdf_returns_a_probability_or_raises_gatekeep_error(x, y, rho):
    try:
        value = bvn_cdf(x, y, rho)
    except GatekeepError:
        return
    assert 0.0 <= value <= 1.0
