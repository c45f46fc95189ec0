"""Hypothesis strategies over a domain of economies, shared by the tests that
check the paper's claims and the closed forms across it: sigma 1.2-8, f
1e-3-10, f_n 1e-5-1, delta 0.01-0.5, every schedule kind, rho 0.05-0.97. An
economy that raises a GatekeepError has no claim to check; once it solves,
the claim must hold."""

import math

from hypothesis import strategies as st

from gatekeep.economy import (
    ConstantCost,
    HyperbolicCost,
    PiecewiseLinearCost,
    PowerBoundedCost,
    Primitives,
    Regime,
)
from gatekeep.equilibrium import solve_equilibrium
from gatekeep.errors import GatekeepError


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


SCALE = log_uniform(1e-3, 10.0)
SCHEDULES = st.one_of(
    st.builds(ConstantCost, SCALE),
    st.builds(PowerBoundedCost, SCALE, st.one_of(st.just(0.0), SCALE), SCALE),
    st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2, unique=True).flatmap(
        lambda rhos: st.lists(SCALE, min_size=2, max_size=2).map(
            lambda fs: PiecewiseLinearCost(*sorted(rhos), *sorted(fs)))),
    st.builds(HyperbolicCost, SCALE),
)
PRIMITIVES = st.builds(Primitives, st.floats(1.2, 8.0), SCALE, log_uniform(1e-5, 1.0),
                       st.floats(0.01, 0.5))


def economies(max_rho=0.97):
    """(Primitives, Regime) pairs with rho in [0.05, max_rho]."""
    return st.tuples(PRIMITIVES, st.builds(Regime, st.floats(0.05, max_rho), SCHEDULES))


def solved_or_none(prim, regime):
    """The economy's equilibrium, or None where it raises a GatekeepError."""
    try:
        return solve_equilibrium(prim, regime)
    except GatekeepError:
        return None
