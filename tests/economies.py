"""Hypothesis strategies over the domain of economies, shared by the tests that
check the paper's claims and the closed forms across it.

They map a hypothesis-controlled random.Random through the "domain" family of
tests/families.py, the sampler that compare_outputs.sh and census.py draw
with. hypothesis's random repeats values, so it draws equal piecewise
breakpoints or grid ends; a text that does not parse is rejected. An economy
that raises a GatekeepError has no claim to check; once it solves, the claim
must hold."""

import math

from hypothesis import strategies as st

from gatekeep.config import parse_config
from gatekeep.economy import Regime
from gatekeep.equilibrium import solve_equilibrium
from gatekeep.errors import GatekeepError

from families import economy


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _parsed(rng):
    try:
        return parse_config(economy("domain", rng))
    except GatekeepError:
        return None


_CONFIGS = st.randoms(use_true_random=False).map(_parsed).filter(lambda c: c is not None)
PRIMITIVES = _CONFIGS.map(lambda c: c.primitives)


def economies(max_rho=0.97):
    """(Primitives, Regime) pairs with rho in [0.05, max_rho]."""
    return _CONFIGS.filter(lambda c: c.rho <= max_rho).map(
        lambda c: (c.primitives, Regime(c.rho, c.schedule)))


def solved_or_none(prim, regime):
    """The economy's equilibrium, or None where it raises a GatekeepError."""
    try:
        return solve_equilibrium(prim, regime)
    except GatekeepError:
        return None
