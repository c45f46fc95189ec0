"""The economies the tests share: hypothesis strategies over the domain of
economies, and the benchmark calibration.

Each sampled economy is one seed: hypothesis draws a 64-bit integer, and a
random.Random seeded with it draws a config text from a family of
tests/families.py, the sampler that compare_outputs.sh and census.py draw
with. Every text of a family parses, so no example is filtered out, and a
thousand seeds give a thousand distinct texts (test_config.py pins both). An
economy that raises a GatekeepError has no claim to check; once it solves,
the claim must hold.

BENCHMARK is benchmark.cfg, parsed: the calibration of the paper's figures,
of the golden values and of the benchmark."""

import math
import random
from pathlib import Path

from hypothesis import strategies as st

from gatekeep.config import parse_config
from gatekeep.economy import Regime
from gatekeep.equilibrium import solve_equilibrium
from gatekeep.errors import GatekeepError

from families import economy

BENCHMARK = parse_config((Path(__file__).parents[1] / "benchmark.cfg").read_text(encoding="utf-8"))


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def seeded(family):
    """Config texts of the family, each drawn from a random.Random of one seed."""
    return st.integers(0, 2**64 - 1).map(lambda seed: economy(family, random.Random(seed)))


_CONFIGS = seeded("domain").map(parse_config)
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
