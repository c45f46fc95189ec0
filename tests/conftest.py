import pytest

from gatekeep import normal
from gatekeep.economy import Regime
from gatekeep.equilibrium import solve_equilibrium
from gatekeep.welfare import compute_aggregates

from economies import BENCHMARK


@pytest.fixture(scope="session")
def solved():
    """Cache of (rho -> (regime, solution, aggregates)) on the benchmark economy."""
    cache = {}

    def get(rho):
        if rho not in cache:
            regime = Regime(rho, BENCHMARK.schedule)
            eq = solve_equilibrium(BENCHMARK.primitives, regime)
            agg = compute_aggregates(BENCHMARK.primitives, regime, eq.cutoffs)
            cache[rho] = (regime, eq, agg)
        return cache[rho]

    return get


@pytest.fixture
def genz_passes(monkeypatch):
    """Counts of Genz passes.

    ``_bvn_upper_pair`` is the one Genz rule, so a stray ``bvn_cdf`` call
    shows up as one more pair pass.
    """
    counts = {"pair": 0}
    fn = normal._bvn_upper_pair

    def counted(*args):
        counts["pair"] += 1
        return fn(*args)

    monkeypatch.setattr(normal, "_bvn_upper_pair", counted)
    return counts
