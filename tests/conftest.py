import pytest

from gatekeep import normal
from gatekeep.economy import PowerBoundedCost, Primitives, Regime
from gatekeep.equilibrium import solve_equilibrium
from gatekeep.welfare import compute_aggregates


@pytest.fixture(scope="session")
def fig3_primitives():
    return Primitives(sigma=2.0, f=0.15, f_n=0.005, delta=0.1, L=1.0)


@pytest.fixture(scope="session")
def fig3_schedule():
    return PowerBoundedCost(f_b0=3.0, kappa=2.0, alpha=8.0)


@pytest.fixture(scope="session")
def solved(fig3_primitives, fig3_schedule):
    """Cache of (rho -> (regime, solution, aggregates)) on the benchmark economy."""
    cache = {}

    def get(rho):
        if rho not in cache:
            regime = Regime(rho, fig3_schedule)
            eq = solve_equilibrium(fig3_primitives, regime)
            agg = compute_aggregates(fig3_primitives, regime, eq.cutoffs)
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
