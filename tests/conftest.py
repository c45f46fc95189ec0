import pytest

from gatekeep import normal
from gatekeep import PowerBoundedCost, Primitives, Regime, compute_aggregates, solve_equilibrium


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
            agg = compute_aggregates(fig3_primitives, regime, eq)
            cache[rho] = (regime, eq, agg)
        return cache[rho]

    return get


@pytest.fixture
def genz_passes(monkeypatch):
    """Counts of single-point and fused Genz passes, from an empty pair table."""
    counts = {"single": 0, "pair": 0}
    for name, key in (("_bvn_upper", "single"), ("_bvn_upper_pair", "pair")):
        def counted(*args, fn=getattr(normal, name), key=key):
            counts[key] += 1
            return fn(*args)

        monkeypatch.setattr(normal, name, counted)
    normal.joint_tail_masses.cache_clear()
    yield counts
    normal.joint_tail_masses.cache_clear()
