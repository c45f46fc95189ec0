import math

import pytest
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
    expected_joint_profit,
    expected_profit_given_signal,
)
from gatekeep.errors import DomainError, NearSingularCorrelationError, TiltOverflowError
from gatekeep.normal import SQRT_2PI, log_std_normal_cdf, std_normal_cdf
from golden_values import PI_TILDE_QUAD

PRIM = Primitives(sigma=2.0, f=0.15, f_n=0.005, delta=0.1)


def test_primitives_validation():
    with pytest.raises(DomainError, match="sigma must exceed 1"):
        Primitives(sigma=1.0, f=0.15, f_n=0.005, delta=0.1)
    with pytest.raises(DomainError):
        Primitives(sigma=2.0, f=-1.0, f_n=0.005, delta=0.1)
    with pytest.raises(DomainError):
        Primitives(sigma=2.0, f=0.15, f_n=0.005, delta=1.5)
    with pytest.raises(DomainError, match=r"^f_n must be positive, got 0\.0$"):
        Primitives(sigma=2.0, f=0.15, f_n=0.0, delta=0.1)
    with pytest.raises(DomainError, match=r"^L must be positive, got -1\.0$"):
        Primitives(sigma=2.0, f=0.15, f_n=0.005, delta=0.1, L=-1.0)
    assert PRIM.L == 1.0
    assert PRIM.k == 1.0


def test_power_bounded_schedule_limits():
    sched = PowerBoundedCost(3.0, 2.0, 8.0)
    assert sched.cost(1e-9) == pytest.approx(3.0, abs=1e-12)
    assert sched.cost(1.0 - 1e-9) == pytest.approx(9.0, abs=1e-6)


def test_piecewise_linear_midpoint():
    sched = PiecewiseLinearCost(0.3, 0.9, 1.0, 5.0)
    assert sched.cost(0.6) == pytest.approx(3.0, abs=1e-14)
    assert sched.cost(0.1) == 1.0
    assert sched.cost(0.95) == 5.0


def test_hyperbolic_divergence():
    sched = HyperbolicCost(3.0)
    assert sched.cost(0.5) == pytest.approx(6.0)
    assert sched.cost(1.0 - 1e-8) > 1e8


@pytest.mark.parametrize(
    "sched",
    [
        ConstantCost(2.0),
        PowerBoundedCost(3.0, 2.0, 8.0),
        PiecewiseLinearCost(0.3, 0.9, 1.0, 5.0),
        HyperbolicCost(0.5),
    ],
)
def test_schedules_weakly_increasing_and_positive(sched):
    grid = [0.01 * i for i in range(1, 100)]
    vals = [sched.cost(rho) for rho in grid]
    assert all(v > 0.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_schedule_rejects_rho_outside_unit_interval():
    sched = ConstantCost(1.0)
    for rho in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(DomainError):
            sched.cost(rho)


def test_schedule_parameter_validation():
    with pytest.raises(DomainError):
        ConstantCost(0.0)
    with pytest.raises(DomainError):
        PowerBoundedCost(-1.0, 2.0, 8.0)
    with pytest.raises(DomainError):
        PiecewiseLinearCost(0.9, 0.3, 1.0, 5.0)
    with pytest.raises(DomainError):
        PiecewiseLinearCost(0.3, 0.9, 5.0, 1.0)
    with pytest.raises(DomainError, match=r"^kappa must be nonnegative, got -0\.5$"):
        PowerBoundedCost(3.0, -0.5, 8.0)
    with pytest.raises(DomainError, match=r"^alpha must be positive, got 0\.0$"):
        PowerBoundedCost(3.0, 2.0, 0.0)
    with pytest.raises(DomainError, match=r"^f_b0 must be positive, got 0\.0$"):
        HyperbolicCost(0.0)


def test_regime_clamps_rho():
    sched = ConstantCost(1.0)
    assert Regime(1e-9, sched).rho == RHO_MIN
    assert Regime(1.0 - 1e-9, sched).rho == RHO_MAX
    assert Regime(0.5, sched).rho == 0.5
    with pytest.raises(DomainError):
        Regime(0.0, sched)
    with pytest.raises(DomainError):
        Regime(1.0, sched)
    assert Regime(0.5, sched).f_b == 1.0


def test_expected_profit_vanishes_without_survivors():
    assert expected_profit_given_signal(PRIM, 0.5, math.inf, 1.0) == 0.0
    assert expected_profit_given_signal(PRIM, 0.5, 200.0, 1.0) == 0.0


def test_expected_profit_at_infinite_cutoffs():
    # one formula at both ends: no survivor at +inf, and at -inf the lead
    # exp(+inf) leaves the double range, as in expected_joint_profit
    assert expected_profit_given_signal(PRIM, 0.5, math.inf, 1.0) == 0.0
    with pytest.raises(TiltOverflowError, match="^expected profit given signal exceeds"):
        expected_profit_given_signal(PRIM, 0.5, -math.inf, 1.0)
    with pytest.raises(TiltOverflowError, match="^expected joint profit exceeds"):
        expected_joint_profit(PRIM, 0.5, -math.inf, 1.0)


def test_expected_profit_depends_only_on_index():
    rho = 0.6
    base = expected_profit_given_signal(PRIM, rho, 0.3, 1.1)
    for shift in (-1.0, 0.5, 2.0):
        moved = expected_profit_given_signal(PRIM, rho, 0.3 + shift, 1.1 + shift / rho)
        assert moved == pytest.approx(base, rel=1e-12)


def test_expected_profit_against_quadrature_oracle():
    got = expected_profit_given_signal(PRIM, 0.89, 0.5, 1.0)
    assert got == pytest.approx(PI_TILDE_QUAD, abs=1e-10)


def test_expected_profit_monotone_in_signal():
    vals = [expected_profit_given_signal(PRIM, 0.7, 0.4, t) for t in (-3.0, -1.0, 0.0, 1.5, 4.0)]
    assert all(v >= 0.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_survival_probability_monotone_in_signal():
    # Pr(p >= p* | t) rises with the signal
    rho, p_star = 0.7, 0.4
    sd = math.sqrt(1.0 - rho * rho)
    probs = [std_normal_cdf(-(p_star - rho * t) / sd) for t in (-2.0, 0.0, 2.0)]
    assert probs[0] < probs[1] < probs[2]


def test_expected_profit_rejects_bad_rho():
    with pytest.raises(DomainError):
        expected_profit_given_signal(PRIM, -0.2, 0.0, 0.0)
    with pytest.raises(NearSingularCorrelationError):
        expected_profit_given_signal(PRIM, 1.0 - 1e-13, 0.0, 0.0)


def test_joint_profit_empty_activation_set():
    assert expected_joint_profit(PRIM, 0.5, 0.5, math.inf) == 0.0


def test_joint_profit_unconditional_matches_univariate_form():
    # with the signal cutoff far below support, only the productivity cutoff binds
    k, p_star = PRIM.k, 0.4
    got = expected_joint_profit(PRIM, 0.5, p_star, -40.0)
    want = PRIM.f * (
        math.exp(0.5 * k * k - k * p_star + log_std_normal_cdf(k - p_star))
        - std_normal_cdf(-p_star)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_joint_profit_decreasing_in_p_star():
    vals = [expected_joint_profit(PRIM, 0.5, p, 0.3) for p in (-1.0, 0.0, 1.0, 2.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@given(
    k=st.floats(min_value=0.1, max_value=5.0),
    x0=st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=80)
def test_exponential_tilting_cancellation(k, x0):
    # exp(k^2/2 + k x0) * phi(x0 + k) = phi(x0), the cancellation behind dH/dp*
    pdf = lambda x: math.exp(-0.5 * x * x) / SQRT_2PI
    lhs = math.exp(0.5 * k * k + k * x0) * pdf(x0 + k)
    assert lhs == pytest.approx(pdf(x0), rel=1e-11)


def test_regime_evaluates_its_cost_once():
    calls = []

    class Counted(ConstantCost):
        def cost(self, rho):
            calls.append(rho)
            return super().cost(rho)

    regime = Regime(0.5, Counted(2.0))
    assert [regime.f_b for _ in range(3)] == [2.0, 2.0, 2.0]
    assert calls == [0.5]

