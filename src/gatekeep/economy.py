"""Domain types and closed-form building blocks of the screening economy.

Entrepreneurs pay an experimentation cost ``f_n`` to observe a noisy log
signal ``t`` of their log productivity ``p`` (standard bivariate normal with
correlation ``rho``), then pay an activation cost ``f_b(rho)`` to enter.
Operating firms face CES demand with elasticity ``sigma`` and a per-period
fixed requirement ``f``; an exogenous shock kills firms at rate ``delta``.

All solver-facing computation lives in log space ``(t, p)``; exponentiation
to levels happens only at presentation boundaries.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .errors import DomainError, NearSingularCorrelationError
from .normal import (
    NEAR_SINGULAR_RHO,
    exp_tilt,
    joint_tail_masses,
    log_std_normal_cdf,
    std_normal_cdf,
)
from .records import Record

# Assumption-level open interval for rho, clamped at machine-sensible bounds.
RHO_MIN = 1e-6
RHO_MAX = 1.0 - 1e-6


def _check_interior_rho(rho: float) -> None:
    if not 0.0 < rho:
        raise DomainError(f"precision rho must be positive, got {rho!r}")
    if rho >= NEAR_SINGULAR_RHO:
        raise NearSingularCorrelationError(
            f"rho = {rho!r} is numerically indistinguishable from 1"
        )


class Primitives(Record, namedtuple("Primitives", "sigma f f_n delta L", defaults=(1.0,))):
    """Deep parameters of the economy.

    sigma : elasticity of substitution, > 1
    f     : per-period operating fixed requirement (labor units), > 0
    f_n   : experimentation cost (labor units), > 0
    delta : effective discount / exit rate per period, in (0, 1)
    L     : total labor endowment, > 0 (normalized to 1 by default)
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.sigma > 1.0:
            raise DomainError(f"sigma must exceed 1, got {self.sigma!r}")
        if not self.f > 0.0:
            raise DomainError(f"f must be positive, got {self.f!r}")
        if not self.f_n > 0.0:
            raise DomainError(f"f_n must be positive, got {self.f_n!r}")
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not self.L > 0.0:
            raise DomainError(f"L must be positive, got {self.L!r}")
        return self

    @property
    def k(self) -> float:
        """Revenue/profit curvature sigma - 1, the tilt exponent everywhere."""
        return self.sigma - 1.0


# An activation-cost schedule f_b(rho) is continuous, weakly increasing and
# positive; each kind below evaluates it with ``cost(rho)`` on (0, 1).
def _check_schedule_rho(rho: float) -> None:
    if not 0.0 < rho < 1.0:
        raise DomainError(f"cost schedules are defined on (0, 1), got rho = {rho!r}")


class ConstantCost(Record, namedtuple("ConstantCost", "f_b")):
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.f_b > 0.0:
            raise DomainError(f"f_b must be positive, got {self.f_b!r}")
        return self

    def cost(self, rho: float) -> float:
        _check_schedule_rho(rho)
        return self.f_b


class PowerBoundedCost(Record, namedtuple("PowerBoundedCost", "f_b0 kappa alpha")):
    """f_b(rho) = f_b0 * (1 + kappa * rho**alpha), bounded by f_b0 * (1 + kappa)."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.f_b0 > 0.0:
            raise DomainError(f"f_b0 must be positive, got {self.f_b0!r}")
        if self.kappa < 0.0:
            raise DomainError(f"kappa must be nonnegative, got {self.kappa!r}")
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha!r}")
        return self

    def cost(self, rho: float) -> float:
        _check_schedule_rho(rho)
        return self.f_b0 * (1.0 + self.kappa * rho**self.alpha)


class PiecewiseLinearCost(
    Record, namedtuple("PiecewiseLinearCost", "rho_low rho_high f_low f_high")
):
    """Flat at f_low below rho_low, linear up to f_high at rho_high, flat after."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.rho_low < self.rho_high < 1.0:
            raise DomainError(
                f"need 0 < rho_low < rho_high < 1, got ({self.rho_low!r}, {self.rho_high!r})"
            )
        if not 0.0 < self.f_low <= self.f_high:
            raise DomainError(
                f"need 0 < f_low <= f_high, got ({self.f_low!r}, {self.f_high!r})"
            )
        return self

    def cost(self, rho: float) -> float:
        _check_schedule_rho(rho)
        if rho <= self.rho_low:
            return self.f_low
        if rho >= self.rho_high:
            return self.f_high
        w = (rho - self.rho_low) / (self.rho_high - self.rho_low)
        return self.f_low + (self.f_high - self.f_low) * w


class HyperbolicCost(Record, namedtuple("HyperbolicCost", "f_b0")):
    """f_b(rho) = f_b0 / (1 - rho); diverges as rho -> 1."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.f_b0 > 0.0:
            raise DomainError(f"f_b0 must be positive, got {self.f_b0!r}")
        return self

    def cost(self, rho: float) -> float:
        _check_schedule_rho(rho)
        return self.f_b0 / (1.0 - rho)


class Regime(Record, namedtuple("Regime", "rho schedule")):
    """A screening regime: precision rho plus its activation-cost schedule.

    rho is clamped into [RHO_MIN, RHO_MAX] at construction; f_b is
    evaluated once per regime.
    """

    def __new__(cls, rho, schedule):
        if not 0.0 < rho < 1.0:
            raise DomainError(f"precision rho must lie in (0, 1), got {rho!r}")
        return tuple.__new__(cls, (min(max(rho, RHO_MIN), RHO_MAX), schedule))

    @cached_property
    def f_b(self) -> float:
        return self.schedule.cost(self.rho)


class LogCutoffs(Record, namedtuple("LogCutoffs", "t_star p_star a")):
    """Equilibrium cutoff pair in log space, with the activation intercept.

    t_star : log signal cutoff
    p_star : log productivity cutoff
    a      : activation-line intercept, p_star = rho * t_star + a
    """


def _profit_moment(k: float, x: float, s2: float, what: str) -> float:
    """E[(exp(k X) - 1) 1{X >= 0}] for X ~ N(x, s2); where its lead exceeds
    the double range, ``TiltOverflowError`` names ``what``."""
    sd = math.sqrt(s2)
    lead = exp_tilt(k * x + 0.5 * k * k * s2 + log_std_normal_cdf((x + k * s2) / sd), what)
    return lead - std_normal_cdf(x / sd)


def expected_profit_given_signal(
    prim: Primitives, rho: float, p_star: float, t: float
) -> float:
    """Expected per-period profit of an activated firm with log signal t.

    Conditional on t, log productivity is N(rho * t, 1 - rho^2); the firm
    operates only above the cutoff p_star.  Depends on (t, p_star) only
    through the index rho * t - p_star, and is weakly increasing in t. It is
    0.0 at p_star = +inf; at p_star = -inf it raises ``TiltOverflowError``.
    """
    _check_interior_rho(rho)
    return prim.f * _profit_moment(prim.k, rho * t - p_star, 1.0 - rho * rho,
                                   "expected profit given signal")


def expected_joint_profit(prim: Primitives, rho: float, p_star: float, t_star: float) -> float:
    """Expected flow profit integrated over activated signals, at (p_star, t_star).

    Equals the integral of ``expected_profit_given_signal`` against the
    signal density above t_star; evaluated via the tilted bivariate moment
    S = E[exp(k p) 1{p >= p_star, t >= t_star}] as
    f * (exp(-k p_star) * S - P(p >= p_star, t >= t_star)), with both masses
    from one ``joint_tail_masses`` pass.
    """
    _check_interior_rho(rho)
    k = prim.k
    log_s, p_phi = joint_tail_masses(k, p_star, t_star, rho)
    lead = exp_tilt(log_s - k * p_star, "expected joint profit")
    return prim.f * (lead - p_phi)
