"""Within-regime efficiency layer: planner cutoff, contracts, transfers.

Under CES the planner's marginal payoff from activating at log signal t
normalizes to expected lifetime profit minus the activation cost, so the
constrained-efficient cutoff solves the same indifference condition as the
market and the two coincide. The remaining operations decentralize arbitrary
cutoffs with budget-balanced transfers and trace welfare over per-activation
transfers (which is maximized at zero).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .economy import LogCutoffs, Primitives, Regime, expected_profit_given_signal
from .equilibrium import (
    BRACKET_BOUND,
    EquilibriumSolution,
    _brent_eval,
    _brent_root,
    _locus_fn,
    _root_decreasing,
    _solve_activation_intercept,
    solve_equilibrium,
)
from .errors import BracketFailureError, DomainError, InconsistentEquilibriumError
from .welfare import compute_aggregates, welfare_selection_burden
from .normal import std_normal_cdf
from .records import Record

_PLANNER_MARKET_TOL = 1e-8
_PIGOU_SCAN_STEP = 0.05
_PIGOU_SCAN_CELLS = int(round(2.0 * BRACKET_BOUND / _PIGOU_SCAN_STEP))


class PolicyBundle(Record, namedtuple("PolicyBundle", "theta_p_log s tau")):
    """Cutoff decentralization: per-activation transfer plus entry fee.

    Budget balance holds by construction: tau = s * P(t >= theta_p_log).
    """


class ContractPoint(Record, namedtuple("ContractPoint", "t b")):
    """Intermediation contract at log signal t: financier's profit share b."""


def planner_kernel(prim: Primitives, regime: Regime, p_star: float, t: float) -> float:
    """Marginal social value of activating at log signal t (CES normalization).

    Expected lifetime profit minus the activation cost; weakly increasing in
    t, zero exactly at the market activation cutoff.
    """
    pi_tilde = expected_profit_given_signal(prim, regime.rho, p_star, t)
    return pi_tilde / prim.delta - regime.f_b


def planner_cutoff(prim: Primitives, regime: Regime, eq: EquilibriumSolution) -> float:
    """Constrained planner's activation cutoff at the equilibrium p_star.

    Solved by an independent root find on the kernel; verifies that it
    coincides with the market cutoff to 1e-8 (they are the same indifference
    condition under CES).
    """
    p_star = eq.cutoffs.p_star
    kernel = lambda t: planner_kernel(prim, regime, p_star, t)
    # The kernel increases in t, so take the root of its negation, which
    # decreases; Brent's steps are unchanged by negating the residual.
    t_p, _, _ = _root_decreasing(lambda t: -kernel(t), 1e-12, "planner cutoff")
    if abs(t_p - eq.cutoffs.t_star) > _PLANNER_MARKET_TOL:
        raise InconsistentEquilibriumError(
            f"planner cutoff {t_p!r} deviates from market cutoff {eq.cutoffs.t_star!r}"
        )
    return t_p


def intermediation_schedule(
    prim: Primitives, regime: Regime, eq: EquilibriumSolution, t_grid
) -> list[ContractPoint]:
    """Competitive financiers' profit-share schedule b(t) on the activated set.

    b(t) = delta * f_b / pi_tilde(t): the share that exactly recovers the
    activation cost in expectation. Equals 1 at the cutoff, decreasing in t.
    """
    t_star = eq.cutoffs.t_star
    p_star = eq.cutoffs.p_star
    points = []
    for t in t_grid:
        if t < t_star - 1e-12:
            raise DomainError(
                f"contract undefined below the activation cutoff: t={t!r} < t*={t_star!r}"
            )
        pi_tilde = expected_profit_given_signal(prim, regime.rho, p_star, t)
        points.append(ContractPoint(t=t, b=prim.delta * regime.f_b / pi_tilde))
    return points


def decentralize_cutoff(
    prim: Primitives, regime: Regime, eq: EquilibriumSolution, t_p: float
) -> PolicyBundle:
    """Transfers implementing an arbitrary activation cutoff t_p.

    The per-activation transfer makes the type at t_p exactly indifferent;
    the entry fee claws back its expected value so free entry is preserved
    and the budget balances.
    """
    if not math.isfinite(t_p):
        raise DomainError(f"policy cutoff must be finite, got {t_p!r}")
    s = -planner_kernel(prim, regime, eq.cutoffs.p_star, t_p)
    tau = s * std_normal_cdf(-t_p)
    return PolicyBundle(theta_p_log=t_p, s=s, tau=tau)


def _transfer_cutoff(locus_residual, decreasing: bool, s: float) -> float:
    """The first sign change of the locus residual J on the scan grid, then Brent.

    The grid is t_i = -BRACKET_BOUND + i * _PIGOU_SCAN_STEP. Where J
    decreases, its ends must bracket, J(t_0) > 0 >= J(t_n), and bisecting the
    grid index finds the cell with r_lo * r_hi < 0 or r_hi == 0.0. Where J
    can turn upward, the scan in order from i = 0 stops at a cell with
    r_lo * r_hi < 0, or returns t_lo where r_lo == 0.0. Every probe goes
    through ``_brent_eval``, so a NaN raises ``DomainError``; with no cell,
    ``BracketFailureError``.
    """
    grid = lambda i: -BRACKET_BOUND + i * _PIGOU_SCAN_STEP
    if decreasing:
        lo, hi = 0, _PIGOU_SCAN_CELLS
        r_lo = _brent_eval(locus_residual, grid(lo))
        r_hi = _brent_eval(locus_residual, grid(hi))
        if r_lo > 0.0 >= r_hi:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                r_mid = _brent_eval(locus_residual, grid(mid))
                if r_mid > 0.0:
                    lo, r_lo = mid, r_mid
                else:
                    hi, r_hi = mid, r_mid
            if r_lo * r_hi < 0.0 or r_hi == 0.0:
                return _brent_root(locus_residual, grid(lo), r_lo, grid(hi), r_hi, 1e-12)[0]
    else:
        t_lo, r_lo = grid(0), _brent_eval(locus_residual, grid(0))
        for i in range(1, _PIGOU_SCAN_CELLS + 1):
            t_hi = grid(i)
            r_hi = _brent_eval(locus_residual, t_hi)
            if r_lo == 0.0:
                return t_lo
            if r_lo * r_hi < 0.0:
                return _brent_root(locus_residual, t_lo, r_lo, t_hi, r_hi, 1e-12)[0]
            t_lo, r_lo = t_hi, r_hi
    raise BracketFailureError(
        f"free entry admits no cutoff within [-{BRACKET_BOUND}, {BRACKET_BOUND}] "
        f"under transfer s={s!r}"
    )


def pigouvian_welfare(prim: Primitives, regime: Regime, s: float) -> float:
    """Equilibrium welfare under a per-activation transfer s.

    The transfer shifts the activation condition to an effective cost f_b - s,
    which the activation stage refuses with ``DomainError`` unless positive; the
    matching entry fee restores free entry at the original resource cost, so the
    free-entry residual keeps the true f_b. Welfare is the selection-over-burden form.
    """
    if s == 0.0:
        # The zero-transfer system is the baseline system; reuse the monotone
        # solver so the two paths agree exactly.
        cutoffs = solve_equilibrium(prim, regime).cutoffs
    else:
        rho = regime.rho
        a_s, _, r_a = _solve_activation_intercept(prim, rho, regime.f_b - s)
        # Along the locus J'(t) = c phi(t) - rho k exp(log S - k p*) with
        # c = delta s / f - r_a, so for c <= 0 (every s < 0) J strictly
        # decreases. For c > 0, J can turn upward, so the scan runs in order.
        decreasing = prim.delta * s / prim.f - r_a <= 0.0
        t_star = _transfer_cutoff(_locus_fn(prim, regime, a_s), decreasing, s)
        cutoffs = LogCutoffs(t_star, rho * t_star + a_s, a_s)
    agg = compute_aggregates(prim, regime, cutoffs)
    return welfare_selection_burden(prim, agg.s_term, agg.b_term)
