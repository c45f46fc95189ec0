"""Two-stage equilibrium solver.

The equilibrium cutoff pair solves a triangular system: the Activation
Condition pins down the intercept ``a`` of the log-linear activation locus
``p* = rho t* + a`` through a strictly decreasing one-dimensional residual,
and along that locus the Free-Entry residual ``J(t) = H(rho t + a, t)`` is
strictly decreasing in ``t``, so each stage is one call to
``_root_decreasing``: a geometric bracket expansion from 0 whose endpoint
residuals seed Brent, so no point is evaluated twice. Both root finders
return the residual Brent holds at the root along with the root, so the
residual reported at a solution is the value computed there, not a second
evaluation. Each free-entry residual takes both of its Genz masses from one
``normal.joint_tail_masses`` pass; the activation residual and the limit
economies' residual share one truncated profit moment,
``economy._profit_moment``.

The root finder is an in-house, pure-Python Brent's method (Brent 1973,
*Algorithms for Minimization without Derivatives*, ch. 4). It is a line-by-line
port of ``brentq.c`` from SciPy (BSD-licensed), with its ``rtol = 4 eps`` and
100-iteration cap, so roots and iteration counts equal
``scipy.optimize.brentq``'s bit for bit, and the solver needs only the
standard library.

Also provides the two degenerate-information limit economies (zero precision
and the perfect-information thought experiment), which are separate 1-D
solves because they live outside the maintained precision domain.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .economy import (LogCutoffs, Primitives, Regime, _profit_moment, expected_joint_profit,
                      expected_profit_given_signal)
from .errors import BracketFailureError, DomainError, InconsistentEquilibriumError, IterationCapError
from .normal import std_normal_cdf
from .records import Record

#: log-space window beyond which tail probabilities underflow; treated as
#: parameter pathology rather than searched further
BRACKET_BOUND = 50.0

AC_RESIDUAL_TOL = 1e-12
FE_RESIDUAL_TOL = 1e-10
STATIONARITY_TOL = 1e-6
_STATIONARITY_STEP = 1e-5

#: Brent's relative tolerance and iteration cap (scipy.optimize.brentq's defaults)
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


class EquilibriumSolution(Record, namedtuple(
    "EquilibriumSolution", "cutoffs ac_residual fe_residual fe_stationarity iterations"
)):
    """Solved cutoffs plus the diagnostics that certify them.

    fe_stationarity is the central-difference derivative of the free-entry
    residual in the signal cutoff at the solution; the equilibrium sits at
    the peak of the free-entry locus, so it must be ~0.
    iterations counts Brent iterations for the (activation, free-entry)
    stages.
    """


def _brent_eval(fn, x: float) -> float:
    fx = fn(x)
    if math.isnan(fx):
        raise DomainError(f"root finder: residual is NaN at x={x!r}")
    return fx


def _brent_root(fn, xpre: float, fpre: float, xcur: float, fcur: float, xtol: float):
    """Root of fn between xpre and xcur by Brent's method.

    fpre and fcur are fn's values at the two ends, already computed by the
    caller. Converges when the bracket half-width falls below
    (xtol + 4 eps |x|) / 2. Returns (root, iterations, fn(root)), the last
    being the value Brent already holds, sign of zero included.
    """
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre, 0, fpre
    if fcur == 0.0:
        return xcur, 0, fcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketFailureError(f"root finder: no sign change on [{xpre!r}, {xcur!r}]")
    for iterations in range(1, _BRENT_MAXITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic extrapolation through the three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # where the denominator underflows to 0, C's quotient is inf
                # or NaN and fails the step test below, so Brent bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom != 0.0 else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # accept the interpolated step; otherwise bisect
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _brent_eval(fn, xcur)
    raise IterationCapError(
        f"root finder: no convergence after {_BRENT_MAXITER} iterations, last x={xcur!r}"
    )


def _root_decreasing(fn, xtol: float, what: str):
    """Root of a decreasing fn: grow a bracket out from 0, then Brent.

    The bracket doubles from 0 towards the side where fn changes sign and
    stops at +/-BRACKET_BOUND; Brent starts from the residuals the expansion
    already computed, so no point is evaluated twice. Returns (root,
    iterations, fn(root)) as ``_brent_root`` does.
    """
    x, fx = 0.0, _brent_eval(fn, 0.0)
    if fx == 0.0:
        return x, 0, fx
    side = 1.0 if fx > 0.0 else -1.0
    step = 1.0
    while True:
        y = side * min(step, BRACKET_BOUND)
        fy = _brent_eval(fn, y)
        if side * fy <= 0.0:
            break
        if step >= BRACKET_BOUND:
            reach = f"up to +{BRACKET_BOUND}" if side > 0.0 else f"down to -{BRACKET_BOUND}"
            raise BracketFailureError(f"{what}: no sign change {reach} (no-entry pathology?)")
        x, fx = y, fy
        step *= 2.0
    if side > 0.0:
        return _brent_root(fn, x, fx, y, fy, xtol)
    return _brent_root(fn, y, fy, x, fx, xtol)


def activation_residual(a: float, prim: Primitives, rho: float, activation_cost: float) -> float:
    """Expected-profit-over-f at activation index -a, minus delta*cost/f.

    Strictly decreasing in a. The cost argument lets policy counterfactuals
    shift the effective activation cost without touching free entry.
    """
    # On the activation locus the profit index rho*t - p* equals -a for all t.
    pi_over_f = expected_profit_given_signal(prim, rho, p_star=a, t=0.0) / prim.f
    return pi_over_f - prim.delta * activation_cost / prim.f


def _solve_activation_intercept(prim: Primitives, rho: float, activation_cost: float):
    """The activation stage: (a, iterations, activation residual at a)."""
    if not activation_cost > 0.0:
        raise DomainError(f"activation cost must be positive, got {activation_cost!r}")
    fn = lambda a: activation_residual(a, prim, rho, activation_cost)
    return _root_decreasing(fn, 1e-15, "activation intercept")


def fe_residual(p_star: float, t_star: float, prim: Primitives, regime: Regime) -> float:
    """Free-entry residual H(p*, t*); strictly decreasing in p_star.

    Expected lifetime profit per experimenter (in units of f) net of the
    expected activation outlay and the experimentation cost.
    """
    pi_breve_over_f = expected_joint_profit(prim, regime.rho, p_star, t_star) / prim.f
    gate = (prim.delta * regime.f_b / prim.f) * std_normal_cdf(-t_star)
    return pi_breve_over_f - gate - prim.delta * prim.f_n / prim.f


def _locus_fn(prim: Primitives, regime: Regime, a: float):
    """The free-entry residual on the locus p* = rho t + a, as a function of t."""
    return lambda t: fe_residual(regime.rho * t + a, t, prim, regime)


def fe_stationarity(p_star: float, t_star: float, prim: Primitives, regime: Regime) -> float:
    """Central-difference dH/dt at fixed p_star (zero at the locus peak)."""
    up = fe_residual(p_star, t_star + _STATIONARITY_STEP, prim, regime)
    down = fe_residual(p_star, t_star - _STATIONARITY_STEP, prim, regime)
    return (up - down) / (2.0 * _STATIONARITY_STEP)


def solve_equilibrium(prim: Primitives, regime: Regime) -> EquilibriumSolution:
    """Solve for the unique cutoff pair (t*, p*)."""
    a, ac_iters, ac_res = _solve_activation_intercept(prim, regime.rho, regime.f_b)
    t_star, fe_iters, fe_res = _root_decreasing(_locus_fn(prim, regime, a), 1e-12, "free-entry cutoff")
    p_star = regime.rho * t_star + a

    sol = EquilibriumSolution(
        cutoffs=LogCutoffs(t_star=t_star, p_star=p_star, a=a),
        ac_residual=ac_res,
        fe_residual=fe_res,
        fe_stationarity=fe_stationarity(p_star, t_star, prim, regime),
        iterations=(ac_iters, fe_iters),
    )
    # Residuals are differences of terms of size delta*f_b/f, so the drift
    # check scales with that size (it cannot beat float64 cancellation).
    scale = max(1.0, prim.delta * regime.f_b / prim.f)
    if abs(sol.ac_residual) > FE_RESIDUAL_TOL * scale or abs(sol.fe_residual) > FE_RESIDUAL_TOL * scale:
        raise InconsistentEquilibriumError(
            f"solver drift: residuals ({sol.ac_residual!r}, {sol.fe_residual!r}) "
            f"exceed {FE_RESIDUAL_TOL} x {scale}"
        )
    if abs(sol.fe_stationarity) > STATIONARITY_TOL * scale:
        raise InconsistentEquilibriumError(
            f"equilibrium is off the free-entry peak: dH/dt = {sol.fe_stationarity!r}"
        )
    return sol


class MelitzLimit(Record, namedtuple(
    "MelitzLimit", "p_star variant effective_entry_cost effective_fixed_cost fe_residual"
)):
    """A degenerate-information limit economy (single log-productivity cutoff).

    variant is "zero_precision" or "perfect_info".
    """


def _survivor_entry_residual(
    p_star: float, prim: Primitives, fixed_cost: float, entry_cost: float
) -> float:
    # Phi(-p*) * pi_bar / delta - entry_cost, with Phi(-p*) * pi_bar = fixed_cost
    # times the truncated profit moment of N(0, 1) log productivity above p*
    moment = _profit_moment(prim.k, -p_star, 1.0, 1.0, "limit-economy profit moment")
    return fixed_cost * moment / prim.delta - entry_cost


def _solve_limit(prim: Primitives, fixed_cost: float, entry_cost: float, variant: str) -> MelitzLimit:
    fn = lambda p: _survivor_entry_residual(p, prim, fixed_cost, entry_cost)
    p_star, _, residual = _root_decreasing(fn, 1e-14, f"{variant} limit cutoff")
    return MelitzLimit(
        p_star=p_star,
        variant=variant,
        effective_entry_cost=entry_cost,
        effective_fixed_cost=fixed_cost,
        fe_residual=residual,
    )


def melitz_limit_zero(prim: Primitives, f_e0: float) -> MelitzLimit:
    """Uninformative-signal limit: every experimenter activates.

    The whole entry cost f_e0 (experimentation plus limiting activation
    cost) is paid upfront; selection runs on productivity alone.
    """
    if not f_e0 > 0.0:
        raise DomainError(f"f_e0 must be positive, got {f_e0!r}")
    return _solve_limit(prim, prim.f, f_e0, "zero_precision")


def melitz_limit_perfect(prim: Primitives, f_b_bar: float) -> MelitzLimit:
    """Perfect-information limit at a fixed activation cost f_b_bar.

    Activation implements exact selection, so the activation cost acts as a
    higher effective operating requirement f + delta * f_b_bar.
    """
    if not f_b_bar > 0.0:
        raise DomainError(f"f_b_bar must be positive, got {f_b_bar!r}")
    return _solve_limit(prim, prim.f + prim.delta * f_b_bar, prim.f_n, "perfect_info")
