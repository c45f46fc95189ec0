import math
import random

import pytest
from hypothesis import example, given, settings

from gatekeep import equilibrium
from gatekeep.economy import (
    ConstantCost,
    Primitives,
    Regime,
    _check_interior_rho,
    expected_joint_profit,
    expected_profit_given_signal,
)
from gatekeep.equilibrium import (
    BRACKET_BOUND,
    FE_RESIDUAL_TOL,
    STATIONARITY_TOL,
    _activation_residual_at,
    _brent_root,
    _locus_fn,
    _root_decreasing,
    _solve_activation_intercept,
    _survivor_entry_residual,
    activation_residual,
    fe_residual,
    fe_stationarity,
    melitz_limit_perfect,
    melitz_limit_zero,
    solve_equilibrium,
)
from gatekeep.errors import (
    BracketFailureError,
    DomainError,
    GatekeepError,
    InconsistentEquilibriumError,
    IterationCapError,
    NearSingularCorrelationError,
    TiltOverflowError,
)
from gatekeep.normal import exp_tilt, joint_tail_masses, log_std_normal_cdf, std_normal_cdf
from gatekeep.welfare import compute_aggregates
from economies import BENCHMARK, economies
from golden_values import AC_INTERCEPT, MELITZ_PERFECT_P_STAR, MELITZ_ZERO_P_STAR, P_STAR, T_STAR

PRIM = BENCHMARK.primitives
SCHED = BENCHMARK.schedule


def test_ac_residual_limits():
    regime = Regime(0.89, SCHED)
    floor = -PRIM.delta * regime.f_b / PRIM.f
    assert activation_residual(40.0, PRIM, regime.rho, regime.f_b) == pytest.approx(floor, abs=1e-12)
    assert activation_residual(-40.0, PRIM, regime.rho, regime.f_b) > 1e10


def test_ac_residual_strictly_decreasing():
    # strict on the range where the tail term has float resolution left
    regime = Regime(0.89, SCHED)
    grid = [-5.0 + 0.5 * i for i in range(19)]
    vals = [activation_residual(a, PRIM, regime.rho, regime.f_b) for a in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_ac_intercept_golden():
    regime = Regime(0.89, SCHED)
    a = solve_equilibrium(PRIM, regime).cutoffs.a
    assert a == pytest.approx(AC_INTERCEPT, abs=1e-10)
    assert abs(activation_residual(a, PRIM, regime.rho, regime.f_b)) <= 1e-12


def test_ac_intercept_comparative_statics():
    base = _solve_activation_intercept(PRIM, 0.5, 2.0)[0]
    costlier = _solve_activation_intercept(PRIM, 0.5, 4.0)[0]
    assert costlier < base
    higher_f = _solve_activation_intercept(
        Primitives(sigma=2.0, f=0.30, f_n=0.005, delta=0.1), 0.5, 2.0
    )[0]
    assert higher_f > base


def test_fe_residual_decomposition():
    regime = Regime(0.6, SCHED)
    p_star, t_star = 0.8, 1.4
    want = (
        expected_joint_profit(PRIM, regime.rho, p_star, t_star) / PRIM.f
        - (PRIM.delta * regime.f_b / PRIM.f) * std_normal_cdf(-t_star)
        - PRIM.delta * PRIM.f_n / PRIM.f
    )
    assert fe_residual(p_star, t_star, PRIM, regime) == pytest.approx(want, rel=1e-14)


def test_fe_residual_decreasing_in_p_star():
    regime = Regime(0.6, SCHED)
    rng = random.Random(7)
    for _ in range(8):
        p = rng.uniform(-1.5, 2.0)
        t = rng.uniform(-1.0, 3.0)
        h = 1e-6
        slope = (fe_residual(p + h, t, PRIM, regime) - fe_residual(p - h, t, PRIM, regime)) / (2 * h)
        assert slope < 0.0


def test_solve_equilibrium_golden_and_invariants(solved):
    _, eq, _ = solved(0.89)
    assert eq.cutoffs.t_star == pytest.approx(T_STAR, abs=1e-9)
    assert eq.cutoffs.p_star == pytest.approx(P_STAR, abs=1e-9)
    assert abs(eq.ac_residual) <= 1e-10
    assert abs(eq.fe_residual) <= 1e-10
    assert abs(eq.fe_stationarity) <= 1e-6
    c = eq.cutoffs
    assert c.p_star == pytest.approx(0.89 * c.t_star + c.a, abs=1e-12)
    assert all(i >= 1 for i in eq.iterations)


def test_solve_refuses_a_root_off_the_free_entry_peak(monkeypatch):
    # dH/dt at a converged root is float noise, never exactly 0.0
    monkeypatch.setattr(equilibrium, "STATIONARITY_TOL", 0.0)
    with pytest.raises(InconsistentEquilibriumError, match="^equilibrium is off the free-entry"):
        solve_equilibrium(PRIM, Regime(0.5, SCHED))


def test_solve_refuses_residuals_that_drift_from_zero(monkeypatch):
    # both residuals at this converged root are float noise, not exactly 0.0
    eq = solve_equilibrium(PRIM, Regime(0.5, SCHED))
    assert eq.ac_residual != 0.0 and eq.fe_residual != 0.0
    monkeypatch.setattr(equilibrium, "FE_RESIDUAL_TOL", 0.0)
    with pytest.raises(InconsistentEquilibriumError, match="^solver drift: residuals"):
        solve_equilibrium(PRIM, Regime(0.5, SCHED))


def test_solver_determinism():
    a = solve_equilibrium(PRIM, Regime(0.5, SCHED))
    b = solve_equilibrium(PRIM, Regime(0.5, SCHED))
    assert a == b


def test_higher_operating_cost_raises_both_cutoffs():
    regime = Regime(0.5, SCHED)
    base = solve_equilibrium(PRIM, regime)
    shocked = solve_equilibrium(Primitives(2.0, 0.30, 0.005, 0.1), regime)
    assert shocked.cutoffs.t_star > base.cutoffs.t_star
    assert shocked.cutoffs.p_star > base.cutoffs.p_star


def test_multi_start_agreement():
    rng = random.Random(11)
    for _ in range(5):
        prim = Primitives(
            sigma=rng.uniform(1.5, 4.0),
            f=rng.uniform(0.05, 0.5),
            f_n=rng.uniform(0.001, 0.05),
            delta=rng.uniform(0.05, 0.3),
        )
        regime = Regime(rng.uniform(0.1, 0.95), ConstantCost(rng.uniform(0.5, 5.0)))
        base = solve_equilibrium(prim, regime)
        t, a = base.cutoffs.t_star, base.cutoffs.a
        # Brent on the free-entry locus at the solved intercept, started from
        # each bracket, and the checks solve_equilibrium runs at its root
        locus = _locus_fn(prim, regime, a)
        scale = max(1.0, prim.delta * regime.f_b / prim.f)
        brackets = [(-50.0, 50.0), (t - 20.0, t + 30.0), (t - 0.5, t + 40.0), (-45.0, t + 1e-3)]
        for lo, hi in brackets:
            t_alt, _, residual = _brent_root(locus, lo, locus(lo), hi, locus(hi), 1e-12)
            p_alt = regime.rho * t_alt + a
            assert abs(t_alt - t) <= 1e-8
            assert abs(p_alt - base.cutoffs.p_star) <= 1e-8
            assert abs(residual) <= FE_RESIDUAL_TOL * scale
            assert abs(fe_stationarity(p_alt, t_alt, prim, regime)) <= STATIONARITY_TOL * scale


def test_invalid_bracket_rejected():
    regime = Regime(0.5, SCHED)
    eq = solve_equilibrium(PRIM, regime)
    t = eq.cutoffs.t_star
    locus = _locus_fn(PRIM, regime, eq.cutoffs.a)
    lo, hi = t + 1.0, t + 5.0
    with pytest.raises(BracketFailureError):
        _brent_root(locus, lo, locus(lo), hi, locus(hi), 1e-12)


def test_locus_residual_strictly_decreasing(solved):
    regime, eq, _ = solved(0.5)
    a = eq.cutoffs.a
    grid = [eq.cutoffs.t_star + 0.25 * (i - 12) for i in range(25)]
    vals = [fe_residual(regime.rho * t + a, t, PRIM, regime) for t in grid]
    assert all(b < a_ for a_, b in zip(vals, vals[1:]))


def _reference_bracket(fn):
    """(lo, hi) around the root of a decreasing fn: geometric expansion from 0,
    clipped at +/-BRACKET_BOUND, written out independently of the solver."""
    f0 = fn(0.0)
    step = 1.0
    if f0 > 0.0:
        lo, hi = 0.0, step
        while fn(hi) > 0.0:
            lo = hi
            step *= 2.0
            hi = step
            if hi > BRACKET_BOUND:
                assert fn(BRACKET_BOUND) <= 0.0
                hi = BRACKET_BOUND
                break
        return lo, hi
    hi, lo = 0.0, -step
    while fn(lo) < 0.0:
        hi = lo
        step *= 2.0
        lo = -step
        if lo < -BRACKET_BOUND:
            assert fn(-BRACKET_BOUND) >= 0.0
            lo = -BRACKET_BOUND
            break
    return lo, hi


def _brent_cases():
    """(fn, lo, hi, solver) cases: seeded smooth functions, then the solver's
    own decreasing residuals (solver=True), bracketed by the reference expansion."""
    rng = random.Random(20261017)
    shapes = (
        lambda c, a: lambda x: math.tanh(a * (x - c)),
        lambda c, a: lambda x: (x - c) ** 3 + a * (x - c),
        lambda c, a: lambda x: math.exp(a * (x - c)) - 1.0,
        lambda c, a: lambda x: math.atan(x - c) + 0.1 * a * math.sin(x),
        lambda c, a: lambda x: -math.erf(a * (x - c)) ** 3 - 1e-3 * (x - c),
    )
    for i in range(200):
        c, a = rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0)
        lo, hi = c - rng.uniform(0.01, 20.0), c + rng.uniform(0.01, 20.0)
        if i % 2:
            lo, hi = hi, lo
        yield shapes[i % len(shapes)](c, a), lo, hi, False
    for sched in (SCHED, ConstantCost(2.0)):
        for rho in (0.05, 0.5, 0.89, 0.97):
            regime = Regime(rho, sched)
            ac = lambda x, r=regime: activation_residual(x, PRIM, r.rho, r.f_b)
            yield (ac, *_reference_bracket(ac), True)
            a, _, _ = _solve_activation_intercept(PRIM, rho, regime.f_b)
            locus = lambda t, r=regime, a=a: fe_residual(r.rho * t + a, t, PRIM, r)
            yield (locus, *_reference_bracket(locus), True)


def test_brent_root_matches_scipy_brentq():
    from scipy.optimize import brentq

    cases = list(_brent_cases())
    assert len(cases) == 216
    for fn, lo, hi, solver in cases:
        for xtol in (1e-12, 1e-14, 1e-15):
            want, info = brentq(fn, lo, hi, xtol=xtol, full_output=True)
            root, iterations, residual = _brent_root(fn, lo, fn(lo), hi, fn(hi), xtol)
            assert root == want
            assert iterations == info.iterations
            assert residual == fn(root)
            if solver:
                assert _root_decreasing(fn, xtol, "case") == (want, info.iterations, fn(want))
    # Residuals near the subnormal range, where the inverse-quadratic
    # denominator underflows to 0.0 and brentq.c's inf/NaN step makes it bisect.
    for fn, lo, hi in _underflow_cases():
        for xtol in (1e-12, 1e-14, 1e-15):
            want, info = brentq(fn, lo, hi, xtol=xtol, full_output=True)
            root, iterations, residual = _brent_root(fn, lo, fn(lo), hi, fn(hi), xtol)
            assert (root, iterations) == (want, info.iterations)
            assert residual == fn(root)
    ac = _underflow_cases()[0][0]
    assert _brent_root(ac, 16.0, ac(16.0), 32.0, ac(32.0), 1e-15)[:2] == (16.326758319016797, 36)
    assert _root_decreasing(ac, 1e-15, "case")[:2] == (16.326758319016797, 36)


def _underflow_cases():
    """(fn, lo, hi) brackets whose residuals underflow: an activation residual
    at f = 1e300 (its bracket from the solver's expansion) and two shapes."""
    prim = Primitives(sigma=1.456245236851979, f=1e300, f_n=10.094663522262515,
                      delta=0.7510590095111661, L=846.1875432325069)
    regime = Regime(0.8959038320707119, ConstantCost(406.3804314241883))
    return [
        (lambda a: activation_residual(a, prim, regime.rho, regime.f_b), 16.0, 32.0),
        (lambda x: 1e-310 * (math.exp(1.0 - x) - 1.0), -3.0, 4.0),
        (lambda x: math.exp(-40.0 * x) - math.exp(-680.0), 0.0, 20.0),
    ]


def test_brent_root_nan_residual_raises_domain_error():
    # NaN at a bracket end, met while the bracket grows
    with pytest.raises(DomainError, match="NaN"):
        _root_decreasing(lambda x: math.nan if x > 0.5 else 1.0 - x, 1e-12, "nan")
    # NaN at an interior point, met by the first bisection step (to x = 1)
    with pytest.raises(DomainError, match="NaN"):
        _brent_root(lambda x: math.nan if 0.5 < x < 1.5 else 1.0 - x, 0.0, 1.0, 2.0, -1.0, 1e-12)
    assert issubclass(DomainError, ValueError)  # what scipy's wrapper raised


def test_brent_root_iteration_cap_raises():
    # a step at 0 with xtol = 1e-300: the bracket halves towards 0 and would
    # need about a thousand halvings to meet the tolerance
    step = lambda x: -1.0 if x > 0.0 else 1.0
    with pytest.raises(IterationCapError, match="100 iterations"):
        _brent_root(step, -1.0, 1.0, 1.0, -1.0, 1e-300)


def _sign(x):
    return math.copysign(1.0, x)


def test_brent_root_degenerate_bracket():
    # a root at a bracket end is returned as it is, with the residual given
    # for that end (sign of zero included), and fn is never evaluated
    never = lambda x: 1.0 / 0.0
    root = _brent_root(never, 0.25, 0.0, 0.25, 0.0, 1e-12)
    assert root == (0.25, 0, 0.0) and _sign(root[2]) == 1.0
    root = _brent_root(never, 0.25, -0.0, 0.5, 1.0, 1e-12)
    assert root == (0.25, 0, 0.0) and _sign(root[2]) == -1.0
    root = _brent_root(never, 0.25, 1.0, 0.5, -0.0, 1e-12)
    assert root == (0.5, 0, 0.0) and _sign(root[2]) == -1.0
    # a root at the expansion's start is returned before any bracket is
    # grown, with the residual computed there: -0.0 for -x at 0
    root = _root_decreasing(lambda x: -x, 1e-12, "start")
    assert root == (0.0, 0, 0.0) and _sign(root[2]) == -1.0


@pytest.mark.parametrize("sched", [SCHED, ConstantCost(2.0)])
@pytest.mark.parametrize("rho", [0.05, 0.5, 0.89, 0.97])
def test_root_decreasing_evaluates_no_point_twice(rho, sched):
    # on the residuals the solve binds, climbing cold and then warmed by the
    # cutoffs of the solve at rho - 0.01, as a sweep warms its next point
    regime = Regime(rho, sched)
    neighbour = solve_equilibrium(PRIM, Regime(rho - 0.01, sched)).cutoffs
    seen = []

    def recorded(fn):
        def wrapper(x):
            seen.append(x)
            return fn(x)
        return wrapper

    for ac_hint, fe_hint in ((None, None), (neighbour.a, neighbour.t_star)):
        seen.clear()
        ac = _activation_residual_at(PRIM, regime.rho, regime.f_b)
        a, _, _ = _root_decreasing(recorded(ac), 1e-15, "ac", ac_hint)
        assert len(seen) == len(set(seen)) > 2
        seen.clear()
        locus = _locus_fn(PRIM, regime, a)
        _root_decreasing(recorded(locus), 1e-12, "fe", fe_hint)
        assert len(seen) == len(set(seen)) > 2


def _counted(monkeypatch, name):
    """Count the calls the solver makes to equilibrium.<name>."""
    fn, calls = getattr(equilibrium, name), []

    def wrapper(*args):
        calls.append(args[0])
        return fn(*args)

    monkeypatch.setattr(equilibrium, name, wrapper)
    return calls


def _counted_probes(monkeypatch, seam="_fe_residual_at"):
    """Count the probes the solver makes through one binding seam: every
    residual it binds with equilibrium.<seam> records its first argument,
    p_star for ``_fe_residual_at`` and a for ``_activation_residual_at``."""
    bind, calls = getattr(equilibrium, seam), []

    def counted_bind(*bound):
        residual = bind(*bound)
        return lambda x, *rest: calls.append(x) or residual(x, *rest)

    monkeypatch.setattr(equilibrium, seam, counted_bind)
    return calls


def _root_evaluations(fn, xtol):
    seen = []
    _root_decreasing(lambda x: seen.append(x) or fn(x), xtol, "count")
    return len(seen)


def _probe_outcome(fn, t):
    """repr of fn(t), so that -0.0 counts, or the class and message it raises."""
    try:
        return repr(fn(t))
    except Exception as exc:
        return type(exc), str(exc)


def _frozen_fe_residual(p_star, t_star, prim, regime):
    # fe_residual as it stood before its residual was bound per root find,
    # each layer written out on the one-off joint_tail_masses
    k = prim.k
    log_s, p_phi = joint_tail_masses(k, p_star, t_star, regime.rho)
    pi_breve = prim.f * (exp_tilt(log_s - k * p_star, "expected joint profit") - p_phi)
    gate = (prim.delta * regime.f_b / prim.f) * std_normal_cdf(-t_star)
    return pi_breve / prim.f - gate - prim.delta * prim.f_n / prim.f


@given(economy=economies())
@example(economy=(PRIM, Regime(0.5, SCHED)))
@example(economy=(PRIM, Regime(0.95, SCHED)))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_bound_locus_residual_equals_the_one_off_form(economy):
    # every probe of the residual _locus_fn binds, in both Genz branches, is
    # fe_residual's float at the same point, and the frozen form's, or raises
    # their error
    prim, regime = economy
    rho = regime.rho
    try:
        a, _, _ = _solve_activation_intercept(prim, rho, regime.f_b)
    except GatekeepError:
        return
    locus = _locus_fn(prim, regime, a)
    one_off = lambda t: fe_residual(rho * t + a, t, prim, regime)
    # where p* = (k^2 / 2 - 710) / k - 1, log S is about k^2 / 2, so the
    # log of the profit's lead, log S - k p*, is about 710 + k: just past
    # the double range, whose log is 709.78
    k = prim.k
    t_overflow = (((0.5 * k * k - 710.0) / k - 1.0) - a) / rho
    assert _probe_outcome(one_off, t_overflow)[0] is TiltOverflowError
    grid = [-BRACKET_BOUND + i * BRACKET_BOUND / 100.0 for i in range(201)]
    frozen = lambda t: _frozen_fe_residual(rho * t + a, t, prim, regime)
    for t in grid + [1e6, -1e6, math.inf, -math.inf, math.nan, t_overflow]:
        got = _probe_outcome(locus, t)
        assert got == _probe_outcome(one_off, t) == _probe_outcome(frozen, t), t


def _frozen_activation_residual(a, prim, rho, activation_cost):
    # activation_residual as it stood before its residual was bound per
    # activation stage: expected_profit_given_signal at p* = a and t = 0, and
    # its profit moment, written out
    _check_interior_rho(rho)
    k, x, s2 = prim.k, rho * 0.0 - a, 1.0 - rho * rho
    sd = math.sqrt(s2)
    lead = exp_tilt(k * x + 0.5 * k * k * s2 + log_std_normal_cdf((x + k * s2) / sd),
                    "expected profit given signal")
    profit = prim.f * (lead - std_normal_cdf(x / sd))
    return profit / prim.f - prim.delta * activation_cost / prim.f


@given(economy=economies())
@example(economy=(PRIM, Regime(0.5, SCHED)))
@example(economy=(PRIM, Regime(0.95, SCHED)))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_bound_activation_residual_equals_the_one_off_form(economy):
    # every probe of the residual an activation stage binds is
    # activation_residual's float at the same a, and the frozen form's, or
    # raises their error
    prim, regime = economy
    rho, cost = regime.rho, regime.f_b
    bound = _activation_residual_at(prim, rho, cost)
    one_off = lambda a: activation_residual(a, prim, rho, cost)
    frozen = lambda a: _frozen_activation_residual(a, prim, rho, cost)
    # at x = -a = (710 - k^2 s2 / 2) / k + 1 the log of the profit's lead is
    # about 710 + k: just past the double range, whose log is 709.78
    k, s2 = prim.k, 1.0 - rho * rho
    a_overflow = -((710.0 - 0.5 * k * k * s2) / k + 1.0)
    assert _probe_outcome(one_off, a_overflow)[0] is TiltOverflowError
    grid = [-BRACKET_BOUND + i * BRACKET_BOUND / 100.0 for i in range(201)]
    for a in grid + [1e6, -1e6, math.inf, -math.inf, math.nan, a_overflow]:
        got = _probe_outcome(bound, a)
        assert got == _probe_outcome(one_off, a) == _probe_outcome(frozen, a), a


def test_activation_stage_checks_cost_before_rho():
    # the cost is refused first; the rho check is made where the residual is
    # bound, before any probe
    with pytest.raises(DomainError, match="^activation cost must be positive"):
        _solve_activation_intercept(PRIM, 1.0 - 1e-13, -1.0)
    with pytest.raises(NearSingularCorrelationError):
        _solve_activation_intercept(PRIM, 1.0 - 1e-13, 1.0)
    with pytest.raises(NearSingularCorrelationError):
        _activation_residual_at(PRIM, 1.0 - 1e-13, 1.0)


def _ladder(fn, hint):
    """(outcome, points evaluated) of _root_decreasing on fn from hint: the
    repr of (root, iterations, residual), or the error's class and message."""
    seen = []

    def recorded(x):
        seen.append(x)
        return fn(x)

    return _probe_outcome(lambda h: _root_decreasing(recorded, 1e-12, "ladder", h), hint), seen


#: the cold ladder's rungs short of BRACKET_BOUND, by magnitude
_RUNGS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def _decreasing_shapes():
    """Synthetic decreasing functions, each with its root c."""
    for c in (0.3, -0.7, 1.5, -1.5, 3.0, -3.0, 5.5, 12.0, -20.0, 40.0, -49.0):
        yield c, lambda x, c=c: c - x
        yield c, lambda x, c=c: math.atan(3.0 * (c - x))
        yield c, lambda x, c=c: math.exp(c - x) - 1.0


def test_warm_ladder_below_the_root_returns_the_cold_result():
    # for each rung strictly between 0 and the root, a hint that starts the
    # ladder there gives the cold ladder's root, iterations and residual,
    # evaluates no point twice and skips 0 and every rung below it
    for c, fn in _decreasing_shapes():
        cold, cold_seen = _ladder(fn, None)
        side = math.copysign(1.0, c)
        rungs = [side * m for m in _RUNGS if m < abs(c)]
        for rung in rungs:
            for hint in (1.5 * rung, c):
                if rung != rungs[-1] and hint == c:
                    continue
                warm, seen = _ladder(fn, hint)
                assert warm == cold, (c, hint)
                assert seen[0] == rung and len(seen) == len(set(seen)) < len(cold_seen)
        if not rungs:
            assert _ladder(fn, c) == (cold, cold_seen)


def test_warm_ladder_past_the_root_falls_back_to_the_cold_ladder():
    # a rung beyond the root, or on its other side, is probed first; the
    # cold ladder then runs, taking that rung's value where it reaches it
    for c, fn in _decreasing_shapes():
        cold, cold_seen = _ladder(fn, None)
        for hint in (2.0 * c + 3.0, -2.0 * c - 3.0, 45.0, -45.0, 5.0 * c):
            below = [m for m in _RUNGS if m < abs(hint)]
            if not below:
                continue
            rung = math.copysign(below[-1], hint)
            if abs(rung) < abs(c) and rung * c > 0.0:
                continue
            warm, seen = _ladder(fn, hint)
            assert warm == cold, (c, hint)
            assert seen == [rung] + [x for x in cold_seen if x != rung], (c, hint)


def test_warm_ladder_with_no_rung_below_the_hint_runs_cold():
    for c, fn in _decreasing_shapes():
        cold = _ladder(fn, None)
        for hint in (0.0, -0.0, 0.5, -1.0, 1.0, math.nan):
            assert _ladder(fn, hint) == cold


def test_warm_ladder_raising_probe_falls_back_to_the_cold_ladder():
    # a warm probe that raises a GatekeepError is set aside: the cold ladder
    # runs, and raises that error only if it reaches the same rung, with the
    # rung evaluated once
    for error in (TiltOverflowError("lead overflows"), None):
        for c, rung, reached in ((3.0, 32.0, False), (3.0, 4.0, True), (-20.0, -16.0, True),
                                 (-20.0, -32.0, True), (0.3, 2.0, False), (0.3, -2.0, False)):
            base = lambda x: c - x

            def fn(x):
                if x == rung:
                    if error is None:
                        return math.nan  # _brent_eval's DomainError
                    raise error
                return base(x)

            cold, cold_seen = _ladder(fn, None)
            warm, seen = _ladder(fn, 1.5 * rung)
            assert warm == cold and seen.count(rung) == 1, (c, rung)
            assert seen == [rung] + [x for x in cold_seen if x != rung]
            if reached:
                assert warm[0] is (DomainError if error is None else TiltOverflowError)
            else:
                assert warm == _ladder(base, None)[0]


def test_warm_ladder_never_sees_an_error_at_a_rung_it_skips():
    # a warm climb skips 0 and the rungs below the warm one; where one of
    # them would raise, the cold ladder refuses and the warm one returns the
    # root of the function without that error
    base = lambda x: 6.0 - x
    for error in (TiltOverflowError("lead overflows"), None):
        for skipped in (0.0, 1.0, 2.0):

            def fn(x):
                if x == skipped:
                    if error is None:
                        return math.nan  # _brent_eval's DomainError
                    raise error
                return base(x)

            cold, _ = _ladder(fn, None)
            warm, seen = _ladder(fn, 7.0)
            assert cold[0] is (DomainError if error is None else TiltOverflowError)
            assert seen[0] == 4.0 and skipped not in seen
            assert warm == _ladder(base, None)[0]


@pytest.mark.parametrize("sched", [SCHED, ConstantCost(2.0)])
@pytest.mark.parametrize("rho", [0.05, 0.5, 0.89, 0.97])
def test_solve_evaluates_each_residual_only_in_its_root_find(rho, sched, monkeypatch):
    regime = Regime(rho, sched)
    ac = lambda a: activation_residual(a, PRIM, regime.rho, regime.f_b)
    a, _, _ = _root_decreasing(ac, 1e-15, "ac")
    locus = lambda t: fe_residual(regime.rho * t + a, t, PRIM, regime)
    ac_root_calls, fe_root_calls = _root_evaluations(ac, 1e-15), _root_evaluations(locus, 1e-12)

    ac_calls = _counted_probes(monkeypatch, "_activation_residual_at")
    fe_calls = _counted_probes(monkeypatch)
    sol = solve_equilibrium(PRIM, regime)
    monkeypatch.undo()
    # the bracket-plus-Brent evaluations, and for free entry the two
    # stationarity probes; no stage evaluates its root a second time
    assert len(ac_calls) == ac_root_calls
    assert len(fe_calls) == fe_root_calls + 2
    c = sol.cutoffs
    assert sol.ac_residual == activation_residual(c.a, PRIM, regime.rho, regime.f_b)
    assert sol.fe_residual == fe_residual(c.p_star, c.t_star, PRIM, regime)


@pytest.mark.parametrize("sched", [SCHED, ConstantCost(2.0)])
@pytest.mark.parametrize("rho", [0.05, 0.5, 0.89, 0.97])
def test_solve_makes_one_genz_pass_per_free_entry_residual(rho, sched, monkeypatch, genz_passes):
    # one fused pass gives both Genz masses of a residual, and the aggregates
    # at the solved cutoffs make one more
    regime = Regime(rho, sched)
    fe_calls = _counted_probes(monkeypatch)
    sol = solve_equilibrium(PRIM, regime)
    assert genz_passes == {"pair": len(fe_calls)}
    compute_aggregates(PRIM, regime, sol.cutoffs)
    assert genz_passes == {"pair": len(fe_calls) + 1}


@pytest.mark.parametrize("variant", ["zero_precision", "perfect_info"])
def test_limit_residual_is_the_one_at_its_root(variant, monkeypatch):
    if variant == "zero_precision":
        solve, arg, fixed_cost, entry_cost = melitz_limit_zero, 3.0, PRIM.f, 3.0
    else:
        solve, arg = melitz_limit_perfect, 3.0
        fixed_cost, entry_cost = PRIM.f + PRIM.delta * 3.0, PRIM.f_n
    fn = lambda p: _survivor_entry_residual(p, PRIM, fixed_cost, entry_cost)
    root_calls = _root_evaluations(fn, 1e-14)
    calls = _counted(monkeypatch, "_survivor_entry_residual")
    lim = solve(PRIM, arg)
    monkeypatch.undo()
    # only the root find's evaluations, no point twice
    assert len(calls) == len(set(calls)) == root_calls
    assert lim.p_star in calls
    assert lim.fe_residual == _survivor_entry_residual(lim.p_star, PRIM, fixed_cost, entry_cost)


def _inline_survivor_entry_residual(p_star, prim, fixed_cost, entry_cost):
    # the limit residual as it stood before it shared economy._profit_moment
    k = prim.k
    log_lead = 0.5 * k * k - k * p_star + log_std_normal_cdf(k - p_star)
    lead = exp_tilt(log_lead, "limit-economy profit moment")
    return fixed_cost * (lead - std_normal_cdf(-p_star)) / prim.delta - entry_cost


def _value_or_error(fn):
    try:
        return fn()
    except TiltOverflowError as exc:
        return type(exc), str(exc)


def test_survivor_entry_residual_equals_the_inline_moment():
    # every float and every overflow message of the old inline formula; at
    # sigma = 41 (k^2 / 2 = 800) the moment overflows below p* of about 2.3
    p_grid = (-math.inf, -60.0, -38.5, -5.0, -1.3, -0.0, 0.0, 0.4, 2.0, 3.7, 25.0, 38.5, 60.0,
              math.inf)
    for sigma in (1.05, 2.0, 3.7, 9.0, 41.0):
        prim = Primitives(sigma=sigma, f=0.15, f_n=0.005, delta=0.1)
        for p_star in p_grid:
            args = (p_star, prim, 0.45, 3.0)
            got = _value_or_error(lambda: _survivor_entry_residual(*args))
            want = _value_or_error(lambda: _inline_survivor_entry_residual(*args))
            assert got == want, (sigma, p_star, got, want)
            if isinstance(want, float):
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
    # prim is the sigma = 41 economy, the loop's last
    overflow = _value_or_error(lambda: _survivor_entry_residual(0.0, prim, 0.45, 3.0))
    assert overflow[0] is TiltOverflowError
    assert overflow[1].startswith("limit-economy profit moment exceeds the double exponent range")


def test_no_entry_pathology_reports_bracket_failure():
    # an experimentation cost no profit level can repay inside the window
    prim = Primitives(sigma=2.0, f=0.15, f_n=1e30, delta=0.1)
    with pytest.raises(BracketFailureError):
        solve_equilibrium(prim, Regime(0.5, SCHED))


def test_fe_locus_single_peak(solved):
    regime, eq, _ = solved(0.89)
    p_star, a = eq.cutoffs.p_star, eq.cutoffs.a
    step = 0.05
    grid = [eq.cutoffs.t_star + step * (i - 60) for i in range(121)]
    values = [fe_residual(p_star, t, PRIM, regime) for t in grid]
    diffs = [b - a_ for a_, b in zip(values, values[1:])]
    signs = [d > 0 for d in diffs]
    switches = sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)
    assert switches == 1
    peak_t = grid[values.index(max(values))]
    assert abs(peak_t - (p_star - a) / regime.rho) <= step


def test_fe_locus_three_point_peak(solved):
    regime, eq, _ = solved(0.5)
    p_star = eq.cutoffs.p_star
    t_hat = (p_star - eq.cutoffs.a) / regime.rho
    lo, mid, hi = [fe_residual(p_star, t, PRIM, regime) for t in (t_hat - 0.3, t_hat, t_hat + 0.3)]
    assert mid > lo and mid > hi


def test_profit_constant_along_activation_line(solved):
    regime, eq, _ = solved(0.5)
    a = eq.cutoffs.a
    base = expected_profit_given_signal(PRIM, regime.rho, a, 0.0)
    for t in (-2.0, 1.0, 3.5):
        p_star = regime.rho * t + a
        val = expected_profit_given_signal(PRIM, regime.rho, p_star, t)
        assert val == pytest.approx(base, rel=1e-12)
    assert base / PRIM.delta == pytest.approx(regime.f_b, rel=1e-10)


def test_melitz_zero_golden():
    lim = melitz_limit_zero(PRIM, PRIM.f_n + 3.0)
    assert lim.p_star == pytest.approx(MELITZ_ZERO_P_STAR, abs=1e-9)
    assert abs(lim.fe_residual) <= 1e-10
    assert lim.variant == "zero_precision"
    assert lim.effective_fixed_cost == PRIM.f


def test_melitz_perfect_golden_and_ordering():
    zero = melitz_limit_zero(PRIM, PRIM.f_n + 3.0)
    perfect = melitz_limit_perfect(PRIM, 3.0)
    assert perfect.p_star == pytest.approx(MELITZ_PERFECT_P_STAR, abs=1e-9)
    assert abs(perfect.fe_residual) <= 1e-10
    assert perfect.p_star > zero.p_star
    assert perfect.effective_fixed_cost == pytest.approx(PRIM.f + PRIM.delta * 3.0)


def test_melitz_zero_cutoff_decreasing_in_entry_cost():
    cutoffs = [melitz_limit_zero(PRIM, f_e0).p_star for f_e0 in (0.5, 1.0, 3.0, 6.0)]
    assert all(b < a for a, b in zip(cutoffs, cutoffs[1:]))


def test_melitz_limits_coincide_for_vanishing_gate():
    eps = 1e-9
    zero = melitz_limit_zero(PRIM, PRIM.f_n + eps)
    perfect = melitz_limit_perfect(PRIM, eps)
    assert zero.p_star == pytest.approx(perfect.p_star, abs=1e-6)


def test_melitz_zpc_identity_against_quadrature():
    # average survivor profit equals f * k(phi*): check by direct integration
    from scipy import integrate

    lim = melitz_limit_zero(PRIM, PRIM.f_n + 3.0)
    p_star, k = lim.p_star, PRIM.k
    tail = std_normal_cdf(-p_star)
    num, _ = integrate.quad(
        lambda p: PRIM.f
        * (math.exp(k * (p - p_star)) - 1.0)
        * math.exp(-0.5 * p * p)
        / math.sqrt(2.0 * math.pi),
        p_star,
        40.0,
        epsabs=1e-14,
        limit=200,
    )
    pi_bar = num / tail
    phi_tilde_ratio = (
        math.exp(0.5 * k * k - k * p_star) * std_normal_cdf(-p_star + k) / tail
    )
    assert pi_bar == pytest.approx(PRIM.f * (phi_tilde_ratio - 1.0), abs=1e-10)


def test_melitz_rejects_nonpositive_costs():
    with pytest.raises(DomainError):
        melitz_limit_zero(PRIM, 0.0)
    with pytest.raises(DomainError):
        melitz_limit_perfect(PRIM, -1.0)
