import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatekeep import equilibrium
from gatekeep.economy import (
    ConstantCost,
    HyperbolicCost,
    LogCutoffs,
    PiecewiseLinearCost,
    Primitives,
    Regime,
    expected_profit_given_signal,
)
from gatekeep.equilibrium import (
    BRACKET_BOUND,
    _brent_root,
    _locus_fn,
    _solve_activation_intercept,
    melitz_limit_perfect,
    melitz_limit_zero,
    solve_equilibrium,
)
from gatekeep.errors import (
    BracketFailureError,
    DomainError,
    GatekeepError,
    InconsistentEquilibriumError,
    TiltOverflowError,
)
from gatekeep.normal import std_normal_cdf
from gatekeep.policy import (
    _PIGOU_SCAN_STEP,
    _transfer_cutoff,
    decentralize_cutoff,
    intermediation_schedule,
    pigouvian_welfare,
    planner_cutoff,
    planner_kernel,
)
from gatekeep.quadrature import quadrature_reference
from gatekeep.records import replace
from gatekeep.welfare import compute_aggregates, welfare_selection_burden

from economies import BENCHMARK, PRIMITIVES, economies, log_uniform, solved_or_none

PRIM = BENCHMARK.primitives
SCHED = BENCHMARK.schedule


def test_kernel_zero_at_market_cutoff(solved):
    regime, eq, _ = solved(0.5)
    val = planner_kernel(PRIM, regime, eq.cutoffs.p_star, eq.cutoffs.t_star)
    assert abs(val) <= 1e-8


def test_kernel_limit_at_low_signals(solved):
    regime, eq, _ = solved(0.5)
    val = planner_kernel(PRIM, regime, eq.cutoffs.p_star, -30.0)
    assert val == pytest.approx(-regime.f_b, abs=1e-12)


def test_kernel_weakly_increasing(solved):
    regime, eq, _ = solved(0.5)
    grid = [-3.0 + 0.5 * i for i in range(14)]
    vals = [planner_kernel(PRIM, regime, eq.cutoffs.p_star, t) for t in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_kernel_sign_pattern(solved):
    regime, eq, _ = solved(0.5)
    t_star = eq.cutoffs.t_star
    assert planner_kernel(PRIM, regime, eq.cutoffs.p_star, t_star - 0.5) < 0.0
    assert planner_kernel(PRIM, regime, eq.cutoffs.p_star, t_star + 0.5) > 0.0


@pytest.mark.parametrize("rho", [0.2, 0.5, 0.89])
def test_planner_cutoff_coincides_with_market(rho, solved):
    regime, eq, _ = solved(rho)
    t_p = planner_cutoff(PRIM, regime, eq)
    assert abs(t_p - eq.cutoffs.t_star) <= 1e-8


def test_planner_cutoff_refuses_a_moved_market_cutoff(solved):
    regime, eq, _ = solved(0.5)
    moved = replace(eq, cutoffs=replace(eq.cutoffs, t_star=eq.cutoffs.t_star + 0.01))
    with pytest.raises(InconsistentEquilibriumError, match=" deviates from market cutoff "):
        planner_cutoff(PRIM, regime, moved)


def test_planner_and_market_move_together():
    lo = Regime(0.5, ConstantCost(2.0))
    hi = Regime(0.5, ConstantCost(3.0))
    eq_lo, eq_hi = solve_equilibrium(PRIM, lo), solve_equilibrium(PRIM, hi)
    tp_lo, tp_hi = planner_cutoff(PRIM, lo, eq_lo), planner_cutoff(PRIM, hi, eq_hi)
    assert tp_hi > tp_lo
    assert abs(tp_lo - eq_lo.cutoffs.t_star) <= 1e-8
    assert abs(tp_hi - eq_hi.cutoffs.t_star) <= 1e-8


def test_contract_schedule_shape(solved):
    regime, eq, _ = solved(0.5)
    t_star = eq.cutoffs.t_star
    grid = [t_star + 0.4 * i for i in range(10)]
    points = intermediation_schedule(PRIM, regime, eq, grid)
    assert points[0].b == pytest.approx(1.0, abs=1e-8)
    bs = [c.b for c in points]
    assert all(0.0 < b <= 1.0 + 1e-12 for b in bs)
    assert all(b2 <= b1 for b1, b2 in zip(bs, bs[1:]))
    far = intermediation_schedule(PRIM, regime, eq, [t_star + 16.0])[0]
    assert far.b < 1e-2


def test_contract_undefined_below_cutoff(solved):
    regime, eq, _ = solved(0.5)
    with pytest.raises(DomainError):
        intermediation_schedule(PRIM, regime, eq, [eq.cutoffs.t_star - 0.1])


def test_contract_value_against_quadrature(solved):
    regime, eq, _ = solved(0.5)
    t = eq.cutoffs.t_star + 1.0
    point = intermediation_schedule(PRIM, regime, eq, [t])[0]
    pi_quad = quadrature_reference(
        "pi_tilde", {"prim": PRIM, "rho": regime.rho, "p_star": eq.cutoffs.p_star, "t": t}
    )
    assert point.b == pytest.approx(PRIM.delta * regime.f_b / pi_quad, rel=1e-8)


def test_decentralize_at_market_cutoff_is_laissez_faire(solved):
    regime, eq, _ = solved(0.5)
    bundle = decentralize_cutoff(PRIM, regime, eq, eq.cutoffs.t_star)
    assert bundle.s == pytest.approx(0.0, abs=1e-10)
    assert bundle.tau == pytest.approx(0.0, abs=1e-10)


def test_decentralize_taxes_above_market_cutoff(solved):
    regime, eq, _ = solved(0.5)
    bundle = decentralize_cutoff(PRIM, regime, eq, eq.cutoffs.t_star + 0.8)
    assert bundle.s < 0.0
    assert bundle.tau == bundle.s * std_normal_cdf(-bundle.theta_p_log)


def test_decentralized_activation_set_matches_cutoff(solved):
    regime, eq, _ = solved(0.5)
    t_p = eq.cutoffs.t_star + 0.6
    bundle = decentralize_cutoff(PRIM, regime, eq, t_p)
    for dt in (-0.5, -0.1, 0.1, 0.5, 2.0):
        t = t_p + dt
        value = (
            expected_profit_given_signal(PRIM, regime.rho, eq.cutoffs.p_star, t) / PRIM.delta
            - regime.f_b
            + bundle.s
        )
        assert (value >= -1e-12) == (t >= t_p)


def test_decentralize_rejects_nonfinite_cutoff(solved):
    regime, eq, _ = solved(0.5)
    with pytest.raises(DomainError):
        decentralize_cutoff(PRIM, regime, eq, math.inf)


def test_pigouvian_zero_reproduces_baseline_exactly(solved):
    regime, eq, agg = solved(0.5)
    baseline = welfare_selection_burden(PRIM, agg.s_term, agg.b_term)
    assert pigouvian_welfare(PRIM, regime, 0.0) == baseline


def test_pigouvian_sweep_peaks_at_zero(solved):
    regime, _, _ = solved(0.5)
    half = regime.f_b / 2.0
    n = 21
    transfers = [half * (2 * i - (n - 1)) / (n - 1) for i in range(n)]
    welfare = [pigouvian_welfare(PRIM, regime, s) for s in transfers]
    w0 = welfare[transfers.index(0.0)]
    assert max(welfare) == w0
    assert all(w <= w0 for w in welfare)


def test_pigouvian_concave_at_zero(solved):
    regime, _, _ = solved(0.5)
    h = 0.05
    second = (
        pigouvian_welfare(PRIM, regime, h)
        - 2.0 * pigouvian_welfare(PRIM, regime, 0.0)
        + pigouvian_welfare(PRIM, regime, -h)
    ) / (h * h)
    assert second <= 0.0


def test_pigouvian_transfer_domain(solved):
    # the activation stage refuses a transfer that leaves no positive
    # activation cost; just below f_b the economy still solves, at lower welfare
    regime, _, _ = solved(0.5)
    for s in (regime.f_b, math.nextafter(regime.f_b, math.inf)):
        with pytest.raises(DomainError, match="^activation cost must be positive"):
            pigouvian_welfare(PRIM, regime, s)
    near = pigouvian_welfare(PRIM, regime, regime.f_b * (1.0 - 1e-12))
    assert 0.0 < near < pigouvian_welfare(PRIM, regime, 0.0)


def test_decentralization_fixed_point(solved):
    # transfers implementing the market cutoff leave welfare at the baseline
    regime, eq, agg = solved(0.5)
    bundle = decentralize_cutoff(PRIM, regime, eq, eq.cutoffs.t_star)
    w = pigouvian_welfare(PRIM, regime, bundle.s)
    baseline = welfare_selection_burden(PRIM, agg.s_term, agg.b_term)
    assert w == pytest.approx(baseline, rel=1e-8)


@pytest.mark.parametrize("s_frac", [-0.5, 0.0, 0.3])
@pytest.mark.parametrize("rho", [0.5, 0.97])
def test_pigouvian_makes_one_genz_pass_per_residual_and_one_for_aggregates(
    rho, s_frac, monkeypatch, genz_passes
):
    regime = Regime(rho, SCHED)
    fe, calls = equilibrium.fe_residual, []
    monkeypatch.setattr(equilibrium, "fe_residual", lambda *args: calls.append(args) or fe(*args))
    pigouvian_welfare(PRIM, regime, s_frac * regime.f_b)
    assert calls and genz_passes == {"pair": len(calls) + 1}


@pytest.mark.parametrize("rho", [0.5, 0.95])
def test_pigouvian_scan_cell_has_a_monotone_certificate(rho):
    # Along the transfer locus p* = rho t + a_s, dH/dt = phi(t) c with
    # c = delta s / f - r_a (r_a: the activation residual Brent returns at
    # a_s), so G(t) = J(t) - c Phi(t) has G' = -rho k exp(log S - k p*) <= 0.
    # For c <= 0, J itself decreases: one sign change. For c > 0, J > 0 where
    # G >= 0 and J < 0 where G <= -c, so every sign change lies in the one
    # window between them.
    regime = Regime(rho, SCHED)
    f_b = regime.f_b
    scale = max(1.0, PRIM.delta * f_b / PRIM.f)
    grid = [-BRACKET_BOUND + i * _PIGOU_SCAN_STEP
            for i in range(int(round(2.0 * BRACKET_BOUND / _PIGOU_SCAN_STEP)) + 1)]
    n = 41
    transfers = [f_b / 2.0 * (2 * i - (n - 1)) / (n - 1) for i in range(n)]
    for s in [s for s in transfers if s != 0.0][::4]:
        a_s, _, r_a = _solve_activation_intercept(PRIM, rho, f_b - s)
        c = PRIM.delta * s / PRIM.f - r_a
        residual = _locus_fn(PRIM, regime, a_s)
        j = [residual(t) for t in grid]
        g = [jt - c * std_normal_cdf(t) for jt, t in zip(j, grid)]
        assert max(b - a for a, b in zip(g, g[1:])) <= 1e-14 * scale, s
        # the scan's cells [i, i + 1] that hold a sign change
        cells = [i for i in range(len(grid) - 1) if j[i] == 0.0 or j[i] * j[i + 1] < 0.0]
        if c <= 0.0:
            assert len(cells) == 1, (s, cells)
            continue
        assert cells, s
        lo = max([i for i, gt in enumerate(g) if gt >= 0.0], default=0)
        hi = min([i for i, gt in enumerate(g) if gt <= -c], default=len(grid) - 1)
        assert all(lo <= i and i + 1 <= hi for i in cells), (s, lo, hi, cells)


def _ordered_scan_welfare(prim, regime, s):
    # pigouvian_welfare at s != 0 with the cutoff from the ordered scan alone:
    # walk the grid up from -BRACKET_BOUND to the first sign change, then Brent.
    a_s, _, _ = _solve_activation_intercept(prim, regime.rho, regime.f_b - s)
    residual = _locus_fn(prim, regime, a_s)
    t_lo = -BRACKET_BOUND
    r_lo = residual(t_lo)
    for i in range(1, int(round(2.0 * BRACKET_BOUND / _PIGOU_SCAN_STEP)) + 1):
        t_hi = -BRACKET_BOUND + i * _PIGOU_SCAN_STEP
        r_hi = residual(t_hi)
        if r_lo == 0.0:
            t_star = t_lo
            break
        if r_lo * r_hi < 0.0:
            t_star, _, _ = _brent_root(residual, t_lo, r_lo, t_hi, r_hi, 1e-12)
            break
        t_lo, r_lo = t_hi, r_hi
    else:
        raise BracketFailureError(
            f"free entry admits no cutoff within [-{BRACKET_BOUND}, {BRACKET_BOUND}] "
            f"under transfer s={s!r}"
        )
    agg = compute_aggregates(prim, regime, LogCutoffs(t_star, regime.rho * t_star + a_s, a_s))
    return welfare_selection_burden(prim, agg.s_term, agg.b_term)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("rho", [0.3, 0.89, 0.95])
@pytest.mark.parametrize("schedule", [
    ConstantCost(2.0),
    SCHED,
    PiecewiseLinearCost(0.3, 0.9, 1.0, 5.0),
    HyperbolicCost(0.5),
])
def test_pigouvian_bisection_matches_the_ordered_scan(schedule, rho):
    # 42 transfers over [-f_b/2, f_b/2], none of them 0, so half bisect and
    # half scan; rho 0.95 takes bvn_cdf's high-correlation branch.
    regime = Regime(rho, schedule)
    n = 42
    transfers = [regime.f_b / 2.0 * (2 * i - (n - 1)) / (n - 1) for i in range(n)]
    for s in transfers:
        expected = _outcome(_ordered_scan_welfare, PRIM, regime, s)
        assert _outcome(pigouvian_welfare, PRIM, regime, s) == expected, s
        assert isinstance(expected, float), (s, expected)


def test_pigouvian_bisection_reports_the_scans_bracket_failure(monkeypatch):
    # f_n = 1e30: the locus residual is negative on the whole grid, so the
    # ends do not bracket; for s < 0 the search raises the scan's own error
    # after its two end probes.
    prim = Primitives(sigma=2.0, f=0.15, f_n=1e30, delta=0.1)
    regime = Regime(0.5, SCHED)
    fe, calls = equilibrium.fe_residual, []
    monkeypatch.setattr(equilibrium, "fe_residual", lambda *args: calls.append(args) or fe(*args))
    for s in (-0.5 * regime.f_b, 0.25 * regime.f_b):
        expected = _outcome(_ordered_scan_welfare, prim, regime, s)
        assert expected[0] is BracketFailureError
        calls.clear()
        assert _outcome(pigouvian_welfare, prim, regime, s) == expected
        if s < 0.0:
            assert len(calls) == 2


@pytest.mark.parametrize("s_frac", [-0.5, -0.05, 0.05, 0.3])
@pytest.mark.parametrize("rho", [0.5, 0.97])
def test_pigouvian_bisects_for_negative_transfers_and_scans_otherwise(rho, s_frac, monkeypatch):
    # For s < 0 about 11 bisection probes plus Brent replace the ~1 000-point
    # scan; for s > 0 the scan runs in order, with the scan's own count.
    regime = Regime(rho, SCHED)
    s = s_frac * regime.f_b
    fe, calls = equilibrium.fe_residual, []
    monkeypatch.setattr(equilibrium, "fe_residual", lambda *args: calls.append(args) or fe(*args))
    expected = _ordered_scan_welfare(PRIM, regime, s)
    scan_calls = len(calls)
    calls.clear()
    assert pigouvian_welfare(PRIM, regime, s) == expected
    if s < 0.0:
        assert len(calls) <= 40
    else:
        assert len(calls) == scan_calls


@pytest.mark.parametrize("failure", ["raise", "nan"])
@pytest.mark.parametrize("window", [(20.0, 50.0), (50.0, 51.0)])
def test_pigouvian_bisection_raises_where_a_probe_fails(window, failure, monkeypatch):
    # The cutoff lies below t = 10, so the ordered scan never evaluates the
    # window and still gives a value; a bisection probe in it (t = 25
    # mid-way, or the far end t = 50) raises or is NaN, and so does the search.
    regime = Regime(0.5, SCHED)
    s = -0.5 * regime.f_b
    fe = equilibrium.fe_residual

    def failing(p_star, t_star, prim, regime):
        if window[0] <= t_star < window[1]:
            if failure == "raise":
                raise TiltOverflowError("probe outside the scan's reach")
            return math.nan
        return fe(p_star, t_star, prim, regime)

    monkeypatch.setattr(equilibrium, "fe_residual", failing)
    assert isinstance(_ordered_scan_welfare(PRIM, regime, s), float)
    if failure == "raise":
        with pytest.raises(TiltOverflowError, match="probe outside the scan's reach"):
            pigouvian_welfare(PRIM, regime, s)
    else:
        with pytest.raises(DomainError, match="root finder: residual is NaN"):
            pigouvian_welfare(PRIM, regime, s)


def test_pigouvian_scan_raises_where_a_probe_is_nan(monkeypatch):
    # For s > 0 the scan walks up from t = -50; without the NaN check it
    # would walk past NaN residuals at t in [-45, -40) and still give a value.
    regime = Regime(0.5, SCHED)
    s = 0.3 * regime.f_b
    fe = equilibrium.fe_residual

    def failing(p_star, t_star, prim, regime):
        return math.nan if -45.0 <= t_star < -40.0 else fe(p_star, t_star, prim, regime)

    monkeypatch.setattr(equilibrium, "fe_residual", failing)
    assert isinstance(_ordered_scan_welfare(PRIM, regime, s), float)
    with pytest.raises(DomainError, match="root finder: residual is NaN"):
        pigouvian_welfare(PRIM, regime, s)


def test_transfer_cutoff_returns_a_grid_point_where_the_residual_is_zero():
    # a residual that is exactly 0.0 at grid point 403 and changes sign
    # there: the ordered scan returns that point, and so does bisection's Brent
    root = -BRACKET_BOUND + 403 * _PIGOU_SCAN_STEP
    probes = []
    residual = lambda t: probes.append(t) or root - t
    assert _transfer_cutoff(residual, False, 1.0) == root
    assert probes == [-BRACKET_BOUND + i * _PIGOU_SCAN_STEP for i in range(405)]
    assert _transfer_cutoff(residual, True, -1.0) == root


# The paper's policy claims across economies, not only at the benchmark one,
# over the domain of tests/economies.py, which draws with the shared sampler
# of tests/families.py.


@given(economy=economies())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_planner_cutoff_equals_market_cutoff_over_the_domain(economy):
    prim, regime = economy
    eq = solved_or_none(prim, regime)
    if eq is not None:
        assert abs(planner_cutoff(prim, regime, eq) - eq.cutoffs.t_star) <= 1e-8


@given(economy=economies(), shares=st.lists(
    st.floats(-0.5, 0.5).filter(lambda x: x != 0.0), min_size=2, max_size=2))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_no_transfer_beats_zero_over_the_domain(economy, shares):
    # W(s) <= W(0) for every transfer s on the CLI's grid range [-f_b/2, f_b/2]
    prim, regime = economy
    if solved_or_none(prim, regime) is None:
        return
    w0 = pigouvian_welfare(prim, regime, 0.0)
    for share in shares:
        try:
            w = pigouvian_welfare(prim, regime, share * regime.f_b)
        except GatekeepError:
            continue
        assert w <= w0 * (1.0 + 1e-12), (share, w, w0)


@given(prim=PRIMITIVES, f_b_bar=log_uniform(1e-3, 10.0))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_perfect_information_limit_cutoff_exceeds_zero_information_over_the_domain(prim, f_b_bar):
    # criterion 9's ordering: exact selection at activation cost f_b_bar
    # keeps only firms above a higher productivity cutoff than the limit in
    # which every experimenter pays f_b_bar upfront and activates. Both
    # limits solve everywhere on this domain, so neither may raise.
    perfect = melitz_limit_perfect(prim, f_b_bar)
    zero = melitz_limit_zero(prim, prim.f_n + f_b_bar)
    assert perfect.p_star > zero.p_star, (perfect, zero)


@given(economy=economies())
# the domain's corner c = 1e-6, k = 7: the gap is 5.51 sqrt(eps) at eps = 1e-4
@example(economy=(Primitives(8.0, 10.0, 1e-5, 0.01), Regime(0.5, ConstantCost(1e-3))))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_signal_cutoff_tends_to_the_perfect_information_cutoff_over_the_domain(economy):
    # As rho = 1 - eps -> 1, the signal cutoff t* tends to the perfect-
    # information limit's cutoff at the same activation cost. Its gap is
    # that of the activation index x* = rho t* - p*, which solves
    # E[(exp(k X) - 1)^+] = c for X ~ N(x*, s^2), c = delta f_b / f and
    # s^2 = 1 - rho^2 (about 2 eps), against the limit's log1p(c) / k; the
    # free-entry condition moves t* with x* up to O(k eps). Where c is
    # small next to k s the option value of the spread carries x* a few s
    # below: E[k X^+] = k s psi(x* / s) <= c, psi(z) = phi(z) + z Phi(z).
    # On this domain c >= 1e-6 and k <= 7, where the index gap is 5.55
    # sqrt(eps) at eps = 1e-4 and 4.75 sqrt(eps) at 1e-6, so C = 6. The
    # generated examples reach 1.01 sqrt(eps). The hyperbolic schedule's f_b
    # has no limit at rho = 1
    prim, regime = economy
    if isinstance(regime.schedule, HyperbolicCost):
        return
    for eps in (1e-4, 1e-6):
        at_eps = Regime(1.0 - eps, regime.schedule)
        eq = solved_or_none(prim, at_eps)
        if eq is None:
            continue
        perfect = melitz_limit_perfect(prim, at_eps.f_b)
        assert abs(eq.cutoffs.t_star - perfect.p_star) <= 6.0 * math.sqrt(eps), (eps, eq, perfect)


@given(economy=economies())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_pigouvian_bisection_matches_the_ordered_scan_over_the_domain(economy):
    # For s < 0 the locus residual strictly decreases, and pigouvian_welfare
    # bisects the grid index; the ordered scan from t = -BRACKET_BOUND must
    # give the same float, or the same error class and message.
    prim, regime = economy
    for s in (-0.5 * regime.f_b, -0.05 * regime.f_b):
        expected = _outcome(_ordered_scan_welfare, prim, regime, s)
        assert _outcome(pigouvian_welfare, prim, regime, s) == expected, s


@given(economy=economies())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_pigouvian_welfare_is_flat_and_concave_at_zero_over_the_domain(economy):
    # The sharp form of "Pigouvian transfers cannot correct the losses":
    # dW/ds = 0 and d2W/ds2 < 0 at s = 0. With x = s / f_b, the central
    # difference D(x) = (W(x f_b) - W(-x f_b)) / (2 x W(0)) is then O(x^2), so
    # it shrinks about 100-fold from x = 1e-2 to x = 1e-3, where an O(s) error
    # in W(s) keeps it at the same size. W's rounding, taken as 1e-12 W(0), is
    # the floor of both checks: 5e-10 of D(1e-3), and 1e-12 W(0) of the second
    # difference.
    prim, regime = economy
    f_b = regime.f_b
    try:
        w0 = pigouvian_welfare(prim, regime, 0.0)
        w = {x: pigouvian_welfare(prim, regime, x * f_b) for x in (1e-2, -1e-2, 1e-3, -1e-3)}
    except GatekeepError:
        return
    d = {x: (w[x] - w[-x]) / (2.0 * x * w0) for x in (1e-2, 1e-3)}
    assert abs(d[1e-3]) <= abs(d[1e-2]) / 50.0 + 5e-10, (d, w0)
    assert (w[1e-2] - 2.0 * w0 + w[-1e-2]) / abs(w0) <= 1e-12, (w, w0)


#: the schedule fields in cost units; rho_low, rho_high, kappa and alpha are not
_COST_FIELDS = ("f_b", "f_b0", "f_low", "f_high")


def _at_cost_scale(prim, regime, lam):
    """The economy with f, f_n, L and the schedule's cost levels times lam."""
    schedule = regime.schedule
    costs = {name: lam * value for name, value in schedule._asdict().items() if name in _COST_FIELDS}
    return (replace(prim, f=lam * prim.f, f_n=lam * prim.f_n, L=lam * prim.L),
            Regime(regime.rho, replace(schedule, **costs)))


def _solve_and_transfers(prim, regime):
    """The solve's (t*, p*, W) and (W,) at s = -f_b/2, 0, f_b/2; the error class where one raises."""
    def solve():
        cutoffs = solve_equilibrium(prim, regime).cutoffs
        return cutoffs.t_star, cutoffs.p_star, compute_aggregates(prim, regime, cutoffs).welfare

    runs = [solve] + [lambda s=s: (pigouvian_welfare(prim, regime, s),)
                      for s in (-regime.f_b / 2.0, 0.0, regime.f_b / 2.0)]
    outcomes = []
    for run in runs:
        try:
            outcomes.append(run())
        except GatekeepError as exc:
            outcomes.append(type(exc))
    return outcomes


@given(economy=economies())
@settings(max_examples=40, derandomize=True, deadline=None)
def test_solve_and_transfers_do_not_depend_on_the_cost_scale_over_the_domain(economy):
    # With f, f_n, L and every activation cost times lam, each residual (a
    # ratio to f) and W (a function of L / B) is unchanged: no outcome may
    # change class, and each value may move by rounding only.
    prim, regime = economy
    expected = _solve_and_transfers(prim, regime)
    for lam in (1e-250, 1e-8, 1e8, 1e250):
        for want, got in zip(expected, _solve_and_transfers(*_at_cost_scale(prim, regime, lam))):
            if isinstance(want, tuple) and isinstance(got, tuple):
                assert all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(got, want)), lam
            else:
                assert got == want, lam
