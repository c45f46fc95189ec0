import math
from pathlib import Path

import pytest
from hypothesis import given, settings

from gatekeep import welfare
from gatekeep.economy import (
    ConstantCost,
    HyperbolicCost,
    LogCutoffs,
    PiecewiseLinearCost,
    Primitives,
    Regime,
)
from gatekeep.equilibrium import solve_equilibrium
from gatekeep.errors import (
    BracketFailureError,
    DomainError,
    GatekeepError,
    InconsistentEquilibriumError,
    KinkError,
    TiltOverflowError,
)
from gatekeep.records import replace
from gatekeep.welfare import (
    bounded_decline_certificate,
    compute_aggregates,
    find_optimal_precision,
    log_welfare_derivative,
    sweep_records,
    welfare_selection_burden,
)

from economies import BENCHMARK, economies, log_uniform, solved_or_none

PRIM = BENCHMARK.primitives
SCHED = BENCHMARK.schedule


def test_welfare_power_overflow_is_a_tilt_overflow():
    # m ** (1/k) at sigma near 1 (k = 0.0013) exceeds the double range; the
    # float power would raise a bare OverflowError
    prim = Primitives(sigma=1.0013241373826147, f=31.679549923991253, f_n=0.0035853008899762386,
                      delta=0.4063948612096497, L=84.03489347622663)
    regime = Regime(0.8226039481423504, ConstantCost(0.001908792875144275))
    eq = solve_equilibrium(prim, regime)
    with pytest.raises(TiltOverflowError, match="^variety term exceeds the double range"):
        compute_aggregates(prim, regime, eq.cutoffs)
    assert welfare._power(2.0, 0.5, "x") == 2.0**0.5
    with pytest.raises(TiltOverflowError, match=r"^x exceeds the double range \(2.0 \*\* 2000.0\)$"):
        welfare._power(2.0, 2000.0, "x")


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.89, 0.95])
def test_welfare_triple_agreement(rho, solved):
    _, _, agg = solved(rho)
    k = PRIM.k
    w_variety_quality = (PRIM.sigma - 1.0) / PRIM.sigma * agg.m ** (1.0 / k) * agg.phi_tilde
    w_master = (((PRIM.sigma - 1.0) / PRIM.sigma) ** k * agg.m_e / PRIM.delta * agg.s_term) ** (1.0 / k)
    w_ratio = welfare_selection_burden(PRIM, agg.s_term, agg.b_term)
    assert agg.welfare == pytest.approx(w_variety_quality, rel=1e-12)
    assert w_variety_quality == pytest.approx(w_master, rel=1e-8)
    assert w_variety_quality == pytest.approx(w_ratio, rel=1e-8)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.89])
def test_aggregate_identities(rho, solved):
    regime, eq, agg = solved(rho)
    assert agg.m == pytest.approx(agg.p_phi * agg.m_e / PRIM.delta, rel=1e-10)
    assert agg.pi_bar == pytest.approx(agg.r_bar / PRIM.sigma - PRIM.f, rel=1e-12)
    assert 0.0 <= agg.p_phi <= agg.p_theta <= 1.0
    # free entry: expected profit covers expected setup outlays
    assert agg.pi_breve == pytest.approx(
        PRIM.delta * (agg.p_theta * regime.f_b + PRIM.f_n), rel=1e-8
    )


def test_aggregates_refuse_cutoffs_off_free_entry(solved):
    # a point on the activation line past the free-entry root
    regime, eq, _ = solved(0.5)
    a = eq.cutoffs.a
    t = eq.cutoffs.t_star + 0.5
    with pytest.raises(InconsistentEquilibriumError, match="^free-entry identity violated by "):
        compute_aggregates(PRIM, regime, LogCutoffs(t_star=t, p_star=regime.rho * t + a, a=a))


@pytest.mark.parametrize("lam", [1.0, 1e-8, 1e-12])
def test_free_entry_identity_refuses_at_every_cost_scale(lam):
    # the calibration with f, f_n, L and f_b0 times lam; its cutoffs moved
    # 0.5 along the activation line miss free entry by the same share
    prim = replace(PRIM, f=PRIM.f * lam, f_n=PRIM.f_n * lam, L=PRIM.L * lam)
    regime = Regime(0.89, replace(SCHED, f_b0=SCHED.f_b0 * lam))
    cutoffs = solve_equilibrium(prim, regime).cutoffs
    a, t = cutoffs.a, cutoffs.t_star + 0.5
    with pytest.raises(InconsistentEquilibriumError, match="^free-entry identity violated by "):
        compute_aggregates(prim, regime, LogCutoffs(t_star=t, p_star=regime.rho * t + a, a=a))


def test_aggregates_refuse_welfare_forms_that_disagree(solved, monkeypatch):
    # the three forms agree at any cutoffs, so only a negative tolerance fails them
    regime, eq, _ = solved(0.5)
    monkeypatch.setattr(welfare, "_IDENTITY_RTOL", -1.0)
    with pytest.raises(InconsistentEquilibriumError, match="^welfare formulas disagree: "):
        compute_aggregates(PRIM, regime, eq.cutoffs)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.89])
def test_labor_market_clears(rho, solved):
    regime, _, agg = solved(rho)
    labor = (
        agg.m * (agg.r_bar - agg.pi_bar)
        + agg.m_e * PRIM.f_n
        + agg.p_theta * agg.m_e * regime.f_b
    )
    assert labor == pytest.approx(PRIM.L, rel=1e-8)


_W = welfare.SweepRecord.COLUMNS.index("W")


def _rows(prim, grid):
    return [rec.row() for rec in sweep_records(prim, SCHED, grid)]


def test_sweep_rows_and_failure_marker():
    rows = _rows(PRIM, [0.2, 0.5, 0.8])
    assert [row[0] for row in rows] == [0.2, 0.5, 0.8]
    assert all(row[-1] == "ok" for row in rows)
    assert all(math.isfinite(row[_W]) for row in rows)

    bad_prim = Primitives(sigma=2.0, f=0.15, f_n=1e30, delta=0.1)
    failed = _rows(bad_prim, [0.3, 0.6])
    assert len(failed) == 2
    assert all(row[-1].startswith("failed: BracketFailureError") for row in failed)
    assert all(math.isnan(row[_W]) for row in failed)


def test_sweep_records_requires_sorted_grid():
    with pytest.raises(DomainError):
        sweep_records(PRIM, SCHED, [0.5, 0.2])


def test_coarse_argmax_near_benchmark():
    grid = [0.05 + 0.03 * i for i in range(32)]
    records = sweep_records(PRIM, SCHED, grid)
    best = max((r for r in records if r.ok), key=lambda r: r.agg.welfare)
    assert 0.83 <= best.rho <= 0.95


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.89])
def test_log_derivative_identity(rho):
    d = log_welfare_derivative(PRIM, Regime(rho, SCHED))
    want = (d.dlogS - d.dlogB) / PRIM.k
    assert d.dlogW == pytest.approx(want, rel=1e-4, abs=1e-4)


@given(economy=economies())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_elasticity_identity_over_the_domain(economy):
    # criterion 8's identity d log W = (d log S - d log B) / k and bound,
    # wherever the solves at rho +/- h succeed; a refusal is a GatekeepError
    prim, regime = economy
    try:
        d = log_welfare_derivative(prim, regime)
    except GatekeepError:
        return
    gap = d.dlogW - (d.dlogS - d.dlogB) / prim.k
    assert abs(gap) <= 1e-4 * max(1.0, abs(d.dlogW)), (d, gap)


@given(economy=economies(), L=log_uniform(1e-300, 1e300))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_only_welfare_depends_on_L_over_the_domain(economy, L):
    # L enters no residual, so the cutoffs keep their bits, and W scales as
    # L^(1/k) (with 1/k rounded as welfare rounds it) wherever that W is
    # within [1e-300, 1e300]
    prim, regime = economy
    eq = solved_or_none(prim, regime)
    if eq is None:
        return
    try:
        w = compute_aggregates(prim, regime, eq.cutoffs).welfare
    except GatekeepError:
        return
    at_l = replace(prim, L=L)
    cutoffs = solve_equilibrium(at_l, regime).cutoffs
    assert cutoffs == eq.cutoffs
    if abs(math.log(w) + math.log(L) / prim.k) <= math.log(1e300):
        w_at_l = compute_aggregates(at_l, regime, cutoffs).welfare
        assert math.isclose(w_at_l / L ** (1.0 / prim.k), w, rel_tol=1e-14), (w_at_l, w)


def test_log_derivative_negative_past_optimum():
    d = log_welfare_derivative(PRIM, Regime(0.95, SCHED))
    assert d.dlogW < 0.0


def test_log_derivative_kink_rejected():
    sched = PiecewiseLinearCost(0.3, 0.9, 1.0, 5.0)
    with pytest.raises(KinkError):
        log_welfare_derivative(PRIM, Regime(0.3 + 5e-5, sched))
    # away from the kinks the derivative is fine
    d = log_welfare_derivative(PRIM, Regime(0.6, sched))
    assert math.isfinite(d.dlogW)


def test_log_derivative_step_validation():
    # rho + 1e-4, the step's upper point, would leave (0, 1)
    with pytest.raises(DomainError):
        log_welfare_derivative(PRIM, Regime(0.99995, SCHED))


def test_optimal_precision_interior_benchmark():
    grid = [0.05 + 0.01 * i for i in range(94)]
    result = find_optimal_precision(PRIM, SCHED, grid)
    assert not result.boundary
    assert result.rho_w == pytest.approx(0.89, abs=0.03)
    d = log_welfare_derivative(PRIM, Regime(result.rho_w, SCHED))
    assert abs(d.dlogW) <= 1e-3


def test_optimal_precision_constant_schedule_hits_boundary():
    grid = [0.1 + 0.05 * i for i in range(18)]
    result = find_optimal_precision(PRIM, ConstantCost(3.0), grid)
    assert result.boundary
    assert result.rho_w == grid[-1]


def test_optimal_precision_hyperbolic_interior():
    grid = [0.1 + 0.05 * i for i in range(18)]
    result = find_optimal_precision(PRIM, HyperbolicCost(3.0), grid)
    assert not result.boundary
    assert grid[0] < result.rho_w < grid[-1]


def test_optimal_precision_raises_the_class_the_points_failed_with():
    bad_prim = Primitives(sigma=2.0, f=0.15, f_n=1e30, delta=0.1)
    with pytest.raises(BracketFailureError, match="failed points by class: BracketFailureError: 2"):
        find_optimal_precision(bad_prim, SCHED, [0.3, 0.6])


def test_optimal_precision_refuses_an_empty_grid():
    with pytest.raises(BracketFailureError, match="^no grid point admits an equilibrium$"):
        find_optimal_precision(PRIM, SCHED, [])


def test_optimal_precision_mixed_failures_take_the_first_class(monkeypatch):
    errors = [TiltOverflowError("a"), BracketFailureError("b"), TiltOverflowError("c")]
    records = [
        welfare.SweepRecord(rho=rho, eq=None, agg=None, error=exc)
        for rho, exc in zip([0.3, 0.5, 0.7], errors)
    ]
    monkeypatch.setattr(welfare, "sweep_records", lambda prim, schedule, grid: records)
    with pytest.raises(TiltOverflowError) as info:
        find_optimal_precision(PRIM, SCHED, [0.3, 0.5, 0.7])
    assert str(info.value).endswith("TiltOverflowError: 2, BracketFailureError: 1")
    assert info.value.__cause__ is errors[0]
    assert [r.status for r in records] == [
        "failed: TiltOverflowError: a", "failed: BracketFailureError: b", "failed: TiltOverflowError: c",
    ]


def test_hyperbolic_welfare_vanishes_at_high_precision():
    sched = HyperbolicCost(3.0)
    levels = []
    for k in range(2, 7):
        regime = Regime(1.0 - 10.0 ** -k, sched)
        agg = compute_aggregates(PRIM, regime, solve_equilibrium(PRIM, regime).cutoffs)
        levels.append(agg.welfare)
    assert all(b < a for a, b in zip(levels, levels[1:]))
    assert levels[-1] < levels[0] / 100.0


def test_bounded_decline_certificate():
    cert = bounded_decline_certificate(PRIM, 0.3, 0.9, 1.0)
    assert cert.w_high < cert.w_low
    sched = cert.schedule
    assert isinstance(sched, PiecewiseLinearCost)
    assert sched.f_low == 1.0
    grid = [0.01 * i for i in range(1, 100)]
    vals = [sched.cost(r) for r in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert max(vals) <= sched.f_high
    # welfare at rho_high falls monotonically along the cost-doubling path
    ws = [w for _, w in cert.doubling_path]
    assert all(b < a for a, b in zip(ws, ws[1:]))


def test_bounded_decline_validates_inputs():
    with pytest.raises(DomainError):
        bounded_decline_certificate(PRIM, 0.9, 0.3, 1.0)
    with pytest.raises(DomainError):
        bounded_decline_certificate(PRIM, 0.3, 0.9, -1.0)


def test_welfare_continuity_under_grid_refinement():
    # refining the grid by 10x must shrink the largest welfare jump, region by region
    def max_jump(rows):
        ws = [row[_W] for row in rows]
        return max(abs(b - a) for a, b in zip(ws, ws[1:]))

    regions = [(0.05, 0.36), (0.36, 0.67), (0.67, 0.98)]
    for lo, hi in regions:
        coarse = _rows(PRIM, _grid(lo, hi, 0.02))
        fine = _rows(PRIM, _grid(lo, hi, 0.002))
        assert max_jump(fine) < 5.0 * max_jump(coarse)


def _grid(lo, hi, step):
    out = []
    x = lo
    while x <= hi + 1e-12:
        out.append(x)
        x += step
    return out


def test_readme_library_tour_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    tour = {}
    exec(block, tour)
    # the tour's economy is the benchmark calibration at rho = 0.89
    assert tour["agg"] == sweep_records(PRIM, SCHED, [0.89])[0].agg
