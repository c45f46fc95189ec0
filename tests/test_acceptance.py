"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output). The expensive artifacts (the benchmark sweep, the solved
Monte Carlo points) are shared module-scoped fixtures.
"""

import contextlib
import math
import random
import time

import pytest

from gatekeep.cli import MC_Z_LIMIT, QUAD_DELTA_LIMIT, validate_checks
from gatekeep.economy import (
    ConstantCost,
    HyperbolicCost,
    PiecewiseLinearCost,
    Primitives,
    Regime,
)
from gatekeep.equilibrium import (
    FE_RESIDUAL_TOL,
    STATIONARITY_TOL,
    _brent_root,
    _locus_fn,
    fe_stationarity,
    melitz_limit_perfect,
    melitz_limit_zero,
    solve_equilibrium,
)
from gatekeep.oracle import (
    estimate_aggregates,
    estimate_profit_given_signal,
    sample_log_population,
    z_score,
)
from gatekeep.policy import intermediation_schedule, pigouvian_welfare, planner_cutoff
from gatekeep.quadrature import quadrature_reference
from gatekeep.welfare import (
    bounded_decline_certificate,
    compute_aggregates,
    find_optimal_precision,
    log_welfare_derivative,
    sweep_records,
    welfare_selection_burden,
)

from economies import BENCHMARK

FIG3 = BENCHMARK.primitives
SCHED = BENCHMARK.schedule
SEED = BENCHMARK.seed
MC_N = 10**7


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS", flush=True)


@pytest.fixture(scope="module")
def fig3_sweep():
    grid = [0.05 + 0.01 * i for i in range(94)]
    start = time.perf_counter()
    records = sweep_records(FIG3, SCHED, grid)
    elapsed = time.perf_counter() - start
    return records, elapsed


# ten parameter points spanning rho in {0.1, 0.5, 0.89, 0.97}
ORACLE_POINTS = [
    (FIG3, 0.1),
    (FIG3, 0.5),
    (FIG3, 0.89),
    (FIG3, 0.97),
    (Primitives(sigma=3.0, f=0.15, f_n=0.005, delta=0.1), 0.5),
    (Primitives(sigma=3.0, f=0.15, f_n=0.005, delta=0.1), 0.89),
    (Primitives(sigma=2.0, f=0.30, f_n=0.005, delta=0.1), 0.1),
    (Primitives(sigma=2.0, f=0.30, f_n=0.005, delta=0.1), 0.89),
    (Primitives(sigma=2.0, f=0.15, f_n=0.005, delta=0.05), 0.5),
    (Primitives(sigma=2.0, f=0.15, f_n=0.02, delta=0.1), 0.97),
]


@pytest.fixture(scope="module")
def oracle_solutions():
    return [
        (prim, Regime(rho, SCHED), solve_equilibrium(prim, Regime(rho, SCHED)))
        for prim, rho in ORACLE_POINTS
    ]


def test_criterion_1_benchmark_sweep(fig3_sweep):
    with criterion(1, "benchmark welfare sweep"):
        records, elapsed = fig3_sweep
        assert all(r.ok for r in records)
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"
        best = max(records, key=lambda r: r.agg.welfare)
        assert abs(best.rho - 0.89) <= 0.03
        phi = [r.agg.phi_tilde for r in records]
        assert all(b >= a - 1e-12 for a, b in zip(phi, phi[1:]))
        tail = [(r.rho, r.agg.m) for r in records if r.rho >= 0.7 - 1e-9]
        assert all(b[1] < a[1] for a, b in zip(tail, tail[1:]))


def test_criterion_2_equilibrium_quality(fig3_sweep, oracle_solutions):
    with criterion(2, "equilibrium quality and uniqueness"):
        records, _ = fig3_sweep
        for rec in records:
            assert abs(rec.eq.ac_residual) <= 1e-10
            assert abs(rec.eq.fe_residual) <= 1e-10
            assert abs(rec.eq.fe_stationarity) <= 1e-6
        for _, _, eq in oracle_solutions:
            assert abs(eq.ac_residual) <= 1e-10
            assert abs(eq.fe_residual) <= 1e-10
        rng = random.Random(SEED)
        for _ in range(20):
            prim = Primitives(
                sigma=rng.uniform(1.5, 4.0),
                f=rng.uniform(0.05, 0.5),
                f_n=rng.uniform(0.001, 0.05),
                delta=rng.uniform(0.05, 0.3),
            )
            regime = Regime(rng.uniform(0.1, 0.95), ConstantCost(rng.uniform(0.5, 5.0)))
            base = solve_equilibrium(prim, regime)
            t, a = base.cutoffs.t_star, base.cutoffs.a
            # Brent on the free-entry locus at the solved intercept, from
            # dispersed brackets, with the checks solve_equilibrium runs
            locus = _locus_fn(prim, regime, a)
            scale = max(1.0, prim.delta * regime.f_b / prim.f)
            brackets = [
                (-50.0, 50.0),
                (t - 20.0, t + 30.0),
                (t - 0.5, t + 40.0),
                (-45.0, t + 1e-3),
                (t - 30.0, t + 0.7),
            ]
            for lo, hi in brackets:
                t_alt, _, residual = _brent_root(locus, lo, locus(lo), hi, locus(hi), 1e-12)
                p_alt = regime.rho * t_alt + a
                assert abs(t_alt - t) <= 1e-8
                assert abs(p_alt - base.cutoffs.p_star) <= 1e-8
                assert abs(residual) <= FE_RESIDUAL_TOL * scale
                assert abs(fe_stationarity(p_alt, t_alt, prim, regime)) <= STATIONARITY_TOL * scale


def test_criterion_3_oracle_equivalence(oracle_solutions):
    with criterion(3, "Monte Carlo and quadrature equivalence"):
        for idx, (prim, regime, eq) in enumerate(oracle_solutions):
            c, rho = eq.cutoffs, regime.rho
            draws = sample_log_population(rho, MC_N, seed=SEED + idx)
            # the closed forms are the aggregates a solve reports
            checks = validate_checks(prim, rho, c, compute_aggregates(prim, regime, c))
            estimates = estimate_aggregates(draws, prim, c)
            estimates["pi_tilde"] = estimate_profit_given_signal(
                checks[-1].params["t"], prim, rho, c.p_star, MC_N, seed=SEED + 100 + idx
            )
            for name, closed_form, quantity, params in checks:
                closed = closed_form()
                z = z_score(closed, estimates[name])
                assert abs(z) <= MC_Z_LIMIT, (idx, name, z)
                quad = quadrature_reference(quantity, params)
                assert abs(closed - quad) <= QUAD_DELTA_LIMIT, (idx, name)


def test_criterion_4_welfare_identities(fig3_sweep):
    with criterion(4, "welfare identity suite"):
        records, _ = fig3_sweep
        k = FIG3.k
        for rec in records:
            agg = rec.agg
            regime = Regime(rec.rho, SCHED)
            w4 = (FIG3.sigma - 1.0) / FIG3.sigma * agg.m ** (1.0 / k) * agg.phi_tilde
            w5 = (((FIG3.sigma - 1.0) / FIG3.sigma) ** k * agg.m_e / FIG3.delta * agg.s_term) ** (1.0 / k)
            w6 = welfare_selection_burden(FIG3, agg.s_term, agg.b_term)
            assert w4 == pytest.approx(w5, rel=1e-8)
            assert w4 == pytest.approx(w6, rel=1e-8)
            labor = (
                agg.m * (agg.r_bar - agg.pi_bar)
                + agg.m_e * FIG3.f_n
                + agg.p_theta * agg.m_e * regime.f_b
            )
            assert labor == pytest.approx(FIG3.L, rel=1e-8)
            assert agg.pi_breve == pytest.approx(
                FIG3.delta * (agg.p_theta * regime.f_b + FIG3.f_n), rel=1e-8
            )


def test_criterion_5_activation_efficiency():
    with criterion(5, "planner-market cutoff coincidence"):
        for prim, rho, schedule in [
            (FIG3, 0.2, SCHED),
            (FIG3, 0.5, SCHED),
            (FIG3, 0.89, SCHED),
            (FIG3, 0.5, ConstantCost(3.0)),
            (Primitives(sigma=3.0, f=0.15, f_n=0.005, delta=0.1), 0.7, SCHED),
        ]:
            regime = Regime(rho, schedule)
            eq = solve_equilibrium(prim, regime)
            t_p = planner_cutoff(prim, regime, eq)
            assert abs(t_p - eq.cutoffs.t_star) <= 1e-8
            grid = [eq.cutoffs.t_star + 0.5 * i for i in range(9)]
            points = intermediation_schedule(prim, regime, eq, grid)
            assert points[0].b == pytest.approx(1.0, abs=1e-8)
            bs = [p.b for p in points]
            assert all(0.0 < b <= 1.0 + 1e-12 for b in bs)
            assert all(b2 <= b1 for b1, b2 in zip(bs, bs[1:]))


def test_criterion_6_pigouvian_irrelevance():
    with criterion(6, "pigouvian transfer irrelevance"):
        regime = Regime(0.5, SCHED)
        n = 41
        half = regime.f_b / 2.0
        transfers = [half * (2 * i - (n - 1)) / (n - 1) for i in range(n)]
        welfare = [pigouvian_welfare(FIG3, regime, s) for s in transfers]
        w0 = welfare[transfers.index(0.0)]
        assert transfers[20] == 0.0
        assert max(welfare) == w0
        assert all(w <= w0 for w in welfare)
        h = transfers[21] - transfers[20]
        second = (welfare[21] - 2.0 * welfare[20] + welfare[19]) / (h * h)
        assert second <= 0.0


def test_criterion_7_bounded_cost_decline():
    with criterion(7, "bounded-cost welfare decline"):
        cert = bounded_decline_certificate(FIG3, 0.3, 0.9, 1.0)
        assert cert.w_high < cert.w_low
        sched = cert.schedule
        assert isinstance(sched, PiecewiseLinearCost)
        grid = [0.01 * i for i in range(1, 100)]
        vals = [sched.cost(r) for r in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert max(vals) <= sched.f_high < math.inf


def test_criterion_8_elasticity_identity(fig3_sweep):
    with criterion(8, "welfare elasticity identity"):
        for rho in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.93]:
            d = log_welfare_derivative(FIG3, Regime(rho, SCHED))
            gap = d.dlogW - (d.dlogS - d.dlogB) / FIG3.k
            assert abs(gap) <= 1e-4 * max(1.0, abs(d.dlogW)), rho
        records, _ = fig3_sweep
        grid = [r.rho for r in records]
        opt = find_optimal_precision(FIG3, SCHED, grid)
        d = log_welfare_derivative(FIG3, Regime(opt.rho_w, SCHED))
        assert abs(d.dlogW) <= 1e-3


def test_criterion_9_information_limits():
    with criterion(9, "degenerate-information limits"):
        zero = melitz_limit_zero(FIG3, FIG3.f_n + 3.0)
        perfect = melitz_limit_perfect(FIG3, 3.0)
        assert perfect.p_star > zero.p_star
        assert abs(zero.fe_residual) <= 1e-10
        assert abs(perfect.fe_residual) <= 1e-10
        sched = HyperbolicCost(3.0)
        levels = []
        for k in range(2, 7):
            regime = Regime(1.0 - 10.0 ** -k, sched)
            agg = compute_aggregates(FIG3, regime, solve_equilibrium(FIG3, regime).cutoffs)
            levels.append(agg.welfare)
        assert all(b < a for a, b in zip(levels, levels[1:]))
        assert levels[-1] < 1e-3


def test_criterion_10_fixed_cost_comparative_statics():
    with criterion(10, "operating-cost comparative statics"):
        regime = Regime(0.5, SCHED)
        base = solve_equilibrium(FIG3, regime)
        doubled = solve_equilibrium(Primitives(2.0, 0.30, 0.005, 0.1), regime)
        assert doubled.cutoffs.t_star > base.cutoffs.t_star
        assert doubled.cutoffs.p_star > base.cutoffs.p_star
