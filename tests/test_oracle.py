import math
import tracemalloc

import numpy as np
import pytest

from gatekeep import (
    LogCutoffs,
    Primitives,
    bvn_cdf,
    estimate_aggregates,
    estimate_profit_given_signal,
    expected_profit_given_signal,
    quadrature_reference,
    sample_log_population,
    simulate_operating_mass,
    z_score,
)
from gatekeep.errors import DomainError
from gatekeep.normal import log_tilted_upper_tail2
from gatekeep.oracle import _BLOCK

PRIM = Primitives(sigma=2.0, f=0.15, f_n=0.005, delta=0.1)


def _concat(draws):
    """All (p, t) pairs of a streamed draw, as two arrays."""
    p, t = zip(*draws.blocks())
    return np.concatenate(p), np.concatenate(t)


def _one_shot(rho, n, seed):
    """The unblocked construction: t the first n normals of the seed, z the next n."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(n)
    z = rng.standard_normal(n)
    return rho * t + math.sqrt(1.0 - rho * rho) * z, t


def test_sample_correlation_and_marginals():
    n = 10**6
    p, t = _concat(sample_log_population(0.6, n, seed=42))
    corr = float(np.corrcoef(p, t)[0, 1])
    assert corr == pytest.approx(0.6, abs=0.005)
    for arr in (p, t):
        se_mean = 1.0 / math.sqrt(n)
        assert abs(float(arr.mean())) <= 4.0 * se_mean
        se_var = math.sqrt(2.0 / (n - 1))
        assert abs(float(arr.var(ddof=1)) - 1.0) <= 4.0 * se_var


def test_sampling_deterministic_under_seed():
    a_p, a_t = _concat(sample_log_population(0.5, 10**4, seed=7))
    b_p, b_t = _concat(sample_log_population(0.5, 10**4, seed=7))
    assert np.array_equal(a_p, b_p) and np.array_equal(a_t, b_t)
    c_p, _ = _concat(sample_log_population(0.5, 10**4, seed=8))
    assert not np.array_equal(a_p, c_p)


@pytest.mark.parametrize("n", [3 * _BLOCK + 17, 1000])
def test_blocks_equal_one_shot_draw(n):
    draws = sample_log_population(0.7, n, seed=11)
    assert draws.n == n
    assert all(p.size <= _BLOCK for p, _ in draws.blocks())
    p, t = _concat(draws)
    p0, t0 = _one_shot(0.7, n, seed=11)
    assert np.array_equal(p, p0) and np.array_equal(t, t0)


def _assert_matches(est, values):
    n = values.size
    assert est.n == n
    assert est.mean == pytest.approx(float(values.mean()), rel=1e-12)
    assert est.std_error == pytest.approx(float(values.std(ddof=1) / math.sqrt(n)), rel=1e-12)


def test_streamed_estimates_match_one_shot_moments(solved):
    regime, eq, _ = solved(0.5)
    c, k, n = eq.cutoffs, PRIM.k, 3 * _BLOCK + 17
    estimates = estimate_aggregates(sample_log_population(regime.rho, n, seed=21), PRIM, c)
    p, t = _one_shot(regime.rho, n, seed=21)
    pass_t = t >= c.t_star
    pass_both = pass_t & (p >= c.p_star)
    expected = {
        "p_theta": pass_t.astype(float),
        "p_phi": pass_both.astype(float),
        "s_term": np.exp(k * p) * pass_both,
        "pi_breve": PRIM.f * (np.exp(k * (p - c.p_star)) - 1.0) * pass_both,
    }
    for name, est in estimates.items():
        _assert_matches(est, expected[name])

    est = estimate_profit_given_signal(1.0, PRIM, regime.rho, c.p_star, n, seed=22)
    z = np.random.default_rng(22).standard_normal(n)
    p = regime.rho * 1.0 + math.sqrt(1.0 - regime.rho**2) * z
    _assert_matches(est, PRIM.f * (np.exp(k * (p - c.p_star)) - 1.0) * (p >= c.p_star))


def test_estimate_memory_does_not_grow_with_n(solved):
    regime, eq, _ = solved(0.5)

    def peak(n):
        draws = sample_log_population(regime.rho, n, seed=31)
        tracemalloc.start()
        try:
            estimate_aggregates(draws, PRIM, eq.cutoffs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4 * 10**5), peak(4 * 10**6)
    assert large <= 1.1 * small, (small, large)


def test_oracle_imports_no_closed_form_kernel():
    import gatekeep.oracle as oracle

    for name in ("bvn_cdf", "log_tilted_upper_tail2", "expected_joint_profit",
                 "std_normal_cdf", "joint_tail_masses"):
        assert not hasattr(oracle, name), name


def test_sampling_validation():
    with pytest.raises(DomainError):
        sample_log_population(0.5, 0, seed=1)
    with pytest.raises(DomainError):
        sample_log_population(1.2, 10, seed=1)


def test_estimates_match_closed_forms(solved):
    regime, eq, agg = solved(0.5)
    draws = sample_log_population(regime.rho, 10**6, seed=314)
    estimates = estimate_aggregates(draws, PRIM, eq.cutoffs)
    assert set(estimates) == {"p_theta", "p_phi", "s_term", "pi_breve"}
    for name, est in estimates.items():
        assert est.mean > 0.0
        assert abs(z_score(getattr(agg, name), est)) <= 4.0, (name, est)
        assert est.std_error > 0.0


def test_report_deterministic(solved):
    regime, eq, _ = solved(0.5)
    r1 = estimate_aggregates(sample_log_population(0.5, 10**5, seed=9), PRIM, eq.cutoffs)
    r2 = estimate_aggregates(sample_log_population(0.5, 10**5, seed=9), PRIM, eq.cutoffs)
    assert r1 == r2
    assert repr(r1) == repr(r2)


def test_full_mass_cutoffs():
    draws = sample_log_population(0.5, 1000, seed=3)
    estimates = estimate_aggregates(draws, PRIM, LogCutoffs(-math.inf, -math.inf, 0.0))
    assert estimates["p_theta"].mean == 1.0
    assert estimates["p_phi"].mean == 1.0
    assert estimates["p_theta"].std_error == 0.0
    assert z_score(1.0, estimates["p_theta"]) == 0.0


def test_empty_activation_set_flagged_not_crashed():
    draws = sample_log_population(0.5, 1000, seed=3)
    estimates = estimate_aggregates(draws, PRIM, LogCutoffs(12.0, 0.0, 0.0))
    for name in ("p_theta", "p_phi"):
        assert estimates[name].mean == 0.0 and estimates[name].std_error == 0.0


def test_profit_estimate_monotone_and_matched(solved):
    regime, eq, _ = solved(0.89)
    p_star = eq.cutoffs.p_star
    low = estimate_profit_given_signal(0.0, PRIM, regime.rho, p_star, 10**5, seed=5)
    high = estimate_profit_given_signal(2.0, PRIM, regime.rho, p_star, 10**5, seed=5)
    assert high.mean > low.mean
    closed = expected_profit_given_signal(PRIM, regime.rho, p_star, 1.0)
    est = estimate_profit_given_signal(1.0, PRIM, regime.rho, p_star, 10**6, seed=6)
    assert abs(closed - est.mean) <= 4.0 * est.std_error


def test_profit_estimate_degenerate_cutoff():
    est = estimate_profit_given_signal(1.0, PRIM, 0.5, math.inf, 1000, seed=1)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_quadrature_bvn_arcsine():
    got = quadrature_reference("bvn", {"x": 0.0, "y": 0.0, "rho": 0.5})
    assert got == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_quadrature_unknown_quantity():
    with pytest.raises(DomainError):
        quadrature_reference("nope", {})


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.89, 0.97])
def test_closed_forms_match_quadrature(rho, solved):
    # the closed forms are the aggregates a solve reports
    _, eq, agg = solved(rho)
    c = eq.cutoffs
    k = PRIM.k
    checks = [
        (
            agg.p_phi,
            quadrature_reference("bvn", {"x": -c.p_star, "y": -c.t_star, "rho": rho}),
        ),
        (
            agg.s_term,
            quadrature_reference(
                "S", {"k": k, "rho": rho, "p_star": c.p_star, "t_star": c.t_star}
            ),
        ),
        (
            agg.pi_breve,
            quadrature_reference(
                "pi_breve", {"prim": PRIM, "rho": rho, "p_star": c.p_star, "t_star": c.t_star}
            ),
        ),
        (
            expected_profit_given_signal(PRIM, rho, c.p_star, 1.0),
            quadrature_reference(
                "pi_tilde", {"prim": PRIM, "rho": rho, "p_star": c.p_star, "t": 1.0}
            ),
        ),
    ]
    for closed, reference in checks:
        assert closed == pytest.approx(reference, abs=1e-8)


def test_tilted_moment_matches_mc_grid():
    # closed-form tilted truncated moments vs raw sample means
    n = 10**7
    for rho, seed in ((0.3, 100), (0.8, 101)):
        p, t = _concat(sample_log_population(rho, n, seed=seed))
        for k, p_c, t_c in ((1.0, 0.2, -0.1), (1.5, -0.5, 0.6)):
            values = np.exp(k * p) * ((p >= p_c) & (t >= t_c))
            mean = float(values.mean())
            se = float(values.std(ddof=1) / math.sqrt(n))
            closed = math.exp(log_tilted_upper_tail2(k, p_c, t_c, rho))
            assert abs(closed - mean) <= 4.0 * se, (rho, k, p_c, t_c)


def test_steady_state_flow_condition(solved):
    regime, eq, _ = solved(0.5)
    n_exp = 200
    m_hat, se = simulate_operating_mass(
        PRIM, regime.rho, eq.cutoffs, experimenters_per_period=n_exp,
        periods=10_000, seed=77,
    )
    target = n_exp * bvn_cdf(-eq.cutoffs.p_star, -eq.cutoffs.t_star, regime.rho) / PRIM.delta
    assert abs(m_hat - target) <= 4.0 * se


def test_simulation_validation(solved):
    _, eq, _ = solved(0.5)
    with pytest.raises(DomainError):
        simulate_operating_mass(PRIM, 0.5, eq.cutoffs, periods=10, burn_in=10)
