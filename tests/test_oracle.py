import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings

from gatekeep import oracle
from gatekeep.economy import LogCutoffs, PowerBoundedCost, Primitives, expected_profit_given_signal
from gatekeep.errors import DomainError, GatekeepError, ToleranceNotMetError
from gatekeep.normal import bvn_cdf, log_tilted_upper_tail2
from gatekeep.oracle import (
    _BLOCK,
    _ndtr,
    _qagse,
    estimate_aggregates,
    estimate_profit_given_signal,
    quadrature_reference,
    sample_log_population,
    simulate_operating_mass,
    z_score,
)
from gatekeep.welfare import compute_aggregates

from economies import economies, solved_or_none

PRIM = Primitives(sigma=2.0, f=0.15, f_n=0.005, delta=0.1)


def _concat(draws):
    """All (p, t) pairs of a streamed draw, as two arrays.

    Each block is a view that the next one overwrites, so it is copied. A
    consumer may overwrite a block (the estimators form their terms in it),
    so each is then filled with NaN.
    """
    copies = []
    for p, t in draws.blocks():
        copies.append((p.copy(), t.copy()))
        p.fill(np.nan)
        t.fill(np.nan)
    p, t = zip(*copies)
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


def _assert_one_shot(draws):
    p, t = _concat(draws)
    p0, t0 = _one_shot(draws.rho, draws.n, draws.seed)
    assert np.array_equal(p, p0) and np.array_equal(t, t0)


# the helper thread fills the next z block before a block is yielded: these
# sizes end on a one-draw block, on a full one, and have no next block at all
@pytest.mark.parametrize("n", [1, 1000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK,
                               3 * _BLOCK + 17])
def test_blocks_equal_one_shot_draw(n):
    draws = sample_log_population(0.7, n, seed=11)
    assert draws.n == n
    assert all(p.size <= _BLOCK for p, _ in draws.blocks())
    _assert_one_shot(draws)


@pytest.mark.parametrize("stop", ["break", "raise", "close"])
def test_blocks_stopped_mid_stream_end_their_helper(stop):
    # the consumer stops while the helper fills the second z block: the
    # helper ends with the stream, and the next call draws the same blocks
    draws = sample_log_population(0.7, 3 * _BLOCK + 17, seed=11)
    before = threading.active_count()
    if stop == "break":
        for _ in draws.blocks():
            assert threading.active_count() == before + 1
            break
    elif stop == "raise":
        with pytest.raises(KeyError):
            for _ in draws.blocks():
                raise KeyError(stop)
    else:
        blocks = draws.blocks()
        next(blocks)
        blocks.close()
    assert threading.active_count() == before
    _assert_one_shot(draws)


def test_blocks_on_more_threads_than_cores_equal_one_shot_draws():
    # four consumers, each with its helper, switching as often as the
    # interpreter allows: a z block read before its fill ends would show
    from concurrent.futures import ThreadPoolExecutor

    draws = [sample_log_population(0.7, 2 * _BLOCK + 17, seed=seed) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(draws)) as pool:
            list(pool.map(_assert_one_shot, draws, timeout=120))
    finally:
        sys.setswitchinterval(interval)


def test_blocks_raise_an_error_of_the_helper(monkeypatch):
    consumer = threading.current_thread()
    default_rng = np.random.default_rng

    class HelperFails:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, out):
            if threading.current_thread() is not consumer:
                raise MemoryError("helper")
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", HelperFails)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="helper"):
        next(sample_log_population(0.7, 1000, seed=11).blocks())
    assert threading.active_count() == before


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


# The estimators fill per-call block buffers in place; these references are
# the allocating one-line expressions they replaced, whose bits they keep.


def _in_blocks(values):
    return (values[start:start + _BLOCK] for start in range(0, values.size, _BLOCK))


def _reference_estimate(blocks, seed):
    """(mean, std_error, n, seed) of blocks of values, merged as the estimators merge them."""
    n, mean, m2 = 0, 0.0, 0.0
    for values in blocks:
        size = int(values.size)
        block_mean = float(values.mean())
        dev = values - block_mean
        total = n + size
        delta = block_mean - mean
        m2 += float(np.square(dev, out=dev).sum()) + delta * delta * (n * size / total)
        mean += delta * (size / total)
        n = total
    se = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
    return mean, se, n, seed


def _reference_aggregates(prim, rho, n, seed, cutoffs):
    p, t = _one_shot(rho, n, seed)
    pass_t = t >= cutoffs.t_star
    pass_both = pass_t & (p >= cutoffs.p_star)
    terms = {
        "p_theta": pass_t.astype(float),
        "p_phi": pass_both.astype(float),
        "s_term": np.exp(prim.k * p) * pass_both,
        "pi_breve": prim.f * (np.exp(prim.k * (p - cutoffs.p_star)) - 1.0) * pass_both,
    }
    return {name: _reference_estimate(_in_blocks(values), seed) for name, values in terms.items()}


def _reference_profit(prim, t, rho, p_star, n, seed):
    p = rho * t + math.sqrt(1.0 - rho * rho) * np.random.default_rng(seed).standard_normal(n)
    values = prim.f * (np.exp(prim.k * (p - p_star)) - 1.0) * (p >= p_star)
    return _reference_estimate(_in_blocks(values), seed)


def _assert_bit_equal(got, want):
    # == on the floats: every bit, not an approximation
    assert (got.mean, got.std_error, got.n, got.seed) == want, (got, want)


#: k = 2.7: at the benchmark's k = 1 every product with k is exact, so a
#: change in how k enters would keep every bit there
TILTED = Primitives(sigma=3.7, f=0.15, f_n=0.005, delta=0.1)


@pytest.mark.parametrize("n", [1, 2, 1000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17])
@pytest.mark.parametrize("rho", [0.3, 0.89, 0.95])
def test_buffered_estimates_equal_the_allocating_expressions(rho, n, solved):
    _, eq, _ = solved(rho)
    c = eq.cutoffs
    for cutoffs in (c, LogCutoffs(c.t_star, math.inf, c.a)):
        got = estimate_aggregates(sample_log_population(rho, n, seed=41), TILTED, cutoffs)
        want = _reference_aggregates(TILTED, rho, n, 41, cutoffs)
        assert set(got) == set(want)
        for name in want:
            _assert_bit_equal(got[name], want[name])
        _assert_bit_equal(
            estimate_profit_given_signal(c.t_star + 0.5, TILTED, rho, cutoffs.p_star, n, seed=42),
            _reference_profit(TILTED, c.t_star + 0.5, rho, cutoffs.p_star, n, 42),
        )


def test_estimators_on_two_threads_equal_sequential_runs(solved):
    # validate runs the two estimators at once: each call owns its buffers
    from concurrent.futures import ThreadPoolExecutor

    n = 6 * _BLOCK + 17
    calls = []
    for rho in (0.3, 0.89):
        _, eq, _ = solved(rho)
        calls.append((estimate_aggregates, sample_log_population(rho, n, seed=51), PRIM, eq.cutoffs))
        calls.append((estimate_profit_given_signal, eq.cutoffs.t_star + 0.5, PRIM, rho,
                      eq.cutoffs.p_star, n, 52))
    sequential = [fn(*args) for fn, *args in calls]
    with ThreadPoolExecutor(2) as pool:
        concurrent = list(pool.map(lambda call: call[0](*call[1:]), 3 * calls))
    assert concurrent == 3 * sequential


def _traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees fn(*args) allocate.

    A process's first draw imports numpy.random (about 12 block widths), so
    that import is made before tracing starts.
    """
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _estimator_calls(solved, n):
    """(function, args) of both estimators at n draws: the draws are built first."""
    regime, eq, _ = solved(0.5)
    c = eq.cutoffs
    return [
        (estimate_aggregates, (sample_log_population(regime.rho, n, seed=31), PRIM, c)),
        (estimate_profit_given_signal, (c.t_star + 0.5, PRIM, regime.rho, c.p_star, n, 32)),
    ]


def test_estimate_memory_does_not_grow_with_n(solved):
    small, large = _estimator_calls(solved, 4 * 10**5), _estimator_calls(solved, 4 * 10**6)
    for (fn, small_args), (_, large_args) in zip(small, large):
        small_peak, large_peak = _traced_peak(fn, *small_args), _traced_peak(fn, *large_args)
        assert large_peak <= 1.1 * small_peak, (fn.__name__, small_peak, large_peak)


def test_estimators_hold_only_their_draw_buffers_and_masks(solved):
    # block widths of bytes: 3 float64 draw buffers and 2 bool masks, or 1
    # and 1, plus about 1.1 of numpy's casting buffers
    budgets = {"estimate_aggregates": 28, "estimate_profit_given_signal": 11}
    for fn, args in _estimator_calls(solved, 3 * _BLOCK + 17):
        peak = _traced_peak(fn, *args)
        assert peak <= budgets[fn.__name__] * _BLOCK, (fn.__name__, peak / _BLOCK)


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


@pytest.mark.parametrize("rho, n, message", [
    (0.5, 0, "need at least one draw, got n=0"),
    (1.2, 10, "rho must lie in (0, 1), got 1.2"),
])
def test_both_samplers_refuse_a_sample_with_the_same_message(rho, n, message):
    # a draw record refuses an empty sample when it is built, not when an
    # estimator first reads it
    with pytest.raises(DomainError, match=re.escape(message)):
        oracle.PopulationDraws(rho, n, 1)
    with pytest.raises(DomainError, match=re.escape(message)):
        estimate_profit_given_signal(1.0, PRIM, rho, 0.3, n, seed=1)


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


@pytest.mark.filterwarnings("error")
def test_estimates_at_an_infinite_productivity_cutoff():
    # no draw survives p* = +inf, so profit is the closed form's 0.0; at
    # p* = -inf every draw's profit is infinite, the exact estimate inf
    draws = sample_log_population(0.5, 1000, seed=3)
    est = estimate_aggregates(draws, PRIM, LogCutoffs(0.2, math.inf, 0.0))["pi_breve"]
    assert (est.mean, est.std_error) == (0.0, 0.0)
    est = estimate_profit_given_signal(1.0, PRIM, 0.5, math.inf, 1000, seed=1)
    assert (est.mean, est.std_error) == (0.0, 0.0)
    inf = oracle.McEstimate(math.inf, 0.0, 1000, 3)
    assert estimate_aggregates(draws, PRIM, LogCutoffs(0.2, -math.inf, 0.0))["pi_breve"] == inf
    assert estimate_profit_given_signal(1.0, PRIM, 0.5, -math.inf, 1000, seed=3) == inf


def test_quadrature_bvn_arcsine():
    got = quadrature_reference("bvn", {"x": 0.0, "y": 0.0, "rho": 0.5})
    assert got == pytest.approx(1.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("x, y", [(-math.inf, 0.3), (0.3, -math.inf), (-math.inf, -math.inf)])
def test_quadrature_bvn_is_zero_at_a_minus_infinite_bound(x, y):
    # at x = -inf the window below -_TAIL is empty; at y = -inf the integrand
    # is 0.0 everywhere, and the first 21-point rule returns 0.0
    assert quadrature_reference("bvn", {"x": x, "y": y, "rho": 0.5}) == 0.0


def test_quadrature_unknown_quantity():
    with pytest.raises(DomainError):
        quadrature_reference("nope", {})


def test_quadrature_refuses_an_error_estimate_over_tolerance():
    # 1.6e7 periods on [0, 1]: 200 subdivisions leave an error estimate of about 0.59
    with pytest.raises(ToleranceNotMetError, match=r"^probe: quadrature error estimate 0\.5\d* "):
        oracle._quad(lambda x: math.sin(1e8 * x), 0.0, 1.0, "probe")


@pytest.mark.parametrize("quantity, params", [
    ("pi_tilde", {"prim": PRIM, "rho": 0.5, "p_star": -math.inf, "t": 1.0}),
    ("pi_tilde", {"prim": PRIM, "rho": 0.5, "p_star": 0.3, "t": math.inf}),
    ("S", {"k": PRIM.k, "rho": 0.5, "p_star": 0.3, "t_star": math.inf}),
    ("pi_breve", {"prim": PRIM, "rho": 0.5, "p_star": -math.inf, "t_star": 0.2}),
    ("bvn", {"x": math.nan, "y": 0.1, "rho": 0.5}),
])
def test_quadrature_refuses_an_unbounded_interval(quantity, params):
    # the QUADPACK port integrates finite intervals only; a solved
    # equilibrium's cutoffs are always finite
    with pytest.raises(DomainError, match="finite interval"):
        quadrature_reference(quantity, params)


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


# no shrink phase: shrinking a failure through 0.12 s quadratures took minutes
@given(economy=economies(max_rho=0.95))
@settings(max_examples=25, derandomize=True, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_closed_forms_match_quadrature_over_the_domain(economy):
    # validate's five checks on economies across the domain; rho stays at or
    # below 0.95, since the quadratures slow down sharply near rho = 1
    prim, regime = economy
    eq = solved_or_none(prim, regime)
    if eq is None:
        return
    agg = compute_aggregates(prim, regime, eq.cutoffs)
    c, rho = eq.cutoffs, regime.rho
    at_cutoffs = {"rho": rho, "p_star": c.p_star, "t_star": c.t_star}
    t_probe = c.t_star + 0.5
    checks = [
        ("p_theta", agg.p_theta, "bvn", {"x": -c.t_star, "y": math.inf, "rho": rho}),
        ("p_phi", agg.p_phi, "bvn", {"x": -c.p_star, "y": -c.t_star, "rho": rho}),
        ("s_term", agg.s_term, "S", {"k": prim.k, **at_cutoffs}),
        ("pi_breve", agg.pi_breve, "pi_breve", {"prim": prim, **at_cutoffs}),
        ("pi_tilde", expected_profit_given_signal(prim, rho, c.p_star, t_probe), "pi_tilde",
         {"prim": prim, "rho": rho, "p_star": c.p_star, "t": t_probe}),
    ]
    for name, closed, quantity, params in checks:
        try:
            quad = quadrature_reference(quantity, params)
        except GatekeepError:
            continue
        assert abs(closed - quad) <= 1e-8 * max(1.0, abs(quad)), (name, closed, quad)


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
    m_hat, se = simulate_operating_mass(PRIM, regime.rho, eq.cutoffs, seed=77)
    # 200 experimenters per period, the simulation's cohort
    target = 200 * bvn_cdf(-eq.cutoffs.p_star, -eq.cutoffs.t_star, regime.rho) / PRIM.delta
    assert abs(m_hat - target) <= 4.0 * se


# ---------------------------------------------------------------------------
# The standard-library ports against scipy, their reference (test-only).

#: quad's documented message for each QUADPACK ier from 1 to 5
_QUAD_MESSAGES = ("The maximum number of subdivisions", "The occurrence of roundoff error",
                  "Extremely bad integrand behavior", "The algorithm does not converge",
                  "The integral is probably divergent")


def _scipy_qagse(fn, a, b, epsabs, epsrel, limit):
    """(value, abserr, neval, ier) of scipy.integrate.quad on a finite interval."""
    from scipy.integrate import quad

    out = quad(fn, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = 0
    if len(out) == 4:
        ier = 1 + next(i for i, m in enumerate(_QUAD_MESSAGES) if out[3].startswith(m))
    return out[0], out[1], out[2]["neval"], ier


def _assert_qagse_matches(fn, a, b, epsabs=1e-11, epsrel=1e-12, limit=200):
    # the same points in the same order, and the same value and abserr to the
    # bit (by repr, so NaNs and signed zeros compare too); returns scipy's
    # (value, abserr, neval, ier)
    seen_port, seen_scipy = [], []
    got = _qagse(lambda x: seen_port.append(x) or fn(x), a, b, epsabs, epsrel, limit)
    want = _scipy_qagse(lambda x: seen_scipy.append(x) or fn(x), a, b, epsabs, epsrel, limit)
    assert repr(got) == repr(want[:2]), (a, b, got, want)
    assert seen_port == seen_scipy
    return want


def _qagse_cases(rng):
    """Seeded integrands: (fn, a, b, epsabs, epsrel, limit)."""
    for _ in range(300):
        # endpoint singularities, which force extrapolation
        p, c = float(rng.uniform(-0.9, 2.0)), float(rng.uniform(0.1, 3.0))
        a = float(rng.uniform(-1.0, 1.0))
        b = a + float(rng.uniform(0.1, 5.0))
        yield lambda x, p=p, c=c, a=a: c * (x - a) ** p if x > a else 0.0, a, b, 1e-11, 1e-12, 200
        yield (lambda x, p=p, b=b: abs(math.log(b - x)) * (b - x) ** p if x < b else 0.0,
               a, b, 1e-11, 1e-12, 200)
    for _ in range(500):
        # a narrow Gaussian in a window of up to 1000 sd each side, like the
        # inner integrals near rho = 1, which take many subintervals
        mu, sd = float(rng.uniform(-5.0, 5.0)), 10.0 ** float(rng.uniform(-4.0, 0.0))
        a = mu - sd * 10.0 ** float(rng.uniform(0.5, 3.0))
        b = mu + sd * 10.0 ** float(rng.uniform(0.5, 3.0))
        peak = lambda x, mu=mu, sd=sd: math.exp(-0.5 * ((x - mu) / sd) ** 2) / sd
        yield peak, a, b, 1e-11, 1e-12, 200
        # a loose tolerance and a small subdivision limit
        yield peak, a, b, 1e-3, 1e-6, int(rng.integers(1, 30))
    for _ in range(200):
        w, b = float(rng.uniform(1.0, 200.0)), float(rng.uniform(1.0, 20.0))
        yield lambda x, w=w: math.sin(w * x) * math.exp(-x), 0.0, b, 1e-11, 1e-12, 50
    for _ in range(100):
        # each of QUADPACK's flags: a jump far from 0 (roundoff), a jump at
        # a tolerance below the rule's reach (bad behaviour at a point), a
        # divergent power and the subdivision limit
        c = float(rng.uniform(500.0, 2000.0))
        yield lambda x, c=c: 1.0 if x > c else 0.0, c - 1.0, c + 1.0, 1e-14, 0.0, 200
        c = float(rng.uniform(0.1, 0.9))
        yield lambda x, c=c: 1.0 if x > c else 0.0, 0.0, 1.0, 1e-15, 1e-15, 200
        p = float(rng.uniform(-1.2, -0.95))
        yield lambda x, p=p: x ** p if x > 0.0 else 0.0, 0.0, 1.0, 1e-11, 1e-12, 100
        yield lambda x: 1.0 / x if x > 0.0 else 0.0, 0.0, float(rng.uniform(0.5, 2.0)), 1e-11, 1e-12, 50


def test_qagse_matches_scipy_quad():
    rng = np.random.default_rng(20261018)
    iers, subdivided = set(), 0
    for fn, a, b, epsabs, epsrel, limit in _qagse_cases(rng):
        # the flags and evaluation count are scipy's: the port returns neither
        _, _, neval, ier = _assert_qagse_matches(fn, a, b, epsabs, epsrel, limit)
        iers.add(ier)
        subdivided += neval > 21
    assert iers == {0, 1, 2, 3, 4, 5}
    assert subdivided > 2000


def test_qagse_matches_scipy_quad_on_nonfinite_values():
    # NaN and inf integrand values take the Fortran's branches too
    rng = np.random.default_rng(7)
    for c, w in zip(rng.uniform(-1.0, 1.0, 40).tolist(), rng.uniform(1e-3, 0.5, 40).tolist()):
        for fn, a, b in (
            (lambda x: math.nan if abs(x - c) < w else math.exp(x), -1.0, 1.0),
            (lambda x: math.inf if abs(x - c) < w else x * x, -1.0, 1.0),
            (lambda x: -math.inf if x > c else 1.0, -1.0, 1.0),
            (lambda x: 1e308 * math.exp(x), c, c + 1.0),
        ):
            _assert_qagse_matches(fn, a, b)


@pytest.mark.parametrize("rho", [0.89, 0.95])
def test_qagse_matches_scipy_on_the_oracles_integrands(rho, monkeypatch):
    # every quadrature validate makes at benchmark.cfg, inner ones included
    from gatekeep.economy import Regime
    from gatekeep.equilibrium import solve_equilibrium
    from gatekeep.welfare import compute_aggregates

    regime = Regime(rho, PowerBoundedCost(3.0, 2.0, 8.0))
    eq = solve_equilibrium(PRIM, regime)
    agg = compute_aggregates(PRIM, regime, eq.cutoffs)
    calls = []

    def checked(fn, a, b, epsabs, epsrel, limit):
        want = _assert_qagse_matches(fn, a, b, epsabs, epsrel, limit)
        calls.append(want[2])
        return want[:2]

    monkeypatch.setattr(oracle, "_qagse", checked)
    t_star, p_star = eq.cutoffs.t_star, eq.cutoffs.p_star
    at = {"rho": rho, "p_star": p_star, "t_star": t_star}
    values = [
        quadrature_reference("bvn", {"x": -t_star, "y": math.inf, "rho": rho}),
        quadrature_reference("bvn", {"x": -p_star, "y": -t_star, "rho": rho}),
        quadrature_reference("S", {"k": PRIM.k, **at}),
        quadrature_reference("pi_breve", {"prim": PRIM, **at}),
        quadrature_reference("pi_tilde", {"prim": PRIM, "rho": rho, "p_star": p_star,
                                          "t": t_star + 0.5}),
    ]
    closed = [agg.p_theta, agg.p_phi, agg.s_term, agg.pi_breve,
              expected_profit_given_signal(PRIM, rho, p_star, t_star + 0.5)]
    assert values == pytest.approx(closed, abs=1e-8)
    # the outer integrals of S and pi_breve run each inner one through scipy
    # a second time, so there are more checks than validate's 341 calls
    assert len(calls) > 300
    assert sum(neval > 21 for neval in calls) > 100


def _ndtr_points():
    rng = np.random.default_rng(20261018)
    points = [*rng.uniform(-45.0, 45.0, 200_000), *rng.uniform(-12.0, 12.0, 100_000),
              *rng.uniform(-1.5, 1.5, 20_000)]
    # branch edges: |a| = 1 (ndtr), sqrt(2) (erf/erfc at 1), 8 sqrt(2) (erfc's
    # P/Q and R/S), the underflow of exp(-z*z), where erfc's tail reaches 0
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * oracle._MAXLOG), 37.5, 38.5]
    for edge in edges:
        for e in (edge, -edge):
            for direction in (math.inf, -math.inf):
                x = e
                for _ in range(64):
                    points.append(x)
                    x = math.nextafter(x, direction)
            points += [e + k * 1e-13 * e for k in range(-100, 101)]
    points += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               1e-310, -1e-310, 1e300, -1e300, math.inf, -math.inf]
    return np.array(points)


def test_ndtr_matches_scipy_ndtr():
    from scipy.special import ndtr

    points = _ndtr_points()
    assert points.size >= 300_000
    got = np.array([_ndtr(float(a)) for a in points])
    want = ndtr(points)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert math.isnan(_ndtr(math.nan))
