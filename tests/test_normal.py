import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatekeep.errors import DomainError, NearSingularCorrelationError, TiltOverflowError
from gatekeep import normal
from gatekeep.normal import (
    _GL20_W,
    _GL20_X,
    SQRT_2PI,
    bvn_cdf,
    exp_tilt,
    joint_tail_masses,
    log_std_normal_cdf,
    log_tilted_upper_tail2,
    std_normal_cdf,
)
from reference_values import (
    BVN_GRID,
    BVN_POINT_1_2__M0_3__0_7,
    STD_NORMAL_CDF_1_0,
    TILTED2_1__0_2__M0_1__0_6,
)

finite_x = st.floats(min_value=-30.0, max_value=30.0)


def test_cdf_special_points():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(math.inf) == 1.0
    assert std_normal_cdf(-math.inf) == 0.0
    assert std_normal_cdf(1.0) == pytest.approx(0.841344746069, abs=1e-12)
    assert std_normal_cdf(1.0) == pytest.approx(STD_NORMAL_CDF_1_0, abs=1e-14)


@given(x=st.floats(min_value=-8.0, max_value=8.0))
def test_cdf_reflection(x):
    assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-14)


@given(x=finite_x)
def test_cdf_bounds(x):
    assert 0.0 <= std_normal_cdf(x) <= 1.0


def test_log_cdf_matches_direct_log():
    for x in (-5.0, -20.0, -36.5):
        assert log_std_normal_cdf(x) == pytest.approx(math.log(std_normal_cdf(x)), rel=1e-13)


def test_log_cdf_deep_tail_smooth_across_seam():
    # derivative of log Phi near -37 is ~|x|; the branch switch must not jump
    lo, hi = log_std_normal_cdf(-37.02), log_std_normal_cdf(-36.98)
    assert hi - lo == pytest.approx(0.04 * 37.0, rel=1e-3)


def test_log_cdf_at_minus_inf():
    assert log_std_normal_cdf(-math.inf) == -math.inf


def test_bvn_independence_product():
    assert bvn_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=5e-15)
    for x, y in [(-1.3, 0.4), (0.9, 2.1), (-2.0, -0.7)]:
        prod = std_normal_cdf(x) * std_normal_cdf(y)
        assert bvn_cdf(x, y, 0.0) == pytest.approx(prod, abs=1e-13)


def test_bvn_arcsine_identity():
    # Phi_rho(0, 0) = 1/4 + arcsin(rho) / (2 pi)
    assert bvn_cdf(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=5e-15)
    for rho in (0.2, 0.3, 0.8, 0.9):
        expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert bvn_cdf(0.0, 0.0, rho) == pytest.approx(expected, abs=5e-15)


def test_bvn_infinite_arguments():
    assert bvn_cdf(math.inf, 0.7, 0.5) == std_normal_cdf(0.7)
    assert bvn_cdf(-0.2, math.inf, 0.5) == std_normal_cdf(-0.2)
    assert bvn_cdf(-math.inf, 0.7, 0.5) == 0.0
    assert bvn_cdf(0.7, -math.inf, 0.95) == 0.0
    assert bvn_cdf(math.inf, math.inf, 0.5) == 1.0


@pytest.mark.parametrize(
    "x, y, rho, want",
    [
        (0.3, 1e60, 0.95, 0.6179114221889526),  # Phi(0.3); the Genz rule gave NaN, clamped to 0
        (1e200, -1e200, 0.95, 0.0),  # (h - k) ** 2 overflowed
        (-0.5, 1e308, 0.97, 0.3085375387259869),  # Phi(-0.5); also an overflow
        (1e200, 1e200, 0.5, 1.0),  # inf - inf in the arcsine rule gave NaN, clamped to 0
    ],
)
def test_bvn_huge_finite_arguments_take_their_limits(x, y, rho, want):
    assert bvn_cdf(x, y, rho) == want
    assert bvn_cdf(y, x, rho) == want


@pytest.mark.parametrize(
    "x, y, rho, want",
    [
        # Phi(x) by mpmath at 40 digits: given X <= x, Y > y has mass below 1e-300
        (-9.0, 30.0, -0.95, 1.128588405953840647735502e-19),
        (-5.957413326773415, 128.21724971042275, -0.9655855382958853, 1.281307707705290299e-09),
    ],
)
def test_bvn_negative_high_correlation_keeps_a_tiny_tail(x, y, rho, want):
    # the kernel serves rho >= 0 only; a caller with a negative correlation
    # reflects, Phi_rho(x, y) = Phi(x) - Phi_-rho(x, -y), and a mass far below
    # the spacing of floats near 1 must not cancel away there
    for a, b in ((x, y), (y, x)):
        with pytest.raises(DomainError, match="correlation must lie in"):
            bvn_cdf(a, b, rho)
    assert abs(std_normal_cdf(x) - bvn_cdf(x, -y, -rho) - want) <= 1e-12 * want


def test_bvn_far_bound_splits_genz_from_the_reduction():
    far = normal._FAR_ARGUMENT
    near = math.nextafter(far, 0.0)
    for rho in (0.0, 0.5, 0.925, 0.97):
        # just inside the bound the Genz rule still answers; at it, the limit does
        genz = min(1.0, max(0.0, _reference_bvn_upper(-near, 0.3, rho)))
        assert bvn_cdf(near, -0.3, rho) == genz
        assert bvn_cdf(far, -0.3, rho) == std_normal_cdf(-0.3)
        assert bvn_cdf(-far, -0.3, rho) == 0.0
        assert bvn_cdf(far, far, rho) == 1.0


def test_bvn_large_argument_marginal_reduction():
    # finite but effectively infinite second coordinate
    assert bvn_cdf(0.3, 37.0, 0.6) == pytest.approx(std_normal_cdf(0.3), abs=1e-13)


def test_bvn_against_quadrature_oracle_grid():
    for (x, y, rho), reference in BVN_GRID.items():
        assert bvn_cdf(x, y, rho) == pytest.approx(reference, abs=5e-15), (x, y, rho)


def test_bvn_frozen_point():
    assert bvn_cdf(1.2, -0.3, 0.7) == pytest.approx(BVN_POINT_1_2__M0_3__0_7, abs=5e-15)


@given(
    x=st.floats(min_value=-6.0, max_value=6.0),
    y=st.floats(min_value=-6.0, max_value=6.0),
    rho=st.floats(min_value=0.0, max_value=0.99),
)
@settings(max_examples=150)
def test_bvn_symmetric_and_bounded(x, y, rho):
    a, b = bvn_cdf(x, y, rho), bvn_cdf(y, x, rho)
    assert a == pytest.approx(b, abs=2e-15)
    assert 0.0 <= a <= 1.0


def test_bvn_monotone_in_each_argument():
    xs = [-2.5, -1.0, 0.0, 0.8, 2.0]
    for rho in (0.3, 0.4, 0.9, 0.95):
        for y in (-1.2, 0.5):
            vals = [bvn_cdf(x, y, rho) for x in xs]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
            vals = [bvn_cdf(y, x, rho) for x in xs]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_bvn_near_singular_rejected():
    with pytest.raises(NearSingularCorrelationError):
        bvn_cdf(0.0, 0.0, 1.0 - 1e-13)
    with pytest.raises(DomainError, match="correlation must lie in"):
        bvn_cdf(0.0, 0.0, -(1.0 - 1e-13))


def test_bvn_nan_rejected():
    with pytest.raises(DomainError):
        bvn_cdf(math.nan, 0.0, 0.5)
    with pytest.raises(DomainError):
        bvn_cdf(0.0, 0.0, math.nan)


def _reference_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _reference_bvn_upper(h, k, r):
    # the Genz rule without the per-correlation node tables, nodes
    # recomputed on every call
    hk = h * k
    bvn = 0.0
    if r < 0.925:
        hs = 0.5 * (h * h + k * k)
        asr = math.asin(r)
        for xi, wi in zip(_GL20_X, _GL20_W):
            for pm in (-1.0, 1.0):
                sn = math.sin(asr * (1.0 + pm * xi) / 2.0)
                bvn += wi * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = bvn * asr / (4.0 * math.pi) + _reference_cdf(-h) * _reference_cdf(-k)
        return bvn
    a_sq = (1.0 - r) * (1.0 + r)
    a = math.sqrt(a_sq)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -(bs / a_sq + hk) / 2.0
    if asr > -100.0:
        bvn = a * math.exp(asr) * (
            1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0
            + c * d * a_sq * a_sq / 5.0
        )
    if -hk < 100.0:
        b = math.sqrt(bs)
        sp = SQRT_2PI * _reference_cdf(-b / a)
        bvn -= math.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
    a /= 2.0
    for xi, wi in zip(_GL20_X, _GL20_W):
        for pm in (-1.0, 1.0):
            xs = (a * (pm * xi + 1.0)) ** 2
            rs = math.sqrt(1.0 - xs)
            asr1 = -(bs / xs + hk) / 2.0
            if asr1 > -100.0:
                sp = 1.0 + c * xs * (1.0 + d * xs)
                ep = math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                bvn += a * wi * math.exp(asr1) * (ep - sp)
    bvn = -bvn / (2.0 * math.pi)
    bvn += _reference_cdf(-max(h, k))
    return bvn


def _reference_bvn_cdf(x, y, rho):
    # bvn_cdf's guards and its reductions of infinite and far (>= 1e6)
    # arguments, in front of the table-free rule
    if rho > 1.0 - 1e-12:
        raise NearSingularCorrelationError("near-singular correlation")
    if not rho >= 0.0:
        raise DomainError("correlation must lie in [0, 1 - 1e-12]")
    if math.isnan(x) or math.isnan(y):
        raise DomainError("bvn_cdf arguments must not be NaN")
    far = 1e6
    if abs(x) >= far or abs(y) >= far:
        if x <= -far or y <= -far:
            return 0.0
        if x >= far and y >= far:
            return 1.0
        return _reference_cdf(y) if x >= far else _reference_cdf(x)
    return min(1.0, max(0.0, _reference_bvn_upper(-x, -y, rho)))


def _assert_bit_exact(x, y, rho):
    got, want = bvn_cdf(x, y, rho), _reference_bvn_cdf(x, y, rho)
    assert got == want, (x, y, rho, got, want)
    assert math.copysign(1.0, got) == math.copysign(1.0, want), (x, y, rho)


_BRANCH_EDGE = (math.nextafter(0.925, 0.0), 0.925, math.nextafter(0.925, 1.0))


def test_bvn_node_tables_bit_exact_in_both_branches():
    rng = random.Random(20261018)
    rhos = (
        [rng.uniform(0.0, 0.999) for _ in range(60)]
        + [rng.uniform(0.925, 1.0 - 1e-12) for _ in range(40)]
        + list(_BRANCH_EDGE)
        + [0.0, -0.0, 0.5, 0.99, 1.0 - 1e-12]
    )
    for rho in rhos:
        for _ in range(25):
            _assert_bit_exact(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0), rho)
        for x, y in ((0.0, 0.0), (40.0, -40.0), (-40.0, 40.0), (37.0, 0.3), (-0.3, -9.0)):
            _assert_bit_exact(x, y, rho)


def test_bvn_node_tables_bit_exact_at_infinite_arguments():
    for rho in (0.0, -0.0, 0.5, 0.97, *_BRANCH_EDGE):
        for inf in (math.inf, -math.inf):
            for other in (inf, -inf, -1.3, 0.0, 2.4):
                _assert_bit_exact(inf, other, rho)
                _assert_bit_exact(other, inf, rho)


def test_bvn_node_tables_bit_exact_under_eviction():
    # more distinct correlations than the tables hold, visited round-robin,
    # so every call in the second and third rounds rebuilds evicted nodes
    rng = random.Random(7)
    rhos = [rng.uniform(0.0, 0.999) for _ in range(3 * normal._NODE_CACHE_SIZE)]
    rhos += [rng.uniform(0.93, 0.999) for _ in range(2 * normal._NODE_CACHE_SIZE)]
    points = [(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)) for _ in range(3)]
    for _ in range(3):
        for rho in rhos:
            for x, y in points:
                _assert_bit_exact(x, y, rho)


def test_bvn_node_tables_stay_bounded():
    for i in range(1000):
        rho = 0.999 * i / 999
        bvn_cdf(0.3, -0.2, rho)
    # the nodes of both branches are held in the table of per-rho Genz rules
    assert 0 < normal._genz_rule.cache_info().currsize <= normal._NODE_CACHE_SIZE


def _frozen_log_tilted_upper_tail2(k, p_c, t_c, rho):
    # log_tilted_upper_tail2 as it stood before joint_tail_masses formed
    # log S for it, on the reference bvn_cdf
    if math.isnan(k):
        raise DomainError("tilt exponent must not be NaN")
    prob = _reference_bvn_cdf(-p_c + k, -t_c + rho * k, rho)
    if prob == 0.0:
        return -math.inf
    return 0.5 * k * k + math.log(prob)


def _frozen_pair(k, p, t, rho):
    return _frozen_log_tilted_upper_tail2(k, p, t, rho), _reference_bvn_cdf(-p, -t, rho)


def _pair_outcome(fn):
    """fn()'s value, or the class of the error it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc)


def _assert_pair_exact(k, p, t, rho):
    got = _pair_outcome(lambda: joint_tail_masses(k, p, t, rho))
    want = _pair_outcome(lambda: _frozen_pair(k, p, t, rho))
    assert got == want, (k, p, t, rho, got, want)
    if isinstance(want, tuple):
        signs = [math.copysign(1.0, v) for v in got + want]
        assert signs[:2] == signs[2:], (k, p, t, rho, got, want)


def test_joint_tail_masses_bit_exact_in_both_branches():
    rng = random.Random(20261019)
    rhos = (
        [rng.uniform(0.0, 0.999) for _ in range(60)]
        + [rng.uniform(0.925, 1.0 - 1e-12) for _ in range(40)]
        + list(_BRANCH_EDGE)
        + [0.0, -0.0, 0.5, 0.99, 1.0 - 1e-12]
    )
    for rho in rhos:
        for _ in range(25):
            _assert_pair_exact(rng.uniform(0.0, 6.0), rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0), rho)
        for k, p, t in ((1.0, 0.0, 0.0), (0.0, 0.3, -0.2), (-1.5, 0.4, 1.1), (2.0, 40.0, -40.0),
                        (2.0, -40.0, 40.0), (1.0, 37.0, 0.3), (3.0, -0.3, -9.0), (1.0, 1.0, rho)):
            _assert_pair_exact(k, p, t, rho)


def test_joint_tail_masses_bit_exact_where_the_expansion_nodes_show():
    # at r >= 0.925 the node sum is a small correction to closed-form
    # terms, so its last bits reach the result mostly at rho near 0.93 with
    # cutoffs of the same sign far out in the tails
    rng = random.Random(20261020)
    for _ in range(600):
        side = rng.choice((1.0, -1.0))
        p, t = side * rng.uniform(7.0, 10.0), side * rng.uniform(7.0, 10.0)
        _assert_pair_exact(rng.uniform(0.0, 1.0), p, t, rng.uniform(0.925, 0.94))


def test_joint_tail_masses_bit_exact_at_infinite_and_huge_arguments():
    inf = math.inf
    for rho in (0.0, -0.0, 0.5, 0.97, *_BRANCH_EDGE):
        for k in (0.0, 1.0, inf, -inf):
            for p, t in ((inf, 0.3), (-inf, 0.3), (0.3, inf), (-0.3, -inf), (inf, -inf), (-inf, -inf)):
                _assert_pair_exact(k, p, t, rho)
        # finite arguments whose shifted point overflows to infinity
        _assert_pair_exact(1e308, -1e308, 0.5, rho)
        _assert_pair_exact(1e308, 0.5, -1e308, rho)


def test_joint_tail_masses_equal_the_single_calls_beyond_the_far_bound():
    far = normal._FAR_ARGUMENT
    points = (
        (1.0, -0.3, -1e60), (0.0, -1e200, 1e200), (1.0, 0.5, -1e308), (1.0, 1e308, 0.2),
        (2.0, -far, 0.1), (2.0, 0.1, far), (1.0, -(far - 1.0), 0.2), (1e7, 0.5, 0.2),
    )
    for rho in (0.0, 0.5, 0.95, 0.97, *_BRANCH_EDGE):
        for k, p, t in points:
            # values, not error classes: every one of these has a limit
            want = _frozen_pair(k, p, t, rho)
            got = joint_tail_masses(k, p, t, rho)
            assert got == want, (k, p, t, rho, got, want)
            assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


def test_joint_tail_masses_raise_the_single_calls_errors():
    nan = math.nan
    for k, p, t, rho in ((nan, 0.1, 0.2, 0.5), (1.0, nan, 0.2, 0.5), (1.0, 0.1, nan, 0.5),
                         (1.0, 0.1, 0.2, nan), (1.0, 0.1, 0.2, 1.0), (1.0, 0.1, 0.2, -1.0),
                         (1.0, 0.1, 0.2, 1.0 - 1e-13), (1.0, 0.1, 0.2, 2.0), (1.0, 0.1, 0.2, -math.inf),
                         (1.0, 0.1, 0.2, -0.5), (1.0, 0.1, 0.2, -5e-324)):
        want = _pair_outcome(lambda: _frozen_pair(k, p, t, rho))
        assert want in (DomainError, NearSingularCorrelationError)
        with pytest.raises(want):
            joint_tail_masses(k, p, t, rho)


@pytest.mark.parametrize("rho, error, message", [
    (normal.NEAR_SINGULAR_RHO, None, None),
    (math.nextafter(normal.NEAR_SINGULAR_RHO, 2.0), NearSingularCorrelationError,
     "rho = 0.9999999999990001 exceeds 0.999999999999; use the univariate reduction"),
    (-0.0, None, None),
    (-5e-324, DomainError, "correlation must lie in [0, 0.999999999999], got -5e-324"),
])
def test_joint_tail_masses_keep_their_errors_at_the_ends_of_the_rho_range(rho, error, message):
    # both ends of [0, NEAR_SINGULAR_RHO], -0.0 included, take the pair pass;
    # the first float outside raises _check_correlation's errors
    for k, p, t in ((1.0, 0.1, 0.2), (0.0, -0.3, 0.4)):
        if error is None:
            _assert_pair_exact(k, p, t, rho)
        else:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                joint_tail_masses(k, p, t, rho)


@pytest.mark.parametrize("masses", [
    (math.nan, -0.0), (-0.0, math.nan), (1.0 + 2.0**-52, -5e-324), (-5e-324, 1.0 + 2.0**-52),
    (0.25, 1.0), (1.0, 0.25), (math.inf, -math.inf),
])
def test_joint_tail_masses_clamp_each_genz_mass_like_min_max(monkeypatch, masses):
    # each mass is clamped as min(1.0, max(0.0, v)) clamps it: NaN and -0.0
    # give +0.0, and a mass a rounding above 1 gives 1.0
    monkeypatch.setattr(normal, "_genz_rule", lambda r: lambda *args: masses)
    k = 1.5
    s_mass, p_phi = (min(1.0, max(0.0, v)) for v in masses)
    want = (-math.inf if s_mass == 0.0 else 0.5 * k * k + math.log(s_mass), p_phi)
    got = joint_tail_masses(k, 0.2, -0.3, 0.6)
    assert got == want
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


def test_joint_tail_masses_signed_zero_keys_share_values():
    # the values, signs included, must not depend on the sign of a zero argument
    for rho in (0.3, 0.6, 0.95, 0.99, 0.0):
        for k in (1.0, 0.0):
            first = joint_tail_masses(k, 0.0, 0.0, rho)
            for p, t, r in ((-0.0, 0.0, rho), (0.0, -0.0, rho), (-0.0, -0.0, -rho if rho == 0.0 else rho)):
                _assert_pair_exact(k, p, t, r)
                got = joint_tail_masses(k, p, t, r)
                assert got == first
                assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in first]


def test_tilted_reduces_to_tail_probability():
    # without the signal cutoff and the tilt, the mass is the univariate tail
    for c in (-2.0, 0.0, 1.7):
        got = math.exp(log_tilted_upper_tail2(0.0, c, -math.inf, 0.5))
        assert got == pytest.approx(std_normal_cdf(-c), abs=1e-14)


def test_tilted_full_mgf():
    # with no cutoff the log moment is k^2 / 2, exactly
    assert log_tilted_upper_tail2(1.0, -math.inf, -math.inf, 0.5) == 0.5


def test_tilted_monotone_in_cutoff():
    vals = [log_tilted_upper_tail2(1.3, c, -math.inf, 0.5) for c in (-3.0, -1.0, 0.0, 1.0, 3.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_exp_tilt_range_edge():
    top = math.log(sys.float_info.max)
    assert exp_tilt(top, "edge") <= sys.float_info.max
    for past in (math.nextafter(top, math.inf), math.inf):
        with pytest.raises(TiltOverflowError, match="edge exceeds the double exponent range"):
            exp_tilt(past, "edge")
    assert exp_tilt(-math.inf, "edge") == 0.0
    assert math.isnan(exp_tilt(math.nan, "edge"))


def test_tilted2_reduces_to_joint_tail():
    for (p_c, t_c, rho) in [(-0.5, 0.3, 0.6), (1.0, -1.0, 0.2)]:
        log_s, p_phi = joint_tail_masses(0.0, p_c, t_c, rho)
        assert p_phi == bvn_cdf(-p_c, -t_c, rho)
        assert math.exp(log_s) == pytest.approx(p_phi, abs=1e-14)


def test_tilted2_marginal_reduction():
    # dropping either cutoff leaves a univariate tilted tail
    got = math.exp(joint_tail_masses(1.0, -math.inf, 0.2, 0.6)[0])
    assert got == pytest.approx(math.exp(0.5) * std_normal_cdf(-0.2 + 0.6), rel=1e-13)
    got = math.exp(joint_tail_masses(1.0, 0.5, -math.inf, 0.6)[0])
    assert got == pytest.approx(math.exp(0.5) * std_normal_cdf(1.0 - 0.5), rel=1e-13)


def test_tilted2_frozen_quadrature_value():
    got = math.exp(joint_tail_masses(1.0, 0.2, -0.1, 0.6)[0])
    assert got == pytest.approx(TILTED2_1__0_2__M0_1__0_6, rel=1e-13)


def test_tilted2_monotone_in_cutoffs():
    base = joint_tail_masses(1.0, -0.2, 0.1, 0.5)[0]
    for p_c in (0.0, 0.5, 1.5):
        assert joint_tail_masses(1.0, p_c, 0.1, 0.5)[0] <= base
    for t_c in (0.4, 1.0, 2.5):
        assert joint_tail_masses(1.0, -0.2, t_c, 0.5)[0] <= base


def test_tilted2_near_singular_rejected():
    for kernel in (joint_tail_masses, log_tilted_upper_tail2):
        with pytest.raises(NearSingularCorrelationError):
            kernel(1.0, 0.0, 0.0, 1.0 - 1e-13)
        with pytest.raises(DomainError, match="correlation must lie in"):
            kernel(1.0, 0.0, 0.0, -(1.0 - 1e-13))
