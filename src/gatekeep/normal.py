"""Standard and bivariate normal kernels plus exponential-tilting moments.

Everything the closed-form economy layer needs reduces to these kernels:

* ``std_normal_cdf`` / ``log_std_normal_cdf`` -- the univariate CDF and its log,
* ``bvn_cdf`` -- the bivariate normal CDF with standard marginals,
* ``joint_tail_masses`` -- log S = log E[exp(k P) 1{P >= p_c, T >= t_c}], the
  tilted truncated moment of a standard bivariate pair (P, T), and
  P(P >= p_c, T >= t_c), in one pass; the one place log S is formed
  (``log_tilted_upper_tail2`` is its first value).

The bivariate CDF is a double-precision port of the Drezner-Wesolowsky
scheme as refined by Genz (Gauss-Legendre quadrature on the arcsine
transformation, with a separate expansion branch for ``rho >= 0.925``). It
serves the correlations the economy has, ``0 <= rho <= 1 - 1e-12``, and
refuses the others. Absolute accuracy is on the order of 5e-15 for
``rho <= 0.99``. The quadrature nodes depend on the correlation alone, so
they are built once per ``rho`` and the last few kept in a bounded table;
each node is the same float expression as in the uncached rule, so results
are identical to it bit for bit. One rule, ``_bvn_upper_pair``, evaluates
two points per pass over the nodes: ``joint_tail_masses`` uses both to give
the two masses of a free-entry residual, the tilted mass and the joint tail
at one rho, and hands a NaN, infinite or far point to ``bvn_cdf``, which
holds the guards and reductions, passes its one point twice and keeps the
first value. All kernels here are pure functions: the node tables change how
fast a value is computed, never the value.

Tilted moments are held in log space, so they are total on their
mathematical domain; ``exp_tilt`` raises ``TiltOverflowError`` only where a
caller's *result* exceeds the double exponent range.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError, NearSingularCorrelationError, TiltOverflowError

SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: correlations above this are rejected as numerically singular
NEAR_SINGULAR_RHO = 1.0 - 1e-12

#: ``bvn_cdf`` treats a finite argument at or beyond +/- this bound as +/-inf.
#: Phi(-x) underflows to 0 from x = 38.5 on, so the reduction is exact there,
#: while the Genz rules lose every digit far out (NaN past about 1e52, an
#: ``OverflowError`` past 6.7e153). The bound sits far above every point the
#: solver evaluates: its cutoffs stay within a few ``BRACKET_BOUND``s, and a
#: tilt k = sigma - 1 above about 3e4 overflows the activation stage first.
_FAR_ARGUMENT = 1e6

# Gauss-Legendre abscissae/weights on (0, 1), order 20 (positive half).
_GL20_X = (
    0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
    0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
    0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
    0.07652652113349733,
)
_GL20_W = (
    0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
    0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
    0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
    0.1527533871307259,
)


def std_normal_cdf(x: float) -> float:
    """CDF of N(0, 1); accepts +/-inf and is accurate in both tails."""
    return 0.5 * math.erfc(-x / _SQRT2)


def log_std_normal_cdf(x: float) -> float:
    """log CDF of N(0, 1), stable arbitrarily deep in the lower tail."""
    if x > -37.0:
        return math.log(std_normal_cdf(x))
    # Mills-ratio asymptotic expansion for the deep lower tail.
    inv2 = 1.0 / (x * x)
    series = 1.0 + inv2 * (-1.0 + inv2 * (3.0 + inv2 * (-15.0 + inv2 * 105.0)))
    return -0.5 * x * x - _LOG_SQRT_2PI - math.log(-x) + math.log(series)


def _check_correlation(rho: float) -> None:
    if not 0.0 <= rho <= NEAR_SINGULAR_RHO:
        if rho > NEAR_SINGULAR_RHO:
            raise NearSingularCorrelationError(
                f"rho = {rho!r} exceeds {NEAR_SINGULAR_RHO!r}; use the univariate reduction"
            )
        raise DomainError(f"correlation must lie in [0, {NEAR_SINGULAR_RHO!r}], got {rho!r}")


#: correlations whose quadrature nodes are kept; a solve uses one rho throughout
_NODE_CACHE_SIZE = 8


@lru_cache(maxsize=_NODE_CACHE_SIZE)
def _arcsine_nodes(r: float):
    """asin(r) and the (w, sn, 1 - sn^2) nodes of the r < 0.925 rule."""
    asr = math.asin(r)
    nodes = []
    for xi, wi in zip(_GL20_X, _GL20_W):
        for pm in (-1.0, 1.0):
            sn = math.sin(asr * (1.0 + pm * xi) / 2.0)
            nodes.append((wi, sn, 1.0 - sn * sn))
    return asr, tuple(nodes)


@lru_cache(maxsize=_NODE_CACHE_SIZE)
def _expansion_nodes(r: float):
    """(1 - r)(1 + r), its root a, and the nodes of the r >= 0.925 expansion.

    Each node is (a w / 2, xs, rs, 1 - rs, 2 (1 + rs)).
    """
    a_sq = (1.0 - r) * (1.0 + r)
    a = math.sqrt(a_sq)
    half = a / 2.0
    nodes = []
    for xi, wi in zip(_GL20_X, _GL20_W):
        for pm in (-1.0, 1.0):
            xs = (half * (pm * xi + 1.0)) ** 2
            rs = math.sqrt(1.0 - xs)
            nodes.append((half * wi, xs, rs, 1.0 - rs, 2.0 * (1.0 + rs)))
    return a_sq, a, tuple(nodes)


def _expansion_head(h: float, k: float, hk: float, a_sq: float, a: float):
    """(bs, c, d) of the r >= 0.925 expansion and its sum before the nodes."""
    bvn = 0.0
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
        sp = SQRT_2PI * std_normal_cdf(-b / a)
        bvn -= math.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
    return bs, c, d, bvn


def _bvn_upper_pair(h1: float, k1: float, h2: float, k2: float, r: float):
    """(P(X > h1, Y > k1), P(X > h2, Y > k2)) for standard bivariate normal
    with correlation 0 <= r <= 1 - 1e-12, from one pass over the nodes.

    Double-precision Drezner-Wesolowsky/Genz algorithm, 20-point
    Gauss-Legendre rule throughout; the nodes come from the per-r tables.
    The two sums share the nodes and nothing else, so each value is the one
    the rule gives for its point alone.
    """
    exp = math.exp
    hk1 = h1 * k1
    hk2 = h2 * k2
    if r < 0.925:
        hs1 = 0.5 * (h1 * h1 + k1 * k1)
        hs2 = 0.5 * (h2 * h2 + k2 * k2)
        asr, nodes = _arcsine_nodes(r)
        bvn1 = bvn2 = 0.0
        for wi, sn, den in nodes:
            bvn1 += wi * exp((sn * hk1 - hs1) / den)
            bvn2 += wi * exp((sn * hk2 - hs2) / den)
        return (
            bvn1 * asr / (4.0 * math.pi) + std_normal_cdf(-h1) * std_normal_cdf(-k1),
            bvn2 * asr / (4.0 * math.pi) + std_normal_cdf(-h2) * std_normal_cdf(-k2),
        )
    # High-correlation branch: expand about r = 1 (r < 1 is guaranteed by
    # the near-singular guard upstream).
    a_sq, a, nodes = _expansion_nodes(r)
    bs1, c1, d1, bvn1 = _expansion_head(h1, k1, hk1, a_sq, a)
    bs2, c2, d2, bvn2 = _expansion_head(h2, k2, hk2, a_sq, a)
    for awi, xs, rs, one_minus_rs, two_one_plus_rs in nodes:
        asr1 = -(bs1 / xs + hk1) / 2.0
        if asr1 > -100.0:
            sp = 1.0 + c1 * xs * (1.0 + d1 * xs)
            ep = exp(-hk1 * one_minus_rs / two_one_plus_rs) / rs
            bvn1 += awi * exp(asr1) * (ep - sp)
        asr2 = -(bs2 / xs + hk2) / 2.0
        if asr2 > -100.0:
            sp = 1.0 + c2 * xs * (1.0 + d2 * xs)
            ep = exp(-hk2 * one_minus_rs / two_one_plus_rs) / rs
            bvn2 += awi * exp(asr2) * (ep - sp)
    return (
        std_normal_cdf(-max(h1, k1)) - bvn1 / (2.0 * math.pi),
        std_normal_cdf(-max(h2, k2)) - bvn2 / (2.0 * math.pi),
    )


def bvn_cdf(x: float, y: float, rho: float) -> float:
    """P(X <= x, Y <= y) for standard bivariate normal with correlation rho.

    Accepts +/-inf in either coordinate, and reduces it, like any argument
    at or beyond +/-``_FAR_ARGUMENT``, analytically before quadrature.
    Raises ``DomainError`` for a NaN or negative rho, and
    ``NearSingularCorrelationError`` when ``rho > 1 - 1e-12``.
    """
    _check_correlation(rho)
    if math.isnan(x) or math.isnan(y):
        raise DomainError("bvn_cdf arguments must not be NaN")
    far = _FAR_ARGUMENT
    if abs(x) >= far or abs(y) >= far:
        if x <= -far or y <= -far:
            return 0.0
        if x >= far and y >= far:
            return 1.0
        return std_normal_cdf(y) if x >= far else std_normal_cdf(x)
    p = _bvn_upper_pair(-x, -y, -x, -y, rho)[0]
    return min(1.0, max(0.0, p))


def exp_tilt(log_val: float, what: str) -> float:
    """exp(log_val) of a moment held in log space; 0.0 at -inf.

    Raises ``TiltOverflowError`` naming ``what`` when the result exceeds the
    double range: where ``math.exp`` would raise a bare ``OverflowError``, and
    at a log value of +inf, where it would return inf.
    """
    try:
        value = math.exp(log_val)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise TiltOverflowError(f"{what} exceeds the double exponent range (log value {log_val!r})")
    return value


def log_tilted_upper_tail2(k: float, p_c: float, t_c: float, rho: float) -> float:
    """log E[exp(k P) 1{P >= p_c, T >= t_c}] for standard bivariate (P, T): the
    first value of ``joint_tail_masses``."""
    return joint_tail_masses(k, p_c, t_c, rho)[0]


def joint_tail_masses(k: float, p_c: float, t_c: float, rho: float) -> tuple[float, float]:
    """(log S, P_phi) of one cutoff pair, from one pass over the Genz nodes.

    S = E[exp(k P) 1{P >= p_c, T >= t_c}], log S = k^2 / 2 + the log of its
    Genz mass (-inf where that underflows), and P_phi = P(P >= p_c, T >= t_c).
    Both masses are values of the one Genz rule at the same rho (Genz 2004,
    Statistics and Computing 14:251), each equal to its own ``bvn_cdf``
    float for float. NaN arguments, and points ``bvn_cdf`` reduces (infinite
    or beyond ``_FAR_ARGUMENT``), take both masses from ``bvn_cdf``.
    """
    x, y = -p_c + k, -t_c + rho * k
    far = _FAR_ARGUMENT
    if abs(x) < far and abs(y) < far and abs(p_c) < far and abs(t_c) < far and math.isfinite(rho):
        _check_correlation(rho)
        s_mass, p_phi = _bvn_upper_pair(-x, -y, p_c, t_c, rho)
        s_mass, p_phi = min(1.0, max(0.0, s_mass)), min(1.0, max(0.0, p_phi))
    else:
        if math.isnan(k):
            raise DomainError("tilt exponent must not be NaN")
        s_mass, p_phi = bvn_cdf(x, y, rho), bvn_cdf(-p_c, -t_c, rho)
    log_s = -math.inf if s_mass == 0.0 else 0.5 * k * k + math.log(s_mass)
    return log_s, p_phi
