"""Independent estimators of the closed-form quantities.

This module holds estimators and quadrature only: Monte Carlo estimates from
raw bivariate-normal draws, adaptive quadrature of the raw densities, and
``z_score`` to compare an estimate with a value computed elsewhere. It
imports no closed-form kernel (quadrature integrands use their own inline
density and ``scipy.special.ndtr``); the closed forms it is checked against
are the aggregates the solver reports, so agreement is evidence rather than
tautology. Importing it loads numpy only; scipy loads at the first
quadrature, after the Monte Carlo stage of ``validate``.

Sampling uses numpy's PCG64 generator (``numpy.random.default_rng``) seeded
explicitly; identical (n, seed) reproduce identical draws and estimates, on
any host. The draws stream in fixed blocks of ``_BLOCK`` pairs, and their
concatenation equals numpy's one-shot draw of all n pairs. Estimates combine
per-block moments (Chan, Golub & LeVeque 1979), so the memory of an estimate
is one block whatever n is, and ``validate`` memory does not depend on
``mc_n``. The block sums are numpy reductions, not BLAS calls, so no
estimate depends on BLAS's thread count. numpy releases the GIL while it
draws and reduces, so ``validate`` runs its two estimators on two threads.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .economy import LogCutoffs, Primitives
from .errors import DomainError, TiltOverflowError, ToleranceNotMetError
from .records import Record

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
#: integration window in standard deviations; the omitted tail mass is < 1e-300
_TAIL = 40.0
#: draws per Monte Carlo block: bounds the memory of every estimate
_BLOCK = 1 << 16
#: absolute error every quadrature reference is held to
_QUAD_TOL = 1e-10


class McEstimate(Record, namedtuple("McEstimate", "mean std_error n seed")):
    """A Monte Carlo sample mean with its standard error and provenance."""


def _block_sizes(n: int):
    for start in range(0, n, _BLOCK):
        yield min(_BLOCK, n - start)


class PopulationDraws(Record, namedtuple("PopulationDraws", "rho n seed")):
    """n paired (log productivity, log signal) draws, generated block by block."""

    def blocks(self):
        """Yield (p, t) arrays of at most ``_BLOCK`` pairs.

        Concatenated, they equal the one-shot construction: t is the first n
        standard normals of ``default_rng(seed)``, z the next n, and
        p = rho*t + sqrt(1-rho^2)*z. A second generator from the same seed
        discards the n signal normals to reach z; numpy's normal stream does
        not depend on how it is split into calls.
        """
        signals = np.random.default_rng(self.seed)
        noise = np.random.default_rng(self.seed)
        skip = np.empty(min(self.n, _BLOCK))
        for size in _block_sizes(self.n):
            noise.standard_normal(out=skip[:size])
        sd = math.sqrt(1.0 - self.rho * self.rho)
        for size in _block_sizes(self.n):
            t = signals.standard_normal(size)
            yield self.rho * t + sd * noise.standard_normal(size), t


def sample_log_population(rho: float, n: int, seed: int) -> PopulationDraws:
    """Draw n pairs of standard bivariate normals with correlation rho.

    t ~ N(0,1) and p = rho*t + sqrt(1-rho^2)*z with independent z, so the
    construction itself encodes the conditional law p | t.
    """
    if n < 1:
        raise DomainError(f"need at least one draw, got n={n!r}")
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho!r}")
    return PopulationDraws(rho=rho, n=n, seed=seed)


class _Moments:
    """Running count, mean and sum of squared deviations over blocks of values.

    Blocks merge with the pairwise update of Chan, Golub & LeVeque (1979).
    """

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, values: np.ndarray) -> None:
        size = int(values.size)
        mean = float(values.mean())
        dev = values - mean
        n = self.n + size
        delta = mean - self.mean
        # numpy's own sum of squares: np.dot would hand it to BLAS, whose
        # summation order depends on its thread count
        self.m2 += float(np.square(dev, out=dev).sum()) + delta * delta * (self.n * size / n)
        self.mean += delta * (size / n)
        self.n = n

    def estimate(self, seed: int) -> McEstimate:
        se = math.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n) if self.n > 1 else 0.0
        return McEstimate(mean=self.mean, std_error=se, n=self.n, seed=seed)


def z_score(closed_form: float, est: McEstimate) -> float:
    """(closed_form - mean) / standard error; 0 or inf when the error is zero."""
    if est.std_error > 0.0:
        return (closed_form - est.mean) / est.std_error
    return 0.0 if closed_form == est.mean else math.inf


def estimate_aggregates(
    draws: PopulationDraws, prim: Primitives, cutoffs: LogCutoffs
) -> dict[str, McEstimate]:
    """Sample estimates of the tail probabilities, selection term, and profit.

    Returns ``{name: McEstimate}`` for p_theta, p_phi, s_term and pi_breve.
    An empty indicator set gives mean 0.0 with standard error 0.0; pi_breve
    at an infinite log-productivity cutoff p* is the exact estimate inf.
    """
    if draws.n < 1:
        raise DomainError("draws must be nonempty")
    t_star, p_star = cutoffs.t_star, cutoffs.p_star
    k = prim.k
    profit = math.isfinite(p_star)

    moments = {name: _Moments() for name in ("p_theta", "p_phi", "s_term", "pi_breve")}
    for p, t in draws.blocks():
        pass_t = t >= t_star
        pass_both = pass_t & (p >= p_star)
        moments["p_theta"].add(pass_t.astype(float))
        moments["p_phi"].add(pass_both.astype(float))
        moments["s_term"].add(np.exp(k * p) * pass_both)
        if profit:
            moments["pi_breve"].add(prim.f * (np.exp(k * (p - p_star)) - 1.0) * pass_both)

    estimates = {name: m.estimate(draws.seed) for name, m in moments.items()}
    if not profit:
        # Profit relative to a zero productivity cutoff is infinite.
        estimates["pi_breve"] = McEstimate(
            mean=math.inf, std_error=0.0, n=draws.n, seed=draws.seed
        )
    return estimates


def estimate_profit_given_signal(
    t: float, prim: Primitives, rho: float, p_star: float, n: int, seed: int
) -> McEstimate:
    """Monte Carlo of expected flow profit conditional on a log signal t.

    Samples the conditional law p | t = N(rho t, 1 - rho^2) directly, in
    blocks of ``_BLOCK`` draws.
    """
    if n < 1:
        raise DomainError(f"need at least one draw, got n={n!r}")
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho!r}")
    rng = np.random.default_rng(seed)
    sd = math.sqrt(1.0 - rho * rho)
    profit = _Moments()
    for size in _block_sizes(n):
        p = rho * t + sd * rng.standard_normal(size)
        profit.add(prim.f * (np.exp(prim.k * (p - p_star)) - 1.0) * (p >= p_star))
    return profit.estimate(seed)


# ---------------------------------------------------------------------------
# Deterministic quadrature references (no shared code with the closed forms).


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _tilted_density(scale: float, x: float, minus: float, z: float, sd: float, what: str) -> float:
    # scale (exp(x) - minus) phi(z) / sd. Where exp(x) or the product
    # overflows, minus is far below the last bit of exp(x), so it is dropped
    # and the Gaussian exponent is folded into the one exp
    try:
        value = scale * (math.exp(x) - minus) * _norm_pdf(z) / sd
    except OverflowError:
        value = math.inf
    if value == math.inf:
        try:
            value = scale * math.exp(x - 0.5 * z * z - _LOG_SQRT_2PI) / sd
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise TiltOverflowError(f"{what}: integrand exceeds the double range at exponent {x!r}")
    return value


def _quad(fn, lo: float, hi: float, what: str) -> float:
    # Inner integrals of iterated 2-D quadratures can be huge in magnitude;
    # their error budget is relative, while the caller's final result is
    # held to the absolute tolerance.
    from scipy import integrate

    value, abserr = integrate.quad(fn, lo, hi, epsabs=0.1 * _QUAD_TOL, epsrel=1e-12, limit=200)
    if abserr > max(_QUAD_TOL, 1e-11 * abs(value)):
        raise ToleranceNotMetError(
            f"{what}: quadrature error estimate {abserr!r} exceeds {_QUAD_TOL!r}"
        )
    return value


def _quad_bvn(x: float, y: float, rho: float) -> float:
    from scipy.special import ndtr

    if x == -math.inf or y == -math.inf:
        return 0.0
    sd = math.sqrt(1.0 - rho * rho)
    hi = min(x, _TAIL)
    if hi <= -_TAIL:
        return 0.0

    def integrand(u: float) -> float:
        return _norm_pdf(u) * float(ndtr((y - rho * u) / sd))

    return _quad(integrand, -_TAIL, hi, "bvn")


def _profit_inner(prim: Primitives, rho: float, p_star: float, t: float) -> float:
    # E[f (e^{k(p - p*)} - 1) 1{p >= p*} | t] with p | t ~ N(rho t, 1 - rho^2)
    k = prim.k
    s2 = 1.0 - rho * rho
    sd = math.sqrt(s2)
    mean = rho * t
    hi = mean + k * s2 + _TAIL * sd
    if p_star >= hi:
        return 0.0

    integrand = lambda p: _tilted_density(prim.f, k * (p - p_star), 1.0, (p - mean) / sd, sd, "pi_tilde")
    return _quad(integrand, p_star, hi, "pi_tilde")


def _tilt_inner(k: float, rho: float, p_star: float, t: float) -> float:
    # E[e^{k p} 1{p >= p*} | t]
    s2 = 1.0 - rho * rho
    sd = math.sqrt(s2)
    mean = rho * t
    hi = mean + k * s2 + _TAIL * sd
    if p_star >= hi:
        return 0.0

    integrand = lambda p: _tilted_density(1.0, k * p, 0.0, (p - mean) / sd, sd, "S inner")
    return _quad(integrand, max(p_star, mean - _TAIL * sd), hi, "S inner")


def _over_signals(inner, k: float, rho: float, t_star: float, what: str) -> float:
    # integral of inner(t) phi(t) over the activated signals t >= t_star
    lo = max(t_star, -_TAIL)
    hi = max(t_star, k * rho) + _TAIL
    return _quad(lambda t: inner(t) * _norm_pdf(t), lo, hi, what)


def quadrature_reference(quantity: str, params: dict) -> float:
    """Adaptive-quadrature value of a closed-form quantity.

    quantity is one of {"pi_tilde", "pi_breve", "S", "bvn"}; params carries
    the quantity's arguments (documented per branch below). Raises
    ToleranceNotMetError if the absolute tolerance ``_QUAD_TOL`` is not reached.
    """
    if quantity == "bvn":
        return _quad_bvn(params["x"], params["y"], params["rho"])
    if quantity == "pi_tilde":
        prim = params["prim"]
        return _profit_inner(prim, params["rho"], params["p_star"], params["t"])
    if quantity == "pi_breve":
        prim, rho, p_star = params["prim"], params["rho"], params["p_star"]
        inner = lambda t: _profit_inner(prim, rho, p_star, t)
        return _over_signals(inner, prim.k, rho, params["t_star"], "pi_breve")
    if quantity == "S":
        k, rho, p_star = params["k"], params["rho"], params["p_star"]
        inner = lambda t: _tilt_inner(k, rho, p_star, t)
        return _over_signals(inner, k, rho, params["t_star"], "S")
    raise DomainError(
        f"unknown quadrature quantity {quantity!r}; "
        "expected one of pi_tilde, pi_breve, S, bvn"
    )


def simulate_operating_mass(
    prim: Primitives,
    rho: float,
    cutoffs: LogCutoffs,
    experimenters_per_period: int = 200,
    periods: int = 10_000,
    burn_in: int = 1_000,
    seed: int = 0,
):
    """Simulate the death-renewal firm count at a fixed experimentation flow.

    Each period spawns a cohort of experimenters whose (p, t) pairs are drawn
    fresh; those passing both cutoffs become operating firms, and incumbents
    die with per-period probability delta. Returns (mean operating count
    after burn-in, batch-means standard error).
    """
    if periods <= burn_in:
        raise DomainError("periods must exceed burn_in")
    rng = np.random.default_rng(seed)
    n_exp = experimenters_per_period
    sd = math.sqrt(1.0 - rho * rho)
    counts = np.empty(periods - burn_in, dtype=float)
    stock = 0
    for period in range(periods):
        t = rng.standard_normal(n_exp)
        p = rho * t + sd * rng.standard_normal(n_exp)
        entrants = int(((t >= cutoffs.t_star) & (p >= cutoffs.p_star)).sum())
        deaths = rng.binomial(stock, prim.delta) if stock > 0 else 0
        stock = stock - deaths + entrants
        if period >= burn_in:
            counts[period - burn_in] = stock
    n_batches = 20
    batches = counts[: (counts.size // n_batches) * n_batches].reshape(n_batches, -1)
    means = batches.mean(axis=1)
    se = float(means.std(ddof=1) / math.sqrt(n_batches))
    return float(counts.mean()), se
