"""The Monte Carlo oracle: estimators of the closed-form quantities.

Monte Carlo estimates from raw bivariate-normal draws, and ``z_score`` to
compare an estimate with a value computed elsewhere. It imports no solver
module; the closed forms it is checked against are the aggregates the
solver reports, so agreement is evidence rather than tautology. It is the
one gatekeep module that loads numpy, and it loads it on its first draw or
reduction, so a process that imports it and never samples pays for none of
numpy. The quadrature oracle, which needs no numpy, is ``gatekeep.quadrature``.

Sampling uses numpy's PCG64 generator (``numpy.random.default_rng``) seeded
explicitly; identical (n, seed) reproduce identical draws and estimates, on
any host. The draws stream in fixed blocks of ``_BLOCK`` pairs, and their
concatenation equals numpy's one-shot draw of all n pairs. Estimates combine
per-block moments (Chan, Golub & LeVeque 1979), so the memory of an estimate
is one block whatever n is, and ``validate`` memory does not depend on
``mc_n``. Each call allocates its block-width arrays once and fills them in
place block after block, so no block allocates: ``blocks()`` its three draw
buffers, an estimator only its boolean masks, since it forms each term in a
draw block it has spent. A yielded block is valid until the next one, and
its consumer may overwrite it. No buffer outlives its call or is shared
between calls. The block sums are numpy reductions, not BLAS calls, so no
estimate depends on BLAS's thread count. numpy releases the GIL while it
draws and reduces, so ``validate`` runs its two estimators on three threads:
the main thread draws t and computes the aggregates' estimates, the
sampler's helper thread draws their noise stream, and a pool thread
computes ``pi_tilde``'s. Each ``blocks()`` call still holds three buffers.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, TiltOverflowError

# Bound here for perfbench/, which calls and traces it under this name;
# ROADMAP item 4 ports those callers to gatekeep.quadrature and drops it.
from .quadrature import quadrature_reference  # noqa: F401
from .records import Record

#: draws per Monte Carlo block: bounds the memory of every estimate
_BLOCK = 1 << 16


class McEstimate(Record, namedtuple("McEstimate", "mean std_error")):
    """A Monte Carlo sample mean with its standard error."""


def _block_sizes(n: int):
    for start in range(0, n, _BLOCK):
        yield min(_BLOCK, n - start)


def _check_sample(rho: float, n: int) -> None:
    if n < 1:
        raise DomainError(f"need at least one draw, got n={n!r}")
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho!r}")


class PopulationDraws(Record, namedtuple("PopulationDraws", "rho n seed")):
    """n paired (log productivity, log signal) draws, generated block by block."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_sample(self.rho, self.n)
        return self

    def blocks(self):
        """Yield (p, t) arrays of at most ``_BLOCK`` pairs.

        Concatenated, they equal the one-shot construction: t is the first n
        standard normals of ``default_rng(seed)``, z the next n, and
        p = rho*t + sqrt(1-rho^2)*z. A second generator from the same seed
        discards the n signal normals to reach z; numpy's normal stream does
        not depend on how it is split into calls.

        The calling thread draws t and forms p. A helper thread owns the
        second generator: it draws the n discarded normals, then each z
        block, so the next z fills while the caller draws t and while the
        consumer works on the yielded block. Each generator draws its stream
        in the same order as on one thread, so every block is the same. The
        caller waits for each z before it forms p, and so re-raises an error
        of the helper; closing the generator waits for the helper to finish.

        Each call draws into its own three block-width buffers (t, z and p),
        and each step draws t and forms p again, so a consumer may overwrite
        a yielded block, and the next step does: copy a block to keep it.
        """
        # imported here, as numpy and numpy.random are on the first draw: a
        # process that imports the oracle but never samples pays for none
        from concurrent.futures import ThreadPoolExecutor

        import numpy as np

        signals = np.random.default_rng(self.seed)
        noise = np.random.default_rng(self.seed)
        n = self.n
        width = min(n, _BLOCK)
        t_buf, z_buf, p_buf = np.empty(width), np.empty(width), np.empty(width)

        def skip_then_fill() -> None:
            for size in _block_sizes(n):
                noise.standard_normal(out=z_buf[:size])
            noise.standard_normal(out=z_buf[:width])

        rho = self.rho
        sd = math.sqrt(1.0 - rho * rho)
        with ThreadPoolExecutor(1) as helper:
            z_filled = helper.submit(skip_then_fill)
            for start in range(0, n, _BLOCK):
                size = min(_BLOCK, n - start)
                t, z, p = t_buf[:size], z_buf[:size], p_buf[:size]
                signals.standard_normal(out=t)
                z_filled.result()
                # rho*t + sd*z, evaluated as that expression evaluates it
                np.multiply(rho, t, out=p)
                np.multiply(sd, z, out=z)
                np.add(p, z, out=p)
                # z is spent: the helper fills the next block into it
                rest = n - start - size
                if rest:
                    z_filled = helper.submit(noise.standard_normal, out=z_buf[:min(_BLOCK, rest)])
                yield p, t


def sample_log_population(rho: float, n: int, seed: int) -> PopulationDraws:
    """Draw n pairs of standard bivariate normals with correlation rho.

    t ~ N(0,1) and p = rho*t + sqrt(1-rho^2)*z with independent z, so the
    construction itself encodes the conditional law p | t.
    """
    return PopulationDraws(rho=rho, n=n, seed=seed)


class _Moments:
    """Running count, mean and sum of squared deviations over blocks of values.

    Blocks merge with the pairwise update of Chan, Golub & LeVeque (1979).
    ``add`` overwrites ``values`` with their squared deviations from the
    block mean, so a caller passes a block it no longer needs.

    The moments are kept in units of 2^exponent, fixed at the first block
    with a nonzero value: 0 where that block's largest |value| lies in
    [2^-400, 2^400), else that value's binary exponent. A power of two
    scales exactly, so the squares neither overflow near the top of the
    double range nor underflow near its bottom. Only the blocks up to the
    first nonzero one cost an extra pass, and in the normal range nothing
    is scaled.
    """

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.exponent = None

    def add(self, values) -> None:
        import numpy as np

        if self.exponent is None:
            top = max(float(values.max()), -float(values.min()))
            if top > 0.0:
                exponent = math.frexp(top)[1]
                self.exponent = 0 if -400 < exponent <= 400 else exponent
        if self.exponent:
            np.multiply(values, math.ldexp(1.0, -self.exponent), out=values)
        size = int(values.size)
        mean = float(values.mean())
        dev = np.subtract(values, mean, out=values)
        n = self.n + size
        delta = mean - self.mean
        # numpy's own sum of squares: np.dot would hand it to BLAS, whose
        # summation order depends on its thread count
        self.m2 += float(np.square(dev, out=dev).sum()) + delta * delta * (self.n * size / n)
        self.mean += delta * (size / n)
        self.n = n

    def estimate(self) -> McEstimate:
        se = math.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n) if self.n > 1 else 0.0
        exponent = self.exponent or 0
        try:
            return McEstimate(math.ldexp(self.mean, exponent), math.ldexp(se, exponent))
        except OverflowError:
            raise TiltOverflowError(
                f"Monte Carlo estimate {self.mean!r} (standard error {se!r}) times "
                f"2^{exponent} exceeds the double range"
            ) from None


def _tilted_profit(f: float, k: float, p, p_star: float, passed, out):
    # f * (exp(k * (p - p*)) - 1) * passed into the array out, elementwise over
    # the arrays p and passed, each step as the expression evaluates it
    import numpy as np

    np.subtract(p, p_star, out=out)
    np.multiply(k, out, out=out)
    np.exp(out, out=out)
    np.subtract(out, 1.0, out=out)
    np.multiply(f, out, out=out)
    return np.multiply(out, passed, out=out)


def z_score(closed_form: float, est: McEstimate) -> float:
    """(closed_form - mean) / standard error; 0 or inf when the error is zero."""
    if est.std_error > 0.0:
        return (closed_form - est.mean) / est.std_error
    return 0.0 if closed_form == est.mean else math.inf


def estimate_aggregates(draws: PopulationDraws, prim, cutoffs) -> dict[str, McEstimate]:
    """Sample estimates of the tail probabilities, selection term, and profit.

    Returns ``{name: McEstimate}`` for p_theta, p_phi, s_term and pi_breve.
    An empty indicator set gives mean 0.0 with standard error 0.0; pi_breve
    at a log-productivity cutoff p* = -inf is the exact estimate inf.
    """
    import numpy as np

    t_star, p_star = cutoffs.t_star, cutoffs.p_star
    k = prim.k
    profit = p_star != -math.inf

    # the masks are this call's own buffers (validate runs two estimators
    # at once); each term overwrites a draw it has spent: t, then p
    width = min(draws.n, _BLOCK)
    pass_t_buf = np.empty(width, dtype=bool)
    pass_both_buf = np.empty(width, dtype=bool)
    moments = {name: _Moments() for name in ("p_theta", "p_phi", "s_term", "pi_breve")}
    for p, t in draws.blocks():
        size = t.size
        pass_t, pass_both = pass_t_buf[:size], pass_both_buf[:size]
        np.greater_equal(t, t_star, out=pass_t)
        np.greater_equal(p, p_star, out=pass_both)
        np.bitwise_and(pass_t, pass_both, out=pass_both)
        t[...] = pass_t
        moments["p_theta"].add(t)
        t[...] = pass_both
        moments["p_phi"].add(t)
        np.multiply(k, p, out=t)
        np.exp(t, out=t)
        moments["s_term"].add(np.multiply(t, pass_both, out=t))
        if profit:
            moments["pi_breve"].add(_tilted_profit(prim.f, k, p, p_star, pass_both, out=p))

    estimates = {name: m.estimate() for name, m in moments.items()}
    if not profit:
        # Profit relative to a zero productivity cutoff is infinite.
        estimates["pi_breve"] = McEstimate(mean=math.inf, std_error=0.0)
    return estimates


def estimate_profit_given_signal(
    t: float, prim, rho: float, p_star: float, n: int, seed: int
) -> McEstimate:
    """Monte Carlo of expected flow profit conditional on a log signal t.

    Samples the conditional law p | t = N(rho t, 1 - rho^2) directly, in
    blocks of ``_BLOCK`` draws. At p* = -inf every draw's profit is infinite,
    and the estimate is the exact inf.
    """
    _check_sample(rho, n)
    if p_star == -math.inf:
        return McEstimate(mean=math.inf, std_error=0.0)
    import numpy as np

    rng = np.random.default_rng(seed)
    sd = math.sqrt(1.0 - rho * rho)
    mean = rho * t
    width = min(n, _BLOCK)
    p_buf = np.empty(width)
    passed_buf = np.empty(width, dtype=bool)
    profit = _Moments()
    for size in _block_sizes(n):
        p, passed = p_buf[:size], passed_buf[:size]
        rng.standard_normal(out=p)
        np.multiply(sd, p, out=p)
        np.add(mean, p, out=p)
        np.greater_equal(p, p_star, out=passed)
        # the profit term overwrites the draws it is formed from
        profit.add(_tilted_profit(prim.f, prim.k, p, p_star, passed, out=p))
    return profit.estimate()
