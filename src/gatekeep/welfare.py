"""Steady-state aggregates, welfare, and precision counterfactuals.

Welfare is computed three algebraically equivalent ways (variety x quality,
the master formula in the experimentation margin, and the selection-over-
burden ratio) and cross-checked at every solved point; disagreement signals
solver drift and raises. The aggregates read ``log S`` and ``P_phi`` from
one ``normal.joint_tail_masses`` pass.

The precision sweep, the local log-derivative identity, the interior-optimum
search, and the bounded-cost decline construction all build on the same
per-point solve.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .economy import ConstantCost, LogCutoffs, PiecewiseLinearCost, Primitives, Regime
from .equilibrium import solve_equilibrium
from .errors import (
    BracketFailureError,
    DomainError,
    GatekeepError,
    InconsistentEquilibriumError,
    IterationCapError,
    KinkError,
    TiltOverflowError,
)
from .normal import exp_tilt, joint_tail_masses, std_normal_cdf
from .records import Record

_IDENTITY_RTOL = 1e-8
#: central-difference step of log_welfare_derivative, and its kink window
_DERIVATIVE_STEP = 1e-4
#: width of the golden-section bracket at which the optimum search stops
_REFINE_TOL = 1e-5
#: cost doublings the decline construction tries before it reports a bug
_MAX_DOUBLINGS = 60


class Aggregates(Record, namedtuple(
    "Aggregates", "p_theta p_phi s_term b_term pi_breve r_bar pi_bar m_e m phi_tilde welfare"
)):
    """All steady-state objects of a solved regime.

    p_theta  : probability of passing the signal cutoff
    p_phi    : probability of passing both cutoffs
    s_term   : selection term E[phi^(sigma-1) 1{both cutoffs}]
    b_term   : labor absorbed per experimenter (variety channel)
    pi_breve : expected flow profit per experimenter
    r_bar    : average flow revenue per operating firm
    pi_bar   : average flow profit per operating firm
    m_e      : mass of experimenters
    m        : mass of operating firms
    phi_tilde: aggregate productivity (generalized mean of order sigma-1)
    welfare  : social welfare (inverse price index)
    """


def welfare_selection_burden(prim: Primitives, s_term: float, b_term: float) -> float:
    """Welfare from the selection term and resources per experimenter:

    W = [((sigma-1)/sigma)^(sigma-1) * (L/delta) * S/B]^(1/(sigma-1))
    """
    base = ((prim.sigma - 1.0) / prim.sigma) ** prim.k * (prim.L / prim.delta) * s_term / b_term
    return _welfare_root(prim, base, s_term, b_term, "welfare from selection over burden")


def _welfare_root(prim: Primitives, base: float, s_term: float, b_term: float, what: str) -> float:
    """base ** (1/k) for base = ((sigma-1)/sigma)^k (L/delta) S/B; where that float
    product is non-finite or 0.0, the root of its logs of L, delta, S and B."""
    if base == 0.0 or not math.isfinite(base):
        log_base = math.log(prim.L) - math.log(prim.delta) + math.log(s_term) - math.log(b_term)
        return exp_tilt(math.log((prim.sigma - 1.0) / prim.sigma) + log_base / prim.k, what)
    return _power(base, 1.0 / prim.k, what)


def _power(base: float, exponent: float, what: str) -> float:
    """base ** exponent; raises ``TiltOverflowError`` naming ``what`` where the
    float power would raise a bare ``OverflowError``."""
    try:
        return base**exponent
    except OverflowError:
        raise TiltOverflowError(
            f"{what} exceeds the double range ({base!r} ** {exponent!r})"
        ) from None


def _rel_close(x: float, y: float, rtol: float) -> bool:
    """x and y agree within rtol relative; never where either is inf or NaN."""
    return math.isfinite(x) and math.isfinite(y) and abs(x - y) <= rtol * max(abs(x), abs(y))


def compute_aggregates(prim: Primitives, regime: Regime, cutoffs: LogCutoffs) -> Aggregates:
    """All steady-state aggregates at a cutoff pair that satisfies free entry,
    such as a solved equilibrium's ``cutoffs``."""
    t_star, p_star = cutoffs.t_star, cutoffs.p_star
    k = prim.k
    rho = regime.rho
    p_theta = std_normal_cdf(-t_star)
    log_s, p_phi = joint_tail_masses(k, p_star, t_star, rho)
    s_term = exp_tilt(log_s, "selection term S")
    if p_phi <= 0.0 or s_term <= 0.0:
        raise InconsistentEquilibriumError(
            f"no surviving mass at cutoffs ({t_star!r}, {p_star!r})"
        )
    lead = exp_tilt(log_s - k * p_star, "operating revenue moment")
    pi_breve = prim.f * (lead - p_phi)
    phi_tilde = _power(s_term / p_phi, 1.0 / k, "aggregate productivity")
    r_bar = prim.sigma * prim.f * lead / p_phi
    pi_bar = r_bar / prim.sigma - prim.f
    b_term = prim.f_n + p_theta * regime.f_b + (p_phi / prim.delta) * (r_bar - pi_bar)
    m_e = prim.L / b_term
    m = p_phi * m_e / prim.delta

    w_variety_quality = (prim.sigma - 1.0) / prim.sigma * _power(m, 1.0 / k, "variety term") * phi_tilde
    w_master = _welfare_root(
        prim, ((prim.sigma - 1.0) / prim.sigma) ** k * (m_e / prim.delta) * s_term, s_term, b_term,
        "welfare from the master formula",
    )
    w_ratio = welfare_selection_burden(prim, s_term, b_term)
    if w_variety_quality == 0.0:
        raise InconsistentEquilibriumError(
            f"welfare underflows to 0.0 at cutoffs ({t_star!r}, {p_star!r})"
        )
    if not (
        _rel_close(w_variety_quality, w_master, _IDENTITY_RTOL)
        and _rel_close(w_variety_quality, w_ratio, _IDENTITY_RTOL)
    ):
        raise InconsistentEquilibriumError(
            f"welfare formulas disagree: {w_variety_quality!r}, {w_master!r}, {w_ratio!r}"
        )
    free_entry_gap = pi_breve - prim.delta * (p_theta * regime.f_b + prim.f_n)
    scale = min(max(1.0, abs(pi_breve)), max(prim.f, prim.delta * regime.f_b, abs(pi_breve)))
    if abs(free_entry_gap) > _IDENTITY_RTOL * scale:
        raise InconsistentEquilibriumError(
            f"free-entry identity violated by {free_entry_gap!r}; cutoffs are not an equilibrium"
        )
    return Aggregates(
        p_theta=p_theta,
        p_phi=p_phi,
        s_term=s_term,
        b_term=b_term,
        pi_breve=pi_breve,
        r_bar=r_bar,
        pi_bar=pi_bar,
        m_e=m_e,
        m=m,
        phi_tilde=phi_tilde,
        welfare=w_variety_quality,
    )


def failure_status(exc: GatekeepError) -> str:
    """The status cell, and stderr text, of a point that failed with exc."""
    return f"failed: {type(exc).__name__}: {exc}"


class SweepRecord(Record, namedtuple("SweepRecord", "rho eq agg error", defaults=(None,))):
    """One precision grid point: solution and aggregates, or a failure marker.

    eq and agg are None, and error the ``GatekeepError`` raised, at a failed
    point. It owns the solve/sweep CSV schema: ``row()`` gives the cells named
    by ``COLUMNS``, NaN in every numeric cell of a failed point.
    """

    COLUMNS = (
        "rho", "t_star", "p_star", "a", "P_theta", "P_phi", "S", "B", "pi_breve",
        "r_bar", "pi_bar", "M_e", "M", "phi_tilde", "W", "status",
    )

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def status(self) -> str:
        return "ok" if self.error is None else failure_status(self.error)

    def row(self) -> list:
        if not self.ok:
            return [self.rho] + [math.nan] * (len(self.COLUMNS) - 2) + [self.status]
        c, g = self.eq.cutoffs, self.agg
        return [
            self.rho, c.t_star, c.p_star, c.a, g.p_theta, g.p_phi, g.s_term, g.b_term,
            g.pi_breve, g.r_bar, g.pi_bar, g.m_e, g.m, g.phi_tilde, g.welfare, self.status,
        ]


def sweep_records(prim: Primitives, schedule, rho_grid) -> list[SweepRecord]:
    """Solve every grid point; failures become explicit records, never dropped."""
    rho_grid = list(rho_grid)
    if any(b <= a for a, b in zip(rho_grid, rho_grid[1:])):
        raise DomainError("rho grid must be strictly increasing")
    records = []
    for rho in rho_grid:
        try:
            records.append(_solve_point(prim, schedule, rho))
        except GatekeepError as exc:
            records.append(SweepRecord(rho=rho, eq=None, agg=None, error=exc))
    return records


def _solve_point(prim: Primitives, schedule, rho: float) -> SweepRecord:
    """Solution and aggregates at one precision; a failure raises."""
    regime = Regime(rho, schedule)
    eq = solve_equilibrium(prim, regime)
    return SweepRecord(rho=rho, eq=eq, agg=compute_aggregates(prim, regime, eq.cutoffs))


class LogWelfareDerivative(Record, namedtuple("LogWelfareDerivative", "dlogW dlogS dlogB")):
    """Central-difference elasticities of welfare, selection, and burden in rho."""


def log_welfare_derivative(prim: Primitives, regime: Regime) -> LogWelfareDerivative:
    """d log W / d rho and its decomposition terms at the regime's rho.

    Central differences at rho +/- _DERIVATIVE_STEP. Raises KinkError when rho
    sits within that step of a piecewise-linear schedule breakpoint (the
    schedule is not differentiable there).
    """
    rho = regime.rho
    schedule = regime.schedule
    h = _DERIVATIVE_STEP
    if isinstance(schedule, PiecewiseLinearCost):
        if abs(rho - schedule.rho_low) < h or abs(rho - schedule.rho_high) < h:
            raise KinkError(
                f"rho = {rho!r} is within {h!r} of a schedule breakpoint; "
                "the derivative is not defined there"
            )
    if not (0.0 < rho - h and rho + h < 1.0):
        raise DomainError(f"rho +/- h must stay inside (0, 1), got rho={rho!r}, h={h!r}")
    up, down = (_solve_point(prim, schedule, r).agg for r in (rho + h, rho - h))
    scale = 1.0 / (2.0 * h)
    return LogWelfareDerivative(
        dlogW=(math.log(up.welfare) - math.log(down.welfare)) * scale,
        dlogS=(math.log(up.s_term) - math.log(down.s_term)) * scale,
        dlogB=(math.log(up.b_term) - math.log(down.b_term)) * scale,
    )


class OptimalPrecision(Record, namedtuple("OptimalPrecision", "rho_w welfare boundary")):
    """Argmax of welfare over precision; boundary marks a grid-edge argmax."""


def _golden_section_max(fn, lo: float, hi: float, tol: float):
    """Golden-section maximization on [lo, hi]; returns (x, fn(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    width = hi - lo
    c = lo + invphi2 * width
    d = lo + invphi * width
    yc, yd = fn(c), fn(d)
    while width > tol:
        width *= invphi
        if yc > yd:
            hi, d, yd = d, c, yc
            c = lo + invphi2 * width
            yc = fn(c)
        else:
            lo, c, yc = c, d, yd
            d = lo + invphi * width
            yd = fn(d)
    x = c if yc > yd else d
    return x, max(yc, yd)


def find_optimal_precision(prim: Primitives, schedule, grid) -> OptimalPrecision:
    """Welfare-maximizing precision: coarse grid argmax, golden-section refined.

    Failure rows in the sweep are skipped deterministically. A grid-edge
    argmax is reported with boundary=True and not refined past the grid.
    When no point solves, the error raised has the class the points failed
    with (the first point's when classes differ) and counts them per class.
    """
    grid = list(grid)
    records = sweep_records(prim, schedule, grid)
    solved = [r for r in records if r.ok]
    if not solved:
        if not records:
            raise BracketFailureError("no grid point admits an equilibrium")
        first = records[0].error
        counts = Counter(type(r.error).__name__ for r in records)
        detail = ", ".join(f"{name}: {count}" for name, count in counts.items())
        raise type(first)(
            f"no grid point admits an equilibrium; failed points by class: {detail}"
        ) from first
    best = max(solved, key=lambda r: r.agg.welfare)
    if best.rho == grid[0] or best.rho == grid[-1]:
        return OptimalPrecision(rho_w=best.rho, welfare=best.agg.welfare, boundary=True)
    idx = next(i for i, r in enumerate(solved) if r.rho == best.rho)
    lo = solved[idx - 1].rho if idx > 0 else grid[0]
    hi = solved[idx + 1].rho if idx + 1 < len(solved) else grid[-1]
    welfare_at = lambda r: _solve_point(prim, schedule, r).agg.welfare
    rho_w, w = _golden_section_max(welfare_at, lo, hi, _REFINE_TOL)
    return OptimalPrecision(rho_w=rho_w, welfare=w, boundary=False)


class DeclineCertificate(Record, namedtuple(
    "DeclineCertificate", "schedule w_low w_high doubling_path"
)):
    """A bounded increasing schedule under which welfare falls with precision.

    schedule is a ``PiecewiseLinearCost``; doubling_path records (cost level,
    welfare at rho_high) for each probe.
    """


def bounded_decline_certificate(
    prim: Primitives, rho_low: float, rho_high: float, f_low: float
) -> DeclineCertificate:
    """Construct a bounded, weakly increasing cost schedule with W(rho_high) < W(rho_low).

    Doubles the high-end cost until welfare at rho_high under that constant
    cost drops below welfare at rho_low under f_low; the piecewise-linear
    schedule interpolating the two levels is the certificate.
    """
    if not 0.0 < rho_low < rho_high < 1.0:
        raise DomainError(f"need 0 < rho_low < rho_high < 1, got ({rho_low!r}, {rho_high!r})")
    if not f_low > 0.0:
        raise DomainError(f"f_low must be positive, got {f_low!r}")
    w_low = _solve_point(prim, ConstantCost(f_low), rho_low).agg.welfare
    f_high = f_low
    path = []
    for _ in range(_MAX_DOUBLINGS + 1):
        w_high = _solve_point(prim, ConstantCost(f_high), rho_high).agg.welfare
        path.append((f_high, w_high))
        if w_high < w_low:
            return DeclineCertificate(
                schedule=PiecewiseLinearCost(rho_low, rho_high, f_low, f_high),
                w_low=w_low,
                w_high=w_high,
                doubling_path=tuple(path),
            )
        f_high *= 2.0
    raise IterationCapError(
        f"welfare at rho_high={rho_high!r} did not drop below {w_low!r} after "
        f"{_MAX_DOUBLINGS} doublings; this indicates a bug"
    )
