"""Regenerate tests/golden_values.py.

Golden equilibrium values are the solver's output at the benchmark
calibration, frozen as they are: this script checks nothing. The checks of
the solver against the independent quadrature and Monte Carlo oracles run
live in test_oracle.py and test_acceptance.py. The pi_tilde example value is
computed directly by adaptive quadrature, not by the closed form it tests.

Run from the repository root:  python tests/oracles/generate_goldens.py
"""

from pathlib import Path

import mpmath as mp

from gatekeep.config import parse_config
from gatekeep.economy import Regime
from gatekeep.equilibrium import melitz_limit_perfect, melitz_limit_zero, solve_equilibrium

mp.mp.dps = 40

# the benchmark calibration, as tests/economies.py's BENCHMARK reads it
benchmark = parse_config((Path(__file__).parents[2] / "benchmark.cfg").read_text(encoding="utf-8"))
prim = benchmark.primitives


def quad_profit_given_signal(sigma, f, rho, p_star, t):
    sigma, f, rho, p_star, t = (mp.mpf(repr(v)) for v in (sigma, f, rho, p_star, t))
    k = sigma - 1
    sd = mp.sqrt(1 - rho * rho)
    mean = rho * t

    def integrand(p):
        return f * (mp.e ** (k * (p - p_star)) - 1) * mp.npdf((p - mean) / sd) / sd

    return float(mp.quad(integrand, [p_star, mean + k * (1 - rho * rho) + 30 * sd]))


def main():
    regime = Regime(benchmark.rho, benchmark.schedule)
    eq = solve_equilibrium(prim, regime)
    zero = melitz_limit_zero(prim, prim.f_n + 3.0)
    perfect = melitz_limit_perfect(prim, 3.0)
    pi_tilde_ref = quad_profit_given_signal(prim.sigma, prim.f, 0.89, 0.5, 1.0)
    lines = [
        '"""Frozen golden values; regenerate with tests/oracles/generate_goldens.py."""',
        "",
        "# benchmark calibration, rho = 0.89",
        f"AC_INTERCEPT = {eq.cutoffs.a!r}",
        f"T_STAR = {eq.cutoffs.t_star!r}",
        f"P_STAR = {eq.cutoffs.p_star!r}",
        "",
        "# degenerate-information limits (f_e0 = f_n + 3, f_b_bar = 3)",
        f"MELITZ_ZERO_P_STAR = {zero.p_star!r}",
        f"MELITZ_PERFECT_P_STAR = {perfect.p_star!r}",
        "",
        "# quadrature oracle: expected profit at sigma=2, f=0.15, rho=0.89, p*=0.5, t=1",
        f"PI_TILDE_QUAD = {pi_tilde_ref!r}",
    ]
    text = "\n".join(lines) + "\n"
    with open("tests/golden_values.py", "w") as fh:
        fh.write(text)
    print(text)


if __name__ == "__main__":
    main()
