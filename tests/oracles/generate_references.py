"""Regenerate the frozen high-precision reference values in tests/reference_values.py.

Run from the repository root:  python tests/oracles/generate_references.py

Univariate values come from mpmath closed forms at 40 significant digits;
bivariate CDF values from the 1-D reduction
    Phi_rho(x, y) = int_{-inf}^{x} phi(u) Phi((y - rho u)/sqrt(1-rho^2)) du
evaluated with mpmath adaptive quadrature, which shares nothing with the
package's Gauss-Legendre implementation.
"""

import mpmath as mp

mp.mp.dps = 40


def bvn(x, y, rho):
    x, y, rho = mp.mpf(x), mp.mpf(y), mp.mpf(rho)
    if rho == 0:
        return mp.ncdf(x) * mp.ncdf(y)
    sd = mp.sqrt(1 - rho * rho)

    def integrand(u):
        return mp.npdf(u) * mp.ncdf((y - rho * u) / sd)

    return mp.quad(integrand, [-mp.mpf(40), x])


def tilted2(k, p_c, t_c, rho):
    k = mp.mpf(k)
    return mp.e ** (k * k / 2) * bvn(-mp.mpf(p_c) + k, -mp.mpf(t_c) + mp.mpf(rho) * k, rho)


def main():
    lines = [
        '"""Frozen high-precision oracle values; regenerate with',
        'tests/oracles/generate_references.py (mpmath, 40 digits)."""',
        "",
    ]
    lines.append(f"STD_NORMAL_CDF_1_0 = {mp.nstr(mp.ncdf(mp.mpf(1)), 17)}")
    lines.append("")

    grid_x = [-3.0, -1.5, -0.5, 0.0, 0.7, 1.2, 2.5]
    grid_rho = [0.0, 0.25, 0.6, 0.9, 0.99]
    lines.append("# (x, y, rho) -> Phi_rho(x, y)")
    lines.append("BVN_GRID = {")
    for rho in grid_rho:
        for x in grid_x:
            y = -0.4 * x + 0.3  # deterministic companion coordinate
            val = bvn(x, y, rho)
            lines.append(f"    ({x!r}, {y!r}, {rho!r}): {mp.nstr(val, 17)},")
    lines.append("}")
    lines.append("")
    lines.append(f"BVN_POINT_1_2__M0_3__0_7 = {mp.nstr(bvn('1.2', '-0.3', '0.7'), 17)}")
    lines.append(f"TILTED2_1__0_2__M0_1__0_6 = {mp.nstr(tilted2(1, '0.2', '-0.1', '0.6'), 17)}")
    text = "\n".join(lines) + "\n"
    with open("tests/reference_values.py", "w") as fh:
        fh.write(text)
    print(text)


if __name__ == "__main__":
    main()
