"""The one sampler of economies: config texts drawn from a random.Random.

Standard library only, so scripts import it as the tests do. Its families:
"domain", sigma 1.2-8, f 1e-3-10, f_n 1e-5-1, delta 0.01-0.5, L = 1, every
schedule kind with costs 1e-3-10, rho 0.05-0.97; "scaled" and "scaled_down",
a domain economy with every cost and L at one level 10^250-10^299 or
10^-260-10^-240, which leaves its cutoffs where they were; and "extreme",
each draw on its own over any positive double (sigma up to 1e300). Each text
has a sweep grid of at most 5 points, 5 transfers, rho <= 0.99 and
mc_n <= 5000, so validate's quadratures stay short. The draws and their
order are fixed: a family, a count and a seed name the economies.
"""

import math


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def unit(rng):
    return rng.uniform(0.01, 0.99)


def extreme_positive(rng):
    # typical, anywhere in the double range, or near its top
    return rng.choice([
        lambda: log_uniform(rng, 1e-3, 10.0),
        lambda: max(5e-324, 10.0 ** rng.uniform(-323.0, 300.0)),
        lambda: 10.0 ** rng.uniform(290.0, 300.0),
    ])()


def economy(family, rng):
    """One config text of the family, drawn from rng."""
    if family == "extreme":
        cost = number = lambda: extreme_positive(rng)
        sigma = 1.0 + rng.choice([log_uniform(rng, 0.1, 10.0), 10.0 ** rng.uniform(-15.0, 300.0)])
        primitives = {"sigma": sigma, "f": cost(), "f_n": cost(),
                      "delta": rng.uniform(1e-9, 1.0 - 1e-9), "L": cost()}
    else:
        if family == "scaled":
            level = 10.0 ** rng.uniform(250.0, 299.0)
        elif family == "scaled_down":
            level = 10.0 ** rng.uniform(-260.0, -240.0)
        else:
            level = 1.0
        number = lambda: log_uniform(rng, 1e-3, 10.0)
        cost = lambda: level * number()
        primitives = {"sigma": rng.uniform(1.2, 8.0), "f": cost(),
                      "f_n": level * log_uniform(rng, 1e-5, 1.0), "delta": rng.uniform(0.01, 0.5),
                      "L": level}
    kind = rng.choice(["constant", "power_bounded", "piecewise_linear", "hyperbolic"])
    if kind == "constant":
        schedule = {"f_b": cost()}
    elif kind == "power_bounded":
        schedule = {"f_b0": cost(), "kappa": rng.choice([0.0, number()]), "alpha": number()}
    elif kind == "piecewise_linear":
        rho_low, rho_high = sorted((unit(rng), unit(rng)))
        f_low, f_high = sorted((cost(), cost()))
        schedule = {"rho_low": rho_low, "rho_high": rho_high, "f_low": f_low, "f_high": f_high}
    else:
        schedule = {"f_b0": cost()}
    start, stop = sorted((unit(rng), unit(rng)))
    run = {"rho": rng.uniform(0.0, 0.99) if family == "extreme" else rng.uniform(0.05, 0.97),
           "grid": f"{start}:{stop}:{(stop - start) / rng.randint(1, 4)}",
           "s_points": 5, "mc_n": rng.randint(1, 5000), "seed": rng.randint(0, 2**32)}
    for key in ("f_e0", "f_b_bar"):
        if rng.random() < 0.5:
            run[key] = cost()
    lines = []
    for name, entries in (("primitives", primitives), ("schedule", {"kind": kind, **schedule}),
                          ("run", run)):
        # str of a float is its shortest round-tripping repr
        lines += [f"[{name}]", *(f"{key} = {value}" for key, value in entries.items())]
    return "\n".join(lines) + "\n"
