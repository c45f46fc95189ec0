"""The quadrature oracle: adaptive quadrature of the raw densities.

``quadrature_reference`` integrates the bivariate-normal densities of the
closed-form quantities directly, with no shared code: the integrands use
their own inline density and ``_ndtr``, and the module imports no solver
module, only ``gatekeep.errors``. It needs the standard library alone, not
numpy: the quadratures run on standard-library ports, bit for bit, of
QUADPACK's ``qagse`` (the points ``scipy.integrate.quad`` evaluates, and
its value and error estimate) and of Cephes' ``ndtr`` (what
``scipy.special.ndtr`` returns). So ``validate`` can run them in a process
forked before numpy loads (``gatekeep.cli``), beside the Monte Carlo oracle
of ``gatekeep.oracle``.
"""

from __future__ import annotations

import math

from .errors import DomainError, TiltOverflowError, ToleranceNotMetError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
#: integration window in standard deviations; the omitted tail mass is < 1e-300
_TAIL = 40.0
#: absolute error every quadrature reference is held to
_QUAD_TOL = 1e-10

# ---------------------------------------------------------------------------
# Standard-library ports of the two library routines the quadratures use.
# Each reproduces, bit for bit, what the quadratures read of scipy's compiled
# routine (tests/test_oracle.py compares them), so the quadrature references
# do not depend on which of the two computed them.

#: Cephes erf/erfc coefficient tables (Cody 1969, Math. Comp. 23:631, as
#: Moshier's Cephes ``ndtr.c`` gives them): erfc on [1, 8) is P/Q, erfc on
#: [8, inf) is R/S, erf on [0, 1] is T/U; Q, S and U omit their leading 1
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_SQRT1_2 = 0.70710678118654752440
#: Cephes MAXLOG, log(2**1024): erfc(z) is 0 where z*z exceeds it
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: float, coef: tuple) -> float:
    # Horner's rule, coefficients from the highest power down
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    # _polevl with an implicit leading coefficient of 1
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf_small(x: float) -> float:
    # Cephes erf for |x| <= 1; odd, so erf(-x) == -erf(x) holds bit for bit
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _ndtr(a: float) -> float:
    """Standard normal CDF, Cephes ``ndtr`` with the branches of its erf and
    erfc that it reaches. Equals ``scipy.special.ndtr`` bit for bit, the far
    tail included; a NaN propagates."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf_small(x)
    # y = erfc(z) / 2 for z >= 1/sqrt(2)
    if z < 1.0:
        y = 0.5 * (1.0 - _erf_small(z))
    elif -z * z < -_MAXLOG:
        y = 0.0
    else:
        # a plain exp, not Cephes' expx2: scipy's erfc uses exp(-z*z)
        e = math.exp(-z * z)
        if z < 8.0:
            y = 0.5 * ((e * _polevl(z, _ERFC_P)) / _p1evl(z, _ERFC_Q))
        else:
            y = 0.5 * ((e * _polevl(z, _ERFC_R)) / _p1evl(z, _ERFC_S))
    return 1.0 - y if x > 0 else y


# QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner 1983,
# Springer), as ``scipy.integrate.quad`` runs it on a finite interval: dqagse
# with dqk21, dqpsrt and dqelg, returning only result and abserr. Machine
# constants are d1mach's: epsilon, the smallest normal and the largest double.
_EPMACH = 2.220446049250313e-16
_UFLOW = 2.2250738585072014e-308
_OFLOW = 1.7976931348623157e308

#: dqk21's 21-point Kronrod abscissae xgk (the odd indices are the 10-point
#: Gauss nodes, the last is the centre), Kronrod weights wgk and Gauss
#: weights wg
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _qk21(f, a: float, b: float):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    # the Gauss nodes first, then the Kronrod ones: dqk21's two loops, whose
    # order fixes every sum and which evaluation raises first
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        fval1 = fv1[j] = f(centr - absc)
        fval2 = fv2[j] = f(centr + absc)
        fsum = fval1 + fval2
        if j & 1:
            resg += _WG[j >> 1] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, ratio ** 1.5), 1 for a NaN ratio as with C's fmin, and no
        # OverflowError from float ** where C's pow returns inf
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio**1.5 if ratio < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


# The three routines below index their lists from 1, as the Fortran does;
# slot 0 is unused, so every subscript reads as in the published routines.
# Each test keeps the Fortran's comparison, negated with ``not`` where the
# Fortran jumps past a block, so a NaN takes the same branch.


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """dqpsrt: keep iord ordered by descending error, insert the two newest
    subintervals, and return (maxerr, errmax, nrmax) of the next to bisect."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        return iord[nrmax], elist[iord[nrmax]], nrmax
    errmax = elist[maxerr]
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    jupbn = limit + 3 - last if last > limit // 2 + 2 else last
    errmin = elist[last]
    jbnd = jupbn - 1
    i = nrmax + 1
    while i <= jbnd:
        isucc = iord[i]
        if errmax >= elist[isucc]:
            break
        iord[i - 1] = isucc
        i += 1
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
        return iord[nrmax], elist[iord[nrmax]], nrmax
    iord[i - 1] = maxerr
    k = jbnd
    for _ in range(i, jbnd + 1):
        isucc = iord[k]
        if errmin < elist[isucc]:
            iord[k + 1] = last
            break
        iord[k + 1] = isucc
        k -= 1
    else:
        iord[i] = last
    return iord[nrmax], elist[iord[nrmax]], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int):
    """dqelg: one step of Wynn's epsilon algorithm on epstab[1..n].

    Returns (n, result, abserr, nres); epstab and res3la change in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            res = epstab[k1 + 2]
            e0 = epstab[k1 - 2]
            e1 = epstab[k1 - 1]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1.0e-4:
                # irregular behaviour in the table: omit part of it
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        # shift the table
        if n == 50:
            # limexp: the table keeps at most 50 elements
            n = 49
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qagse(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """dqagse on the finite interval [a, b]: (result, abserr).

    Globally adaptive bisection with the 21-point rule and epsilon
    extrapolation; ``scipy.integrate.quad(f, a, b, epsabs=epsabs,
    epsrel=epsrel, limit=limit)`` evaluates f at the same points, in the
    same order, and returns the same result and abserr.
    """
    alist = [0.0, a] + [0.0] * (limit - 1)
    blist = [0.0, b] + [0.0] * (limit - 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    # dqagse's rlist2 has 52 slots, and dqelg caps n at 50. Only NaN areas,
    # which dqelg returns on before that cap, index further, where the Fortran
    # is undefined; numrl2 grows at most once per bisection, so this is room
    rlist2 = [0.0] * (max(limit, 50) + 3)
    res3la = [0.0] * 4
    ier = ierro = 0

    # first approximation, and the test on its accuracy
    result, abserr, defabs, resabs = _qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0

    # The loop leaves by one of dqagse's two exits: summing the subinterval
    # results (label 115, summed = True), or weighing the extrapolated result
    # against that sum (label 100). At last == limit, ier is 1, so it always
    # leaves by a break.
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1.0e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        # roundoff, the subdivision limit, and bad behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            summed = False
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before
            # extrapolating, bisect the larger intervals first
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1.0e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                summed = False
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            summed = False
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum

    if not summed:
        # label 100: keep the extrapolated result, or fall back to the sum
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr += correc
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed = abserr > errsum
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result += rlist[k]
        abserr = errsum
    return result, abserr


# ---------------------------------------------------------------------------
# Deterministic quadrature references (no shared code with the closed forms).


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _tilted_density(scale: float, x: float, minus: float, z: float, sd: float, what: str) -> float:
    # scale (exp(x) - minus) phi(z) / sd. Where exp(x) or the product
    # overflows (inf, or inf * 0.0 = nan in the far tail), x > 0, and the
    # factor exp(x) - minus = exp(x + log1p(-minus exp(-x))) and the Gaussian
    # are folded into the one exp
    try:
        value = scale * (math.exp(x) - minus) * _norm_pdf(z) / sd
    except OverflowError:
        value = math.inf
    if not value < math.inf:
        try:
            value = scale * math.exp(
                x + math.log1p(-minus * math.exp(-x)) - 0.5 * z * z - _LOG_SQRT_2PI) / sd
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise TiltOverflowError(f"{what}: integrand exceeds the double range at exponent {x!r}")
    return value


def _quad(fn, lo: float, hi: float, what: str) -> float:
    # Inner integrals of iterated 2-D quadratures can be huge in magnitude;
    # their error budget is relative, while the caller's final result is
    # held to the absolute tolerance.
    if not -math.inf < lo < hi < math.inf:
        raise DomainError(f"{what}: [{lo!r}, {hi!r}] is not a finite interval")
    value, abserr = _qagse(fn, lo, hi, 0.1 * _QUAD_TOL, 1e-12, 200)
    if not math.isfinite(value):
        raise ToleranceNotMetError(f"{what}: quadrature value {value!r} is not a finite number")
    if not abserr <= max(_QUAD_TOL, 1e-11 * abs(value)):  # a NaN estimate too
        raise ToleranceNotMetError(
            f"{what}: quadrature error estimate {abserr!r} exceeds {_QUAD_TOL!r}"
        )
    return value


def _quad_bvn(x: float, y: float, rho: float) -> float:
    sd = math.sqrt(1.0 - rho * rho)
    hi = min(x, _TAIL)
    if hi <= -_TAIL:
        return 0.0

    def integrand(u: float) -> float:
        return _norm_pdf(u) * _ndtr((y - rho * u) / sd)

    return _quad(integrand, -_TAIL, hi, "bvn")


def _profit_inner(prim, rho: float, p_star: float, t: float) -> float:
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
