"""Adaptive quadrature, an alternating binomial series summed as a Laguerre
recurrence, a weighted cosine sum on a uniform time grid, and the
digamma and trigamma functions of the flat-band solver.

Everything here is pure and stateless; the physics modules build on these
primitives.  Unit conventions are left to the callers.  The quadrature is
QUADPACK's QAGS ported to plain Python floats (`_qagse`), which gives
scipy.integrate.quad's results bit for bit without loading scipy; the rest
is numpy, and nothing here imports scipy.
"""

from __future__ import annotations

import sys
from math import ceil, inf, isfinite, sqrt
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureError",
    "integrate_1d",
    "stable_binomial_series",
]

# Relative slack of the physics-domain guards at their documented boundaries:
# the guarded quantity is often a rounded product, such as r_min * omega_eg
# (the radiation zone at the start of a radius grid), (omega_f / f) * f (the
# two-ray size guard) or eta of a point computed on the mirror surface, which
# must not turn a value on its boundary into a rejected one.
_GUARD_RTOL = 1e-12
_EPS = 2.0**-52  # machine epsilon, QUADPACK's d1mach(4)


class QuadratureError(RuntimeError):
    """Adaptive quadrature missed its tolerance; the message quotes value, error and tol."""


def integrate_1d(
    f: Callable[[float], float],
    interval: Sequence[float],
    rel_tol: float,
    abs_tol: float,
    limit: int,
) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod integral of f over a finite [a, b] in at most
    `limit` subintervals, as (value, error), by `_qagse`, a port of
    QUADPACK's QAGS that gives scipy.integrate.quad's value and error bit
    for bit.  f is called once per node with a Python float, so integrands
    should use `math` rather than numpy scalars.  a > b integrates over
    [b, a] and negates the value, as `quad` does; an infinite end, a
    tolerance that is not > 0 or a limit that is not an integer >= 1 raises
    ValueError before f is called.

    Raises QuadratureError, whose message quotes the value, the error and
    tol = max(abs_tol, rel_tol |value|), when QAGS reports a failure and the
    error exceeds tol, or when the value or the error is not finite.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (isfinite(a) and isfinite(b)):
        raise ValueError("quadrature interval must be finite")
    if not (rel_tol > 0 and abs_tol > 0):  # negated, so a NaN fails too
        raise ValueError("quadrature tolerances must be positive")
    if not (isinstance(limit, Integral) and limit >= 1):  # a float, NaN included, fails
        raise ValueError("limit must be an integer >= 1")
    lo, hi = min(a, b), max(a, b)
    value, abserr, ier, _ = _qagse(f, lo, hi, abs_tol, rel_tol, limit)
    # Python floats, as quad returns, also where f returns numpy scalars
    value, abserr = float(value), float(abserr)
    if b < a:
        value = -value
    tol = max(abs_tol, rel_tol * abs(value))
    # negated, so a NaN value or error fails too
    if not (isfinite(value) and isfinite(abserr)) or (ier and abserr > tol):
        raise QuadratureError(
            f"quadrature did not converge: value {value:.6g}, achieved {abserr:.3e}, tol {tol:.3e}"
        )
    return value, abserr


# QAGS (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK,
# Springer 1983), ported from the Fortran routines DQAGSE, DQK21, DQPSRT and
# DQELG in their operation order, so that each result, error and subinterval
# count is the one QUADPACK (and so scipy.integrate.quad) gives.  Sums run in
# the Fortran's order with plain `+` (`sum` compensates floats from Python
# 3.12 on), and the lists are indexed from 1, as in the Fortran.
_UFLOW, _OFLOW = sys.float_info.min, sys.float_info.max  # d1mach(1), d1mach(2)
# DQK21's nodes xgk(1..10) (xgk(11) = 0 is the centre), Kronrod weights
# wgk(1..11), and Gauss weights wg(1..5) of the nodes xgk(2), xgk(4), ...
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)  # fmt: skip
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)  # fmt: skip
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)  # fmt: skip


def _qk21(f, a, b):
    """DQK21: the 21-point Kronrod rule on [a, b] and its 10-point Gauss
    rule; returns (result, abserr, resabs, resasc).  Written out straight,
    which was faster than a loop: node pair j, f(centr -+ hlgth xgk(j)), is
    evaluated once, in the order of the Fortran's two loops (the Gauss pairs
    j = 2, 4, ..., 10, then j = 1, 3, ..., 9), and summed in that order."""
    x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = _XGK
    w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11 = _WGK
    g2, g4, g6, g8, g10 = _WG
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(centr)
    l2, u2 = f(centr - (absc := hlgth * x2)), f(centr + absc)
    l4, u4 = f(centr - (absc := hlgth * x4)), f(centr + absc)
    l6, u6 = f(centr - (absc := hlgth * x6)), f(centr + absc)
    l8, u8 = f(centr - (absc := hlgth * x8)), f(centr + absc)
    l10, u10 = f(centr - (absc := hlgth * x10)), f(centr + absc)
    l1, u1 = f(centr - (absc := hlgth * x1)), f(centr + absc)
    l3, u3 = f(centr - (absc := hlgth * x3)), f(centr + absc)
    l5, u5 = f(centr - (absc := hlgth * x5)), f(centr + absc)
    l7, u7 = f(centr - (absc := hlgth * x7)), f(centr + absc)
    l9, u9 = f(centr - (absc := hlgth * x9)), f(centr + absc)
    s1, s2, s3, s4, s5 = l1 + u1, l2 + u2, l3 + u3, l4 + u4, l5 + u5
    s6, s7, s8, s9, s10 = l6 + u6, l7 + u7, l8 + u8, l9 + u9, l10 + u10
    resg = g2 * s2 + g4 * s4 + g6 * s6 + g8 * s8 + g10 * s10
    resk = w11 * fc
    resabs = abs(resk)
    resk = (
        resk + w2 * s2 + w4 * s4 + w6 * s6 + w8 * s8 + w10 * s10
        + w1 * s1 + w3 * s3 + w5 * s5 + w7 * s7 + w9 * s9
    )  # fmt: skip
    resabs = (
        resabs + w2 * (abs(l2) + abs(u2)) + w4 * (abs(l4) + abs(u4)) + w6 * (abs(l6) + abs(u6))
        + w8 * (abs(l8) + abs(u8)) + w10 * (abs(l10) + abs(u10)) + w1 * (abs(l1) + abs(u1))
        + w3 * (abs(l3) + abs(u3)) + w5 * (abs(l5) + abs(u5)) + w7 * (abs(l7) + abs(u7))
        + w9 * (abs(l9) + abs(u9))
    )  # fmt: skip
    h = resk * 0.5  # reskh
    resasc = (
        w11 * abs(fc - h) + w1 * (abs(l1 - h) + abs(u1 - h)) + w2 * (abs(l2 - h) + abs(u2 - h))
        + w3 * (abs(l3 - h) + abs(u3 - h)) + w4 * (abs(l4 - h) + abs(u4 - h))
        + w5 * (abs(l5 - h) + abs(u5 - h)) + w6 * (abs(l6 - h) + abs(u6 - h))
        + w7 * (abs(l7 - h) + abs(u7 - h)) + w8 * (abs(l8 - h) + abs(u8 - h))
        + w9 * (abs(l9 - h) + abs(u9 - h)) + w10 * (abs(l10 - h) + abs(u10 - h))
    )  # fmt: skip
    dhlgth = abs(hlgth)
    resabs, resasc = resabs * dhlgth, resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        abserr = max((_EPS * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """DQPSRT: keep iord ordered by descending elist (its first jupbn
    entries) after interval maxerr was split into maxerr and last; returns
    the next interval to bisect, (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
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
    for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
        isucc = iord[i]
        if errmax >= elist[isucc]:
            iord[i - 1] = maxerr
            for k in range(jbnd, i - 1, -1):  # insert errmin bottom-up
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
            else:
                iord[i] = last
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd], iord[jupbn] = maxerr, last
    return iord[nrmax], elist[iord[nrmax]], nrmax


def _qelg(n, epstab, res3la, nres):
    """DQELG: Wynn's epsilon algorithm on the n entries of epstab, the last
    the newest partial sum; updates epstab and the last three results res3la
    in place, and returns (n, result, abserr, nres)."""
    nres += 1
    abserr, result = _OFLOW, epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], (res := epstab[k1 + 2])
            e1abs = abs(e1)
            err2, tol2 = abs(delta2 := e2 - e1), max(abs(e2), e1abs) * _EPS
            err3, tol3 = abs(delta3 := e1 - e0), max(e1abs, abs(e0)) * _EPS
            if not (err2 > tol2 or err3 > tol3):  # e0, e1, e2 equal to machine accuracy
                result, abserr = res, err2 + err3
                return n, result, max(abserr, 5.0 * _EPS * abs(result)), nres
            e3, epstab[k1] = epstab[k1], e1
            err1, tol1 = abs(delta1 := e1 - e3), max(e1abs, abs(e3)) * _EPS
            # two close elements, or irregular behaviour: omit part of the table
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1
                break
            res = epstab[k1] = e1 + 1.0 / ss
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr, result = error, res
        if n == 50:  # limexp
            n = 49
        ib = 2 if num % 2 == 0 else 1  # shift the table
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            epstab[1 : n + 1] = epstab[num - n + 1 : num + 1]
        if nres < 4:
            res3la[nres], abserr = result, _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPS * abs(result)), nres


def _qagse(f, a, b, epsabs, epsrel, limit):
    """DQAGSE: bisect the subinterval of largest error until the summed
    error meets max(epsabs, epsrel |area|), extrapolating the partial sums by
    `_qelg` once the interval to bisect is the smallest, for a <= b and
    epsabs > 0.  Returns (result, abserr, ier, last): QUADPACK's error code
    (0 on success), and f was called 42 last - 21 times."""
    alist, blist, rlist, elist = ([0.0] * (limit + 1) for _ in range(4))
    iord, rlist2, res3la = [0] * (limit + 1), [0.0] * 53, [0.0] * 4
    alist[1], blist[1] = a, b
    ier = ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    rlist[1], elist[1], iord[1] = result, abserr, 1
    if abserr <= 100.0 * _EPS * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, 1
    rlist2[1], errmax, maxerr, area, errsum = result, abserr, 1, result, abserr
    abserr, nrmax, nres, numrl2, ktmin = _OFLOW, 1, 0, 2, 0
    extrap = noext = summed = False  # summed: the Fortran's "go to 115"
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPS) * defabs else -1
    for last in range(2, limit + 1):
        a1, b2 = alist[maxerr], blist[maxerr]
        a2 = b1 = 0.5 * (a1 + b2)
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(epsabs, epsrel * abs(area))
        # roundoff, the subdivision limit, bad behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPS) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue  # the interval to bisect next is not the smallest
            extrap, nrmax = True, 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the
            # larger intervals first, while there are any
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if large := abs(blist[maxerr] - alist[maxerr]) > small:
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare the bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax, nrmax, extrap, small, erlarg = elist[maxerr], 1, False, small * 0.5, errsum
    # labels 100-130: the extrapolated result, or the sum of rlist where
    # that is the better estimate, and the test on divergence
    summed = summed or abserr == _OFLOW
    if not summed:
        test = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr += correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed, test = abserr > errsum, area != 0.0
        test = test and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01)
        if not summed and test:
            # result / area, or IEEE's +-inf or NaN where area = 0 (the
            # sign does not matter here)
            q = result / area if area else result * inf
            if 0.01 > q or q > 100.0 or errsum > abs(area):
                ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result += rlist[k]
        abserr = errsum
    return result, abserr, ier - 1 if ier > 2 else ier, last


def stable_binomial_series(M: int, u: float) -> float:
    """S_M(u) = sum_{r=0}^{M-1} C(M-1, r) (-u)^(1+r) / (1+r)!, M >= 1, u >= 0,
    whose alternating terms can exceed the result by many orders of magnitude.

    S_M = L_M - L_{M-1} = -(u / M) L^(1)_{M-1}(u) (DLMF sec. 18.9), with L^(1)
    from k L_k = (2k - u) L_{k-1} - k L_{k-2}, L_{-1} = 0, L_0 = 1, in M - 1
    steps.  The echo series adds e^(-u/2) S_M(u), and that is what is accurate:
    e^(-u/2) |S_M - S_exact| <= 8 eps; near a zero of L^(1)_{M-1} the relative
    error can be far larger.  u multiplies L before the division by M, so a
    subnormal u such as 5e-324 is not flushed to zero.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if not (u >= 0 and isfinite(u)):
        raise ValueError("u must be finite and >= 0")
    u = float(u)
    lag, laguerre, k = 0.0, 1.0, 0.0
    # a float k: every k < 2^53 is exact, so each step gives the bits of the
    # int-k recurrence without mixing int and float
    for _ in range(1, M):
        k += 1.0
        lag, laguerre = laguerre, ((k + k - u) * laguerre - k * lag) / k
    value = -(u * laguerre) / M
    if not isfinite(value):
        raise OverflowError(
            f"series value not representable in double precision (M={M}, u={u})"
        )
    return value


def _cos_sum(weights: np.ndarray, frequencies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_j weights_j cos(frequencies_j t_k) on a uniform grid t_k = t_0 + k h,
    h = (t_{T-1} - t_0) / (T - 1); a grid that is not 1-D, holds a NaN or inf,
    or has a sample off t_0 + k h by more than 4 eps max |t| raises ValueError.

    With S = ceil(sqrt(T)) the grid is read as K = ceil(T / S) rows t_{bS} + j h,
    j < S, so cos(lambda t_k) = cos(lambda t_{bS}) cos(lambda j h)
    - sin(lambda t_{bS}) sin(lambda j h) makes the sum two (K x n) @ (n x S)
    products.  The modes are taken in blocks of b = floor(_TABLE_MAX / S),
    so no phase table exceeds _TABLE_MAX entries whatever n is, and each
    block adds its two (K x b) @ (b x S) products into the K x S result.
    The doubled tables of every block fill prefixes of two buffers of 2 K w
    and 2 S w doubles, w = min(b, n), made before the loop for the first
    block, so the sum holds one block's tables at a time.  A phase table of
    fewer than _DOUBLING_MIN entries takes its 2 b K or 2 b S sines and
    cosines directly, and is off the exact sum by about
    eps max |t| sum |w_j lambda_j| from the phases plus a few eps sum |w_j|
    from the products; blocks only reorder the same products, which stays
    within those few eps sum |w_j|, and a sum of one block is exactly the
    unblocked one.  A larger table is filled by doubling in `_turns`, from
    t_0 + b S h, with 2 (1 + ceil(log2 K)) or 2 ceil(log2 S) per mode (26
    instead of 180 for both at T = 2000): each entry is a product of at most
    ceil(log2 T) rotations, each rounded a few eps, and its phase the sum of
    the same angles, each rounded once, which adds about 2 log2(T) eps
    sum |w_j| to that bound.
    """
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ValueError("time grid must be uniform, finite and 1-D")
    size = times.size
    step = (times[-1] - times[0]) / (size - 1) if size > 1 else 0.0
    uniform = times[:1] + step * np.arange(size)
    # negated, so a NaN difference (0 * inf where the step overflows) fails too
    if not np.all(np.abs(times - uniform) <= 4.0 * _EPS * np.max(np.abs(times), initial=0.0)):
        raise ValueError("time grid must be uniform")
    cols = max(1, ceil(sqrt(size)))
    rows = -(-size // cols)
    # rows <= cols, so the offset tables set the block width; the first block
    # is the widest, so a later block doubles only if it does, into a prefix
    # of the buffers
    width = max(1, _TABLE_MAX // cols)
    first = min(width, frequencies.size)
    # the K x S result first: a grid too large for memory fails before any trig
    out = np.zeros((rows, cols))
    anchor_buf, offset_buf = np.empty(2 * rows * first), np.empty(2 * cols * first)
    # no modes still take one (empty) pass, which adds zeros
    for lo in range(0, max(1, frequencies.size), width):
        w, f = weights[lo : lo + width], frequencies[lo : lo + width]
        n = f.size
        if rows * n < _DOUBLING_MIN:
            anchors = np.multiply.outer(times[::cols], f)
            cos_a, sin_a = np.cos(anchors) * w, np.sin(anchors) * w
        else:
            table = anchor_buf[: 2 * rows * n].reshape(2, rows, n)
            cos_a, sin_a = _turns(w, f * times[0], f * (cols * step), table)
        if cols * n < _DOUBLING_MIN:
            offsets = np.multiply.outer(f, step * np.arange(cols))
            cos_o, sin_o = np.cos(offsets), np.sin(offsets)
        else:
            table = offset_buf[: 2 * cols * n].reshape(2, cols, n)
            cos_o, sin_o = _turns(1.0, 0.0, f * step, table).transpose(0, 2, 1)
        out += cos_a @ cos_o
        out -= sin_a @ sin_o
    return out.ravel()[:size]


# A phase table of fewer entries (rows x modes) takes its sines and cosines
# directly: below about this size the numpy call overhead of the doubling
# steps in `_turns` costs more than the trig they save.
_DOUBLING_MIN = 4096
# No phase table (a block's cosines or its sines) holds more entries than
# this, 256 KiB of doubles, and the blocks share their tables' buffers, so
# `_cos_sum` needs about 1.2 MiB however many modes it sums (its
# `tracemalloc` peak at 2000 samples is 1.21 MiB for 1715 modes and for
# 17 149).  Each block costs about 100 numpy calls: measured on `perfbench`,
# 2^14 takes 0.3-0.5 MB more off the `echo-series` peak RSS but makes
# `continuum-ode` about 5 % slower, where 2^15 leaves it within 1 %.
_TABLE_MAX = 2**15


def _turns(amplitude, phase, angle: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Fill and return `table`, shape (2, count, n), with [r cos; r sin](phase
    + i angle), i < count, for amplitudes r.  Rows [p, 2p) are rows [0, p)
    turned by p angle, so the only sines and cosines taken are those of phase
    and of the doublings of angle (subvector scaling: Van Loan, Computational
    Frameworks for the Fast Fourier Transform, SIAM 1992, sec. 1.4)."""
    count = table.shape[1]
    table[0, 0], table[1, 0] = amplitude * np.cos(phase), amplitude * np.sin(phase)
    done = 1
    while done < count:
        new = min(done, count - done)
        turn = done * angle
        c, s = np.cos(turn), np.sin(turn)
        (cos0, sin0), (cos1, sin1) = table[:, :new], table[:, done : done + new]
        np.multiply(cos0, c, out=cos1)
        cos1 -= sin0 * s
        np.multiply(sin0, c, out=sin1)
        sin1 += cos0 * s
        done += new
    return table


# Bernoulli numbers B_2k, k = 1..7 (DLMF 24.2.1): B_2k / 2k are the
# coefficients of psi's asymptotic series, B_2k those of psi'
_B2K = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6])
_PSI_SERIES = _B2K / (2.0 * np.arange(1, 8))
_RECURRENCE = np.arange(10.0)


def _psi_trigamma(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digamma psi(x) and trigamma psi'(x) of a 1-D array x > 0 (DLMF
    5.11.2, 5.15.8), in one pass.  Entries x < 10 are lifted to y = x + 10,
    the rest keep y = x; one Horner loop in z = y^-2 sums both Bernoulli
    series, and the recurrences back from y to x (DLMF 5.5.2, 5.15.5)
    subtract sum_{j<10} 1 / (x + j) from psi and add sum_{j<10} 1 / (x + j)^2
    to psi' at the lifted entries.  At y >= 10 the first omitted term, which
    bounds the truncation error, is below 3 eps relative (psi' at y = 10;
    under an ulp for psi).  Below 1, where the flat band's gap n evaluates
    them at 1 - tau in (0, 1), psi stays within 8 eps and psi' within 4 eps
    relative on [1e-3, 1].  The two series keep their own arrays: stacked as
    one (2, m) array with a (2, 1) coefficient column they took 1.1x as long
    at 150 entries and 1.4x at 4000, numpy's broadcasting loops being slower
    than its scalar ones."""
    small = np.flatnonzero(x < 10.0)
    y = x.astype(float)
    y[small] += 10.0
    z = 1.0 / (y * y)
    psi, trigamma = _PSI_SERIES[-1] * z, _B2K[-1] * z
    for a, b in zip(_PSI_SERIES[-2::-1], _B2K[-2::-1]):
        psi += a
        psi *= z
        trigamma += b
        trigamma *= z
    half = 0.5 / y
    psi, trigamma = np.log(y) - half - psi, (1.0 + half + trigamma) / y
    u = x[small, None] + _RECURRENCE
    psi[small] -= (1.0 / u).sum(axis=1)
    trigamma[small] += (1.0 / (u * u)).sum(axis=1)
    return psi, trigamma
