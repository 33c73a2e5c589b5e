"""Adaptive quadrature, an alternating binomial series summed as a Laguerre
recurrence, a weighted cosine sum on a uniform time grid, and the
digamma and trigamma functions of the flat-band solver, in numpy.

Everything here is pure and stateless; the physics modules build on these
primitives.  Unit conventions are left to the callers.  Only the quadrature
loads scipy (`scipy.integrate`, on its first call).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite, sqrt
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "QuadratureError",
    "integrate_1d",
    "integrate_2d",
    "stable_binomial_series",
]

# Relative slack of the physics-domain guards at their documented boundaries:
# the guarded quantity is often a rounded product, such as r_min * omega_eg
# (the radiation zone at the start of a radius grid), (omega_f / f) * f (the
# two-ray size guard) or eta of a point computed on the mirror surface, which
# must not turn a value on its boundary into a rejected one.
_GUARD_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available estimate and the achieved error bound.
    """

    def __init__(self, message: str, estimate: float, achieved_error: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_error = achieved_error


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive quadrature."""

    rel_tol: float
    abs_tol: float
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


class QuadResult(NamedTuple):
    value: float
    error: float


def integrate_1d(
    f: Callable[[float], float],
    interval: Sequence[float],
    spec: QuadratureSpec,
) -> QuadResult:
    """Adaptive Gauss-Kronrod integral of f over [a, b] in at most
    spec.max_subdivisions subintervals.  `quad` calls f once per node with a
    Python float, so integrands should use `math` rather than numpy scalars.

    Raises QuadratureError (carrying the best estimate) on non-convergence.
    """
    from scipy.integrate import quad  # deferred: `import atomfield` does not load it

    a, b = float(interval[0]), float(interval[1])
    with np.errstate(all="ignore"):
        out = quad(
            f,
            a,
            b,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            limit=spec.max_subdivisions,
            full_output=True,
        )
    value, abserr = out[0], out[1]
    if len(out) > 3:  # explanation string present -> warning raised internally
        tol = max(spec.abs_tol, spec.rel_tol * abs(value))
        if abserr > tol:
            raise QuadratureError(
                f"quadrature did not converge: achieved {abserr:.3e} > tol {tol:.3e}",
                estimate=value,
                achieved_error=abserr,
            )
    return QuadResult(value, abserr)


def integrate_2d(
    f: Callable[[float, float], float],
    rectangle: Sequence[Sequence[float]],
    spec: QuadratureSpec,
) -> QuadResult:
    """Iterated 1-D adaptive quadrature of f(x, y) over [x0,x1] x [y0,y1];
    the inner integral runs over x."""
    (x0, x1), (y0, y1) = rectangle
    # inner tolerance slightly tighter than requested so the outer loop
    # sees a smooth integrand
    inner_spec = QuadratureSpec(
        rel_tol=spec.rel_tol * 0.1,
        abs_tol=spec.abs_tol * 0.1,
        max_subdivisions=spec.max_subdivisions,
    )
    inner_errs: list[float] = []

    def g(y: float) -> float:
        val, err = integrate_1d(lambda x: f(x, y), (x0, x1), inner_spec)
        inner_errs.append(err)
        return val

    value, outer_err = integrate_1d(g, (y0, y1), spec)
    inner_err = max(inner_errs) * abs(y1 - y0) if inner_errs else 0.0
    return QuadResult(value, outer_err + inner_err)


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
    block adds its two (K x b) @ (b x S) products into the K x S result.  A
    phase table of fewer than _DOUBLING_MIN entries takes its 2 b K or 2 b S
    sines and cosines directly, and is off the exact sum by about
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
    # the K x S result first: a grid too large for memory fails before any trig
    out = np.empty((rows, cols))
    # rows <= cols, so the offset tables set the block width; no modes still
    # take one (empty) pass, which writes the zeros
    width = max(1, _TABLE_MAX // cols)
    for lo in range(0, max(1, frequencies.size), width):
        w, f = weights[lo : lo + width], frequencies[lo : lo + width]
        if rows * f.size < _DOUBLING_MIN:
            anchors = np.multiply.outer(times[::cols], f)
            cos_a, sin_a = np.cos(anchors) * w, np.sin(anchors) * w
        else:
            cos_a, sin_a = _turns(w, f * times[0], f * (cols * step), rows)
        if cols * f.size < _DOUBLING_MIN:
            offsets = np.multiply.outer(f, step * np.arange(cols))
            cos_o, sin_o = np.cos(offsets), np.sin(offsets)
        else:
            cos_o, sin_o = _turns(1.0, 0.0, f * step, cols).transpose(0, 2, 1)
        if lo:
            out += cos_a @ cos_o
        else:
            np.matmul(cos_a, cos_o, out=out)
        out -= sin_a @ sin_o
    return out.ravel()[:size]


# A phase table of fewer entries (rows x modes) takes its sines and cosines
# directly: below about this size the numpy call overhead of the doubling
# steps in `_turns` costs more than the trig they save.
_DOUBLING_MIN = 4096
# No phase table (a block's cosines or its sines) holds more entries than
# this, 256 KiB of doubles, so `_cos_sum` needs about 2 MB however many modes
# it sums.  Each block costs about 100 numpy calls: measured on `perfbench`,
# 2^14 takes 0.3-0.5 MB more off the `echo-series` peak RSS but makes
# `continuum-ode` about 5 % slower, where 2^15 leaves it within 1 %.
_TABLE_MAX = 2**15


def _turns(amplitude, phase, angle: np.ndarray, count: int) -> np.ndarray:
    """The table [r cos; r sin](phase + i angle), shape (2, count, n), i < count,
    for amplitudes r.  Rows [p, 2p) are rows [0, p) turned by p angle, so the
    only sines and cosines taken are those of phase and of the doublings of
    angle (subvector scaling: Van Loan, Computational Frameworks for the Fast
    Fourier Transform, SIAM 1992, sec. 1.4)."""
    table = np.empty((2, count, angle.size))
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
    """Digamma psi(x) and trigamma psi'(x) of a 1-D array x >= 1 (DLMF
    5.11.2, 5.15.8), in one pass.  Entries x < 10 are lifted to y = x + 10,
    the rest keep y = x; one Horner loop in z = y^-2 sums both Bernoulli
    series, and the recurrences back from y to x (DLMF 5.5.2, 5.15.5)
    subtract sum_{j<10} 1 / (x + j) from psi and add sum_{j<10} 1 / (x + j)^2
    to psi' at the lifted entries.  At y >= 10 the first omitted term, which
    bounds the truncation error, is below 3 eps relative (psi' at y = 10;
    under an ulp for psi).  The two series keep their own arrays: stacked as
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
