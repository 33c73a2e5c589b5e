"""Adaptive quadrature, an alternating series summed in exact integers and
rounded once, a weighted cosine sum on a uniform time grid, and the
digamma and trigamma functions of the flat-band solver, in numpy.

Everything here is pure and stateless; the physics modules build on these
primitives.  Unit conventions are left to the callers.  Only the quadrature
loads scipy (`scipy.integrate`, on its first call).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, comb, factorial, isfinite, sqrt
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
# Gamma = omega_eg^3 d^2 / (3 pi) of an atom built for Gamma = 1 can be one ulp
# off 1, which must not turn "band = 20 Gamma" into a rejected band.
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

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
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


@lru_cache
def _series_coefficients(M: int) -> tuple[tuple[int, ...], int]:
    """The integers c_r = C(M-1, r) M! / (r+1)!, r = 0..M-1, of
    `stable_binomial_series`, and M!."""
    fact = factorial(M)
    return tuple(comb(M - 1, r) * (fact // factorial(r + 1)) for r in range(M)), fact


def stable_binomial_series(M: int, u: float) -> float:
    """Sum_{r=0}^{M-1} C(M-1, r) (-u)^(1+r) / (1+r)!  without cancellation.

    The alternating terms can exceed the result by many orders of magnitude,
    so the sum is evaluated exactly: for the float u = a / 2^b, M! 2^(bM) times
    it is the polynomial -a sum_r c_r (-a)^r 2^(b(M-1-r)) with integer
    c_r = C(M-1, r) M! / (r+1)!, summed by Horner's rule in Python ints and
    rounded once by int / int division, which is correctly rounded.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if not (u >= 0 and isfinite(u)):
        raise ValueError("u must be finite and >= 0")
    a, d = float(u).as_integer_ratio()
    b = d.bit_length() - 1  # d = 2^b
    coefficients, fact = _series_coefficients(M)
    acc, shift = 1, 0  # c_{M-1} = 1
    for c in coefficients[-2::-1]:
        shift += b
        acc = (c << shift) - a * acc
    try:
        return -a * acc / (fact << b * M)
    except OverflowError as exc:
        raise OverflowError(
            f"series value not representable in double precision (M={M}, u={u})"
        ) from exc


def _cos_sum(weights: np.ndarray, frequencies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_j weights_j cos(frequencies_j t_k) on a uniform grid t_k = t_0 + k h,
    h = (t_{T-1} - t_0) / (T - 1); a sample off t_0 + k h by more than 4 eps
    max |t| raises ValueError.

    With S = ceil(sqrt(T)) the grid is read as K = ceil(T / S) rows t_{bS} + j h,
    j < S, so cos(lambda t_k) = cos(lambda t_{bS}) cos(lambda j h)
    - sin(lambda t_{bS}) sin(lambda j h) makes the sum two (K x n) @ (n x S)
    products: 2 n (K + S) ~ 4 n sqrt(T) sines and cosines instead of n T.
    """
    size = times.size
    step = (times[-1] - times[0]) / (size - 1) if size > 1 else 0.0
    uniform = times[:1] + step * np.arange(size)
    if np.any(np.abs(times - uniform) > 4.0 * _EPS * np.max(np.abs(times), initial=0.0)):
        raise ValueError("time grid must be uniform")
    cols = max(1, ceil(sqrt(size)))
    # the K x S result first: a grid too large for memory fails before any trig
    out = np.empty((-(-size // cols), cols))
    anchors = np.multiply.outer(times[::cols], frequencies)
    offsets = np.multiply.outer(frequencies, step * np.arange(cols))
    np.matmul(np.cos(anchors) * weights, np.cos(offsets), out=out)
    out -= (np.sin(anchors) * weights) @ np.sin(offsets)
    return out.ravel()[:size]


# Bernoulli numbers B_2k, k = 1..7 (DLMF 24.2.1)
_B2K = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6])
_TWO_K = 2.0 * np.arange(1, 8)
_RECURRENCE = np.arange(10.0)


def _asymptotic(x, coef: np.ndarray, term) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For x >= 1: y = x + 10 where x < 10, else y = x; the Bernoulli sum
    sum_k coef_k y^(-2k), k = 1..7; and sum_{j<10} term(x + j) over the
    lifted entries (zero elsewhere), for the recurrence back from y to x.
    At y >= 10 the first omitted term, which bounds the truncation error, is
    below 3 eps relative (psi' at y = 10; under an ulp for psi)."""
    x = np.asarray(x, dtype=float)
    small = np.flatnonzero(x < 10.0)
    y = x.copy()
    y.flat[small] += 10.0
    z = 1.0 / (y * y)
    series = coef[-1] * z
    for c in coef[-2::-1]:
        series += c
        series *= z
    lift = np.zeros(x.shape)
    lift.flat[small] = term(x.flat[small][:, None] + _RECURRENCE).sum(axis=1)
    return y, series, lift


def _psi(x):
    """Digamma psi(x) for x >= 1 (DLMF 5.11.2 after 5.5.2)."""
    y, series, lift = _asymptotic(x, _B2K / _TWO_K, np.reciprocal)
    return np.log(y) - 0.5 / y - series - lift


def _trigamma(x):
    """Trigamma psi'(x) for x >= 1 (DLMF 5.15.8 after 5.15.5)."""
    y, series, lift = _asymptotic(x, _B2K, lambda u: 1.0 / (u * u))
    return (1.0 + 0.5 / y + series) / y + lift
