"""Adaptive quadrature and an alternating series summed in exact integers, rounded once.

Everything here is pure and stateless; the physics modules build on these
primitives.  Unit conventions are left to the callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isfinite
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
    spec.max_subdivisions subintervals.

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
    acc = c = 1  # c_r at r = M - 1
    for r in range(M - 2, -1, -1):
        c = c * (r + 1) * (r + 2) // (M - 1 - r)
        acc = (c << b * (M - 1 - r)) - a * acc
    try:
        return -a * acc / (factorial(M) << b * M)
    except OverflowError as exc:
        raise OverflowError(
            f"series value not representable in double precision (M={M}, u={u})"
        ) from exc
