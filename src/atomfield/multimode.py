"""One excited amplitude coupled to N field modes.

Interaction-picture equations with the mode detunings
delta_k = omega_k - omega_eg:

    da_e/dt = -i sum_k g_k exp(+i delta_k t) b_k
    db_k/dt = -i conj(g_k) exp(-i delta_k t) a_e

The total norm |a_e|^2 + sum |b_k|^2 is conserved.  In the frame rotating at
omega_eg the Hamiltonian is the Hermitian arrowhead [[0, g^T], [g*, diag(delta)]].

The free-space (quasi-continuum band) and spherical-cavity (equidistant
ladder) solvers share one model, the flat band of `_flat_band`, and solve it
exactly by `_flat_band_evolution`: a_e(t) = sum_j w_j exp(-i lambda_j t) over
the arrowhead's eigenpairs.  The band is mirror-symmetric, so only its upper
half is solved: all its roots together by two or three safeguarded Newton
steps on the closed form of the secular sum, from starts that model each
root's nearest poles, with psi and psi' taken in one numpy pass per step.
The time grid must be uniform: `numerics._cos_sum` sums the cosines by angle
addition over blocks of the grid, with about 2 log2(T) + 2 sines and cosines
per mode instead of T (about 4 sqrt(T) for the smallest bands and grids, see
`numerics._cos_sum`).
The brute-force DOP853 integration of a band, the solver's oracle, lives
with the tests (`tests/oracles.py`), so this module needs only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, pi, sqrt

import numpy as np

from .numerics import _EPS, _GUARD_RTOL, _cos_sum, _psi_trigamma

__all__ = ["AmplitudeTrace"]


@dataclass(frozen=True)
class AmplitudeTrace:
    """Time series of the excited-state amplitude of a multimode evolution."""

    excited_amplitude: np.ndarray  # a_e(t), real: the flat band's spectrum is mirrored
    norm: float  # |a_e|^2 + sum_k |b_k|^2 = sum_j w_j at every time, should be 1

    @property
    def excited_population(self) -> np.ndarray:
        return np.abs(self.excited_amplitude) ** 2


def _flat_band(gamma: float, band_width: float, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Detunings spacing * (-n..n) covering band_width, with the flat coupling
    |g|^2 = Gamma * spacing / (2 pi) that gives the golden-rule rate Gamma at
    the mode density 1 / spacing."""
    # negated, so a NaN fails too
    if not gamma > 0:
        raise ValueError("decay rate Gamma must be > 0 to fill a band")
    if not band_width >= 20.0 * gamma * (1.0 - _GUARD_RTOL):
        raise ValueError("band width must be at least 20 Gamma")
    half = int(np.ceil(band_width / 2.0 / spacing))
    detunings = spacing * np.arange(-half, half + 1)
    return detunings, np.full(detunings.size, sqrt(gamma * spacing / (2.0 * pi)))


# Stated error bound of `_flat_band_evolution`: the largest |Delta P_e| and
# |sum w - 1| it allows against the exact finite-band solution, for
# Gamma t up to 1e3.  Each root is Newton-solved inside a bracket until every
# step is at most 8 eps tau, and the weights come from a sum of positive terms,
# so both errors stay at a few eps; phase rounding adds about eps * Gamma t
# (far modes carry weight ~ |g|^2 / lambda^2).  `_cos_sum` builds each phase
# lambda_j (t_0 + k h) from at most 1 + log2 T angles, each rounded once, so
# it is off by about eps lambda_j max |t|, weighted as above; where it fills a
# table by doubling, the at most ceil(log2 T) rotations behind each entry add
# about 2 log2(T) eps sum w, and its two products a few eps sum w.  Measured
# against a long-double dense cosine sum to Gamma t = 2000, all of it stays
# below 1e-13 sum w (9.2e-14 at Gamma t = 2000, 5.6e-14 at 1000).
_SPECTRAL_ERROR = 1e-12

# iteration cap of `_newton`, so that it ends even if no Newton step is taken:
# 60 bisections shrink a gap of width 1 to 2^-60 ~ 8.7e-19, below an ulp of x
_BISECTIONS = 60


def _newton(value_and_slope, t):
    """Roots t in (0, 1), elementwise, of functions negative below the root
    and positive above, by Newton steps.  The sign of each value narrows the
    bracket (0, 1), and a step that leaves it is replaced by bisection (Bunch,
    Nielsen & Sorensen, Numer. Math. 31 (1978) 31; R.-C. Li, LAPACK Working
    Note 89).  Stops once every step is at most 8 eps t, or after
    _BISECTIONS steps."""
    lo, hi = np.zeros(t.size), np.ones(t.size)
    for _ in range(_BISECTIONS):
        value, slope = value_and_slope(t)
        lo, hi = np.where(value < 0.0, (t, hi), (lo, t))
        new = t - value / slope
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        if np.all(np.abs(new - t) <= 8.0 * _EPS * new):
            return new
        t = new
    return t


def _flat_band_spectrum(n: int, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """The n + 1 eigenvalues x_j > 0 (in units of the spacing s), ascending,
    and their weights w_j = |<e|j>|^2 of the atom coupled to modes at s * k,
    k = -n..n, with one coupling |g|^2 = ratio * s^2.

    The secular function g(x) = x / ratio - sum_k 1 / (x - k) has one root in
    each of the 2n gaps (k, k + 1) and one beyond each band edge.  The band is
    symmetric, so the n + 1 roots below 0 are the negatives of those returned,
    with the same weights.  The outer root n + d has d < 1: in the domain
    ratio < n, so g(n + 1) = (n + 1) / ratio - H_2n+1 > 0.  So all n + 1 roots
    are gap roots x = k + tau, k = 0..n, solved in one `_newton` call whose
    every step takes one `_psi_trigamma` pass.  With the closed form
    sum_k 1 / (k - x) = psi(n+1-x) - psi(n+1+x) - pi cot(pi x) (DLMF 5.15,
    5.5.4), tau solves the pole-free equation tau = arctan2(pi, R(x)) / pi,
    R(x) = x / ratio + psi(n+1-x) - psi(n+1+x), with psi and psi' taken at
    the gap coordinates (n + 1 - k) - tau and (n + 1 + k) + tau, so that tau
    is not first rounded to ulp(x).  tau - arctan2(pi, R) / pi has the sign
    of g, and arctan2 keeps the relative accuracy of a small tau, so
    lambda - delta_k = s tau carries no cancellation.  Its slope
    1 + R' / (pi^2 + R^2) is at least 1 - 2 psi'(1) / pi^2 = 2/3 for k < n;
    in gap n it stays positive up to the root, where pi^2 + R^2 + R' = g^2
    + 2 pi g cot(pi tau) + g' > 0 for tau >= 1/2 and psi'(2 - tau) <= psi'(1)
    keeps it above 0 for tau < 0.64.

    Each root starts from a local model of its nearest poles, so that the
    bands `_flat_band` builds take 2-3 steps, 3-4 polygamma passes with the
    weights' (4-7 steps from tau = 1/2):
    - gap 1 <= k < n: R with the psi difference replaced by its logarithm,
      tau_0 = arctan2(pi, (k + 1/2) / ratio + ln((n + 1/2 - k) / (n + 3/2 + k)))
      / pi;
    - gap 0: cot(pi tau) ~ 1 / (pi tau) - pi tau / 3 against the poles 0 and
      1, tau_0 = min(1/2, (1 / ratio + pi^2 / 3)^(-1/2));
    - then, in the gaps k < n, two Newton steps on the model R ~ x / ratio
      + ln((n + 1/2 - x) / (n + 1/2 + x)) (psi(a) ~ ln(a - 1/2)), kept in the
      gap, which cost no polygamma and bring the roots beside the poles of a
      small-ratio band from up to 30 % off to about 1e-5 (in gap n the model
      is undefined once tau > 1/2);
    - gap n: sum_k 1 / (x - k) = sum_{j=0..2n} 1 / (d + j) ~ 1 / d + H - d H2,
      H, H2 = sum_{j=1..2n} 1 / j, 1 / j^2, so tau_0 = d_0 is the positive
      root of d (A + B d) = 1, A = n / ratio - H, B = 1 / ratio + H2, capped at 1/2.
    The domain is the bands `_flat_band` builds, at least 20 Gamma wide (less
    _GUARD_RTOL): ratio <= n / (20 pi) (1 + 2 _GUARD_RTOL), so A > 0 for any n
    that fits in memory (H < 62.8).  Any other band (n = 0 too) raises ValueError.
    """
    k, m = np.arange(n + 1.0), n + 1

    def polygamma(tau):
        return _psi_trigamma(np.concatenate(((m - k) - tau, (m + k) + tau)))

    def roots(tau):
        psi, trigamma = polygamma(tau)
        r = (k + tau) / ratio + psi[:m] - psi[m:]
        slope = 1.0 + (1.0 / ratio - trigamma[:m] - trigamma[m:]) / (pi**2 + r**2)
        return tau - np.arctan2(pi, r) / pi, slope

    tau = np.arctan2(pi, (k + 0.5) / ratio + np.log((n + 0.5 - k) / (n + 1.5 + k))) / pi
    tau[0] = min(0.5, (1.0 / ratio + pi**2 / 3.0) ** -0.5)
    for _ in range(2):
        t = tau[:n]
        a, b = n + 0.5 - k[:n] - t, n + 0.5 + k[:n] + t
        r = (k[:n] + t) / ratio + np.log(a / b)
        slope = 1.0 + (1.0 / ratio - 1.0 / a - 1.0 / b) / (pi**2 + r**2)
        tau[:n] = np.clip(t - (t - np.arctan2(pi, r) / pi) / slope, 0.0, 1.0)
    j = np.arange(1.0, 2 * n + 1)
    a, b = n / ratio - (1.0 / j).sum(), 1.0 / ratio + (1.0 / j**2).sum()
    if not ratio <= n / (20.0 * pi) * (1.0 + 2.0 * _GUARD_RTOL):
        raise ValueError("flat band outside the solver's domain: ratio must be <= n / (20 pi)")
    tau[n] = min(0.5, 2.0 / (a + sqrt(a * a + 4.0 * b)))
    tau = _newton(roots, tau)
    trigamma = polygamma(tau)[1]
    w = 1.0 / (1.0 + ratio * (pi**2 / np.sin(pi * tau) ** 2 - trigamma[:m] - trigamma[m:]))
    return k + tau, w


def _flat_band_evolution(
    gamma: float, band_width: float, spacing: float, times: np.ndarray
) -> AmplitudeTrace:
    """Exact a_e(t) from a_e(0) = 1 for the atom coupled to the flat band
    `_flat_band(gamma, band_width, spacing)`: a_e(t) = sum_j w_j exp(-i lambda_j t)
    over the eigenpairs of the arrowhead Hamiltonian.  The spectrum is
    mirrored, so the sines cancel and a_e(t) = sum_{lambda_j > 0} 2 w_j
    cos(lambda_j t) is real, summed over the upper half that
    `_flat_band_spectrum` returns.  The norm is the eigenbasis unitarity
    sum_j w_j = 2 fsum(w) over that half, the same at every time (doubling is
    exact).  `times` must be uniform (see `_cos_sum`)."""
    detunings, couplings = _flat_band(gamma, band_width, spacing)
    x, w = _flat_band_spectrum(detunings.size // 2, (couplings[0] / spacing) ** 2)
    a_e = _cos_sum(2.0 * w, spacing * x, np.asarray(times, dtype=float))
    return AmplitudeTrace(excited_amplitude=a_e, norm=2.0 * fsum(w))


# The benchmark's tracer (the `_FOREIGN` entry of perfbench/tracing.py) looks
# this name up and wraps it; nothing here calls it.  ROADMAP item 1 deletes
# both.  It imports the solver only when called, so importing this module
# loads no solver.
def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)
