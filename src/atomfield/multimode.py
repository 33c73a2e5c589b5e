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
from math import fsum, log, pi, sqrt

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

# iteration cap of `_newton`, so that it ends even if it never accepts a
# Newton step: 60 bisections shrink a bracket by 2^-60 ~ 8.7e-19, below an ulp
# of every root x for the brackets below (width 1 in a gap, under
# sqrt((2n+1) ratio) outside)
_BISECTIONS = 60


def _newton(value_and_slope, t, lo, hi):
    """Roots t in [lo, hi] of increasing functions, elementwise, by Newton
    steps.  The sign of each value narrows the bracket, and a step that leaves
    it is replaced by bisection (Bunch, Nielsen & Sorensen, Numer. Math. 31
    (1978) 31; R.-C. Li, LAPACK Working Note 89).  Stops once every step is at
    most 8 eps t, or after _BISECTIONS steps."""
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

    The secular equation x = ratio * sum_k 1 / (x - k) has one root in each of
    the 2n gaps (k, k + 1) and one beyond each band edge.  The band is
    symmetric, so the n + 1 roots below 0 are the negatives of those returned,
    with the same weights.  Only the gaps k = 0..n-1 and the outer root n + d
    are solved, all in one `_newton` call whose every step takes one
    `_psi_trigamma` pass.
    With the closed form sum_k 1 / (k - x) = psi(n+1-x) - psi(n+1+x)
    - pi cot(pi x) (DLMF 5.15, 5.5.4), a gap root x = k + tau solves the
    pole-free equation tau = arctan2(pi, R(x)) / pi with R(x) = x / ratio
    + psi(n+1-x) - psi(n+1+x).  tau - arctan2(pi, R) / pi increases with
    tau (slope 1 + R' / (pi^2 + R^2) >= 1 - 2 psi'(1) / pi^2 = 2/3), and arctan2
    keeps the relative accuracy of a small tau, so lambda - delta_k = s tau
    carries no cancellation.  The outer root solves (n + d) / ratio
    = sum_j 1 / (d + j), j = 0..2n, by its direct sums, two reductions per
    step: the closed form psi(d + 2n + 1) - psi(d) cancels where
    d >> 2n + 1, and put (n, ratio) = (3, 1e4) 1.3e-14 from the oracle.

    Each root starts from a local model of its nearest poles, so that the
    bands `_flat_band` builds take 2-3 steps, 3-4 polygamma passes with the
    weights' (from tau = 1/2 they took 4-7 steps of a psi and a psi' pass
    each, and the outer root a Newton loop of its own from d_lo):
    - gap k >= 1: R with the psi difference replaced by its logarithm,
      tau_0 = arctan2(pi, (k + 1/2) / ratio + ln((n + 1/2 - k) / (n + 3/2 + k)))
      / pi;
    - gap 0: cot(pi tau) ~ 1 / (pi tau) - pi tau / 3 against the poles 0 and
      1, tau_0 = min(1/2, (1 / ratio + pi^2 / 3)^(-1/2));
    - then two Newton steps on the model R ~ x / ratio + ln((n + 1/2 - x)
      / (n + 1/2 + x)) (psi(a) ~ ln(a - 1/2)), kept in the gap, which cost
      no polygamma and bring the roots beside the poles of a small-ratio
      band from up to 30 % off to about 1e-5;
    - outer root: the direct sum to first order in d, 1 / d + H - d H2 with
      H, H2 = sum_{j>=1} 1 / j, 1 / j^2, so d_0 is the positive root of
      d (A + B d) = 1, A = n / ratio - H, B = 1 / ratio + H2, capped at the
      bracket's upper end d_hi = sqrt((2n + 1) ratio).  Where A <= 0
      (ratio >= n / H, which `_flat_band`'s ratio <= n / (20 pi) never
      reaches), d is not small: d_0 is then the root of the log model
      (n + d) / ratio = 1 / d + ln((d + 2n + 1/2) / (d + 1/2)) of the direct
      sum, by Newton steps from d_lo, which rise monotonically to it (the
      model is increasing and concave in d), capped at d_hi.  On n = 1-5000,
      ratio up to 1e7 that takes at most 5 steps, (n, ratio) = (5000, 562)
      among them, where the last gap root sets the count (from d_0 = d_hi it
      took 16).
    """
    k, j = np.arange(n, dtype=float), np.arange(2 * n + 1, dtype=float)

    def roots(t):
        x, q = k + t[:n], 1.0 / (t[n] + j)
        psi, trigamma = _psi_trigamma(np.concatenate((n + 1 - x, n + 1 + x)))
        r = x / ratio + psi[:n] - psi[n:]
        value = np.append(t[:n] - np.arctan2(pi, r) / pi, (n + t[n]) / ratio - q.sum())
        slope = 1.0 + (1.0 / ratio - trigamma[:n] - trigamma[n:]) / (pi**2 + r**2)
        return value, np.append(slope, 1.0 / ratio + (q * q).sum())

    tau = np.arctan2(pi, (k + 0.5) / ratio + np.log((n + 0.5 - k) / (n + 1.5 + k))) / pi
    tau[:1] = min(0.5, (1.0 / ratio + pi**2 / 3.0) ** -0.5)
    for _ in range(2):
        a, b = n + 0.5 - k - tau, n + 0.5 + k + tau
        r = (k + tau) / ratio + np.log(a / b)
        slope = 1.0 + (1.0 / ratio - 1.0 / a - 1.0 / b) / (pi**2 + r**2)
        tau = np.clip(tau - (tau - np.arctan2(pi, r) / pi) / slope, 0.0, 1.0)
    a, b = n / ratio - (1.0 / j[1:]).sum(), 1.0 / ratio + (1.0 / j[1:] ** 2).sum()
    # brackets: (0, 1) in a gap; beyond the edge the j = 0 term alone gives
    # the lower bound, and the right side is at most (2n + 1) / d, the upper one
    d_lo, d_hi = 2.0 * ratio / (n + sqrt(n * n + 4.0 * ratio)), sqrt((2 * n + 1) * ratio)
    if a > 0.0:
        d = min(2.0 / (a + sqrt(a * a + 4.0 * b)), d_hi)
    else:
        # Newton steps on the log model, from d_lo up to its root
        d, c = d_lo, 2 * n + 0.5
        for _ in range(_BISECTIONS):
            g = (n + d) / ratio - 1.0 / d - log((d + c) / (d + 0.5))
            step = g / (1.0 / ratio + 1.0 / d**2 + 1.0 / (d + 0.5) - 1.0 / (d + c))
            d -= step
            if -step <= 1e-4 * d:
                break
        d = min(d, d_hi)
    t = _newton(roots, np.append(tau, d), np.append(np.zeros(n), d_lo), np.append(np.ones(n), d_hi))
    x = np.arange(n + 1.0) + t  # the gap roots k + tau, then n + d
    trigamma = _psi_trigamma(np.concatenate((n + 1 - x[:n], n + 1 + x[:n])))[1]
    w = 1.0 / (1.0 + ratio * (pi**2 / np.sin(pi * t[:n]) ** 2 - trigamma[:n] - trigamma[n:]))
    w = np.append(w, 1.0 / (1.0 + ratio * (1.0 / (t[n] + j) ** 2).sum()))
    return x, w


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
