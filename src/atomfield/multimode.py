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
half is solved, each root by a few safeguarded Newton steps on the closed form
of the secular sum, which needs only numpy.  The time grid must be uniform:
`numerics._cos_sum` sums the cosines by angle addition over blocks of the
grid, with about 2 log2(T) + 2 sines and cosines per mode instead of T
(about 4 sqrt(T) for the smallest bands and grids, see `numerics._cos_sum`).
`integrate_atom_modes` integrates any band with DOP853 and is the brute-force
cross-check; it reaches scipy.integrate through the forwarder `solve_ivp`
below, so importing this module does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, pi, sqrt

import numpy as np

from .numerics import _EPS, _GUARD_RTOL, _cos_sum, _psi, _trigamma

__all__ = ["AmplitudeTrace", "integrate_atom_modes"]


@dataclass(frozen=True)
class AmplitudeTrace:
    """Time series of the excited-state amplitude of a multimode evolution."""

    excited_amplitude: np.ndarray  # a_e(t), complex (real for the flat band's mirrored spectrum)
    norm: np.ndarray  # |a_e|^2 + sum_k |b_k|^2 (the spectral solver: sum_j w_j), should stay at 1

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
        below = value < 0.0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        new = t - value / slope
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        converged = np.all(np.abs(new - t) <= 8.0 * _EPS * new)
        t = new
        if converged:
            break
    return t


def _flat_band_spectrum(n: int, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues x_j (in units of the spacing s) and weights w_j = |<e|j>|^2
    of the atom coupled to modes at s * k, k = -n..n, with one coupling
    |g|^2 = ratio * s^2.

    The secular equation x = ratio * sum_k 1 / (x - k) has one root in each of
    the 2n gaps (k, k + 1) and one beyond each band edge.  The band is
    symmetric, so the roots below 0 are -x of those above, with the same
    weights; only the gaps k = 0..n-1 and the outer root n + d are solved.
    With the closed form sum_k 1 / (k - x) = psi(n+1-x) - psi(n+1+x)
    - pi cot(pi x) (DLMF 5.15, 5.5.4), a gap root x = k + tau solves the
    pole-free equation tau = arctan2(pi, R(x)) / pi with R(x) = x / ratio
    + psi(n+1-x) - psi(n+1+x).  tau - arctan2(pi, R) / pi increases with
    tau (slope 1 + R' / (pi^2 + R^2) >= 1 - 2 psi'(1) / pi^2 = 2/3), and arctan2
    keeps the relative accuracy of a small tau, so lambda - delta_k = s tau
    carries no cancellation.  d solves the direct O(N) sum.
    """
    k = np.arange(n, dtype=float)

    def gap(tau):
        x = k + tau
        args = np.concatenate((n + 1 - x, n + 1 + x))
        psi, trigamma = _psi(args), _trigamma(args)
        r = x / ratio + psi[:n] - psi[n:]
        slope = 1.0 + (1.0 / ratio - trigamma[:n] - trigamma[n:]) / (pi**2 + r**2)
        return tau - np.arctan2(pi, r) / pi, slope

    tau = _newton(gap, np.full(n, 0.5), np.zeros(n), np.ones(n))
    x = k + tau
    trigamma = _trigamma(np.concatenate((n + 1 - x, n + 1 + x)))
    w = 1.0 / (1.0 + ratio * (pi**2 / np.sin(pi * tau) ** 2 - trigamma[:n] - trigamma[n:]))

    # outer root n + d: (n + d) / ratio = sum_j 1 / (d + j), j = 0..2n.  The
    # difference of the two sides is concave and increasing in d, so Newton
    # climbs to the root from below; the j = 0 term alone gives the lower
    # bound, and the right side is at most (2n + 1) / d, the upper one
    j = np.arange(2 * n + 1, dtype=float)

    def outer(d):
        q = 1.0 / (d + j)
        return (n + d) / ratio - np.sum(q), 1.0 / ratio + np.sum(q * q)

    d_lo = 2.0 * ratio / (n + sqrt(n * n + 4.0 * ratio))
    d = float(_newton(outer, d_lo, d_lo, sqrt((2 * n + 1) * ratio)))
    w_out = 1.0 / (1.0 + ratio * np.sum(1.0 / (d + j) ** 2))
    x, w = np.append(x, n + d), np.append(w, w_out)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def _flat_band_evolution(
    gamma: float, band_width: float, spacing: float, times: np.ndarray
) -> AmplitudeTrace:
    """Exact a_e(t) from a_e(0) = 1 for the atom coupled to the flat band
    `_flat_band(gamma, band_width, spacing)`: a_e(t) = sum_j w_j exp(-i lambda_j t)
    over the eigenpairs of the arrowhead Hamiltonian.  The spectrum is
    mirrored, so the sines cancel and a_e(t) = sum_{lambda_j > 0} 2 w_j
    cos(lambda_j t) is real.  The norm is the eigenbasis unitarity sum_j w_j,
    the same at every time.  `times` must be uniform (see `_cos_sum`)."""
    detunings, couplings = _flat_band(gamma, band_width, spacing)
    x, w = _flat_band_spectrum(detunings.size // 2, (couplings[0] / spacing) ** 2)
    times = np.asarray(times, dtype=float)
    upper = slice(x.size // 2, None)
    a_e = _cos_sum(2.0 * w[upper], spacing * x[upper], times)
    return AmplitudeTrace(excited_amplitude=a_e.astype(complex), norm=np.full(times.shape, fsum(w)))


# tolerances of the brute-force DOP853 integration below
_ODE_RTOL = 1e-9
_ODE_ATOL = 1e-12


# A module-level name that `integrate_atom_modes` calls, so a tracer can wrap
# the solver here, while scipy.integrate loads only on the first call.
def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def integrate_atom_modes(
    detunings: np.ndarray, couplings: np.ndarray, times: np.ndarray
) -> AmplitudeTrace:
    """Integrate the coupled atom + N-mode amplitude system from a_e(0) = 1."""
    detunings = np.asarray(detunings, dtype=float)
    couplings = np.asarray(couplings, dtype=complex)
    if detunings.shape != couplings.shape:
        raise ValueError("detunings and couplings must have the same shape")
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("time grid must start at t = 0")

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        a_e, b = y[0], y[1:]
        phase = np.exp(1j * detunings * t)
        da = -1j * np.sum(couplings * phase * b)
        db = -1j * np.conj(couplings * phase) * a_e
        return np.concatenate(([da], db))

    y0 = np.zeros(detunings.size + 1, dtype=complex)
    y0[0] = 1.0
    sol = solve_ivp(
        rhs,
        (0.0, float(times[-1])),
        y0,
        method="DOP853",
        rtol=_ODE_RTOL,
        atol=_ODE_ATOL,
        t_eval=times,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"multimode integration failed: {sol.message}")
    a_e = sol.y[0]
    norm = np.sum(np.abs(sol.y) ** 2, axis=0)
    return AmplitudeTrace(excited_amplitude=a_e, norm=norm)
