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
the arrowhead's eigenpairs, each found in O(1) from the closed form of the
secular sum.  `integrate_atom_modes` integrates any band with DOP853 and is
the brute-force cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, pi, sqrt

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import polygamma, psi

from .numerics import _GUARD_RTOL

__all__ = ["AmplitudeTrace", "integrate_atom_modes"]


@dataclass(frozen=True)
class AmplitudeTrace:
    """Time series of the excited-state amplitude of a multimode evolution."""

    times: np.ndarray
    excited_amplitude: np.ndarray  # complex a_e(t)
    norm: np.ndarray  # |a_e|^2 + sum_k |b_k|^2 (the spectral solver: sum_j w_j), should stay at 1

    @property
    def excited_population(self) -> np.ndarray:
        return np.abs(self.excited_amplitude) ** 2


def _flat_band(gamma: float, band_width: float, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Detunings spacing * (-n..n) covering band_width, with the flat coupling
    |g|^2 = Gamma * spacing / (2 pi) that gives the golden-rule rate Gamma at
    the mode density 1 / spacing."""
    if band_width < 20.0 * gamma * (1.0 - _GUARD_RTOL):
        raise ValueError("band width must be at least 20 Gamma")
    half = int(np.ceil(band_width / 2.0 / spacing))
    detunings = spacing * np.arange(-half, half + 1)
    return detunings, np.full(detunings.size, sqrt(gamma * spacing / (2.0 * pi)))


# Stated error bound of `_flat_band_evolution`: the largest |Delta P_e| and
# |sum w - 1| it allows against the exact finite-band solution, for
# Gamma t up to 1e3.  The roots are bracketed to an ulp of tau and the weights
# come from a sum of positive terms, so both errors stay at a few eps; phase
# rounding adds about eps * Gamma t (far modes carry weight ~ |g|^2 / lambda^2).
_SPECTRAL_ERROR = 1e-12

# bisection steps: they shrink a bracket by 2^-60 ~ 8.7e-19, below an ulp
# of every root x for the brackets below (width 1 in a gap, sqrt((2n+1) ratio) outside)
_BISECTIONS = 60


def _flat_band_spectrum(n: int, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues x_j (in units of the spacing s) and weights w_j = |<e|j>|^2
    of the atom coupled to modes at s * k, k = -n..n, with one coupling
    |g|^2 = ratio * s^2.

    The secular equation x = ratio * sum_k 1 / (x - k) has one root in each of
    the 2n gaps (k, k + 1) and one beyond each band edge.  With the closed
    form sum_k 1 / (k - x) = psi(n+1-x) - psi(n+1+x) - pi cot(pi x) (DLMF 5.15,
    5.5.4), a gap root x = k + tau solves the pole-free equation
    tau = 1/2 - arctan(R(x) / pi) / pi with R(x) = x / ratio + psi(n+1-x)
    - psi(n+1+x), which is monotone in tau.  tau is kept apart from k, so
    lambda - delta_k = s tau carries no cancellation.  The band is symmetric,
    so the outer roots are +-(n + d); d solves the direct O(N) sum.
    """
    k = np.arange(-n, n, dtype=float)
    lo, hi = np.zeros(k.size), np.ones(k.size)
    for _ in range(_BISECTIONS):
        tau = 0.5 * (lo + hi)
        x = k + tau
        r = x / ratio + psi(n + 1 - x) - psi(n + 1 + x)
        above = 0.5 - np.arctan(r / pi) / pi > tau
        lo = np.where(above, tau, lo)
        hi = np.where(above, hi, tau)
    tau = 0.5 * (lo + hi)
    x = k + tau
    inner = pi**2 / np.sin(pi * tau) ** 2 - polygamma(1, n + 1 - x) - polygamma(1, n + 1 + x)
    w = 1.0 / (1.0 + ratio * inner)

    # outer root n + d: (n + d) / ratio = sum_j 1 / (d + j), j = 0..2n; the
    # right side is at most (2n + 1) / d, so the root lies below sqrt((2n + 1) ratio)
    j = np.arange(2 * n + 1, dtype=float)
    d_lo, d_hi = 0.0, sqrt((2 * n + 1) * ratio)
    for _ in range(_BISECTIONS):
        d = 0.5 * (d_lo + d_hi)
        if (n + d) / ratio < np.sum(1.0 / (d + j)):
            d_lo = d
        else:
            d_hi = d
    d = 0.5 * (d_lo + d_hi)
    w_out = 1.0 / (1.0 + ratio * np.sum(1.0 / (d + j) ** 2))
    return np.concatenate(([-n - d], x, [n + d])), np.concatenate(([w_out], w, [w_out]))


def _flat_band_evolution(
    gamma: float, band_width: float, spacing: float, times: np.ndarray
) -> AmplitudeTrace:
    """Exact a_e(t) from a_e(0) = 1 for the atom coupled to the flat band
    `_flat_band(gamma, band_width, spacing)`: a_e(t) = sum_j w_j exp(-i lambda_j t)
    over the eigenpairs of the arrowhead Hamiltonian.  The norm is the
    eigenbasis unitarity sum_j w_j, the same at every time."""
    detunings, couplings = _flat_band(gamma, band_width, spacing)
    x, w = _flat_band_spectrum(detunings.size // 2, (couplings[0] / spacing) ** 2)
    times = np.asarray(times, dtype=float)
    phase = np.multiply.outer(times, spacing * x)
    # cos, then sin in place: one extra times x modes array at a time
    a_e = np.cos(phase) @ w - 1j * (np.sin(phase, out=phase) @ w)
    return AmplitudeTrace(times=times, excited_amplitude=a_e, norm=np.full(times.shape, fsum(w)))


# tolerances of the brute-force DOP853 integration below
_ODE_RTOL = 1e-9
_ODE_ATOL = 1e-12


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
    return AmplitudeTrace(times=times, excited_amplitude=a_e, norm=norm)
