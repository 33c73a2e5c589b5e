"""Brute-force integrator for one excited amplitude coupled to N field modes.

Shared by the free-space (quasi-continuum band) and spherical-cavity
(equidistant ladder) solvers.  Interaction-picture equations with the mode
detunings delta_k = omega_k - omega_eg:

    da_e/dt = -i sum_k g_k exp(+i delta_k t) b_k
    db_k/dt = -i conj(g_k) exp(-i delta_k t) a_e

The total norm |a_e|^2 + sum |b_k|^2 is conserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np
from scipy.integrate import solve_ivp

from .numerics import _GUARD_RTOL

__all__ = ["AmplitudeTrace", "integrate_atom_modes"]


@dataclass(frozen=True)
class AmplitudeTrace:
    """Time series of the excited-state amplitude of a multimode evolution."""

    times: np.ndarray
    excited_amplitude: np.ndarray  # complex a_e(t)
    norm: np.ndarray  # |a_e|^2 + sum_k |b_k|^2, should stay at 1

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


def integrate_atom_modes(
    detunings: np.ndarray,
    couplings: np.ndarray,
    times: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-12,
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
        rtol=rtol,
        atol=atol,
        t_eval=times,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"multimode integration failed: {sol.message}")
    a_e = sol.y[0]
    norm = np.sum(np.abs(sol.y) ** 2, axis=0)
    return AmplitudeTrace(times=times, excited_amplitude=a_e, norm=norm)
