"""Brute-force oracles that only the tests run.

`evolve_ode` integrates the single-mode ladder with scipy's DOP853, the
independent check of `jcp.inversion`'s closed form (acceptance criterion 1
and `test_jcp.py`); `integrate_atom_modes` integrates one atom coupled to
any band of modes the same way, the check of the exact flat-band solver
(`test_multimode.py`).  Both need scipy, which the `test` extra brings; the
library itself needs only numpy.  `integrate_2d` is the iterated 1-D
quadrature that the closed and reduced forms are checked against: the
packet energy omega_eg (1 - e^{-Gamma |t|}) of `free_space.field_energy`
and the J0-reduced off-axis rate of `test_parabolic.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from atomfield.jcp import JcpParams
from atomfield.numerics import integrate_1d

# tolerances of the brute-force ladder integration in evolve_ode
_ODE_RTOL = 1e-10
_ODE_ATOL = 1e-12
# tolerances of the brute-force band integration in integrate_atom_modes
_BAND_RTOL = 1e-9
_BAND_ATOL = 1e-12


@dataclass(frozen=True)
class JcpTrace:
    """Per-pair amplitudes from the ODE solver; row i is photon number n_min + i."""

    a_e: np.ndarray  # shape (weights.size, n_times): a_{e,n}(t)
    a_g: np.ndarray  # shape (weights.size, n_times): a_{g,n+1}(t)

    def inversion(self) -> np.ndarray:
        return np.sum(np.abs(self.a_e) ** 2 - np.abs(self.a_g) ** 2, axis=0)


def evolve_ode(params: JcpParams, times: np.ndarray) -> JcpTrace:
    """Brute-force integration of the coupled pair equations (oracle) from
    t = 0, sampled on `times`.

    Each (a_{e,n}, a_{g,n+1}) pair evolves independently; all pairs are
    stacked into one vector ODE and solved adaptively.
    """
    times = np.asarray(times, dtype=float)
    # the pairs evolve apart, so the phases of a_{e,n}(0) reach no |a|^2
    a0 = np.sqrt(params.field.weights)
    n_states = a0.size
    root = np.sqrt(params.field.n_min + np.arange(n_states) + 1.0)
    delta = params.detuning

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        a_e, a_g = y[:n_states], y[n_states:]
        ph = np.exp(1j * delta * t)
        return np.concatenate(
            (-1j * root * ph * a_g, -1j * root * np.conj(ph) * a_e)
        )

    y0 = np.concatenate((a0.astype(complex), np.zeros(n_states, dtype=complex)))
    sol = solve_ivp(
        rhs, (0.0, float(times[-1])), y0, method="DOP853", t_eval=times, rtol=_ODE_RTOL, atol=_ODE_ATOL
    )
    if not sol.success:
        raise RuntimeError(f"ladder integration failed: {sol.message}")
    return JcpTrace(sol.y[:n_states], sol.y[n_states:])


@dataclass(frozen=True)
class BandTrace:
    """Samples of the atom + N-mode integration."""

    excited_amplitude: np.ndarray  # a_e(t), complex
    norm: np.ndarray  # |a_e|^2 + sum_k |b_k|^2 at each sample, should stay at 1

    @property
    def excited_population(self) -> np.ndarray:
        return np.abs(self.excited_amplitude) ** 2


def integrate_atom_modes(
    detunings: np.ndarray, couplings: np.ndarray, times: np.ndarray
) -> BandTrace:
    """Integrate the coupled atom + N-mode amplitude system (the equations of
    `atomfield.multimode`) from a_e(0) = 1 with DOP853, sampled on `times`."""
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
        rtol=_BAND_RTOL,
        atol=_BAND_ATOL,
        t_eval=times,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"multimode integration failed: {sol.message}")
    return BandTrace(excited_amplitude=sol.y[0], norm=np.sum(np.abs(sol.y) ** 2, axis=0))


def integrate_2d(
    f: Callable[[float, float], float],
    rectangle: Sequence[Sequence[float]],
    rel_tol: float,
    abs_tol: float,
    limit: int,
) -> tuple[float, float]:
    """Iterated 1-D adaptive quadrature (value, error) of f(x, y) over
    [x0,x1] x [y0,y1]; the inner integral runs over x."""
    (x0, x1), (y0, y1) = rectangle
    inner_errs: list[float] = []

    def g(y: float) -> float:
        # inner tolerance slightly tighter than requested so the outer loop
        # sees a smooth integrand
        val, err = integrate_1d(lambda x: f(x, y), (x0, x1), rel_tol * 0.1, abs_tol * 0.1, limit)
        inner_errs.append(err)
        return val

    value, outer_err = integrate_1d(g, (y0, y1), rel_tol, abs_tol, limit)
    inner_err = max(inner_errs) * abs(y1 - y0) if inner_errs else 0.0
    return value, outer_err + inner_err
