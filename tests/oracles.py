"""Brute-force oracles that only the tests run.

`evolve_ode` integrates the single-mode ladder with scipy's DOP853, the
independent check of `jcp.inversion`'s closed form (acceptance criterion 1
and `test_jcp.py`).  It needs scipy, which the `test` extra brings; the
library itself needs only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from atomfield.jcp import InversionTrace, JcpParams

# tolerances of the brute-force ladder integration in evolve_ode
_ODE_RTOL = 1e-10
_ODE_ATOL = 1e-12


@dataclass(frozen=True)
class JcpTrace:
    """Per-pair amplitudes from the ODE solver; row i is photon number n_min + i."""

    a_e: np.ndarray  # shape (weights.size, n_times): a_{e,n}(t)
    a_g: np.ndarray  # shape (weights.size, n_times): a_{g,n+1}(t)

    def inversion(self) -> InversionTrace:
        w = np.sum(np.abs(self.a_e) ** 2 - np.abs(self.a_g) ** 2, axis=0)
        return InversionTrace(w)


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
