"""Photon exchange with an atom at the center of a closed metallic sphere.

The atom couples only to the L = 1, M = 0 TM-type modes (all other mode
functions vanish at the center).  For a highly excited spectrum the
eigenfrequency ladder is equidistant with spacing pi c / R, which yields a
closed-form echo expansion for the excited-state probability; the exact
solution of a finite band of that ladder provides the independent oracle.

Natural units hbar = c = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import inf, pi

import numpy as np

from .free_space import TwoLevelAtom
from .multimode import AmplitudeTrace, _flat_band_evolution
from .numerics import stable_binomial_series

__all__ = [
    "SphericalCavity",
    "SmallCavityNotice",
    "excited_probability_closed_form",
    "evolve_cavity_ode",
]


class SmallCavityNotice(UserWarning):
    """omega_eg R / c < 50: the asymptotic equidistant ladder is questionable."""


@dataclass(frozen=True)
class SphericalCavity:
    """Metallic sphere of radius R with the atom at its center."""

    radius: float
    atom: TwoLevelAtom

    def __post_init__(self):
        if not 0 < self.radius < inf:
            raise ValueError("cavity radius must be finite and > 0")

    @property
    def mode_spacing(self) -> float:
        """Asymptotic eigenfrequency spacing pi c / R of the L = 1 ladder."""
        return pi / self.radius

    @property
    def round_trip_time(self) -> float:
        return 2.0 * self.radius


def excited_probability_closed_form(cavity: SphericalCavity, t) -> float | np.ndarray:
    """P_e(t): exponential decay plus echo terms at multiples of 2R/c.

    Echo M contributes Theta(u) exp(-u/2) S_M(u), u = Gamma(t - 2MR/c), with
    S_M = L_M - L_{M-1} the Laguerre difference (`stable_binomial_series`);
    the real amplitude envelope (global phase exp(-i E_e t) removed) is
    accumulated before squaring.
    """
    t_arr = np.asarray(t, dtype=float)
    # NaN fails t >= 0; inf would reach int() as an unbounded echo count
    if not (np.all(t_arr >= 0) and np.all(np.isfinite(t_arr))):
        raise ValueError("closed form is defined for t finite and >= 0")
    gamma = cavity.atom.gamma
    rt = cavity.round_trip_time
    # np.array keeps a 0-d time an array, so the masked updates below apply
    amplitude = np.array(np.exp(-gamma * t_arr / 2.0))
    echoes = np.floor(t_arr / rt)
    for m in range(1, int(echoes.max(initial=0.0)) + 1):
        live = echoes >= m
        # t / 2R can round up to m at t = m 2R - ulp; Theta(u) S_M(u) is 0 there, as S_M(0)
        u = np.maximum(gamma * (t_arr[live] - m * rt), 0.0)
        amplitude[live] += np.exp(-u / 2.0) * [stable_binomial_series(m, ui) for ui in u.tolist()]
    p = amplitude * amplitude
    return float(p) if p.ndim == 0 else p


def evolve_cavity_ode(
    cavity: SphericalCavity, times: np.ndarray, band_width: float
) -> AmplitudeTrace:
    """Atom + N-mode evolution over the resonant ladder, sampled on `times`:
    the exact solution of the flat band at spacing pi c / R, whose coupling
    |g_n|^2 = Gamma c / (2 R) reproduces Gamma through the golden rule with
    the ladder density R / (pi c); one mode is exactly resonant with the atom.
    `times` must be a uniform grid, such as np.linspace(0, t_max, samples);
    another raises ValueError."""
    if cavity.atom.omega_eg * cavity.radius < 50.0:
        warnings.warn(
            "omega_eg R / c < 50: asymptotic ladder approximation is questionable",
            SmallCavityNotice,
            stacklevel=2,
        )
    return _flat_band_evolution(cavity.atom.gamma, band_width, cavity.mode_spacing, times)
