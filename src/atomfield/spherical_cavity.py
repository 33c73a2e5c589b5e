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
from math import pi

import numpy as np

from .free_space import TwoLevelAtom
from .multimode import AmplitudeTrace, _flat_band, _flat_band_evolution
from .numerics import stable_binomial_series

__all__ = [
    "SphericalCavity",
    "CavityModeSet",
    "SmallCavityNotice",
    "resonant_mode_set",
    "excited_probability_closed_form",
    "evolve_cavity_ode",
    "echo_times",
]


class SmallCavityNotice(UserWarning):
    """omega_eg R / c < 50: the asymptotic equidistant ladder is questionable."""


@dataclass(frozen=True)
class SphericalCavity:
    """Metallic sphere of radius R with the atom at its center."""

    radius: float
    atom: TwoLevelAtom

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("cavity radius must be positive")

    @property
    def mode_spacing(self) -> float:
        """Asymptotic eigenfrequency spacing pi c / R of the L = 1 ladder."""
        return pi / self.radius

    @property
    def mode_density_parameter(self) -> float:
        """Gamma R / (pi c): resonant modes per linewidth."""
        return self.atom.gamma * self.radius / pi

    @property
    def round_trip_time(self) -> float:
        return 2.0 * self.radius


@dataclass(frozen=True)
class CavityModeSet:
    """Equidistant resonant ladder with flat couplings."""

    frequencies: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("mode frequencies must be strictly increasing")


def resonant_mode_set(cavity: SphericalCavity, band_width: float) -> CavityModeSet:
    """Modes of the asymptotic L = 1 ladder within a band around omega_eg.

    The ladder is the flat continuum band at spacing pi c / R: its coupling
    |g_n|^2 = Gamma c / (2 R) reproduces Gamma through the golden rule with
    the ladder density R / (pi c).  One mode is exactly resonant with the atom.
    """
    atom = cavity.atom
    detunings, couplings = _flat_band(atom.gamma, band_width, cavity.mode_spacing)
    if atom.omega_eg * cavity.radius < 50.0:
        warnings.warn(
            "omega_eg R / c < 50: asymptotic ladder approximation is questionable",
            SmallCavityNotice,
            stacklevel=2,
        )
    return CavityModeSet(atom.omega_eg + detunings, couplings)


def echo_times(cavity: SphericalCavity, count: int) -> np.ndarray:
    """Round-trip light-travel times 2 M R / c, M = 1..count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return cavity.round_trip_time * np.arange(1, count + 1, dtype=float)


def excited_probability_closed_form(cavity: SphericalCavity, t) -> float | np.ndarray:
    """P_e(t): exponential decay plus echo terms at multiples of 2R/c.

    Echo M contributes Theta(t - 2MR/c) exp(-Gamma(t - 2MR/c)/2) times the
    stable binomial series; the real amplitude envelope (global phase
    exp(-i E_e t) removed) is accumulated before squaring.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("closed form is defined for t >= 0")
    gamma = cavity.atom.gamma
    rt = cavity.round_trip_time
    # np.array keeps a 0-d time an array, so the masked updates below apply
    amplitude = np.array(np.exp(-gamma * t_arr / 2.0))
    echoes = np.floor(t_arr / rt)
    for m in range(1, int(echoes.max(initial=0.0)) + 1):
        live = echoes >= m
        u = gamma * (t_arr[live] - m * rt)
        amplitude[live] += np.exp(-u / 2.0) * [stable_binomial_series(m, ui) for ui in u]
    p = amplitude * amplitude
    return float(p) if p.ndim == 0 else p


def evolve_cavity_ode(
    cavity: SphericalCavity, times: np.ndarray, band_width: float
) -> AmplitudeTrace:
    """Atom + N-mode evolution over the resonant ladder, sampled on `times`:
    the exact solution of the finite band `resonant_mode_set` builds."""
    resonant_mode_set(cavity, band_width)  # validates the band, raises its warnings
    return _flat_band_evolution(cavity.atom.gamma, band_width, cavity.mode_spacing, times)
