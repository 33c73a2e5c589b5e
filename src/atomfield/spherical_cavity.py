"""Photon exchange with an atom at the center of a closed metallic sphere.

The atom couples only to the L = 1, M = 0 TM-type modes (all other mode
functions vanish at the center).  For a highly excited spectrum the
eigenfrequency ladder is equidistant with spacing pi c / R, which yields a
closed-form echo expansion for the excited-state probability; a discretized
multimode ODE provides the independent oracle.

Natural units hbar = c = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import floor, pi

import numpy as np

from .free_space import TwoLevelAtom
from .multimode import AmplitudeTrace, _flat_band, integrate_atom_modes
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
    """Fewer than a handful of modes fit the band: single-mode crossover regime."""


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


def resonant_mode_set(cavity: SphericalCavity, band_width: float | None = None) -> CavityModeSet:
    """Modes of the asymptotic L = 1 ladder within a band around omega_eg.

    The ladder is the flat continuum band at spacing pi c / R: its coupling
    |g_n|^2 = Gamma c / (2 R) reproduces Gamma through the golden rule with
    the ladder density R / (pi c).  One mode is exactly resonant with the atom.
    """
    atom = cavity.atom
    if band_width is None:
        band_width = max(20.0 * atom.gamma, 40.0 * cavity.mode_spacing)
    detunings, couplings = _flat_band(atom.gamma, band_width, cavity.mode_spacing)
    if atom.omega_eg * cavity.radius < 50.0:
        warnings.warn(
            "omega_eg R / c < 50: asymptotic ladder approximation is questionable",
            SmallCavityNotice,
            stacklevel=2,
        )
    if detunings.size < 3:
        warnings.warn(
            f"only {detunings.size} mode(s) in the band: single-mode (Jaynes-Cummings) "
            "crossover regime",
            SmallCavityNotice,
            stacklevel=2,
        )
    return CavityModeSet(atom.omega_eg + detunings, couplings)


def echo_times(cavity: SphericalCavity, count: int) -> np.ndarray:
    """Round-trip light-travel times 2 M R / c, M = 1..count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return cavity.round_trip_time * np.arange(1, count + 1, dtype=float)


def _excited_amplitude_envelope(cavity: SphericalCavity, t: float) -> float:
    """Real envelope of <e, 0 | psi(t)> with the global phase exp(-i E_e t) removed."""
    gamma = cavity.atom.gamma
    rt = cavity.round_trip_time
    amplitude = np.exp(-gamma * t / 2.0)
    m_max = floor(t / rt)
    for m in range(1, m_max + 1):
        u = gamma * (t - m * rt)
        amplitude += np.exp(-u / 2.0) * stable_binomial_series(m, u)
    return float(amplitude)


def excited_probability_closed_form(cavity: SphericalCavity, t) -> float | np.ndarray:
    """P_e(t): exponential decay plus echo terms at multiples of 2R/c.

    Echo M contributes Theta(t - 2MR/c) exp(-Gamma(t - 2MR/c)/2) times the
    stable binomial series; the complex amplitude is accumulated before
    squaring.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("closed form is defined for t >= 0")
    flat = np.atleast_1d(t_arr).ravel()
    out = np.empty_like(flat)
    for i, ti in enumerate(flat):
        a = _excited_amplitude_envelope(cavity, float(ti))
        out[i] = a * a
    if t_arr.ndim == 0:
        return float(out[0])
    return out.reshape(t_arr.shape)


def evolve_cavity_ode(
    cavity: SphericalCavity,
    t_end: float,
    band_width: float | None = None,
    times: np.ndarray | None = None,
) -> AmplitudeTrace:
    """Brute-force atom + N-mode integration over the resonant ladder."""
    modes = resonant_mode_set(cavity, band_width)
    detunings = modes.frequencies - cavity.atom.omega_eg
    if times is None:
        times = np.linspace(0.0, t_end, 481)
    return integrate_atom_modes(detunings, modes.couplings, np.asarray(times, float))
