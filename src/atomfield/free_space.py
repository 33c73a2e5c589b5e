"""Spontaneous emission in free space and the emitted one-photon wave packet.

Natural units hbar = c = epsilon_0 = 1 throughout; the decay rate Gamma sets
the time scale and the transition frequency omega_eg is typically a large
multiple of Gamma (pole-approximation regime).

The atom sits at the origin with its dipole along +z; theta is the polar
angle between the dipole and the observation direction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import exp, expm1, inf, isfinite, pi, sqrt
from typing import NamedTuple

import numpy as np

from .multimode import AmplitudeTrace, _flat_band_evolution
from .numerics import _GUARD_RTOL, QuadratureSpec, integrate_1d

__all__ = [
    "TwoLevelAtom",
    "FieldMap",
    "FieldEnergy",
    "RadiationZoneWarning",
    "excited_amplitude",
    "electric_amplitude",
    "field_energy",
    "field_map",
    "wigner_weisskopf_ode",
]

_RADIATION_ZONE_FACTOR = 10.0
# points per block of a field map's ray sums: its temporaries scale with it
_RAY_BLOCK = 4096


class RadiationZoneWarning(UserWarning):
    """Evaluation point violates an asymptotic validity guard."""


@dataclass(frozen=True)
class TwoLevelAtom:
    """Two-level emitter with transition frequency omega_eg and free-space
    decay rate Gamma.

    Gamma = omega_eg^3 d^2 / (3 pi) for a dipole moment d, by the golden rule
    in these units; every formula here reads Gamma, not d.
    """

    omega_eg: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.omega_eg < inf:
            raise ValueError("transition frequency must be positive and finite")
        if not 0 <= self.gamma < inf:
            raise ValueError("decay rate must be finite and >= 0")
        if self.gamma > 0 and self.omega_eg / self.gamma < 10.0:
            raise ValueError(
                "omega_eg / Gamma < 10: outside the validity of the pole approximation"
            )

    @classmethod
    def from_linewidth(cls, gamma: float, omega_over_gamma: float) -> "TwoLevelAtom":
        """Atom with the requested decay rate; omega_eg = omega_over_gamma * gamma."""
        return cls(omega_eg=omega_over_gamma * gamma, gamma=gamma)


class FieldEnergy(NamedTuple):
    """Quadrature result for the wave-packet field energy."""

    value: float  # quadrature over the radiation zone + analytic inner part
    inner_correction: float  # analytic contribution of r < r_min (reported)
    quadrature_error: float


@dataclass(frozen=True)
class FieldMap:
    """Free-space field samples on a grid of points at one instant.

    `points` holds the grid coordinates (r, theta), one row per point.
    """

    points: np.ndarray  # shape (n, 2)
    amplitude: np.ndarray  # complex, shape (n,)
    energy_density: np.ndarray  # real >= 0, shape (n,)


def excited_amplitude(atom: TwoLevelAtom, t):
    """Excited-state amplitude exp(-i omega_eg t) exp(-Gamma |t| / 2) at real
    t of either sign, a scalar (giving a complex) or an array; a NaN or
    infinite t raises ValueError.

    Convention E_g = 0, so E_e = omega_eg.  For t >= 0 the atom, excited at
    t = 0, decays by emission; t < 0 is the time-reversed atom, which absorbs
    the incoming packet and is fully excited at t = 0, so a(-t) = conj(a(t)).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    out = np.exp(-1j * atom.omega_eg * t) * np.exp(-atom.gamma * np.abs(t) / 2.0)
    return complex(out) if out.ndim == 0 else out


def _packet(atom: TwoLevelAtom, sin_t, path, dist, t: float):
    """Energy-density amplitude of one ray family of the one-photon packet:
    the atom's amplitude excited_amplitude(-sign(t) u) at the retarded time
    u = |t| - path/c times the geometric factor sin(theta)/dist, zero before
    the causal front u = 0; outgoing for t > 0, incoming (absorbed) for t < 0."""
    if not isfinite(t):  # a NaN t would read as a point before the front
        raise ValueError("time must be finite")
    u = abs(t) - path
    live = u >= 0
    u = np.where(live, u, 0.0)  # the points before the front are discarded: exp(0) is cheap
    amplitude = (
        -1j
        * sqrt(3.0 * atom.gamma * atom.omega_eg / (16.0 * pi))
        * excited_amplitude(atom, -np.sign(t) * u)
        * sin_t
        / dist
    )
    return np.where(live, amplitude, 0j)


def _blocks(n: int) -> list[slice]:
    """Slices of at most _RAY_BLOCK points covering range(n), at least one, so
    that an empty grid still meets _packet's time check."""
    return [slice(start, start + _RAY_BLOCK) for start in range(0, max(n, 1), _RAY_BLOCK)]


def _check_grid(r, theta) -> None:
    """Refuse a radius that is not > 0 and a non-finite polar angle."""
    if not np.all(r > 0):  # negated, so a NaN fails too
        raise ValueError("radius must be positive")
    if not np.all(np.isfinite(theta)):
        raise ValueError("polar angle must be finite")


def _check_radiation_zone(atom: TwoLevelAtom, distance) -> None:
    """Warn, at the line that called the public function calling this one, if
    a distance from the emitter lies below the radiation zone
    distance * omega_eg >= 10."""
    if np.any(distance * atom.omega_eg < _RADIATION_ZONE_FACTOR * (1.0 - _GUARD_RTOL)):
        warnings.warn(
            "evaluation point below the radiation zone (r * omega_eg < "
            f"{_RADIATION_ZONE_FACTOR:g}); asymptotic field formulas are unreliable there",
            RadiationZoneWarning,
            stacklevel=3,
        )


def electric_amplitude(atom: TwoLevelAtom, r, theta, t: float):
    """Complex electric energy-density amplitude (polarization e_theta).

    Squared magnitude gives the electric half of the energy density; the
    magnetic amplitude has the same value with polarization e_phi, so the
    mean (normally ordered) energy density of the one-photon packet is
    2 |E|^2 = (3 Gamma omega_eg / 8 pi) sin^2(theta) / r^2 * exp(-Gamma(|t| - r))
    inside the causal shell r <= |t|, zero outside; symmetric under t -> -t.
    """
    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    _check_grid(r, theta)
    _check_radiation_zone(atom, r)
    out = _packet(atom, np.sin(theta), r, r, t)
    return complex(out) if out.ndim == 0 else out


def field_energy(atom: TwoLevelAtom, t: float, part: str = "total") -> FieldEnergy:
    """Spatial integral of the wave-packet energy density at time t.

    The density is sin^2(theta) times a radial profile and the polar integral
    of sin^3 is 4/3, so one quadrature runs over r in [10/omega_eg, |t|]; the
    analytically known inner-region contribution is added and reported
    separately.  `part` is "total" (electric + magnetic) or "electric" (half).
    """
    if part not in ("total", "electric"):
        raise ValueError("part must be 'total' or 'electric'")
    share = 1.0 if part == "total" else 0.5
    t_abs = abs(t)
    r_min = _RADIATION_ZONE_FACTOR / atom.omega_eg
    # analytic r < min(r_min, |t|) part, omega e^{-Gamma |t|} expm1(Gamma r_in): no 0/0 at Gamma = 0
    r_in = min(r_min, t_abs)
    inner = share * atom.omega_eg * exp(-atom.gamma * t_abs) * expm1(atom.gamma * r_in)
    if t_abs <= r_min:
        # causal shell entirely inside the near zone: analytic value only
        return FieldEnergy(inner, inner, 0.0)

    def integrand(r: float) -> float:
        # r^2 times the energy density 2 |packet|^2 at theta = pi/2
        return r * r * 2.0 * abs(complex(_packet(atom, 1.0, r, r, t))) ** 2

    value, err = integrate_1d(integrand, (r_min, t_abs), QuadratureSpec(1e-9, 1e-12))
    scale = share * 8.0 * pi / 3.0
    return FieldEnergy(scale * value + inner, inner, scale * err)


def field_map(atom: TwoLevelAtom, r_values, theta_values, t: float) -> FieldMap:
    """Sample the electric amplitude and the full energy density 2 |E|^2 on an
    (r, theta) grid, r-major, in blocks of points, so that no temporary grows
    with the grid."""
    r_values = np.asarray(r_values, dtype=float).ravel()
    theta_values = np.asarray(theta_values, dtype=float).ravel()
    _check_grid(r_values, theta_values)
    _check_radiation_zone(atom, r_values)
    pts = np.empty((r_values.size, theta_values.size, 2))
    pts[..., 0], pts[..., 1] = r_values[:, None], theta_values
    pts = pts.reshape(-1, 2)
    r = pts[:, 0]
    amp = np.empty(len(pts), dtype=complex)
    density = np.empty(len(pts))
    for block in _blocks(len(pts)):
        a = amp[block] = _packet(atom, np.sin(pts[block, 1]), r[block], r[block], t)
        density[block] = 2.0 * np.abs(a) ** 2
    return FieldMap(points=pts, amplitude=amp, energy_density=density)


def wigner_weisskopf_ode(
    atom: TwoLevelAtom, times: np.ndarray, band_width: float, mode_spacing: float
) -> AmplitudeTrace:
    """Decay of the atom into a discretized continuum band, sampled on
    `times`: the exact solution of the finite band, by its eigenpairs.

    Flat per-mode coupling |g|^2 = Gamma * spacing / (2 pi) reproduces the
    golden-rule rate by construction.  Valid until the Poincare recurrence
    time 2 pi / spacing of the discretization.  `times` must be a uniform grid,
    such as np.linspace(0, t_max, samples); another raises ValueError.
    """
    gamma = atom.gamma
    times = np.asarray(times, dtype=float)
    # negated, so a NaN fails too
    if not 0 < mode_spacing <= gamma / 20.0 * (1.0 + _GUARD_RTOL):
        raise ValueError("mode spacing must be at most Gamma / 20 and > 0")
    # before the recurrence guard, whose advice cannot mend a NaN or inf
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid must be uniform, finite and 1-D")
    recurrence = 2.0 * pi / mode_spacing
    reach = np.max(np.abs(times), initial=0.0)
    if not reach < recurrence:
        raise ValueError(
            f"time grid reaches {reach:g}, past the discretization recurrence time "
            f"{recurrence:g}; decrease the mode spacing"
        )
    return _flat_band_evolution(gamma, band_width, mode_spacing, times)
