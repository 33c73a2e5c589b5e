"""Half-open parabolic mirror: decay-rate modification and two-ray
semiclassical field maps.

Geometry convention used throughout this module: Cartesian coordinates with
the mirror vertex P at the origin, the symmetry axis along +z, the focus at
(0, 0, f) and the directrix plane at z = -f.  The mirror surface is
z = rho^2 / (4 f); in parabolic coordinates (xi, eta, phi) centered on the
focus the surface is eta = f and the interior is eta < f.

The decay-rate interference phase is k * n . r with r measured from the
vertex, so the standing-wave field vanishes at P and the on-axis rate
correction depends on k * z (z = height above the vertex).

The rate is given on the axis only: `on_axis_eta` in closed form, at one
height or a whole profile, checked by the polar-angle quadrature
`eta_quadrature`.  Off the axis the tests keep the reference pair (the
J0-reduced integral and the raw 2-D one, in `tests/test_parabolic.py`) that
a closed form there would be checked against.

The two-ray field is mapped by `field_map`, which also flags the points
near the mirror surface (eta >= 0.95 f) where the semiclassical rays are
unreliable; `semiclassical_field` evaluates it at one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan, cos, factorial, inf, pi, sin

import numpy as np

from .free_space import TwoLevelAtom, _blocks, _check_radiation_zone, _packet
from .numerics import _GUARD_RTOL, integrate_1d

__all__ = [
    "ParabolicGeometry",
    "TwoRayField",
    "ParabolicFieldMap",
    "eta_quadrature",
    "on_axis_eta",
    "angular_cutoff_correction",
    "semiclassical_field",
    "field_map",
]

_BOUNDARY_FLAG_FRACTION = 0.95
# below a = k z = 0.5 on_axis_eta sums the Taylor series: the far form loses
# ~2/a^4 ulps to cancellation there, the 9-term series stays below 1e-15
_SERIES_CROSSOVER = 0.5
# eta_quadrature's tolerances, which parabola-eta's probe runs at and records
_THETA_REL_TOL, _THETA_ABS_TOL = 1e-10, 1e-13
# Taylor coefficients of eta(a) in a^2, a^4, ...: (-1)^(j+1) 3 4^j (2j+2) / (2j+3)!
_ETA_SERIES = tuple(
    (-1) ** (j + 1) * 3 * 4**j * (2 * j + 2) / factorial(2 * j + 3) for j in range(1, 10)
)


@dataclass(frozen=True)
class ParabolicGeometry:
    """Parabolic mirror z = rho^2/(4f) with resonant wave number k."""

    focal_length: float
    wavenumber: float

    def __post_init__(self):
        if not 0 < self.focal_length < inf:
            raise ValueError("focal length must be finite and > 0")
        if not 0 < self.wavenumber < inf:
            raise ValueError("wave number must be finite and > 0")

    @property
    def kf(self) -> float:
        return self.wavenumber * self.focal_length

    @property
    def theta0(self) -> float:
        """Emission cutoff angle of `angular_cutoff_correction`: tan(theta0/2) = 1/(2kf)."""
        return 2.0 * atan(1.0 / (2.0 * self.kf))


def _focus_distance_eta(z, rho, f):
    """Distance r1 from the focus and parabolic coordinate eta = (r1 - (z - f)) / 2
    (focus-centered; the mirror is eta = f, the interior eta < f) of
    vertex-based (z, rho), scalars or arrays."""
    r1 = np.sqrt((z - f) ** 2 + rho**2)
    return r1, 0.5 * (r1 - (z - f))


def _theta_limit(a: float) -> int:
    # eta_quadrature's subdivision budget, scaled with the oscillation count ~ 2a / pi
    return max(200, int(8 * abs(a)) + 100)


def eta_quadrature(
    geometry: ParabolicGeometry,
    point: tuple[float, float, float],
) -> tuple[float, float]:
    """Decay-rate ratio eta at a point (0, 0, z) of the axis by adaptive
    quadrature over the polar angle at `_THETA_REL_TOL` and `_THETA_ABS_TOL`,
    the independent check of `on_axis_eta`.  On the axis the cavity is z >= 0
    (z = 0 is the vertex, where eta vanishes), so a z below it or not finite,
    and any nonzero x or y, raise ValueError before the quadrature runs."""
    x, y, z = (float(c) for c in point)
    if not 0.0 <= z < inf:  # negated, so a NaN fails too
        raise ValueError("point lies outside the parabolic cavity")
    if not x == y == 0.0:
        raise ValueError("eta_quadrature integrates on the mirror axis only (x = y = 0)")
    k = geometry.wavenumber
    # sin^2 -> (1 - cos)/2 leaves the polar integral of sin^3 cos(2 k z cos(theta))
    b = 2.0 * k * z

    def integrand(theta):
        return sin(theta) ** 3 * cos(b * cos(theta))

    value, err = integrate_1d(
        integrand, (0.0, pi), _THETA_REL_TOL, _THETA_ABS_TOL, _theta_limit(k * z)
    )
    return 1.0 - 0.75 * value, 0.75 * err


def on_axis_eta(geometry: ParabolicGeometry, z):
    """Closed-form on-axis rate ratio; z (scalar or array) is the height above
    the mirror vertex, and a scalar z gives a float.

    eta(a) = 1 + 3 cos(2a)/(4a^2) - 3 sin(2a)/(8a^3) with a = k z; below
    a = 0.5, where this far form cancels, and at the removable singularity
    a = 0 the Taylor series (2/5) a^2 - (2/35) a^4 + (4/945) a^6 - ... is used.
    """
    z = np.asarray(z, dtype=float)
    if not np.all((z >= 0) & (z < np.inf)):  # negated, so a NaN fails too
        raise ValueError("axial position must be finite and above the vertex (z >= 0)")
    # a scalar z is evaluated as a 1-element array, so that a scalar and an
    # array argument round alike (numpy rounds scalar and array a**3 differently)
    a = geometry.wavenumber * np.atleast_1d(z)
    a2 = a * a
    with np.errstate(divide="ignore", invalid="ignore"):
        far = 1.0 + 3.0 * np.cos(2.0 * a) / (4.0 * a * a) - 3.0 * np.sin(2.0 * a) / (8.0 * a**3)
    eta = np.where(a < _SERIES_CROSSOVER, a2 * np.polyval(_ETA_SERIES[::-1], a2), far)
    return float(eta[0]) if z.ndim == 0 else eta


def angular_cutoff_correction(geometry: ParabolicGeometry) -> float:
    """Relative rate reduction from restricting emission to [theta0, pi - theta0].

    1.5 * integral_0^theta0 sin^3 = 2 s^4 (3 - 2 s^2) with s^2 = sin^2(theta0/2)
    = 1 / (1 + 4 (kf)^2), free of cancellation; ~ (3/8) (kf)^-4 for large kf,
    negligible in the regimes of practical interest.
    """
    kf = geometry.kf
    s2 = 1.0 / (1.0 + 4.0 * (kf * kf))  # kf * kf is inf, not OverflowError, for kf > 1e154
    return 2.0 * s2 * s2 * (3.0 - 2.0 * s2)


@dataclass(frozen=True)
class TwoRayField:
    """Two-ray semiclassical electric energy-density amplitude at one point.

    `spherical` multiplies the e_theta1 polarization of the direct ray,
    `plane` the e_rho polarization of the mirror-reflected ray family.
    `energy_density` is the electric energy density |E_s + E_p|^2, without
    the factor 2 of free_space.FieldMap.energy_density (electric plus
    magnetic): before the reflection arrives it is half the free-space value.
    """

    spherical: complex
    plane: complex
    energy_density: float


@dataclass(frozen=True)
class ParabolicFieldMap:
    """Grid of two-ray field samples restricted to the cavity interior;
    `energy_density` is the electric one, as in TwoRayField."""

    points: np.ndarray  # shape (n, 2): (z, rho)
    spherical: np.ndarray
    plane: np.ndarray
    energy_density: np.ndarray
    flags: np.ndarray  # True near the mirror (eta >= 0.95 f): semiclassically unreliable


def _two_ray(atom: TwoLevelAtom, f: float, z, rho, t: float):
    """(spherical, plane, energy_density) at arrays of cavity points (z, rho)
    off the focus.

    Direct rays form a spherical wave centered on the focus (distance r1,
    polarization e_theta1); reflected rays form a plane wave along +z whose
    eikonal z + f is the distance from the directrix plane (polarization
    e_rho).  For |t| < f/c only the direct term is active and the field
    coincides with the free-space wave packet.  The energy density is
    |s|^2 + |p|^2 + 2 Re(s conj(p)) cos(theta1): the two polarizations
    overlap by e_theta1 . e_rho = cos(theta1) = (z - f) / r1."""
    r1, _ = _focus_distance_eta(z, rho, f)
    r2 = f + rho**2 / (4.0 * f)
    spherical = _packet(atom, rho / r1, r1, r1, t)
    plane = _packet(atom, rho / r2, z + f, r2, t)
    cross = 2.0 * (spherical * np.conj(plane)).real * ((z - f) / r1)
    return spherical, plane, np.abs(spherical) ** 2 + np.abs(plane) ** 2 + cross


def _two_ray_ok(omega_f: float) -> bool:  # omega_eg f / c: the two rays hold
    return omega_f >= 50.0 * (1.0 - _GUARD_RTOL)


def _check_two_ray(geometry: ParabolicGeometry, atom: TwoLevelAtom) -> None:
    if not _two_ray_ok(atom.omega_eg * geometry.focal_length):
        raise ValueError(
            "semiclassical two-ray construction requires omega_eg f / c >= 50"
        )
    if not np.isclose(geometry.wavenumber, atom.omega_eg, rtol=1e-9, atol=0.0):
        raise ValueError(
            "geometry wave number must match the atomic transition (k = omega_eg / c)"
        )


def semiclassical_field(
    geometry: ParabolicGeometry,
    atom: TwoLevelAtom,
    point: tuple[float, float],
    t: float,
) -> TwoRayField:
    """Two-ray field at (z, rho) inside the cavity at time t: `field_map` at
    one point, where a point the map would drop raises ValueError and one
    below the radiation zone warns."""
    z, rho = float(point[0]), float(point[1])
    fmap = field_map(geometry, atom, [z], [rho], t)
    r1, _ = _focus_distance_eta(z, rho, geometry.focal_length)
    if not fmap.points.size:
        if r1 == 0.0:
            raise ValueError("field amplitude is singular at the focus")
        raise ValueError("point lies outside the parabolic cavity")
    _check_radiation_zone(atom, r1)
    return TwoRayField(
        spherical=complex(fmap.spherical[0]),
        plane=complex(fmap.plane[0]),
        energy_density=float(fmap.energy_density[0]),
    )


def field_map(
    geometry: ParabolicGeometry,
    atom: TwoLevelAtom,
    z_values,
    rho_values,
    t: float,
) -> ParabolicFieldMap:
    """Evaluate the two-ray field on the part of a (z, rho) grid inside the
    cavity, z-major, in blocks of points, so that no temporary of the ray
    sums grows with the grid; the focus is skipped and no radiation-zone
    warning is raised."""
    _check_two_ray(geometry, atom)
    z_values = np.asarray(z_values, dtype=float)
    rho_values = np.asarray(rho_values, dtype=float)
    if not np.all(rho_values >= 0):  # negated, so a NaN fails too
        raise ValueError("rho must be >= 0")
    # a non-finite z or rho would be dropped as if outside the cavity
    if not (np.all(np.isfinite(z_values)) and np.all(np.isfinite(rho_values))):
        raise ValueError("z and rho must be finite")
    f = geometry.focal_length
    z, rho = np.meshgrid(z_values, rho_values, indexing="ij")
    r1, eta_coord = _focus_distance_eta(z, rho, f)
    keep = (r1 != 0.0) & (eta_coord < f)
    flags = eta_coord[keep] >= _BOUNDARY_FLAG_FRACTION * f
    points = np.column_stack((z[keep], rho[keep]))
    del z, rho, r1, eta_coord, keep  # the whole grid's arrays, not needed by the ray sums
    n = len(points)
    spherical, plane = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    energy_density = np.empty(n)
    for block in _blocks(n):
        spherical[block], plane[block], energy_density[block] = _two_ray(
            atom, f, points[block, 0], points[block, 1], t
        )
    return ParabolicFieldMap(
        points=points, spherical=spherical, plane=plane, energy_density=energy_density, flags=flags
    )
