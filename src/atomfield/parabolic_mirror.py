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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan, cos, factorial, pi, sin, sqrt

import numpy as np

from .free_space import TwoLevelAtom, _check_radiation_zone, _packet
from .numerics import _GUARD_RTOL, QuadratureSpec, QuadResult, integrate_1d, integrate_2d

__all__ = [
    "ParabolicGeometry",
    "RateProfile",
    "TwoRayField",
    "ParabolicFieldMap",
    "eta_quadrature",
    "on_axis_eta",
    "rate_profile",
    "angular_cutoff_correction",
    "semiclassical_field",
    "field_map",
]

_BOUNDARY_FLAG_FRACTION = 0.95
# below a = k z = 0.5 on_axis_eta sums the Taylor series: the far form loses
# ~2/a^4 ulps to cancellation there, the 9-term series stays below 1e-15
_SERIES_CROSSOVER = 0.5
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
        if not self.focal_length > 0:
            raise ValueError("focal length must be positive")
        if not self.wavenumber > 0:
            raise ValueError("wave number must be positive")

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


@dataclass(frozen=True)
class RateProfile:
    """Axial samples of the decay-rate ratio eta."""

    positions: np.ndarray  # z above the vertex
    eta: np.ndarray

    def __post_init__(self):
        if not np.all(self.eta >= -1e-12):
            raise ValueError("rate ratio must be non-negative")


def _theta_spec(a: float, spec: QuadratureSpec | None) -> QuadratureSpec:
    # subdivision budget scaled with the oscillation count ~ 2a / pi
    base = spec or QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
    need = int(8 * abs(a)) + 100
    if base.max_subdivisions >= need:
        return base
    return QuadratureSpec(base.rel_tol, base.abs_tol, need)


def _cavity_point(
    geometry: ParabolicGeometry, point: tuple[float, float, float]
) -> tuple[float, float, float, float]:
    """(x, y, z, rho) of a vertex-based point in the closed cavity: the mirror
    surface itself (eta = f, e.g. the vertex P) is a legal evaluation point
    where the field vanishes."""
    x, y, z = (float(c) for c in point)
    rho = sqrt(x * x + y * y)
    _, eta = _focus_distance_eta(z, rho, geometry.focal_length)
    if z < 0 or eta > geometry.focal_length * (1.0 + _GUARD_RTOL):
        raise ValueError("point lies outside the parabolic cavity")
    return x, y, z, rho


def eta_quadrature(
    geometry: ParabolicGeometry,
    point: tuple[float, float, float],
    spec: QuadratureSpec | None = None,
) -> QuadResult:
    """Decay-rate ratio eta at a vertex-based point (x, y, z) by quadrature:
    the azimuthal integral is done exactly (Bessel J0 kernel), the polar
    angle adaptively."""
    _, _, z, rho = _cavity_point(geometry, point)
    k = geometry.wavenumber
    # sin^2 -> (1 - cos)/2; the phi integral of cos(A cos(phi - phi0) + B)
    # is 2 pi J0(A) cos(B), and J0(0) = 1 on the axis
    a, b = 2.0 * k * rho, 2.0 * k * z
    if rho > 0.0:
        from scipy.special import j0  # deferred: `import atomfield` does not load it

    def integrand(theta):
        s = sin(theta)
        weight = s**3 * j0(a * s) if rho > 0.0 else s**3
        return weight * cos(b * cos(theta))

    qspec = _theta_spec(k * (abs(z) + rho), spec)
    value, err = integrate_1d(integrand, (0.0, pi), qspec)
    return QuadResult(1.0 - 0.75 * value, 0.75 * err)


def _eta_quadrature_2d(
    geometry: ParabolicGeometry, point: tuple[float, float, float], spec: QuadratureSpec
) -> QuadResult:
    """eta_quadrature without the J0 reduction: the raw iterated 2-D integral
    of sin^3(theta) sin^2(k n . r); slow, the reference the reduction is checked against."""
    x, y, z, rho = _cavity_point(geometry, point)
    k = geometry.wavenumber
    value, err = integrate_2d(
        lambda theta, phi: np.sin(theta) ** 3
        * np.sin(k * ((x * np.cos(phi) + y * np.sin(phi)) * np.sin(theta) + z * np.cos(theta)))
        ** 2,
        ((0.0, pi), (0.0, 2.0 * pi)),
        _theta_spec(k * (abs(z) + rho), spec),
    )
    return QuadResult(3.0 / (4.0 * pi) * value, 3.0 / (4.0 * pi) * err)


def on_axis_eta(geometry: ParabolicGeometry, z):
    """Closed-form on-axis rate ratio; z (scalar or array) is the height above
    the mirror vertex, and a scalar z gives a float.

    eta(a) = 1 + 3 cos(2a)/(4a^2) - 3 sin(2a)/(8a^3) with a = k z; below
    a = 0.5, where this far form cancels, and at the removable singularity
    a = 0 the Taylor series (2/5) a^2 - (2/35) a^4 + (4/945) a^6 - ... is used.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("axial position must be above the vertex (z >= 0)")
    # a scalar z is evaluated as a 1-element array, so that a scalar and an
    # array argument round alike (numpy rounds scalar and array a**3 differently)
    a = geometry.wavenumber * np.atleast_1d(z)
    a2 = a * a
    with np.errstate(divide="ignore", invalid="ignore"):
        far = 1.0 + 3.0 * np.cos(2.0 * a) / (4.0 * a * a) - 3.0 * np.sin(2.0 * a) / (8.0 * a**3)
    eta = np.where(a < _SERIES_CROSSOVER, a2 * np.polyval(_ETA_SERIES[::-1], a2), far)
    return float(eta[0]) if z.ndim == 0 else eta


def rate_profile(
    geometry: ParabolicGeometry,
    z_range: tuple[float, float],
    samples: int,
) -> RateProfile:
    """Sample the on-axis rate ratio eta(z) over [z_min, z_max] above the vertex."""
    if samples < 2:
        raise ValueError("at least 2 samples required")
    z = np.linspace(float(z_range[0]), float(z_range[1]), samples)
    return RateProfile(positions=z, eta=on_axis_eta(geometry, z))


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
    the factor 2 of free_space.energy_density (electric plus magnetic):
    before the reflection arrives it is half the free-space value.
    """

    spherical: complex
    plane: complex
    energy_density: float
    near_boundary: bool


def _energy_density(spherical, plane, cos_theta1):
    """|s|^2 + |p|^2 + 2 Re(s conj(p)) cos(theta1): the two polarizations
    e_theta1 and e_rho overlap by e_theta1 . e_rho = cos(theta1)."""
    cross = 2.0 * (spherical * np.conj(plane)).real * cos_theta1
    return np.abs(spherical) ** 2 + np.abs(plane) ** 2 + cross


@dataclass(frozen=True)
class ParabolicFieldMap:
    """Grid of two-ray field samples restricted to the cavity interior;
    `energy_density` is the electric one, as in TwoRayField."""

    points: np.ndarray  # shape (n, 2): (z, rho)
    spherical: np.ndarray
    plane: np.ndarray
    energy_density: np.ndarray
    flags: np.ndarray  # True where the point is semiclassically unreliable


def _two_ray(atom: TwoLevelAtom, f: float, z, rho, t: float):
    """(spherical, plane, cos_theta1) at cavity points (z, rho) off the
    focus, scalars or arrays; the rays are described in semiclassical_field."""
    r1, _ = _focus_distance_eta(z, rho, f)
    r2 = f + rho**2 / (4.0 * f)
    spherical = _packet(atom, rho / r1, r1, r1, t)
    plane = _packet(atom, rho / r2, z + f, r2, t)
    return spherical, plane, (z - f) / r1


def _check_two_ray(geometry: ParabolicGeometry, atom: TwoLevelAtom) -> None:
    if atom.omega_eg * geometry.focal_length < 50.0 * (1.0 - _GUARD_RTOL):
        raise ValueError(
            "semiclassical two-ray construction requires omega_eg f / c >= 50"
        )
    if not np.isclose(geometry.wavenumber, atom.omega_eg, rtol=1e-9):
        raise ValueError(
            "geometry wave number must match the atomic transition (k = omega_eg / c)"
        )


def semiclassical_field(
    geometry: ParabolicGeometry,
    atom: TwoLevelAtom,
    point: tuple[float, float],
    t: float,
) -> TwoRayField:
    """Two-ray field at (z, rho) inside the cavity at time t.

    Direct rays form a spherical wave centered on the focus (distance r1,
    polarization e_theta1); reflected rays form a plane wave along +z whose
    eikonal z + f is the distance from the directrix plane (polarization
    e_rho).  For |t| < f/c only the direct term is active and the field
    coincides with the free-space wave packet.
    """
    _check_two_ray(geometry, atom)
    f = geometry.focal_length
    z, rho = float(point[0]), float(point[1])
    if rho < 0:
        raise ValueError("rho must be >= 0")
    r1, eta_coord = _focus_distance_eta(z, rho, f)
    if eta_coord >= f:
        raise ValueError("point lies outside the parabolic cavity")
    if r1 == 0.0:
        raise ValueError("field amplitude is singular at the focus")
    _check_radiation_zone(atom, r1, stacklevel=2)
    spherical, plane, cos_t1 = _two_ray(atom, f, z, rho, t)
    spherical, plane = complex(spherical), complex(plane)
    return TwoRayField(
        spherical=spherical,
        plane=plane,
        energy_density=float(_energy_density(spherical, plane, cos_t1)),
        near_boundary=bool(eta_coord >= _BOUNDARY_FLAG_FRACTION * f),
    )


def field_map(
    geometry: ParabolicGeometry,
    atom: TwoLevelAtom,
    z_values,
    rho_values,
    t: float,
) -> ParabolicFieldMap:
    """Evaluate the two-ray field on the part of a (z, rho) grid inside the
    cavity, z-major; the focus is skipped and no radiation-zone warning is
    raised."""
    _check_two_ray(geometry, atom)
    rho_values = np.asarray(rho_values, dtype=float)
    if np.any(rho_values < 0):
        raise ValueError("rho must be >= 0")
    f = geometry.focal_length
    z, rho = np.meshgrid(np.asarray(z_values, dtype=float), rho_values, indexing="ij")
    r1, eta_coord = _focus_distance_eta(z, rho, f)
    keep = (r1 != 0.0) & (eta_coord < f)
    z, rho = z[keep], rho[keep]
    spherical, plane, cos_t1 = _two_ray(atom, f, z, rho, t)
    return ParabolicFieldMap(
        points=np.column_stack((z, rho)),
        spherical=spherical,
        plane=plane,
        energy_density=_energy_density(spherical, plane, cos_t1),
        flags=eta_coord[keep] >= _BOUNDARY_FLAG_FRACTION * f,
    )
