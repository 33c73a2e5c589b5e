"""Parabolic mirror: rate modification, two-ray field."""

import cmath
import sys
import tracemalloc
from math import cos, exp, hypot, inf, nan, pi, sin, sqrt

import numpy as np
import pytest

from atomfield import free_space, parabolic_mirror as pm
from atomfield.free_space import RadiationZoneWarning, TwoLevelAtom
from atomfield.numerics import QuadratureSpec, QuadResult, integrate_1d
import exact
from oracles import integrate_2d


@pytest.fixture
def geometry():
    return pm.ParabolicGeometry(focal_length=50.0, wavenumber=1.0)


def _eta_j0(geometry, point):
    """eta at a vertex-based cavity point (x, y, z), on or off the axis: the
    azimuthal integral is done exactly (Bessel J0 kernel), the polar angle
    adaptively.  The off-axis reference, with `_eta_raw_2d`, for a closed
    form of eta(z, rho); the tests pick points inside the cavity."""
    from scipy.special import j0

    x, y, z = point
    rho = hypot(x, y)
    k = geometry.wavenumber
    # sin^2 -> (1 - cos)/2; the phi integral of cos(A cos(phi - phi0) + B) is 2 pi J0(A) cos(B)
    a, b = 2.0 * k * rho, 2.0 * k * z

    def integrand(theta):
        s = sin(theta)
        # j0 gives a numpy scalar; as a float, the quadrature stays in Python floats
        return s**3 * float(j0(a * s)) * cos(b * cos(theta))

    value, err = integrate_1d(integrand, (0.0, pi), pm._theta_spec(k * (abs(z) + rho), None))
    return QuadResult(1.0 - 0.75 * value, 0.75 * err)


def _eta_raw_2d(geometry, point, spec):
    """`_eta_j0` without the J0 reduction: the raw iterated 2-D integral of
    sin^3(theta) sin^2(k n . r); slow, the reference the reduction is checked against."""
    x, y, z = point
    rho = hypot(x, y)
    k = geometry.wavenumber
    value, err = integrate_2d(
        lambda theta, phi: np.sin(theta) ** 3
        * np.sin(k * ((x * np.cos(phi) + y * np.sin(phi)) * np.sin(theta) + z * np.cos(theta)))
        ** 2,
        ((0.0, pi), (0.0, 2.0 * pi)),
        pm._theta_spec(k * (abs(z) + rho), spec),
    )
    return QuadResult(3.0 / (4.0 * pi) * value, 3.0 / (4.0 * pi) * err)


class TestGeometry:
    def test_cutoff_angle_identity(self, geometry):
        assert np.tan(geometry.theta0 / 2.0) == pytest.approx(
            1.0 / (2.0 * geometry.kf), rel=1e-15, abs=0.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            pm.ParabolicGeometry(focal_length=-1.0, wavenumber=1.0)
        with pytest.raises(ValueError):
            pm.ParabolicGeometry(focal_length=1.0, wavenumber=0.0)


class TestParabolicCoordinates:
    def test_surface_is_eta_equals_f(self, geometry):
        f = geometry.focal_length
        for rho in (0.0, 3.0, 20.0):
            _, eta = pm._focus_distance_eta(rho**2 / (4.0 * f), rho, f)
            assert eta == pytest.approx(f, rel=1e-12, abs=0.0)
            assert not eta < f

    def test_focus_coordinates(self, geometry):
        r1, eta = pm._focus_distance_eta(geometry.focal_length, 0.0, geometry.focal_length)
        assert eta == 0.0
        assert r1 == 0.0

    def test_xi_eta_product(self, geometry):
        # rho^2 = 4 xi eta in these coordinates, with xi = (r1 + (z - f)) / 2
        z, f = 12.0, geometry.focal_length
        r1, eta = pm._focus_distance_eta(z, 7.0, f)
        xi = 0.5 * (r1 + (z - f))
        assert 4.0 * xi * eta == pytest.approx(49.0, rel=1e-12, abs=0.0)


class TestRateModification:
    def test_on_axis_small_height_law(self, geometry):
        # suppressed rate ~ (2/5)(k z)^2 near the vertex
        for z in (1e-4, 1e-3):
            a = geometry.wavenumber * z
            assert pm.on_axis_eta(geometry, z) == pytest.approx(0.4 * a * a, rel=1e-5, abs=0.0)

    def test_quadrature_matches_closed_form_on_axis(self, geometry):
        # z = 50/k is the height cap of the parabola-eta CLI probe
        for z in (0.3, 2.0, 17.0, 50.0):
            closed = pm.on_axis_eta(geometry, z)
            quad, err = pm.eta_quadrature(geometry, (0.0, 0.0, z))
            assert quad == pytest.approx(closed, rel=1e-9, abs=0.0)
            assert err < 1e-8

    def test_reduction_matches_raw_2d(self, geometry):
        # the second point has 2 k rho = 12, where the J0 factor oscillates
        for point in ((0.3, 0.4, 2.0), (3.6, 4.8, 2.0)):
            fast, _ = _eta_j0(geometry, point)
            slow, _ = _eta_raw_2d(
                geometry, point, QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
            )
            assert fast == pytest.approx(slow, rel=1e-7, abs=0.0)

    def test_off_axis_far_field_approaches_unity(self, geometry):
        # many wavelengths from the mirror axis the correction dies off
        quad, _ = _eta_j0(geometry, (30.0, 0.0, 30.0))
        assert abs(quad - 1.0) < 0.01

    def test_vertex_is_dark(self, geometry):
        quad, _ = pm.eta_quadrature(geometry, (0.0, 0.0, 0.0))
        assert quad == pytest.approx(0.0, abs=1e-12)

    def test_off_axis_point_rejected(self, geometry, monkeypatch):
        # refused before any quadrature runs, and without scipy importable
        monkeypatch.setattr(pm, "integrate_1d", None)
        for module in ("scipy", "scipy.special"):
            monkeypatch.setitem(sys.modules, module, None)
        for point in ((0.3, 0.4, 2.0), (0.0, 1e-3, 2.0), (30.0, 0.0, 30.0), (nan, 0.0, 2.0)):
            with pytest.raises(ValueError, match="on the mirror axis"):
                pm.eta_quadrature(geometry, point)

    def test_outside_point_rejected(self, geometry):
        with pytest.raises(ValueError):
            pm.eta_quadrature(geometry, (0.0, 0.0, -1.0))
        with pytest.raises(ValueError):
            # below the mirror surface at large rho
            pm.eta_quadrature(geometry, (100.0, 0.0, 1.0))
        for z in (nan, inf):
            with pytest.raises(ValueError, match="outside the parabolic cavity"):
                pm.eta_quadrature(geometry, (0.0, 0.0, z))

    def test_rate_requires_matching_wavenumber(self):
        # omega_eg f = 50 passes the two-ray size guard, so k = 2 omega_eg is what fails
        atom = TwoLevelAtom(omega_eg=1.0, gamma=1e-3)
        mirror = pm.ParabolicGeometry(focal_length=50.0, wavenumber=2.0)
        with pytest.raises(ValueError, match="wave number must match"):
            pm.semiclassical_field(mirror, atom, (30.0, 10.0), 60.0)
        with pytest.raises(ValueError, match="wave number must match"):
            pm.field_map(mirror, atom, [30.0], [10.0], 60.0)

    def test_on_axis_eta_array_matches_scalar(self, geometry):
        z = np.array(
            [0.0, 1e-4, 0.99e-2, 1e-2, 1.01e-2, 0.3, 0.5 * (1 - 1e-6), 0.5 * (1 + 1e-6), pi, 17.0, 1e3]
        )
        eta = pm.on_axis_eta(geometry, z)
        scalar = [pm.on_axis_eta(geometry, zi) for zi in z]
        assert all(type(v) is float for v in scalar)
        assert np.max(np.abs(eta - scalar)) <= np.spacing(1.0)
        with pytest.raises(ValueError):
            pm.on_axis_eta(geometry, np.array([1.0, -1e-3]))
        with pytest.raises(ValueError, match="above the vertex"):
            pm.on_axis_eta(geometry, np.array([1.0, float("nan")]))
        # the far form would give NaN from cos(inf), where the limit is 1
        with pytest.raises(ValueError, match="finite"):
            pm.on_axis_eta(geometry, inf)

    def test_on_axis_eta_matches_extended_precision(self, geometry):
        # the first three straddle the switch from the series to the far form
        probes = [0.5 * (1.0 - 1e-6), 0.5, 0.5 * (1.0 + 1e-6)]
        assert probes[0] < pm._SERIES_CROSSOVER <= probes[1]
        a = np.concatenate((probes, np.geomspace(1e-6, 10.0, 701)))
        want = exact.on_axis_eta(a)
        got = pm.on_axis_eta(geometry, a / geometry.wavenumber)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_rate_profile(self, geometry):
        eta = pm.on_axis_eta(geometry, np.linspace(0.0, 10.0, 21))
        assert eta.shape == (21,)
        assert eta[0] == pytest.approx(0.0, abs=1e-12)

    def test_on_axis_eta_is_non_negative(self, geometry):
        # a = k z over [0, 200], densest across the series/far crossover at
        # a = 0.5; the minimum, 0, sits at a = 0
        a = np.concatenate((np.linspace(0.0, 1.0, 100_001), np.linspace(1.0, 200.0, 200_001)))
        eta = pm.on_axis_eta(geometry, a / geometry.wavenumber)
        assert np.min(eta) >= 0.0
        assert eta[0] == 0.0

    def test_cutoff_correction_matches_quadrature(self):
        # oracle: 1.5 * integral of sin^3 over [0, theta0] by adaptive quadrature
        for kf in np.geomspace(0.3, 1e6, 41):
            geo = pm.ParabolicGeometry(focal_length=1.0, wavenumber=kf)
            want, _ = integrate_1d(
                lambda theta: np.sin(theta) ** 3,
                (0.0, geo.theta0),
                QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300),
            )
            assert pm.angular_cutoff_correction(geo) == pytest.approx(
                1.5 * want, rel=1e-12, abs=0.0
            )

    def test_cutoff_correction_asymptote(self):
        # 1.5 * integral of sin^3 up to theta0 ~ (3/8) (kf)^-4 for large kf,
        # which is 0.0 where (kf)^2 overflows a double
        geo = pm.ParabolicGeometry(focal_length=1.0, wavenumber=100.0)
        got = pm.angular_cutoff_correction(geo)
        assert got == pytest.approx(0.375 * 100.0**-4, rel=1e-3, abs=0.0)
        far = pm.ParabolicGeometry(focal_length=1.0, wavenumber=1e200)
        assert pm.angular_cutoff_correction(far) == 0.0


def _two_ray_reference(atom, f, z, rho, t):
    """(spherical, plane, energy density) of the two rays at one cavity point,
    written out from the physics: each ray is
    -i sqrt(3 Gamma omega / 16 pi) a(-sign(t) u) (rho / r) / r, with
    a(tau) = exp(-i omega tau - Gamma |tau| / 2) and u = |t| - path, and is
    zero before u = 0.  The direct ray has path = r = r1, the distance from
    the focus; the reflected one has path = z + f, the distance from the
    directrix, and r = f + rho^2 / 4f.  Their polarizations e_theta1 and
    e_rho overlap by cos(theta1) = (z - f) / r1."""
    omega, gamma = atom.omega_eg, atom.gamma

    def ray(path, r):
        u = abs(t) - path
        if u < 0.0:
            return 0j
        tau = -np.sign(t) * u
        a = cmath.exp(-1j * omega * tau - gamma * abs(tau) / 2.0)
        return -1j * sqrt(3.0 * gamma * omega / (16.0 * pi)) * a * (rho / r) / r

    r1 = hypot(z - f, rho)
    s, p = ray(r1, r1), ray(z + f, f + rho * rho / (4.0 * f))
    return s, p, abs(s) ** 2 + abs(p) ** 2 + 2.0 * (s * p.conjugate()).real * (z - f) / r1


class TestTwoRayField:
    @pytest.fixture
    def atom(self):
        return TwoLevelAtom.from_linewidth(1.0, 100.0)

    @pytest.fixture
    def mirror(self, atom):
        return pm.ParabolicGeometry(focal_length=10.0, wavenumber=atom.omega_eg)

    def test_causal_silence(self, mirror, atom):
        fld = pm.semiclassical_field(mirror, atom, (12.0, 3.0), 0.5)
        assert fld.spherical == 0.0 and fld.plane == 0.0
        assert fld.energy_density == 0.0

    def test_time_reversal_energy_density(self, mirror, atom):
        for point in ((12.0, 3.0), (4.0, 8.0)):
            u_p = pm.semiclassical_field(mirror, atom, point, 30.0).energy_density
            u_m = pm.semiclassical_field(mirror, atom, point, -30.0).energy_density
            assert u_m == pytest.approx(u_p, rel=1e-12, abs=0.0)

    def test_plane_term_rides_on_z_plus_f(self, mirror, atom):
        # equal t - (z + f) at fixed rho gives the identical reflected term
        rho = 4.0
        a = pm.semiclassical_field(mirror, atom, (6.0, rho), 30.0).plane
        b = pm.semiclassical_field(mirror, atom, (11.0, rho), 35.0).plane
        assert b == pytest.approx(a, rel=1e-12, abs=0.0)

    def test_near_boundary_flag(self, mirror, atom):
        f = mirror.focal_length
        # point just inside the mirror surface at rho = 2 f
        surface_z = (2.0 * f) ** 2 / (4.0 * f)
        near = pm.field_map(mirror, atom, [surface_z + 0.05], [2.0 * f], 30.0)
        assert near.flags.tolist() == [True]
        center = pm.field_map(mirror, atom, [f], [1.0], 30.0)
        assert center.flags.tolist() == [False]

    def test_energy_density_includes_interference(self, mirror, atom):
        z, rho = 12.0, 14.0
        fld = pm.semiclassical_field(mirror, atom, (z, rho), 26.0)
        assert fld.spherical != 0.0 and fld.plane != 0.0
        u_sum = abs(fld.spherical) ** 2 + abs(fld.plane) ** 2
        f = mirror.focal_length
        cos_theta1 = (z - f) / hypot(z - f, rho)  # e_theta1 . e_rho
        cross = 2.0 * (fld.spherical * np.conj(fld.plane)).real * cos_theta1
        assert fld.energy_density == pytest.approx(u_sum + cross, rel=1e-12, abs=0.0)

    def test_guards(self, mirror, atom):
        with pytest.raises(ValueError, match="^field amplitude is singular at the focus$"):
            pm.semiclassical_field(mirror, atom, (10.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="^point lies outside the parabolic cavity$"):
            pm.semiclassical_field(mirror, atom, (0.05, 50.0), 1.0)
        with pytest.raises(ValueError, match="^z and rho must be finite$"):
            pm.semiclassical_field(mirror, atom, (float("nan"), 3.0), 1.0)
        small = pm.ParabolicGeometry(focal_length=0.1, wavenumber=atom.omega_eg)
        with pytest.raises(ValueError):
            pm.semiclassical_field(small, atom, (0.05, 0.01), 1.0)
        # k = omega / 5 at omega = 5e-10 (omega f = 100): isclose's default
        # atol = 1e-8 let it pass, where the same mismatch at unit scale failed
        tiny = TwoLevelAtom(omega_eg=5e-10, gamma=5e-13)
        with pytest.raises(ValueError, match="wave number must match"):
            pm.field_map(pm.ParabolicGeometry(2e11, 1e-10), tiny, [3e11], [1e11], 1e13)
        with pytest.warns(RadiationZoneWarning) as caught:
            pm.semiclassical_field(mirror, atom, (10.05, 0.0), 1.0)
        # attributed to the caller's line, not to the library
        assert caught[0].filename == __file__
        # a NaN time used to give a silent all-zero field
        for t in (nan, inf):
            with pytest.raises(ValueError, match="time must be finite"):
                pm.semiclassical_field(mirror, atom, (12.0, 3.0), t)
            with pytest.raises(ValueError, match="time must be finite"):
                pm.field_map(mirror, atom, [12.0], [3.0], t)

    def test_negative_rho_rejected(self, mirror, atom):
        # the scalar route and the grid route refuse rho < 0, and a NaN, alike
        for bad in (-3.0, float("nan")):
            with pytest.raises(ValueError, match="^rho must be >= 0$"):
                pm.semiclassical_field(mirror, atom, (12.0, bad), 25.0)
            with pytest.raises(ValueError, match="^rho must be >= 0$"):
                pm.field_map(mirror, atom, [12.0], [3.0, bad], 25.0)

    def test_non_finite_grid_rejected(self, mirror, atom):
        # a NaN or inf z, or an inf rho, used to be dropped like a point
        # outside the mirror, leaving a silently shorter map
        for z, rho in (([12.0, nan], [3.0]), ([12.0, inf], [3.0]), ([-inf], [3.0]), ([12.0], [3.0, inf])):
            with pytest.raises(ValueError, match="^z and rho must be finite$"):
                pm.field_map(mirror, atom, z, rho, 25.0)

    def test_field_map_filters_to_interior(self, mirror, atom):
        z = np.linspace(0.5, 30.0, 8)
        rho = np.linspace(0.0, 40.0, 9)
        fmap = pm.field_map(mirror, atom, z, rho, 25.0)
        f = mirror.focal_length
        for zi, rhoi in fmap.points:
            assert pm._focus_distance_eta(zi, rhoi, f)[1] < f
        assert fmap.points.shape[0] < z.size * rho.size

    @pytest.mark.parametrize("t", [25.0, -25.0, 0.01])
    def test_field_map_matches_pointwise_field(self, mirror, atom, t):
        # f = 10: z = 10 is the row through the focus, (0, 0) and (10, 20)
        # lie exactly on the mirror, (10, 40) and (0, 5) below it, and
        # (10, 19) sits exactly on the near-boundary threshold eta = 0.95 f;
        # at t = 0.01 no ray has reached any grid point yet (min r1 = 0.05)
        z = np.array([0.0, 2.5, 10.0, 10.05, 17.5, 40.0, 55.0])
        rho = np.array([0.0, 0.05, 5.0, 18.5, 19.0, 20.0, 40.0])
        points, flags, want = [], [], []
        for zi in z:
            for rhoi in rho:
                r1, eta = pm._focus_distance_eta(zi, rhoi, mirror.focal_length)
                if r1 == 0.0 or not eta < mirror.focal_length:
                    continue
                points.append((zi, rhoi))
                flags.append(eta >= 0.95 * mirror.focal_length)
                want.append(_two_ray_reference(atom, mirror.focal_length, zi, rhoi, t))
        fmap = pm.field_map(mirror, atom, z, rho, t)
        assert np.array_equal(fmap.points, np.reshape(points, (-1, 2)))
        assert fmap.flags.tolist() == flags
        assert any(flags) and not all(flags)
        for got, column in zip(
            (fmap.spherical, fmap.plane, fmap.energy_density), np.array(want).T
        ):
            scale = np.max(np.abs(column))
            assert np.max(np.abs(got - column), initial=0.0) <= 1e-14 * scale
        if t == 0.01:
            assert not np.any(fmap.energy_density)
        else:
            assert np.any(fmap.plane) and not np.all(fmap.plane)

    def test_field_map_blocks_give_the_one_block_map(self, mirror, atom, monkeypatch):
        z = np.linspace(0.5, 30.0, 8)
        rho = np.linspace(0.0, 40.0, 9)
        whole = pm.field_map(mirror, atom, z, rho, 25.0)
        monkeypatch.setattr(free_space, "_RAY_BLOCK", 5)
        blocked = pm.field_map(mirror, atom, z, rho, 25.0)
        assert len(whole.points) > 3 * 5
        for name in ("points", "spherical", "plane", "energy_density", "flags"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name))
        assert np.any(whole.plane) and not np.all(whole.plane)

    def test_field_map_memory_within_its_record(self, monkeypatch):
        # the largest parabola-field grid of the field-maps benchmark's seed
        # 1 (34 636 points inside the mirror): the ray sums run in blocks,
        # so the peak stays near the map's own bytes (1.35x; the whole-grid
        # sums peaked at 2.14x)
        f, omega = 13.0201, 971.007 / 13.0201
        atom = TwoLevelAtom.from_linewidth(1.0, omega)
        mirror = pm.ParabolicGeometry(focal_length=f, wavenumber=omega)
        z, rho = np.linspace(0.5, 30.0, 200), np.linspace(0.0, 2.0 * f, 200)
        tracemalloc.start()
        try:
            fmap = pm.field_map(mirror, atom, z, rho, 15.7839)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = sum(getattr(fmap, name).nbytes for name in ("points", "spherical", "plane", "energy_density", "flags"))
        assert own == 34_636 * 57
        assert peak <= 1.5 * own

    def test_field_map_empty_outside(self, mirror, atom):
        fmap = pm.field_map(mirror, atom, [0.1], [50.0], 25.0)
        assert fmap.points.shape == (0, 2)

    def test_early_map_matches_free_space(self, mirror, atom):
        # before the reflection returns, only the direct spherical wave exists
        fld = pm.semiclassical_field(mirror, atom, (13.0, 4.0), 8.0)
        r1, _ = pm._focus_distance_eta(13.0, 4.0, mirror.focal_length)
        theta1 = np.arcsin(4.0 / r1)
        free = free_space.electric_amplitude(atom, r1, theta1, 8.0)
        assert fld.plane == 0.0
        assert fld.spherical == pytest.approx(free, rel=1e-12, abs=0.0)


class TestEnergyBalance:
    """The whole packet stays inside the perfect mirror, so the two rays carry
    what the atom has emitted, 2 integral (|E_s|^2 + |E_p|^2) dV = omega (1 - e^{-Gamma t})
    (the factor 2 adds the magnetic half, as in free_space.field_energy; the
    cross term averages out for kf >> 1).  The direct ray holds the emission
    that has not yet reached the mirror, at r2(theta) = 2 f / (1 - cos theta)
    from the focus:

        D(t) = integral_0^pi (3/4) sin^3(theta) [e^{-Gamma max(0, t - r2)} - e^{-Gamma t}] dtheta.

    Both sides come from the midpoint rule on a (z, rho) grid of step H through
    field_map.  Grid refinement over the four cases: at H = 0.04 the total is
    within 4.8e-4 of omega (1 - e^{-Gamma t}) and the direct share within
    4.2e-5 of D / (1 - e^{-Gamma t}); at H = 0.02 within 3.0e-5 and 6.9e-6.
    So the H = 0.04 deviations are grid error, and the bounds leave a factor
    of about 2."""

    H = 0.04

    @pytest.mark.parametrize(
        "f, omega_f, t",
        [
            (10.0, 500.0, 25.0),
            (1.0, 50.0, 12.0),  # omega_f at the two-ray guard
            (3.0, 150.0, 25.0),
            (10.0, 500.0, 8.0),  # t < f: nothing has been reflected yet
        ],
    )
    def test_rays_carry_the_emitted_energy(self, f, omega_f, t):
        atom = TwoLevelAtom.from_linewidth(1.0, omega_f / f)
        mirror = pm.ParabolicGeometry(focal_length=f, wavenumber=atom.omega_eg)
        h = self.H
        # the direct ray reaches z = f + t at most, and the cavity ends at rho^2 = 4 f z
        z = np.arange(0.5 * h, f + t, h)
        rho = np.arange(0.5 * h, sqrt(4.0 * f * (f + t)), h)
        fmap = pm.field_map(mirror, atom, z, rho, t)
        volume = 2.0 * pi * fmap.points[:, 1] * h * h
        direct = 2.0 * float(np.sum(np.abs(fmap.spherical) ** 2 * volume))
        total = direct + 2.0 * float(np.sum(np.abs(fmap.plane) ** 2 * volume))
        emitted = 1.0 - exp(-t)
        assert total / (atom.omega_eg * emitted) == pytest.approx(1.0, rel=0.0, abs=1e-3)

        def undelivered(theta):
            r2 = 2.0 * f / (1.0 - cos(theta))
            return 0.75 * sin(theta) ** 3 * (exp(-max(0.0, t - r2)) - exp(-t))

        share, _ = integrate_1d(undelivered, (0.0, pi), QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13))
        assert direct / total == pytest.approx(share / emitted, rel=0.0, abs=1e-4)
        if t < f:
            assert direct / total == 1.0
