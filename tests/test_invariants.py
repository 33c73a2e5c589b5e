"""Exact invariants: power-of-two scaling and the exact symmetries.

Scaling a double by s = 2**k is exact, and rounding commutes with it (away
from overflow and subnormals).  So code whose every operation is
dimensionally consistent gives the same bits when each dimensional input is
scaled by its power of s; a mismatch names a constant with hidden units.
Every case below requires identical bits, never a tolerance.  It does not
replace the oracles: a formula wrong by a dimensionless factor passes every
scaling test.

Each entry point, the inputs scaled (rates divided by s, lengths and
times multiplied by it) and its exact symmetries; `jcp.inversion` works in
units of the coupling, so it has no scaling group of its own:

    entry point                          scaled                         symmetry
    free_space.excited_amplitude         omega, Gamma; t                a(-t) = conj a(t)
    free_space.wigner_weisskopf_ode      omega, Gamma, band, spacing; t a_e(-t) = a_e(t)
    spherical_cavity closed form         omega, Gamma; R, t
    spherical_cavity.evolve_cavity_ode   omega, Gamma, band; R, t
    parabolic_mirror.on_axis_eta         k; f, z
    free_space.field_map                 omega, Gamma; r, t             (density by s**-4)
    parabolic_mirror.field_map           omega, Gamma, k; f, z, rho, t  (density by s**-4)
    jcp.inversion                        -                              w(-t) = w(t),
                                                                        w(Delta) = w(-Delta)

A new scenario adds its row here.
"""

import numpy as np
import pytest

from atomfield import free_space, jcp, parabolic_mirror as pm, spherical_cavity as sc

SCALES = [pytest.param(2.0**k, id=f"2^{k}") for k in (-7, -1, 1, 7)]

GAMMA, OMEGA = 1.0, 1e3
TIMES = np.linspace(0.0, 4.0, 201)


def _atom(s):
    return free_space.TwoLevelAtom(omega_eg=OMEGA / s, gamma=GAMMA / s)


def _same(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("s", SCALES)
def test_excited_amplitude_scales(s):
    t = np.linspace(-3.0, 3.0, 61)
    got = free_space.excited_amplitude(_atom(s), t * s)
    _same(got, free_space.excited_amplitude(_atom(1.0), t))


@pytest.mark.parametrize("s", SCALES)
def test_free_space_band_scales(s):
    got = free_space.wigner_weisskopf_ode(_atom(s), TIMES * s, 40.0 / s, 0.02 / s)
    want = free_space.wigner_weisskopf_ode(_atom(1.0), TIMES, 40.0, 0.02)
    _same(got.excited_amplitude, want.excited_amplitude)
    assert got.norm == want.norm


@pytest.mark.parametrize("s", SCALES)
def test_sphere_scales(s):
    # Gamma R = 1 over 6 round trips: echoes 1-3 at t = 2, 4, 6 R
    times = np.linspace(0.0, 6.0, 121)
    cavity, base = sc.SphericalCavity(1.0 * s, _atom(s)), sc.SphericalCavity(1.0, _atom(1.0))
    _same(
        sc.excited_probability_closed_form(cavity, times * s),
        sc.excited_probability_closed_form(base, times),
    )
    got = sc.evolve_cavity_ode(cavity, times * s, 400.0 / s)
    want = sc.evolve_cavity_ode(base, times, 400.0)
    _same(got.excited_amplitude, want.excited_amplitude)
    assert got.norm == want.norm


@pytest.mark.parametrize("s", SCALES)
def test_on_axis_eta_scales(s):
    # k z from 0 across the series crossover 0.5 to the far form
    z = np.linspace(0.0, 20.0, 81)
    got = pm.on_axis_eta(pm.ParabolicGeometry(2.0 * s, 1.0 / s), z * s)
    _same(got, pm.on_axis_eta(pm.ParabolicGeometry(2.0, 1.0), z))


@pytest.mark.parametrize("s", SCALES)
def test_free_space_field_map_scales(s):
    r, theta = np.linspace(0.01, 1.5, 13), np.linspace(0.0, np.pi, 7)
    got = free_space.field_map(_atom(s), r * s, theta, 1.0 * s)
    want = free_space.field_map(_atom(1.0), r, theta, 1.0)
    _same(got.energy_density * s**4, want.energy_density)
    _same(got.amplitude * s**2, want.amplitude)


@pytest.mark.parametrize("s", SCALES)
def test_parabolic_field_map_scales(s):
    # omega f = 500, after the reflected ray has reached part of the grid
    f, omega = 0.5, OMEGA
    z, rho = np.linspace(0.05, 3.0, 11), np.linspace(0.0, 1.0, 9)
    atom = free_space.TwoLevelAtom(omega_eg=omega / s, gamma=GAMMA / s)
    got = pm.field_map(pm.ParabolicGeometry(f * s, omega / s), atom, z * s, rho * s, 2.0 * s)
    want = pm.field_map(pm.ParabolicGeometry(f, omega), _atom(1.0), z, rho, 2.0)
    _same(got.points, want.points * s)
    _same(got.energy_density * s**4, want.energy_density)
    assert np.any(want.plane != 0.0) and np.any(want.spherical != 0.0)


def test_excited_amplitude_reverses_to_its_conjugate():
    t, atom = np.linspace(0.0, 3.0, 31), _atom(1.0)
    _same(free_space.excited_amplitude(atom, -t), np.conj(free_space.excited_amplitude(atom, t)))


def test_band_amplitude_is_even_in_time():
    got = free_space.wigner_weisskopf_ode(_atom(1.0), -TIMES, 40.0, 0.02)
    want = free_space.wigner_weisskopf_ode(_atom(1.0), TIMES, 40.0, 0.02)
    _same(got.excited_amplitude, want.excited_amplitude)


@pytest.mark.parametrize("mean_n", [0.0, 4.0, 100.0])
def test_inversion_is_even_in_time_and_detuning(mean_n):
    times = np.linspace(0.0, 60.0, 301)
    field = jcp.FieldDistribution.coherent(mean_n)
    w = jcp.inversion(jcp.JcpParams(detuning=0.7, field=field), times)
    _same(jcp.inversion(jcp.JcpParams(detuning=0.7, field=field), -times), w)
    _same(jcp.inversion(jcp.JcpParams(detuning=-0.7, field=field), times), w)
