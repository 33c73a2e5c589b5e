"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line through the shared reporter in
conftest.py; tolerances are asserted exactly as stated, no loosening.
"""

import time
from math import pi, sqrt
from pathlib import Path

import numpy as np
import pytest

import atomfield as af
from atomfield import cli, free_space, jcp, parabolic_mirror as pm, spherical_cavity as sc
from atomfield.numerics import QuadratureSpec

from conftest import record_acceptance
from golden_check import read_table, run_config, table_mismatches

GOLDEN_DIR = Path(__file__).parent / "golden"


def test_criterion_1_jcp_closed_form_vs_ode():
    """Closed-form inversion matches the brute-force ladder ODE to 1e-7."""
    t_start = time.perf_counter()
    worst = 0.0
    for mean_n in (0.5, 25.0):
        params = jcp.JcpParams(field=jcp.FieldDistribution.coherent(mean_n))
        t_r = jcp.collapse_revival_times(mean_n)[1]
        times = np.linspace(0.0, 3.0 * t_r, 601)
        w_closed = jcp.inversion(params, times).w
        w_ode = jcp.evolve_ode(params, times).inversion().w
        worst = max(worst, float(np.max(np.abs(w_closed - w_ode))))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-7 and elapsed < 10.0
    record_acceptance(1, ok, f"max |w_closed - w_ode| = {worst:.2e} (<= 1e-7), {elapsed:.1f} s")
    assert worst <= 1e-7
    assert elapsed < 10.0


def test_criterion_2_collapse_and_revival():
    """Collapse below 0.1 before two vacuum-Rabi periods; revival > 0.3 near T_r."""
    mean_n = 25.0
    params = jcp.JcpParams(field=jcp.FieldDistribution.coherent(mean_n))
    t_c, t_r = jcp.collapse_revival_times(mean_n)
    times = np.linspace(0.0, 1.2 * t_r, 12001)
    w = jcp.inversion(params, times).w
    # envelope probe: max |w| over the last few Rabi cycles before 2 T_c
    pre = (times > 2.0 * t_c - 3.0) & (times <= 2.0 * t_c)
    collapsed = float(np.max(np.abs(w[pre])))
    window = (times >= 0.9 * t_r) & (times <= 1.1 * t_r)
    revival = float(np.max(w[window]))
    ok = collapsed < 0.1 and revival > 0.3
    record_acceptance(
        2, ok, f"envelope {collapsed:.2e} (< 0.1) before 2 T_c, revival peak {revival:.3f} (> 0.3)"
    )
    assert collapsed < 0.1
    assert revival > 0.3


def test_criterion_3_wigner_weisskopf_rate():
    """Discretized-continuum decay rate within 2% of Gamma."""
    t_start = time.perf_counter()
    atom = af.TwoLevelAtom.from_linewidth(1.0, 1e3)
    times = np.linspace(0.0, 4.0, 201)
    trace = free_space.wigner_weisskopf_ode(
        atom, times, band_width=40.0, mode_spacing=1.0 / 50.0
    )
    mask = (times >= 0.5) & (times <= 4.0)
    slope, _ = np.polyfit(times[mask], np.log(trace.excited_population[mask]), 1)
    rate = -slope
    elapsed = time.perf_counter() - t_start
    ok = abs(rate - 1.0) <= 0.02 and elapsed < 60.0
    record_acceptance(3, ok, f"fitted rate {rate:.4f} Gamma (within 2%), {elapsed:.1f} s")
    assert abs(rate - 1.0) <= 0.02
    assert elapsed < 60.0


def test_criterion_4_wavepacket_energy():
    """Field energy matches omega (1 - e^{-Gamma t}); electric part is half."""
    atom = af.TwoLevelAtom.from_linewidth(1.0, 1e3)
    worst_total = worst_electric = 0.0
    inner_max = 0.0
    for t in (0.5, 1.0, 2.0):
        expected = atom.omega_eg * (1.0 - np.exp(-t))
        total = free_space.field_energy(atom, t, part="total")
        electric = free_space.field_energy(atom, t, part="electric")
        worst_total = max(worst_total, abs(total.value - expected) / expected)
        worst_electric = max(worst_electric, abs(electric.value - expected / 2.0) / (expected / 2.0))
        inner_max = max(inner_max, total.inner_correction / total.value)
    ok = worst_total <= 1e-3 and worst_electric <= 1e-3 and inner_max < 0.05
    record_acceptance(
        4,
        ok,
        f"total rel err {worst_total:.1e}, electric-half rel err {worst_electric:.1e} "
        f"(<= 1e-3), inner correction <= {inner_max:.1%} of total",
    )
    assert worst_total <= 1e-3
    assert worst_electric <= 1e-3
    assert inner_max < 0.05


def test_criterion_5_cavity_revivals():
    """Closed-form echoes vs multimode ODE; exponential start; visible echoes."""
    details = []
    ok = True
    for gamma_R, band in ((1.0, 800.0), (10.0, 400.0)):
        atom = af.TwoLevelAtom.from_linewidth(1.0, 1e3)
        cavity = sc.SphericalCavity(radius=gamma_R, atom=atom)
        times = np.linspace(0.0, 6.0 * gamma_R, 601)
        p_closed = sc.excited_probability_closed_form(cavity, times)
        trace = sc.evolve_cavity_ode(cavity, times, band_width=band)
        dev = float(np.max(np.abs(p_closed - trace.excited_population)))
        after = times > 2.0 * gamma_R + 1e-9
        echo = float(np.max(p_closed[after]))
        visible = echo > np.exp(-2.0 * gamma_R)
        ok = ok and dev <= 5e-3 and visible
        details.append(f"GR={gamma_R:g}: dev {dev:.1e}, echo max {echo:.3f}")
    # pure exponential before the first round trip for the large cavity
    cavity = sc.SphericalCavity(radius=10.0, atom=af.TwoLevelAtom.from_linewidth(1.0, 1e3))
    t_early = np.linspace(0.0, 2.0 * cavity.radius - 1e-6, 401)
    expo_dev = float(
        np.max(np.abs(sc.excited_probability_closed_form(cavity, t_early) - np.exp(-t_early)))
    )
    ok = ok and expo_dev <= 1e-6
    record_acceptance(5, ok, "; ".join(details) + f"; pre-echo exp dev {expo_dev:.1e}")
    assert ok


def test_criterion_6_on_axis_rate_quadrature():
    """Quadrature eta matches the closed form to 1e-6 at 50 random heights."""
    geometry = pm.ParabolicGeometry(focal_length=1e3, wavenumber=1.0)
    rng = np.random.default_rng(20260823)
    a_values = rng.uniform(0.1, 100.0, size=50)
    worst = 0.0
    for a in a_values:
        closed = pm.on_axis_eta(geometry, a)
        quad, _ = pm.eta_quadrature(geometry, (0.0, 0.0, a))
        worst = max(worst, abs(quad - closed) / abs(closed))
    special = pm.on_axis_eta(geometry, pi)
    special_dev = abs(special - (1.0 + 3.0 / (4.0 * pi**2)))
    ok = worst <= 1e-6 and special_dev <= 1e-12
    record_acceptance(
        6, ok, f"max rel dev {worst:.1e} (<= 1e-6), eta(pi) dev {special_dev:.1e} (<= 1e-12)"
    )
    assert worst <= 1e-6
    assert special_dev <= 1e-12


def test_criterion_7_rate_profile_regimes():
    """Short wavelength: eta pinned to 1; long wavelength: visible modulation."""
    short = pm.ParabolicGeometry(focal_length=2.0, wavenumber=1e4)
    z = np.linspace(0.01, 8.0, 2000)
    dev_short = float(np.max(np.abs([pm.on_axis_eta(short, zi) for zi in z] - np.ones(z.size))))
    long = pm.ParabolicGeometry(focal_length=2.0, wavenumber=0.25 * pi)
    z_long = np.linspace(1e-4, 8.0, 2000)
    dev_long = float(np.max(np.abs([pm.on_axis_eta(long, zi) for zi in z_long] - np.ones(z_long.size))))
    ok = dev_short <= 1e-3 and dev_long > 0.05
    record_acceptance(
        7,
        ok,
        f"k=1e4/mm: max |eta-1| = {dev_short:.1e} (<= 1e-3); "
        f"k=pi/4/mm: max excursion {dev_long:.3f} (> 0.05)",
    )
    assert dev_short <= 1e-3
    assert dev_long > 0.05


def test_criterion_8_cutoff_angle_and_scaling():
    """tan(theta0/2) = 1/(2kf) exactly; cutoff correction scales as (kf)^-4."""
    worst_identity = 0.0
    for kf in (0.7, 5.0, 123.0, 1e4):
        geometry = pm.ParabolicGeometry(focal_length=1.0, wavenumber=kf)
        worst_identity = max(
            worst_identity, abs(np.tan(geometry.theta0 / 2.0) * 2.0 * kf - 1.0)
        )
    kf_values = np.logspace(1.0, 3.0, 7)
    corrections = [
        pm.angular_cutoff_correction(pm.ParabolicGeometry(focal_length=1.0, wavenumber=kf))
        for kf in kf_values
    ]
    slope, _ = np.polyfit(np.log(kf_values), np.log(corrections), 1)
    ok = worst_identity <= 1e-12 and -4.5 <= slope <= -3.5
    record_acceptance(
        8, ok, f"identity dev {worst_identity:.1e}, cutoff scaling exponent {slope:.3f}"
    )
    assert worst_identity <= 1e-12
    assert -4.5 <= slope <= -3.5


def test_criterion_9_two_ray_field_map():
    """On-axis null, late-time ray separation, early-time free-space identity."""
    f = 10.0
    atom = af.TwoLevelAtom.from_linewidth(1.0, 100.0)  # 2 f Gamma / c = 20
    geometry = pm.ParabolicGeometry(focal_length=f, wavenumber=atom.omega_eg)
    # on-axis amplitudes vanish identically (sin theta = 0 for both rays)
    axis_ok = True
    for z in (0.5, 5.0, 25.0):
        fld = pm.semiclassical_field(geometry, atom, (z, 0.0), 25.0)
        axis_ok = axis_ok and fld.spherical == 0.0 and fld.plane == 0.0

    # energy fraction in the overlap of the two ray supports, once the
    # reflection zone has moved far up the mirror
    t = 10.0 * f
    z = np.linspace(0.05, t + f, 360)
    rho = np.linspace(0.0, 1.05 * sqrt(4.0 * f * (t + f)), 360)
    fmap = pm.field_map(geometry, atom, z, rho, t)
    u1 = np.abs(fmap.spherical) ** 2
    u2 = np.abs(fmap.plane) ** 2
    weight = fmap.points[:, 1]  # cylindrical volume element
    total = float(np.sum((u1 + u2) * weight))
    overlap = float(np.sum(np.minimum(u1, u2) * weight)) / total
    support = (u1 > 1e-3 * (u1 + u2).max()) & (u2 > 1e-3 * (u1 + u2).max())
    support_fraction = float(np.sum(((u1 + u2) * weight)[support])) / total

    # before the reflected ray exists the map is the free-space packet
    t_early = 8.0
    early_dev = 0.0
    plane_ok = True
    rng = np.random.default_rng(7)
    for _ in range(200):
        zi = rng.uniform(3.0, 17.0)
        rhoi = rng.uniform(0.0, 6.0)
        r1, eta = pm._focus_distance_eta(zi, rhoi, geometry.focal_length)
        if not eta < geometry.focal_length or r1 * atom.omega_eg < 10.0:
            continue
        fld = pm.semiclassical_field(geometry, atom, (zi, rhoi), t_early)
        theta1 = np.arcsin(min(rhoi / r1, 1.0))
        free = free_space.electric_amplitude(atom, r1, theta1, t_early)
        scale = max(abs(free), 1.0)
        early_dev = max(early_dev, abs(fld.spherical - free) / scale)
        plane_ok = plane_ok and fld.plane == 0.0

    ok = axis_ok and overlap < 0.01 and support_fraction < 0.01 and early_dev <= 1e-12 and plane_ok
    record_acceptance(
        9,
        ok,
        f"axis null {axis_ok}, overlap fraction {overlap:.2%} / support "
        f"{support_fraction:.2%} (< 1%), early-time dev {early_dev:.1e} (<= 1e-12)",
    )
    assert axis_ok
    assert overlap < 0.01
    assert support_fraction < 0.01
    assert early_dev <= 1e-12
    assert plane_ok


def test_criterion_10_cli_determinism_and_goldens(tmp_path):
    """Every scenario: two runs byte-identical and within tolerance of the golden file.

    The golden comparison is the cross-environment contract of golden_check.
    """
    configs = sorted(GOLDEN_DIR.glob("*.cfg"))
    assert len(configs) == len(cli.SCENARIOS), "one golden config per scenario expected"
    stale = []
    for cfg in configs:
        out_a = tmp_path / (cfg.stem + "_a.csv")
        out_b = tmp_path / (cfg.stem + "_b.csv")
        code, ode_bound = run_config(cfg, out_a)
        assert code == 0
        assert cli.main(["run", str(cfg), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), f"{cfg.stem}: runs differ"
        golden = read_table(GOLDEN_DIR / (cfg.stem + ".csv"))
        if table_mismatches(read_table(out_a), golden, ode_bound):
            stale.append(cfg.stem)
    ok = not stale
    record_acceptance(
        10,
        ok,
        f"{len(configs)} scenarios deterministic; golden mismatches: {stale or 'none'}",
    )
    assert not stale
