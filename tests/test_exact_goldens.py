"""Golden columns against the exact answer, from the CSV's own float inputs.

`golden_check` promises every environment within K eps S of the stored
golden; this states how far the goldens themselves are from the physics.
Each column is recomputed by its `exact.py` reference and must lie within
K eps (S + C) of it, with S = max |column| and C the column's condition
scale: sum_j |w_j lambda_j t| at the largest t for a cosine sum (the
jcp ladder and the flat band), max |omega u| |A| for a packet amplitude A
at the retarded time u, 0 for the rest.  A golden with more than
one column checked has one row per column, `golden.column`.  The distances
measured are recorded in `golden/PROVENANCE.md`; a column beyond its bound
is a finding, not a bound to widen.
"""

from functools import partial
from math import ceil, pi, sqrt
from pathlib import Path

import numpy as np
import pytest

import exact
from atomfield import multimode
from golden_check import EPS, K, read_table

GOLDEN = Path(__file__).resolve().parent / "golden"


def _sphere_revival(table):
    t, p_e = table.data
    return p_e, exact.sphere_excited_probability(float(table.metadata["gamma_R"]), t), 0.0


def _parabola_eta(table):
    # a = k z as the closed form rounds it
    z, eta = table.data
    return eta, exact.on_axis_eta(float(table.metadata["k_per_mm"]) * z), 0.0


def _jcp_vacuum(table):
    # one pair, n = 0: w = (delta^2 + 4 cos(Omega t)) / Omega^2
    t, w = table.data
    detuning = float(table.metadata["detuning"])
    omega = sqrt(detuning**2 + 4.0)
    condition = 4.0 / omega * np.max(np.abs(t))
    return w, exact.jcp_inversion(detuning, [1.0], [0], t), condition


def _jcp_inversion(table):
    # the exact Poisson weights over n = 0 .. 79, whose tail beyond is below
    # 1e-72 at <n> = 4; C = sum_n p_n 4 (n + 1) / Omega_n max |t|
    t, w = table.data
    detuning = float(table.metadata["detuning"])
    n = np.arange(80)
    p = exact.poisson_weights(float(table.metadata["mean_n"]), n)
    omega = np.sqrt(detuning**2 + 4.0 * (n + 1))
    condition = float(np.sum(p * 4.0 * (n + 1) / omega)) * np.max(np.abs(t))
    return w, exact.jcp_inversion(detuning, p, n, t), condition


def _free_decay_p_e(table):
    # the exact band: the 2n + 1 modes and the coupling ratio 1 / (2 pi s)
    # of `_flat_band` at Gamma = 1, its n + 1 upper roots and weights at 40
    # digits (the library's roots only seed the Newton steps), and
    # p_e = (sum_j 2 w_j cos(s x_j t))^2; C = sum_j |2 w_j s x_j| max |t|
    t, p_e, _ = table.data
    spacing = float(table.metadata["spacing"])
    n, ratio = ceil(float(table.metadata["band_width"]) / 2.0 / spacing), 1.0 / (2.0 * pi * spacing)
    x, w = exact.flat_band_spectrum(n, ratio, multimode._flat_band_spectrum(n, ratio)[0], range(n + 1))
    condition = float(np.sum(np.abs(2.0 * w * spacing * x))) * np.max(np.abs(t))
    return p_e, exact.dense_cos_sum(2.0 * w, spacing * x, t) ** 2, condition


def _free_decay_p_pole(table):
    # the pole approximation e^{-Gamma t} at Gamma = 1, in long double
    t, _, p_pole = table.data
    return p_pole, np.exp(-np.asarray(t, np.longdouble)), 0.0


def _phase_condition(omega, t, path, amplitude):
    # a packet's phase omega u, u = |t| - path, is rounded as double
    # arithmetic rounds it, which moves the amplitude A by eps |omega u| |A|
    return float(np.max(np.abs(omega * (abs(t) - path)) * np.abs(amplitude)))


def _free_wavepacket(table, column):
    # Gamma = 1 and omega = omega_over_gamma; C = max |omega u| |A| for the
    # amplitude, 0 for the energy density
    r, theta = table.data[:2]
    omega, t = float(table.metadata["omega_over_gamma"]), float(table.metadata["time"])
    amplitude, density = exact.free_packet(omega, 1.0, t, r, theta)
    got = table.data[table.columns.index(column)]
    if column == "energy_density":
        return got, density, 0.0
    want = amplitude.real if column == "re_amplitude" else amplitude.imag
    return got, want, _phase_condition(omega, t, r, amplitude)


def _parabola_field(table, column):
    # Gamma = 1 and omega = omega_f / f as the runner rounds it; each ray's
    # columns take C = max |omega u| |A| on its own path (r1 from the focus
    # for the direct ray, z + f for the reflected one), the energy density
    # and the 0/1 flag C = 0, so a flipped flag is out of bounds
    z, rho = table.data[:2]
    f, t = float(table.metadata["f"]), float(table.metadata["time"])
    omega = float(table.metadata["omega_f"]) / f
    spherical, plane, density, flags = exact.two_ray_packet(omega, 1.0, f, t, z, rho)
    got = table.data[table.columns.index(column)]
    if column in ("energy_density", "near_boundary"):
        return got, density if column == "energy_density" else flags, 0.0
    part, _, ray = column.partition("_")
    amplitude, path = (spherical, np.hypot(z - f, rho)) if ray == "spherical" else (plane, z + f)
    want = amplitude.real if part == "re" else amplitude.imag
    return got, want, _phase_condition(omega, t, path, amplitude)


REFERENCES = {
    "sphere-revival": _sphere_revival,
    "parabola-eta": _parabola_eta,
    "jcp-vacuum": _jcp_vacuum,
    "jcp-inversion": _jcp_inversion,
    "free-decay.p_e": _free_decay_p_e,
    "free-decay.p_pole": _free_decay_p_pole,
    **{
        f"free-wavepacket.{column}": partial(_free_wavepacket, column=column)
        for column in ("re_amplitude", "im_amplitude", "energy_density")
    },
    **{
        f"parabola-field.{column}": partial(_parabola_field, column=column)
        for column in (
            "re_spherical", "im_spherical", "re_plane", "im_plane", "energy_density", "near_boundary",
        )
    },
}


@pytest.mark.parametrize("name", REFERENCES)
def test_golden_column_is_near_the_exact_answer(name):
    golden = name.partition(".")[0]
    got, want, condition = REFERENCES[name](read_table(GOLDEN / f"{golden}.csv"))
    scale = np.max(np.abs(got))
    assert np.max(np.abs(got - want)) <= K * EPS * (scale + condition)
