"""Output checks for generated scenario runs.

Each CSV first gets a header and row-count check and cheap whole-table
checks (grid columns, identities between columns, bounds).  Then a seeded
sample of rows is compared with an independent route:

- sphere-revival: the echo sum in mpmath at 60 digits;
- jcp-inversion: the coherent ladder in mpmath at 30 digits;
- parabola-eta: `eta_quadrature` at the row's height;
- parabola-field: the scalar `semiclassical_field` at the row's point;
- free-wavepacket: energy_density = 2 |amplitude|^2 and its closed form;
- free-decay: the fitted decay rate, as in acceptance criterion 3, against
  the band-limited rate Gamma (1 + 2 Gamma / (pi B)).

Tolerances are no tighter than the acceptance criteria or the solver
tolerances, so an exact replacement algorithm passes.  `check` returns the
list of problems found; an empty list means the output is correct.
"""

from __future__ import annotations

import math
import random
import warnings
from functools import lru_cache
from math import pi, sqrt

import numpy as np

from .workloads import Config

__all__ = ["COLUMNS", "read_csv", "sampled_rows", "check"]

SAMPLED_ROWS = 5

COLUMNS = {
    "sphere-ode": ["t", "p_e", "p_e_ode"],
    "sphere-series": ["t", "p_e"],
    "jcp-inversion": ["t", "w"],
    "free-decay": ["t", "p_e", "p_pole"],
    "free-wavepacket": ["r", "theta", "re_amplitude", "im_amplitude", "energy_density"],
    "parabola-field": [
        "z", "rho", "re_spherical", "im_spherical", "re_plane", "im_plane",
        "energy_density", "near_boundary",
    ],
    "parabola-eta": ["z_mm", "eta"],
}


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a written table; metadata lines are skipped."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line and not line.startswith("#")]
    if not lines:
        return [], np.empty((0, 0))
    header = lines[0].split(",")
    cells = ",".join(lines[1:]).split(",") if len(lines) > 1 else []
    if len(cells) != len(header) * (len(lines) - 1):
        raise ValueError("ragged rows")
    return header, np.array(cells, dtype=float).reshape(len(lines) - 1, len(header))


def _close(name: str, got, want, rel: float, abs_: float) -> list[str]:
    got, want = np.asarray(got, float), np.asarray(want, float)
    bad = ~(np.abs(got - want) <= rel * np.abs(want) + abs_)
    if not np.any(bad):
        return []
    i = int(np.argmax(bad))
    return [
        f"{name}: {int(bad.sum())} value(s) off, first at index {i}: "
        f"{got.flat[i]!r} vs {want.flat[i]!r}"
    ]


def _grid(name: str, got, lo: float, hi: float, n: int) -> list[str]:
    return _close(name, got, np.linspace(lo, hi, n), 0.0, 1e-12 * max(abs(lo), abs(hi)))


def sampled_rows(seed: int, n_rows: int) -> list[int]:
    """The rows compared with the independent route for this seed."""
    return sorted(random.Random(seed).sample(range(n_rows), min(SAMPLED_ROWS, n_rows)))


# --- mpmath oracles ---------------------------------------------------------


@lru_cache(maxsize=64)
def _echo_coefficients(m: int):
    import mpmath as mp

    return [mp.binomial(m - 1, r) / mp.factorial(1 + r) for r in range(m)]


def _sphere_pe(radius: float, t: float) -> float:
    """P_e(t) for Gamma = 1: decay plus echo M at t >= 2 M R, in mpmath."""
    import mpmath as mp

    with mp.workdps(60):
        t_mp, rt = mp.mpf(t), 2 * mp.mpf(radius)
        amplitude = mp.exp(-t_mp / 2)
        m = 1
        while m * rt <= t_mp:
            u = t_mp - m * rt
            series = mp.fsum(c * (-u) ** (1 + r) for r, c in enumerate(_echo_coefficients(m)))
            amplitude += mp.exp(-u / 2) * series
            m += 1
        return float(amplitude**2)


def _jcp_ladder(mean: float, detuning: float):
    """Poisson weights, offsets, oscillation weights and Rabi frequencies."""
    import mpmath as mp

    width = 12.0 * sqrt(mean) + 20.0
    lo, hi = max(0, math.floor(mean - width)), math.ceil(mean + width)
    mean_mp, d2 = mp.mpf(mean), mp.mpf(detuning) ** 2
    terms = []
    for n in range(lo, hi + 1):
        p = mp.exp(-mean_mp + n * mp.log(mean_mp) - mp.loggamma(n + 1))
        omega2 = d2 + 4 * (n + 1)
        terms.append((p * d2 / omega2, p * 4 * (n + 1) / omega2, mp.sqrt(omega2)))
    return terms


def _jcp_w(terms, t: float) -> float:
    import mpmath as mp

    t_mp = mp.mpf(t)
    return float(mp.fsum(a + b * mp.cos(omega * t_mp) for a, b, omega in terms))


# --- per-kind checks ----------------------------------------------------------


def _check_sphere(cfg: Config, rows: np.ndarray, idx: list[int]) -> list[str]:
    radius = cfg.number("gamma_R")
    t, p = rows[:, 0], rows[:, 1]
    problems = _grid("t", t, 0.0, cfg.number("t_max_R") * radius, len(t))
    problems += _close("p_e range", np.clip(p, 0.0, 1.0), p, 0.0, 1e-12)
    early = t < 2.0 * radius
    # pure exponential before the first round trip (criterion 5's bound)
    problems += _close("p_e before the first echo", p[early], np.exp(-t[early]), 0.0, 1e-6)
    if cfg.kind == "sphere-ode":
        problems += _close("p_e vs p_e_ode", rows[:, 2], p, 0.0, 5e-3)
    want = [_sphere_pe(radius, float(t[i])) for i in idx]
    return problems + _close("p_e vs mpmath echo sum", p[idx], want, 0.0, 1e-6)


def _check_jcp(cfg: Config, rows: np.ndarray, idx: list[int]) -> list[str]:
    mean = cfg.number("mean_n")
    t, w = rows[:, 0], rows[:, 1]
    t_max = 3.0 * 2.0 * pi * sqrt(mean + 1.0)
    problems = _grid("t", t, 0.0, t_max, len(t))
    problems += _close("|w| <= 1", np.clip(w, -1.0, 1.0), w, 0.0, 1e-9)
    terms = _jcp_ladder(mean, cfg.number("detuning"))
    want = [_jcp_w(terms, float(t[i])) for i in idx]
    # criterion 1's closed-form bound
    return problems + _close("w vs mpmath ladder", w[idx], want, 0.0, 1e-7)


def _check_free_decay(cfg: Config, rows: np.ndarray, idx: list[int]) -> list[str]:
    t, p, pole = rows[:, 0], rows[:, 1], rows[:, 2]
    problems = _grid("t", t, 0.0, cfg.number("t_max"), len(t))
    problems += _close("p_pole", pole, np.exp(-t), 1e-12, 0.0)
    problems += _close("p_e range", np.clip(p, 0.0, 1.0), p, 0.0, 1e-12)
    window = (t >= 0.5) & (t <= 4.0)
    if window.sum() < 3 or not np.all(p[window] > 0):
        return problems + ["no positive p_e in the rate-fit window"]
    # A flat band of width B renormalises the golden-rule rate to
    # Gamma (1 + 2 Gamma / (pi B)); the fit must land within criterion 3's 2 %.
    expected = 1.0 + 2.0 / (pi * cfg.number("band_width"))
    rate = float(-np.polyfit(t[window], np.log(p[window]), 1)[0])
    if not abs(rate - expected) <= 0.02 * expected:
        problems.append(f"fitted decay rate {rate!r}, expected {expected!r} within 2 %")
    return problems


def _check_wavepacket(cfg: Config, rows: np.ndarray, idx: list[int]) -> list[str]:
    omega, time = cfg.number("omega_over_gamma"), cfg.number("time")
    n_r, n_theta = int(cfg.values["n_r"]), int(cfg.values["n_theta"])
    r_grid, th_grid = np.meshgrid(
        np.linspace(10.0 / omega, time, n_r), np.linspace(0.0, pi, n_theta), indexing="ij"
    )
    r, theta = rows[:, 0], rows[:, 1]
    amp2 = rows[:, 2] ** 2 + rows[:, 3] ** 2
    dens = rows[:, 4]
    problems = _close("r", r, r_grid.ravel(), 0.0, 1e-12 * time)
    problems += _close("theta", theta, th_grid.ravel(), 0.0, 1e-12)
    problems += _close("energy_density = 2|amplitude|^2", dens, 2.0 * amp2, 1e-12, 1e-300)
    closed = (3.0 * omega / (8.0 * pi)) * np.sin(theta) ** 2 / r**2 * np.exp(-(time - r))
    return problems + _close("energy_density closed form", dens, closed, 1e-12, 1e-300)


def _inside_points(cfg: Config) -> np.ndarray:
    """Grid points strictly inside the mirror and off the focus, z-major."""
    f = cfg.number("f")
    z, rho = np.meshgrid(
        np.linspace(0.5, 30.0, int(cfg.values["n_z"])),
        np.linspace(0.0, 2.0 * f, int(cfg.values["n_rho"])),
        indexing="ij",
    )
    z, rho = z.ravel(), rho.ravel()
    r1 = np.sqrt((z - f) ** 2 + rho**2)
    keep = (r1 != 0.0) & (0.5 * (r1 - (z - f)) < f)
    return np.column_stack((z[keep], rho[keep]))


def _check_parabola_field(cfg: Config, rows: np.ndarray, idx: list[int]) -> list[str]:
    from atomfield import free_space, parabolic_mirror as pm

    f, omega_f, time = cfg.number("f"), cfg.number("omega_f"), cfg.number("time")
    pts = _inside_points(cfg)
    if len(pts) != len(rows):
        return [f"{len(rows)} rows, expected {len(pts)} points inside the mirror"]
    z, rho = rows[:, 0], rows[:, 1]
    problems = _close("(z, rho)", rows[:, :2], pts, 0.0, 1e-12 * 30.0)
    sph = rows[:, 2] + 1j * rows[:, 3]
    pln = rows[:, 4] + 1j * rows[:, 5]
    r1 = np.sqrt((z - f) ** 2 + rho**2)
    dens = np.abs(sph) ** 2 + np.abs(pln) ** 2 + 2.0 * (sph * np.conj(pln)).real * (z - f) / r1
    scale = np.maximum(np.abs(sph) ** 2 + np.abs(pln) ** 2, 1.0)
    problems += _close("energy_density identity", rows[:, 6] / scale, dens / scale, 0.0, 1e-12)
    near = 0.5 * (r1 - (z - f)) >= 0.95 * f
    problems += _close("near_boundary", rows[:, 7], near.astype(float), 0.0, 0.0)
    omega = omega_f / f
    atom = free_space.TwoLevelAtom.from_linewidth(1.0, omega)
    geometry = pm.ParabolicGeometry(focal_length=f, wavenumber=omega)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fields = [pm.semiclassical_field(geometry, atom, (z[i], rho[i]), time) for i in idx]
    got = rows[idx, 2:7]
    want = np.array(
        [[fl.spherical.real, fl.spherical.imag, fl.plane.real, fl.plane.imag, fl.energy_density]
         for fl in fields]
    ).reshape(got.shape)
    # criterion 9's bound, relative to max(|value|, 1)
    scale = np.maximum(np.abs(want), 1.0)
    return problems + _close("two-ray field vs semiclassical_field", got / scale, want / scale, 0.0, 1e-12)


def _check_parabola_eta(cfg: Config, rows: np.ndarray, idx: list[int]) -> list[str]:
    from atomfield import parabolic_mirror as pm

    k = cfg.number("k_per_mm")
    z, eta = rows[:, 0], rows[:, 1]
    problems = _grid("z_mm", z, 0.0, cfg.number("z_max_mm"), len(z))
    a = k * z
    with np.errstate(divide="ignore", invalid="ignore"):
        far = 1.0 + 3.0 * np.cos(2.0 * a) / (4.0 * a * a) - 3.0 * np.sin(2.0 * a) / (8.0 * a**3)
    a2 = a * a
    series = a2 * (2.0 / 5.0 + a2 * (-2.0 / 35.0 + a2 * (4.0 / 945.0)))
    closed = np.where(a < 1e-2, series, far)
    # criterion 6's relative bound, with a floor for eta -> 0 at the vertex
    problems += _close("eta closed form", eta, closed, 1e-6, 1e-12)
    geometry = pm.ParabolicGeometry(focal_length=cfg.number("f_mm"), wavenumber=k)
    want = [pm.eta_quadrature(geometry, (0.0, 0.0, float(z[i])))[0] for i in idx]
    return problems + _close("eta vs eta_quadrature", eta[idx], want, 1e-6, 1e-12)


_CHECKS = {
    "sphere-ode": _check_sphere,
    "sphere-series": _check_sphere,
    "jcp-inversion": _check_jcp,
    "free-decay": _check_free_decay,
    "free-wavepacket": _check_wavepacket,
    "parabola-field": _check_parabola_field,
    "parabola-eta": _check_parabola_eta,
}


def _expected_rows(cfg: Config) -> int | None:
    if cfg.kind == "free-wavepacket":
        return int(cfg.values["n_r"]) * int(cfg.values["n_theta"])
    if cfg.kind == "parabola-field":
        return None  # counted against the inside points by its check
    return int(cfg.values["samples"])


def check(cfg: Config, csv_path: str, seed: int) -> list[str]:
    """Problems found in the CSV written for `cfg`; rows sampled from `seed`."""
    try:
        header, rows = read_csv(csv_path)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if header != COLUMNS[cfg.kind]:
        return [f"header {header} != {COLUMNS[cfg.kind]}"]
    expected = _expected_rows(cfg)
    if expected is not None and len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    if not np.all(np.isfinite(rows)):
        return ["non-finite values in the table"]
    return _CHECKS[cfg.kind](cfg, rows, sampled_rows(seed, len(rows)))
