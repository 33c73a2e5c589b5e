"""Seeded generators of CLI scenario configs, grouped into workloads.

A workload is a mix of config kinds; its batch holds `count * units`
configs of each kind.  Every config has a size position `s` in [0, 1]; sizes
run log-uniformly from the golden config's size (s = 0) to the workload's
large end (s = 1).  Run time grows steeply with size, so the sizes of a kind
sit on an evenly spaced grid over [0, 1], both ends included, and every
parameter that sets the amount of work (mode count, horizon, grid, samples)
follows the size: every batch then costs about the same whatever the seed.
The seed draws the other (secondary) parameters, one value per equal
stratum of its range (a Latin hypercube), and the order of the configs.
The same seed always gives byte-identical configs; another seed gives
different ones.

The ranges stay inside the physics-domain guards of the scenarios, so they
never reach the inputs that currently end in a traceback instead of a
validation error (`free-decay` with spacing > Gamma / 20 or t_max beyond the
recurrence time, `parabola-field` with omega_f / f < 10).  The `free-decay`
ranges also stop short of the guards' boundaries (band_width >= 20.5 > 20
Gamma, spacing <= 0.048 < Gamma / 20): Gamma is computed with rounding and
comes out one ulp off 1 for some omega_over_gamma, and the guards then
reject the boundary values themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

__all__ = ["Config", "Kind", "KINDS", "WORKLOADS", "batch", "warmup_configs"]


@dataclass(frozen=True)
class Config:
    """One generated scenario config: its kind, its key-value text and values."""

    kind: str
    values: dict[str, str]

    @property
    def scenario(self) -> str:
        return self.values["scenario"]

    @property
    def text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.values.items())

    def number(self, key: str) -> float:
        return float(self.values[key])


@dataclass(frozen=True)
class Kind:
    """A config family: scenario name, secondary dimensions, and the map from
    stratified positions (size `s` plus one per secondary) to key values."""

    scenario: str
    secondaries: tuple[str, ...]
    draw: Callable[[dict[str, float]], dict[str, float | int | str]]


def _log(lo: float, hi: float, x: float) -> float:
    return lo * (hi / lo) ** x


def _lin(lo: float, hi: float, x: float) -> float:
    return lo + (hi - lo) * x


def _fmt(value: float | int | str) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


KINDS: dict[str, Kind] = {
    # multimode ODE over the sphere's resonant ladder, long horizon: step-bound
    "sphere-ode": Kind(
        "sphere-revival",
        ("omega_over_gamma",),
        lambda u: {
            "gamma_R": _log(0.5, 0.9, u["s"]),
            "t_max_R": _lin(4.0, 6.5, u["s"]),
            "samples": round(_log(101, 301, u["s"])),
            "with_ode": "true",
            "band_width": _lin(600.0, 700.0, u["s"]),
            "omega_over_gamma": _log(1e3, 1e4, u["omega_over_gamma"]),
        },
    ),
    # multimode ODE over a fine continuum band, short horizon: mode-bound
    "free-decay": Kind(
        "free-decay",
        ("omega_over_gamma",),
        lambda u: {
            "band_width": _lin(20.5, 40.0, u["s"]),
            "spacing": _log(0.048, 0.01, u["s"]),
            "t_max": _lin(2.0, 8.0, u["s"]),
            "samples": round(_log(41, 401, u["s"])),
            "omega_over_gamma": _log(1e2, 1e4, u["omega_over_gamma"]),
        },
    ),
    # exact-rational echo series, up to about 20 echoes
    "sphere-series": Kind(
        "sphere-revival",
        ("gamma_R",),
        lambda u: {
            "gamma_R": _log(0.5, 3.0, u["gamma_R"]),
            "t_max_R": _log(10.0, 40.0, u["s"]),
            "samples": round(_log(500, 2000, u["s"])),
        },
    ),
    # coherent-state ladder sum, dense cos(outer)
    "jcp-inversion": Kind(
        "jcp-inversion",
        ("detuning",),
        lambda u: {
            "mean_n": _log(1.0, 1e4, u["s"]),
            "detuning": _lin(0.0, 1.0, u["detuning"]),
            "samples": round(_log(121, 2000, u["s"])),
        },
    ),
    # per-point two-ray field map
    "parabola-field": Kind(
        "parabola-field",
        ("f", "omega_f", "time"),
        lambda u: {
            "f": _lin(8.0, 16.0, u["f"]),
            "omega_f": _lin(250.0, 1000.0, u["omega_f"]),
            "time": _lin(5.0, 60.0, u["time"]),
            "n_z": round(_log(12, 200, u["s"])),
            "n_rho": round(_log(10, 200, u["s"])),
        },
    ),
    # vectorised field map, large CSV: isolates table formatting
    "free-wavepacket": Kind(
        "free-wavepacket",
        ("omega_over_gamma", "time"),
        lambda u: {
            "omega_over_gamma": _log(1e2, 1e4, u["omega_over_gamma"]),
            "time": _lin(0.5, 5.0, u["time"]),
            "n_r": round(_log(12, 400, u["s"])),
            "n_theta": round(_log(5, 90, u["s"])),
        },
    ),
    # on-axis rate profile plus one quadrature probe
    "parabola-eta": Kind(
        "parabola-eta",
        ("k_per_mm", "f_mm", "z_max_mm"),
        lambda u: {
            "k_per_mm": _log(0.5, 100.0, u["k_per_mm"]),
            "f_mm": _lin(1.0, 4.0, u["f_mm"]),
            "z_max_mm": _lin(4.0, 12.0, u["z_max_mm"]),
            "samples": round(_log(41, 20001, u["s"])),
        },
    ),
}

# configs of each kind per batch unit; one unit took 4.5-8 s at the seed
# commit, and a run of S seconds draws round(S / 5.3) units (3 for 16 s)
WORKLOADS: dict[str, dict[str, int]] = {
    "echo-ode": {"sphere-ode": 10},
    "continuum-ode": {"free-decay": 15},
    "echo-series": {"sphere-series": 7, "jcp-inversion": 7},
    "field-maps": {"parabola-field": 10, "free-wavepacket": 10, "parabola-eta": 10},
}


def _grid(n: int) -> list[float]:
    """n evenly spaced sizes from 0 to 1, both ends included."""
    return [i / (n - 1) for i in range(n)] if n > 1 else [1.0]


def _strata(rng: random.Random, n: int) -> list[float]:
    """n positions in [0, 1], one per equal stratum, in random order."""
    values = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _make(kind_name: str, u: dict[str, float]) -> Config:
    kind = KINDS[kind_name]
    values = {"scenario": kind.scenario}
    values.update((key, _fmt(value)) for key, value in kind.draw(u).items())
    return Config(kind_name, values)


def batch(workload: str, seed: int, units: int = 1) -> list[Config]:
    """The workload's batch for `seed`: `units` times its mix, in random order."""
    rng = random.Random(f"{workload}:{seed}")
    configs = []
    for kind_name, count in WORKLOADS[workload].items():
        n = count * units
        dims = {"s": _grid(n)}
        for name in KINDS[kind_name].secondaries:
            dims[name] = _strata(rng, n)
        configs += [_make(kind_name, {d: pos[i] for d, pos in dims.items()}) for i in range(n)]
    rng.shuffle(configs)
    return configs


def warmup_configs(workload: str, seed: int) -> list[Config]:
    """One golden-size (s = 0) config per kind, run untimed before timing."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    out = []
    for kind_name in WORKLOADS[workload]:
        u = {"s": 0.0, **{name: rng.random() for name in KINDS[kind_name].secondaries}}
        out.append(_make(kind_name, u))
    return out
