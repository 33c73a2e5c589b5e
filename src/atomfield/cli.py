"""Config-driven scenario runner with CSV output.

Config files are flat ``key = value`` text; ``#`` starts a comment.  Every
scenario writes a deterministic CSV: ``#``-prefixed metadata lines, a header
row, then data rows with 17 significant digits (bit-exact round trip).

Exit codes: 0 success, 1 validation error (a config key, or a physics-domain
guard the parameters break), 2 numerical non-convergence, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from math import isfinite, pi, sqrt
from typing import Any, Callable, Sequence

import numpy as np

from . import free_space, jcp, parabolic_mirror, spherical_cavity
from .numerics import QuadratureError, QuadratureSpec

__all__ = [
    "ScenarioConfig",
    "ResultTable",
    "ConfigError",
    "SCENARIOS",
    "parse_config",
    "run_scenario",
    "write_table",
    "build_parser",
    "main",
]


class ConfigError(ValueError):
    """Invalid scenario configuration; `errors` lists every problem found."""

    def __init__(self, errors: Sequence[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    params: dict[str, Any]
    output: str | None = None


@dataclass(frozen=True)
class ResultTable:
    columns: list[str]
    rows: list[tuple]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("rows must match the column count")


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _table(metadata: dict[str, str], **columns) -> ResultTable:
    """Table of whole columns, named and ordered by keyword; its rows hold
    Python ints and floats.  Raises FloatingPointError naming each column
    that holds a non-finite value."""
    arrays = {name: np.asarray(c) for name, c in columns.items()}
    bad = [name for name, a in arrays.items() if not np.isfinite(a).all()]
    if bad:
        raise FloatingPointError(f"non-finite values in column(s) {', '.join(bad)}")
    return ResultTable(list(arrays), list(zip(*(a.tolist() for a in arrays.values()))), metadata)


def _ascending(p: dict[str, Any], low: str, high: str) -> None:
    if not p[low] < p[high]:
        raise ValueError(f"{low} = {p[low]:g} must be below {high} = {p[high]:g}")


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], Any]
    default: Any = None  # None and required=True -> must be present
    required: bool = False
    check: Callable[[Any], bool] | None = None
    describe: str = ""


def _pos(v) -> bool:
    return v > 0


def _nonneg(v) -> bool:
    return v >= 0


_COMMON_KEYS: dict[str, _Key] = {
    "output": _Key(str, default=None, describe="output CSV path (overridden by --out)"),
}

SCENARIOS: dict[str, dict[str, _Key]] = {
    "jcp-vacuum": {
        "detuning": _Key(float, default=0.0, describe="Delta / |g|"),
        "t_max": _Key(float, default=4 * pi, check=_pos, describe="end time in 1/|g|"),
        "samples": _Key(int, default=401, check=lambda v: v >= 2),
    },
    "jcp-inversion": {
        "mean_n": _Key(float, required=True, check=_nonneg, describe="coherent <n>"),
        "detuning": _Key(float, default=0.0),
        "t_max": _Key(float, default=None, check=_pos, describe="end time in 1/|g|; default 3 T_r"),
        "samples": _Key(int, default=601, check=lambda v: v >= 2),
    },
    "free-decay": {
        "band_width": _Key(float, default=40.0, check=_pos, describe="mode band in Gamma"),
        "spacing": _Key(float, default=0.02, check=_pos, describe="mode spacing in Gamma"),
        "t_max": _Key(float, default=4.0, check=_pos, describe="end time in 1/Gamma"),
        "samples": _Key(int, default=201, check=lambda v: v >= 2),
        "omega_over_gamma": _Key(float, default=1e3, check=lambda v: v >= 10),
    },
    "free-wavepacket": {
        "omega_over_gamma": _Key(float, default=1e3, check=lambda v: v >= 10),
        "time": _Key(float, default=1.0, check=_pos, describe="snapshot time in 1/Gamma"),
        "n_r": _Key(int, default=80, check=lambda v: v >= 2),
        "n_theta": _Key(int, default=9, check=lambda v: v >= 2),
    },
    "sphere-revival": {
        "gamma_R": _Key(float, required=True, check=_pos, describe="Gamma R / c"),
        "t_max_R": _Key(float, default=6.0, check=_pos, describe="end time in R/c"),
        "samples": _Key(int, default=601, check=lambda v: v >= 2),
        "with_ode": _Key(_parse_bool, default=False, describe="add the finite-band column p_e_ode"),
        "band_width": _Key(float, default=400.0, check=_pos, describe="finite band in Gamma"),
        "omega_over_gamma": _Key(float, default=1e3, check=lambda v: v >= 10),
    },
    "parabola-eta": {
        "k_per_mm": _Key(float, required=True, check=_pos, describe="wave number in 1/mm"),
        "f_mm": _Key(float, default=2.0, check=_pos, describe="focal length in mm"),
        "z_min_mm": _Key(float, default=0.0, check=_nonneg, describe="start height above vertex"),
        "z_max_mm": _Key(float, default=8.0, check=_pos),
        "samples": _Key(int, default=401, check=lambda v: v >= 2),
        "rel_tol": _Key(float, default=1e-10, check=_pos, describe="probe quadrature relative tolerance"),
        "abs_tol": _Key(float, default=1e-13, check=_pos, describe="probe quadrature absolute tolerance"),
    },
    "parabola-field": {
        "f": _Key(float, default=10.0, check=_pos, describe="focal length in c/Gamma"),
        "omega_f": _Key(float, default=500.0, check=lambda v: v >= 50, describe="omega_eg f / c"),
        "time": _Key(float, default=25.0, describe="snapshot time in 1/Gamma"),
        "z_min": _Key(float, default=0.5, check=_nonneg),
        "z_max": _Key(float, default=30.0, check=_pos),
        "n_z": _Key(int, default=40, check=lambda v: v >= 2),
        "rho_max": _Key(float, default=None, check=_pos, describe="default 2 f"),
        "n_rho": _Key(int, default=30, check=lambda v: v >= 2),
    },
}


def _schema(scenario: str) -> dict[str, _Key]:
    return {**SCENARIOS[scenario], **_COMMON_KEYS}


def parse_config(text: str, overrides: Sequence[str] = ()) -> ScenarioConfig:
    """Parse and fully validate a key-value config; reports every error found."""
    errors: list[str] = []
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value
    for ov in overrides:
        if "=" not in ov:
            errors.append(f"override {ov!r}: expected key=value")
            continue
        key, value = (part.strip() for part in ov.split("=", 1))
        raw[key] = value

    scenario = raw.pop("scenario", None)
    if scenario is None:
        errors.append("missing required key 'scenario'")
    elif scenario not in SCENARIOS:
        errors.append(
            f"unknown scenario {scenario!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
        scenario = None
    if scenario is None:
        raise ConfigError(errors)

    schema = _schema(scenario)
    params: dict[str, Any] = {}
    for key, spec in schema.items():
        if key in raw:
            text_value = raw.pop(key)
            try:
                value = spec.parse(text_value)
            except ValueError:
                errors.append(f"key {key!r}: cannot parse value {text_value!r}")
                continue
            if isinstance(value, float) and not isfinite(value):
                errors.append(f"key {key!r}: value {text_value!r} is not a finite number")
                continue
            if spec.check is not None and not spec.check(value):
                errors.append(f"key {key!r}: value {text_value!r} out of range")
                continue
            params[key] = value
        elif spec.required:
            errors.append(f"missing required key {key!r} for scenario {scenario!r}")
        else:
            params[key] = spec.default
    for key in sorted(raw):
        errors.append(f"unknown key {key!r} for scenario {scenario!r}")
    if errors:
        raise ConfigError(errors)
    output = params.pop("output")
    return ScenarioConfig(scenario=scenario, params=params, output=output)


def _meta(config: ScenarioConfig) -> dict[str, str]:
    meta = {"scenario": config.scenario, "format_version": "1"}
    for key in sorted(config.params):
        value = config.params[key]
        meta[key] = _num(value) if isinstance(value, float) else str(value)
    return meta


def _run_jcp_vacuum(config: ScenarioConfig) -> ResultTable:
    p = config.params
    params = jcp.JcpParams(coupling=1.0, detuning=p["detuning"], field=jcp.FieldDistribution.vacuum())
    times = np.linspace(0.0, p["t_max"], p["samples"])
    trace = jcp.inversion(params, times)
    return _table(_meta(config), t=trace.times, w=trace.w)


def _run_jcp_inversion(config: ScenarioConfig) -> ResultTable:
    p = config.params
    fieldstate = jcp.FieldDistribution.coherent(sqrt(p["mean_n"]))
    params = jcp.JcpParams(coupling=1.0, detuning=p["detuning"], field=fieldstate)
    t_max = p["t_max"]
    if t_max is None:
        t_max = 3.0 * 2.0 * pi * sqrt(p["mean_n"] + 1.0)
    times = np.linspace(0.0, t_max, p["samples"])
    trace = jcp.inversion(params, times)
    meta = _meta(config)
    meta["t_max_used"] = _num(t_max)
    return _table(meta, t=trace.times, w=trace.w)


def _run_free_decay(config: ScenarioConfig) -> ResultTable:
    p = config.params
    atom = free_space.TwoLevelAtom.from_linewidth(1.0, p["omega_over_gamma"])
    times = np.linspace(0.0, p["t_max"], p["samples"])
    trace = free_space.wigner_weisskopf_ode(
        atom, times, band_width=p["band_width"], mode_spacing=p["spacing"]
    )
    meta = _meta(config)
    meta["norm_drift"] = _num(float(np.max(np.abs(trace.norm - 1.0))))
    return _table(
        meta, t=trace.times, p_e=trace.excited_population, p_pole=np.exp(-trace.times)
    )


def _run_free_wavepacket(config: ScenarioConfig) -> ResultTable:
    p = config.params
    atom = free_space.TwoLevelAtom.from_linewidth(1.0, p["omega_over_gamma"])
    t = p["time"]
    r_min = 10.0 / atom.omega_eg
    if not t > r_min:
        raise ValueError(
            f"time = {t:g} must exceed 10 / omega_eg = {r_min:g}, where the radius grid starts"
        )
    r = np.linspace(r_min, t, p["n_r"])
    theta = np.linspace(0.0, pi, p["n_theta"])
    fmap = free_space.field_map(atom, r, theta, t)
    return _table(
        _meta(config),
        r=fmap.points[:, 0],
        theta=fmap.points[:, 1],
        re_amplitude=fmap.amplitude.real,
        im_amplitude=fmap.amplitude.imag,
        energy_density=fmap.energy_density,
    )


def _run_sphere_revival(config: ScenarioConfig) -> ResultTable:
    p = config.params
    atom = free_space.TwoLevelAtom.from_linewidth(1.0, p["omega_over_gamma"])
    cavity = spherical_cavity.SphericalCavity(radius=p["gamma_R"], atom=atom)
    t_max = p["t_max_R"] * cavity.radius
    times = np.linspace(0.0, t_max, p["samples"])
    p_closed = spherical_cavity.excited_probability_closed_form(cavity, times)
    meta = _meta(config)
    if p["with_ode"]:
        trace = spherical_cavity.evolve_cavity_ode(cavity, times, band_width=p["band_width"])
        meta["norm_drift"] = _num(float(np.max(np.abs(trace.norm - 1.0))))
        return _table(meta, t=times, p_e=p_closed, p_e_ode=trace.excited_population)
    return _table(meta, t=times, p_e=p_closed)


def _run_parabola_eta(config: ScenarioConfig) -> ResultTable:
    p = config.params
    _ascending(p, "z_min_mm", "z_max_mm")
    geometry = parabolic_mirror.ParabolicGeometry(
        focal_length=p["f_mm"], wavenumber=p["k_per_mm"]
    )
    profile = parabolic_mirror.rate_profile(
        geometry, (p["z_min_mm"], p["z_max_mm"]), p["samples"]
    )
    meta = _meta(config)
    # cross-check the closed form against the quadrature at a probe height
    # where the oscillatory integral is still cheap
    z_probe = min(p["z_max_mm"], 50.0 / p["k_per_mm"])
    spec = QuadratureSpec(rel_tol=p["rel_tol"], abs_tol=p["abs_tol"])
    eta_q, err = parabolic_mirror.eta_quadrature(geometry, (0.0, 0.0, z_probe), spec)
    meta["probe_z_mm"] = _num(z_probe)
    meta["probe_quadrature_error"] = _num(err)
    meta["probe_closed_vs_quadrature"] = _num(
        abs(eta_q - parabolic_mirror.on_axis_eta(geometry, z_probe))
    )
    return _table(meta, z_mm=profile.positions, eta=profile.eta)


def _run_parabola_field(config: ScenarioConfig) -> ResultTable:
    p = config.params
    _ascending(p, "z_min", "z_max")
    f = p["f"]
    omega = p["omega_f"] / f
    atom = free_space.TwoLevelAtom.from_linewidth(1.0, omega)
    geometry = parabolic_mirror.ParabolicGeometry(focal_length=f, wavenumber=omega)
    rho_max = p["rho_max"] if p["rho_max"] is not None else 2.0 * f
    z = np.linspace(p["z_min"], p["z_max"], p["n_z"])
    rho = np.linspace(0.0, rho_max, p["n_rho"])
    fmap = parabolic_mirror.field_map(geometry, atom, z, rho, p["time"])
    meta = _meta(config)
    meta["rho_max_used"] = _num(rho_max)
    return _table(
        meta,
        z=fmap.points[:, 0],
        rho=fmap.points[:, 1],
        re_spherical=fmap.spherical.real,
        im_spherical=fmap.spherical.imag,
        re_plane=fmap.plane.real,
        im_plane=fmap.plane.imag,
        energy_density=fmap.energy_density,
        near_boundary=fmap.flags.astype(int),
    )


_RUNNERS = {
    "jcp-vacuum": _run_jcp_vacuum,
    "jcp-inversion": _run_jcp_inversion,
    "free-decay": _run_free_decay,
    "free-wavepacket": _run_free_wavepacket,
    "sphere-revival": _run_sphere_revival,
    "parabola-eta": _run_parabola_eta,
    "parabola-field": _run_parabola_field,
}


def run_scenario(config: ScenarioConfig) -> ResultTable:
    """Dispatch a validated config to its physics module; deterministic output.

    Raises FloatingPointError if a data value comes out non-finite: the
    parameters then over- or underflow double precision somewhere.
    """
    try:
        return _RUNNERS[config.scenario](config)
    except QuadratureError as exc:
        raise QuadratureError(
            f"scenario {config.scenario!r}: {exc}", exc.estimate, exc.achieved_error
        ) from exc


def write_table(table: ResultTable, path: str) -> None:
    """Write CSV: '#' metadata lines, header row, then the data rows.

    Rows are streamed through one template per table, built from the first
    row: ``%s`` for an ``int`` value, else 17 significant digits (``%.17g``).
    """
    head = [f"# {key} = {table.metadata[key]}\n" for key in sorted(table.metadata)]
    head.append(",".join(table.columns) + "\n")
    first = table.rows[0] if table.rows else ()
    template = ",".join("%s" if isinstance(v, int) else "%.17g" for v in first) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(head)
            handle.writelines(map(template.__mod__, table.rows))
    except OSError as exc:
        raise OSError(f"cannot write table to {path!r}: {exc}") from exc


def read_table(path: str) -> ResultTable:
    """Re-parse a written CSV (metadata, header, float rows)."""
    metadata: dict[str, str] = {}
    columns: list[str] = []
    rows: list[tuple] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()
            elif not columns:
                columns = line.split(",")
            else:
                rows.append(tuple(float(v) for v in line.split(",")))
    return ResultTable(columns, rows, metadata)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomfield",
        description="Two-level atom + quantized field scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario config and write CSV")
    run_p.add_argument("config", help="path to the key-value config file")
    run_p.add_argument("--out", help="output CSV path (overrides the config)")
    run_p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    sub.add_parser("list-scenarios", help="print the known scenarios")
    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("config", help="path to the key-value config file")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-scenarios":
        for name in sorted(SCENARIOS):
            keys = ", ".join(sorted(SCENARIOS[name]))
            print(f"{name}: {keys}")
        return 0
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    overrides = getattr(args, "override", [])
    try:
        config = parse_config(text, overrides)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print(f"valid {config.scenario} config")
        return 0
    out = args.out or config.output
    if out is None:
        print("error: no output path (use --out or the 'output' config key)", file=sys.stderr)
        return 1
    try:
        table = run_scenario(config)
    except ValueError as exc:  # a physics-domain guard of the library
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # parameters that over- or underflow double precision
        print(f"config error: parameters out of double-precision range: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a work size whose arrays cannot be allocated
        sizes = ", ".join(
            f"{key} = {value}"
            for key, value in sorted(config.params.items())
            if isinstance(value, int) and not isinstance(value, bool)
        )
        print(f"config error: work too large for memory ({sizes}): {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # QuadratureError
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    try:
        write_table(table, out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(table.rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
