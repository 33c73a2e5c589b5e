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
from dataclasses import dataclass
from functools import cache
from math import inf, isfinite, nextafter, pi
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
    output: str | None


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Named columns of one length (`data` holds one 1-D array per name) and
    the CSV's metadata lines.  An integer column must stay within +-2**53,
    where every integer is a double, so that its CSV cells are exact."""

    columns: list[str]
    data: tuple[np.ndarray, ...]
    metadata: dict[str, str]

    def __post_init__(self):
        data = tuple(np.asarray(a) for a in self.data)
        if len(data) != len(self.columns) or any(a.shape != data[0].shape or a.ndim != 1 for a in data):
            raise ValueError("a table needs one 1-D array per column, all of one length")
        if any(a.dtype.kind in "iu" and a.size and max(-int(a.min()), int(a.max())) > 2**53 for a in data):
            raise ValueError("an integer column holds a value beyond +-2**53, which a CSV cell would round")
        object.__setattr__(self, "data", data)

    @property
    def rows(self) -> list[tuple]:
        """The data rows as tuples of Python ints and floats, built on each call."""
        return list(zip(*(a.tolist() for a in self.data)))


def _num(x: float) -> str:
    return format(float(x), ".17g")


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
    default: Any = None  # the value of an absent key; a required key must be present
    required: bool = False
    check: Callable[[Any], bool] | None = None


def _pos(v) -> bool:
    return v > 0


def _nonneg(v) -> bool:
    return v >= 0


SCENARIOS: dict[str, dict[str, _Key]] = {}
_RUNNERS: dict[str, Callable[[dict[str, Any], dict[str, str]], dict[str, Any]]] = {}


def _scenario(name: str, **keys: _Key):
    """Declare scenario `name`, its config keys in order, on its runner, which
    takes (params, metadata), adds derived metadata and returns named columns."""

    def declare(runner):
        SCENARIOS[name], _RUNNERS[name] = keys, runner
        return runner

    return declare


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

    output = raw.pop("output", None)  # every scenario's output CSV path; --out overrides it
    params: dict[str, Any] = {}
    for key, spec in SCENARIOS[scenario].items():
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
    return ScenarioConfig(scenario=scenario, params=params, output=output)


@_scenario(
    "jcp-vacuum",
    detuning=_Key(float, default=0.0),  # Delta / |g|
    t_max=_Key(float, default=4 * pi, check=_pos),  # end time in 1/|g|
    samples=_Key(int, default=401, check=lambda v: v >= 2),
)
def _run_jcp_vacuum(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    params = jcp.JcpParams(detuning=p["detuning"], field=jcp.FieldDistribution.fock(0))
    times = np.linspace(0.0, p["t_max"], p["samples"])
    return dict(t=times, w=jcp.inversion(params, times).w)


@_scenario(
    "jcp-inversion",
    mean_n=_Key(float, required=True, check=_nonneg),  # coherent <n>
    detuning=_Key(float, default=0.0),
    t_max=_Key(float, default=None, check=_pos),  # end time in 1/|g|; default 3 T_r
    samples=_Key(int, default=601, check=lambda v: v >= 2),
)
def _run_jcp_inversion(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    fieldstate = jcp.FieldDistribution.coherent(p["mean_n"])
    params = jcp.JcpParams(detuning=p["detuning"], field=fieldstate)
    t_max = p["t_max"]
    if t_max is None:
        t_max = 3.0 * jcp.collapse_revival_times(p["mean_n"])[1]
    times = np.linspace(0.0, t_max, p["samples"])
    meta["t_max_used"] = _num(t_max)
    return dict(t=times, w=jcp.inversion(params, times).w)


@_scenario(
    "free-decay",
    band_width=_Key(float, default=40.0, check=_pos),  # mode band in Gamma
    spacing=_Key(float, default=0.02, check=_pos),  # mode spacing in Gamma
    t_max=_Key(float, default=4.0, check=_pos),  # end time in 1/Gamma
    samples=_Key(int, default=201, check=lambda v: v >= 2),
    omega_over_gamma=_Key(float, default=1e3, check=lambda v: v >= 10),
)
def _run_free_decay(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    atom = free_space.TwoLevelAtom.from_linewidth(1.0, p["omega_over_gamma"])
    times = np.linspace(0.0, p["t_max"], p["samples"])
    trace = free_space.wigner_weisskopf_ode(
        atom, times, band_width=p["band_width"], mode_spacing=p["spacing"]
    )
    meta["norm_drift"] = _num(float(np.max(np.abs(trace.norm - 1.0))))
    p_pole = np.abs(free_space.excited_amplitude(atom, times)) ** 2
    return dict(t=times, p_e=trace.excited_population, p_pole=p_pole)


@_scenario(
    "free-wavepacket",
    omega_over_gamma=_Key(float, default=1e3, check=lambda v: v >= 10),
    time=_Key(float, default=1.0, check=_pos),  # snapshot time in 1/Gamma
    n_r=_Key(int, default=80, check=lambda v: v >= 2),
    n_theta=_Key(int, default=9, check=lambda v: v >= 2),
)
def _run_free_wavepacket(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    atom = free_space.TwoLevelAtom.from_linewidth(1.0, p["omega_over_gamma"])
    t = p["time"]
    factor = free_space._RADIATION_ZONE_FACTOR
    r_min = factor / atom.omega_eg
    if not t > r_min:
        raise ValueError(
            f"time = {t:g} must exceed {factor:g} / omega_eg = {r_min:g},"
            " where the radius grid starts"
        )
    r = np.linspace(r_min, t, p["n_r"])
    theta = np.linspace(0.0, pi, p["n_theta"])
    fmap = free_space.field_map(atom, r, theta, t)
    return dict(
        r=fmap.points[:, 0],
        theta=fmap.points[:, 1],
        re_amplitude=fmap.amplitude.real,
        im_amplitude=fmap.amplitude.imag,
        energy_density=fmap.energy_density,
    )


@_scenario(
    "sphere-revival",
    gamma_R=_Key(float, required=True, check=_pos),  # Gamma R / c
    t_max_R=_Key(float, default=6.0, check=_pos),  # end time in R/c
    samples=_Key(int, default=601, check=lambda v: v >= 2),
    with_ode=_Key(_parse_bool, default=False),  # add the finite-band column p_e_ode
    band_width=_Key(float, default=400.0, check=_pos),  # finite band in Gamma
    omega_over_gamma=_Key(float, default=1e3, check=lambda v: v >= 10),
)
def _run_sphere_revival(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    atom = free_space.TwoLevelAtom.from_linewidth(1.0, p["omega_over_gamma"])
    cavity = spherical_cavity.SphericalCavity(radius=p["gamma_R"], atom=atom)
    t_max = p["t_max_R"] * cavity.radius
    times = np.linspace(0.0, t_max, p["samples"])
    p_closed = spherical_cavity.excited_probability_closed_form(cavity, times)
    if p["with_ode"]:
        trace = spherical_cavity.evolve_cavity_ode(cavity, times, band_width=p["band_width"])
        meta["norm_drift"] = _num(float(np.max(np.abs(trace.norm - 1.0))))
        return dict(t=times, p_e=p_closed, p_e_ode=trace.excited_population)
    return dict(t=times, p_e=p_closed)


@_scenario(
    "parabola-eta",
    k_per_mm=_Key(float, required=True, check=_pos),  # wave number in 1/mm
    f_mm=_Key(float, default=2.0, check=_pos),  # focal length in mm
    z_min_mm=_Key(float, default=0.0, check=_nonneg),  # start height above vertex
    z_max_mm=_Key(float, default=8.0, check=_pos),
    samples=_Key(int, default=401, check=lambda v: v >= 2),
    rel_tol=_Key(float, default=1e-10, check=_pos),  # probe quadrature relative tolerance
    abs_tol=_Key(float, default=1e-13, check=_pos),  # probe quadrature absolute tolerance
)
def _run_parabola_eta(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    _ascending(p, "z_min_mm", "z_max_mm")
    geometry = parabolic_mirror.ParabolicGeometry(
        focal_length=p["f_mm"], wavenumber=p["k_per_mm"]
    )
    profile = parabolic_mirror.rate_profile(
        geometry, (p["z_min_mm"], p["z_max_mm"]), p["samples"]
    )
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
    return dict(z_mm=profile.positions, eta=profile.eta)


@_scenario(
    "parabola-field",
    f=_Key(float, default=10.0, check=_pos),  # focal length in c/Gamma
    omega_f=_Key(float, default=500.0, check=lambda v: v >= 50),  # omega_eg f / c
    time=_Key(float, default=25.0),  # snapshot time in 1/Gamma
    z_min=_Key(float, default=0.5, check=_nonneg),
    z_max=_Key(float, default=30.0, check=_pos),
    n_z=_Key(int, default=40, check=lambda v: v >= 2),
    rho_max=_Key(float, default=None, check=_pos),  # default 2 f
    n_rho=_Key(int, default=30, check=lambda v: v >= 2),
)
def _run_parabola_field(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    _ascending(p, "z_min", "z_max")
    f = p["f"]
    omega = p["omega_f"] / f
    atom = free_space.TwoLevelAtom.from_linewidth(1.0, omega)
    geometry = parabolic_mirror.ParabolicGeometry(focal_length=f, wavenumber=omega)
    rho_max = p["rho_max"] if p["rho_max"] is not None else 2.0 * f
    z = np.linspace(p["z_min"], p["z_max"], p["n_z"])
    rho = np.linspace(0.0, rho_max, p["n_rho"])
    fmap = parabolic_mirror.field_map(geometry, atom, z, rho, p["time"])
    meta["rho_max_used"] = _num(rho_max)
    return dict(
        z=fmap.points[:, 0],
        rho=fmap.points[:, 1],
        re_spherical=fmap.spherical.real,
        im_spherical=fmap.spherical.imag,
        re_plane=fmap.plane.real,
        im_plane=fmap.plane.imag,
        energy_density=fmap.energy_density,
        near_boundary=fmap.flags.astype(int),
    )


def run_scenario(config: ScenarioConfig) -> ResultTable:
    """Dispatch a validated config to its physics module; deterministic output.
    The metadata echoes the config, plus what the scenario derives.

    Raises FloatingPointError naming each column that holds a non-finite
    value: the parameters then over- or underflow double precision somewhere.
    numpy's floating-point warnings are silenced, since that check reports them.
    """
    meta = {"scenario": config.scenario, "format_version": "1"}
    for key in sorted(config.params):
        value = config.params[key]
        meta[key] = _num(value) if isinstance(value, float) else str(value)
    try:
        with np.errstate(all="ignore"):
            columns = _RUNNERS[config.scenario](config.params, meta)
    except QuadratureError as exc:
        raise QuadratureError(
            f"scenario {config.scenario!r}: {exc}", exc.estimate, exc.achieved_error
        ) from exc
    table = ResultTable(list(columns), tuple(columns.values()), meta)
    bad = [name for name, a in zip(table.columns, table.data) if not np.isfinite(a).all()]
    if bad:
        raise FloatingPointError(f"non-finite values in column(s) {', '.join(bad)}")
    return table


# Float cells are written by integer arithmetic on whole columns, byte for
# byte what format(v, ".17g") gives (Steele & White, PLDI 1990; Adams,
# OOPSLA 2019).  A nonzero |v| = m 2**(q - 53) in [10**_LO, 10**(_HI + 1)),
# with m < 2**53, has the decimal exponent E = floor(log10 |v|) in
# [_LO, _HI]; for p = 16 - E, 5**p < 2**63 and m 5**p < 2**116, and the 17
# digits are D = m 5**p 2**(q - 53 + p) rounded half to even.  D never
# rounds up to 10**17 here: the largest double below each 10**(E + 1) lies
# at least 4 units of the 17th digit below it.  Zeros print as "0" or "-0".
# Every other value (|v| < 10**_LO, subnormals included, and large values
# whose D needs no right shift) goes through format().  An int or bool cell
# is written as float(v): for |v| <= 2**53 that is str(v), and 0/1 for a bool.
#
# A cell is six words (48 bytes) of which a mask keeps the bytes shown:
# "-0.000" d0 "." | four words "d.d.d.d." with the digits d1 ... d16 |
# "e-XX" and the terminator.  So the sign, the lead "0." and -E - 1 zeros of
# -4 <= E < 0, the '.' after any digit and the exponent of E < -4 all have
# fixed places.
# A text cell (from format()) holds its text in bytes 0-23 instead.
_LO, _HI = -11, 15
_NX = _HI + 1 - _LO  # exponents [_LO, _HI]
_ZERO = 2 * _NX * 17  # mask _ZERO + sign: "0" and "-0"
_TEXT = _ZERO + 2  # mask _TEXT + k: the first k bytes of a text
_BLOCK_ROWS = 2048


def _at_least_ten_to(e: int) -> float:
    """The smallest double >= 10**e."""
    t = float(f"1e{e}")
    num, den = t.as_integer_ratio()
    return t if num * 10 ** max(-e, 0) >= den * 10 ** max(e, 0) else nextafter(t, inf)


def _words(parts: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(parts), dtype=np.uint64)


def _cell_masks() -> np.ndarray:
    """Mask rows, as words: index (sign * _NX + E - _LO) * 17 + digits shown - 1,
    then the zero and text masks."""
    neg, x, n, j = np.ix_((0, 1), np.arange(_LO, _HI + 1), np.arange(1, 18), np.arange(48))
    digit, dot = (j - 6) // 2, (j - 6) % 2 == 1
    after = np.maximum(x, 0)  # the digit the '.' follows
    masks = (j == 0) & (neg == 1) | (j >= 6) & (j < 40) & np.where(
        dot,
        (digit == after) & (n > after + 1) & ((x >= 0) | (x < -4)),
        digit < np.where(x >= 0, np.maximum(n, x + 1), n),
    )
    masks |= (x < 0) & (x >= -4) & (j >= 1) & (j < 2 - x)  # "0." and -x - 1 zeros
    masks |= (x < -4) & (j >= 40) & (j < 44)  # the exponent
    other = np.zeros((2 + 25, 48), dtype=bool)
    other[:2, 1] = other[1, 0] = True
    other[2:] = np.arange(48) < np.arange(25)[:, None]
    masks = np.concatenate([masks.reshape(-1, 48), other])
    masks[:, 44] = True  # the terminator
    return masks.view(np.uint64)


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each quad 0 ... 9999: the word "d.d.d.d." of its four digits, and
    its count of trailing zero digits (4 for 0000)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    dotted = np.full((10_000, 8), ord("."), dtype=np.uint8)
    dotted[:, ::2] = digits + ord("0")
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1).sum(axis=1, dtype=np.uint8)
    return dotted.view(np.uint64).ravel(), trailing


_TEN = np.array([_at_least_ten_to(e) for e in range(_LO, _HI + 2)])  # |v| >= _TEN[e - _LO] iff |v| >= 10**e
_FIVE = np.array([5**p for p in range(17 - _LO)], dtype=np.uint64)
_DOTTED, _TRAILING = _quad_tables()
_HEAD = _words([b"-0.000%d." % d for d in range(10)])
_EXPONENT = _words([b"e%+03d\0\0\0\0" % x for x in range(_LO, _HI + 1)])
_COMMA, _NEWLINE = _words([b"\0\0\0\0,\0\0\0", b"\0\0\0\0\n\0\0\0"])
_MASKS = _cell_masks()
_LOW32, _32, _ONE = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(1)


def _rounded_shift(m: np.ndarray, f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """m f / 2**s rounded half to even, for uint64 m < 2**53, f < 2**63 and
    1 <= s <= 63 whose result is below 2**63; the product in 32-bit limbs."""
    m0, m1, f0, f1 = m & _LOW32, m >> _32, f & _LOW32, f >> _32
    low = m0 * f0
    mid = m0 * f1 + m1 * f0
    carry = (low >> _32) + (mid & _LOW32)
    lo = (low & _LOW32) | (carry << _32)
    hi = m1 * f1 + (mid >> _32) + (carry >> _32)
    d = (hi << (np.uint64(64) - s)) | (lo >> s)
    return d + ((lo & ((_ONE << s) - _ONE)) + (d & _ONE) > (_ONE << (s - _ONE)))


def _text_cells(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(words, mask index) of cells showing `texts`, each at most 24 bytes."""
    words = np.zeros((len(texts), 6), dtype=np.uint64)
    words[:, :3] = np.array(texts, dtype="S24").view(np.uint64).reshape(-1, 3)
    return words, _TEXT + np.fromiter(map(len, texts), np.intp, len(texts))


def _float_cells(v: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Lay out the %.17g cells of float64 `v` in `words` (n x 6); returns
    each cell's mask index."""
    a = np.abs(v)
    fast = (a >= _TEN[0]) & (a < _TEN[-1])
    a = np.where(fast, a, 1.0)
    mant, q = np.frexp(a)  # a = mant 2**q, 1/2 <= mant < 1
    e = ((q - 1) * 78913) >> 18  # floor((q - 1) log10 2): E or E - 1
    e += a >= _TEN[e - _LO + 1]
    shift = 37 + e - q  # (m 5**p) >> shift = a 10**p for m = mant 2**53
    fast &= shift > 0
    shift = np.maximum(shift, 1).astype(np.uint64)
    d = _rounded_shift((mant * 2.0**53).astype(np.uint64), _FIVE[16 - e], shift).view(np.int64)
    trailing = np.zeros(len(v), dtype=np.intp)
    below = np.ones(len(v), dtype=bool)  # every digit after this quad is 0
    for k in (4, 3, 2, 1):
        high = d // 10_000
        quad = d - high * 10_000
        words[:, k] = _DOTTED[quad]
        trailing += _TRAILING[quad] * below
        below &= quad == 0
        d = high
    words[:, 0] = _HEAD[d]
    words[:, 5] = _EXPONENT[e - _LO]
    neg = np.signbit(v)
    masks = np.where(v == 0.0, _ZERO + neg, (neg * _NX + e - _LO) * 17 + 16 - trailing)
    slow = np.flatnonzero(~fast & (v != 0.0))
    if slow.size:
        words[slow], masks[slow] = _text_cells([format(x, ".17g") for x in v[slow].tolist()])
    return masks


def _csv_lines(data: Sequence[np.ndarray]) -> bytes:
    """The CSV lines of equal-length columns, each cell format(float(v), ".17g")."""
    rows = len(data[0])
    words = np.empty((rows, len(data), 6), dtype=np.uint64)
    values = np.stack(data, axis=1).astype(np.float64, copy=False).ravel()
    masks = _float_cells(values, words.reshape(-1, 6)).reshape(rows, -1)
    words[:, :-1, 5] |= _COMMA
    words[:, -1, 5] |= _NEWLINE
    keep = _MASKS.take(masks, axis=0).view(bool)
    return words.view(np.uint8).ravel().take(np.flatnonzero(keep)).tobytes()


def write_table(table: ResultTable, path: str) -> None:
    """Write CSV: '#' metadata lines, header row, then the data rows, in
    blocks of `_BLOCK_ROWS` rows, each one write.  Every cell holds
    format(float(v), ".17g") (17 significant digits): str(v) for an int
    column, whose values `ResultTable` keeps within +-2**53, and 0/1 for a
    bool column."""
    head = [f"# {key} = {table.metadata[key]}\n" for key in sorted(table.metadata)]
    head.append(",".join(table.columns) + "\n")
    rows = len(table.data[0]) if table.data else 0
    try:
        with open(path, "wb") as handle:
            handle.write("".join(head).encode())
            for start in range(0, rows, _BLOCK_ROWS):
                handle.write(_csv_lines([a[start : start + _BLOCK_ROWS] for a in table.data]))
    except OSError as exc:
        raise OSError(f"cannot write table to {path!r}: {exc}") from exc


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


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
    print(f"wrote {len(table.data[0]) if table.data else 0} rows to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
