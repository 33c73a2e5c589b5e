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

from . import free_space, jcp, multimode, parabolic_mirror, spherical_cavity

__all__ = [
    "ScenarioConfig",
    "ResultTable",
    "ConfigError",
    "SCENARIOS",
    "parse_config",
    "run_scenario",
    "write_table",
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
    the CSV's metadata lines.  A column is bool or real float."""

    columns: list[str]
    data: tuple[np.ndarray, ...]
    metadata: dict[str, str]

    def __post_init__(self):
        data = tuple(np.asarray(a) for a in self.data)
        if len(data) != len(self.columns) or any(a.shape != data[0].shape or a.ndim != 1 for a in data):
            raise ValueError("a table needs one 1-D array per column, all of one length")
        for name, a in zip(self.columns, data):
            if a.dtype.kind not in "bf":
                raise ValueError(f"column {name!r} has dtype {a.dtype}, not bool or real float")
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


def _grid_size(v) -> bool:  # samples or grid points: at least the two ends
    return v >= 2


_OMEGA_OVER_GAMMA = _Key(float, default=1e3, check=free_space._pole_ok)  # omega_eg / Gamma

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
    samples=_Key(int, default=401, check=_grid_size),
)
def _run_jcp_vacuum(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    params = jcp.JcpParams(detuning=p["detuning"], field=jcp.FieldDistribution.fock(0))
    times = np.linspace(0.0, p["t_max"], p["samples"])
    return dict(t=times, w=jcp.inversion(params, times))


@_scenario(
    "jcp-inversion",
    mean_n=_Key(float, required=True, check=_nonneg),  # coherent <n>
    detuning=_Key(float, default=0.0),
    t_max=_Key(float, default=None, check=_pos),  # end time in 1/|g|; default 3 T_r
    samples=_Key(int, default=601, check=_grid_size),
)
def _run_jcp_inversion(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    fieldstate = jcp.FieldDistribution.coherent(p["mean_n"])
    params = jcp.JcpParams(detuning=p["detuning"], field=fieldstate)
    t_max = p["t_max"]
    if t_max is None:
        t_max = 3.0 * jcp.collapse_revival_times(p["mean_n"])[1]
    times = np.linspace(0.0, t_max, p["samples"])
    meta["t_max_used"] = _num(t_max)
    return dict(t=times, w=jcp.inversion(params, times))


@_scenario(
    "free-decay",
    band_width=_Key(float, default=40.0, check=multimode._band_ok),  # mode band in Gamma
    spacing=_Key(float, default=0.02, check=free_space._spacing_ok),  # mode spacing in Gamma
    t_max=_Key(float, default=4.0, check=_pos),  # end time in 1/Gamma
    samples=_Key(int, default=201, check=_grid_size),
    omega_over_gamma=_OMEGA_OVER_GAMMA,
)
def _run_free_decay(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    atom = free_space.TwoLevelAtom.from_linewidth(1.0, p["omega_over_gamma"])
    times = np.linspace(0.0, p["t_max"], p["samples"])
    a, norm = free_space.wigner_weisskopf_ode(
        atom, times, band_width=p["band_width"], mode_spacing=p["spacing"]
    )
    meta["norm_drift"] = _num(abs(norm - 1.0))
    p_pole = np.abs(free_space.excited_amplitude(atom, times)) ** 2
    return dict(t=times, p_e=np.abs(a) ** 2, p_pole=p_pole)


@_scenario(
    "free-wavepacket",
    omega_over_gamma=_OMEGA_OVER_GAMMA,
    time=_Key(float, default=1.0, check=_pos),  # snapshot time in 1/Gamma
    n_r=_Key(int, default=80, check=_grid_size),
    n_theta=_Key(int, default=9, check=_grid_size),
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
    samples=_Key(int, default=601, check=_grid_size),
    with_ode=_Key(_parse_bool, default=False),  # add the finite-band column p_e_ode
    band_width=_Key(float, default=400.0, check=multimode._band_ok),  # finite band in Gamma
    omega_over_gamma=_OMEGA_OVER_GAMMA,
)
def _run_sphere_revival(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    atom = free_space.TwoLevelAtom.from_linewidth(1.0, p["omega_over_gamma"])
    cavity = spherical_cavity.SphericalCavity(radius=p["gamma_R"], atom=atom)
    t_max = p["t_max_R"] * cavity.radius
    times = np.linspace(0.0, t_max, p["samples"])
    p_closed = spherical_cavity.excited_probability_closed_form(cavity, times)
    if p["with_ode"]:
        a, norm = spherical_cavity.evolve_cavity_ode(cavity, times, band_width=p["band_width"])
        meta["norm_drift"] = _num(abs(norm - 1.0))
        return dict(t=times, p_e=p_closed, p_e_ode=np.abs(a) ** 2)
    return dict(t=times, p_e=p_closed)


@_scenario(
    "parabola-eta",
    k_per_mm=_Key(float, required=True, check=_pos),  # wave number in 1/mm
    f_mm=_Key(float, default=2.0, check=_pos),  # focal length in mm
    z_min_mm=_Key(float, default=0.0, check=_nonneg),  # start height above vertex
    z_max_mm=_Key(float, default=8.0, check=_pos),
    samples=_Key(int, default=401, check=_grid_size),
)
def _run_parabola_eta(p: dict[str, Any], meta: dict[str, str]) -> dict[str, Any]:
    _ascending(p, "z_min_mm", "z_max_mm")
    geometry = parabolic_mirror.ParabolicGeometry(
        focal_length=p["f_mm"], wavenumber=p["k_per_mm"]
    )
    z = np.linspace(p["z_min_mm"], p["z_max_mm"], p["samples"])
    # cross-check the closed form against the quadrature at a probe height
    # where the oscillatory integral is still cheap
    z_probe = min(p["z_max_mm"], 50.0 / p["k_per_mm"])
    eta_q, err = parabolic_mirror.eta_quadrature(geometry, (0.0, 0.0, z_probe))
    # the probe's tolerances, fixed
    meta["rel_tol"] = _num(parabolic_mirror._THETA_REL_TOL)
    meta["abs_tol"] = _num(parabolic_mirror._THETA_ABS_TOL)
    meta["probe_z_mm"] = _num(z_probe)
    meta["probe_quadrature_error"] = _num(err)
    meta["probe_closed_vs_quadrature"] = _num(
        abs(eta_q - parabolic_mirror.on_axis_eta(geometry, z_probe))
    )
    return dict(z_mm=z, eta=parabolic_mirror.on_axis_eta(geometry, z))


@_scenario(
    "parabola-field",
    f=_Key(float, default=10.0, check=_pos),  # focal length in c/Gamma
    omega_f=_Key(float, default=500.0, check=parabolic_mirror._two_ray_ok),  # omega_eg f / c
    time=_Key(float, default=25.0),  # snapshot time in 1/Gamma
    z_min=_Key(float, default=0.5, check=_nonneg),
    z_max=_Key(float, default=30.0, check=_pos),
    n_z=_Key(int, default=40, check=_grid_size),
    rho_max=_Key(float, default=None, check=_pos),  # default 2 f
    n_rho=_Key(int, default=30, check=_grid_size),
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
        near_boundary=fmap.flags,
    )


def run_scenario(config: ScenarioConfig) -> ResultTable:
    """Dispatch a validated config to its physics module; deterministic output.
    The metadata echoes the config, plus what the scenario derives.

    Raises FloatingPointError naming each column that holds a non-finite
    value: the parameters then over- or underflow double precision somewhere.
    numpy's floating-point warnings are silenced, since that check reports them.
    A QuadratureError of the `parabola-eta` probe passes through unwrapped.
    """
    meta = {"scenario": config.scenario, "format_version": "1"}
    for key, value in sorted(config.params.items()):
        meta[key] = _num(value) if isinstance(value, float) else str(value)
    with np.errstate(all="ignore"):
        columns = _RUNNERS[config.scenario](config.params, meta)
    table = ResultTable(list(columns), tuple(columns.values()), meta)
    bad = [name for name, a in zip(table.columns, table.data) if not np.isfinite(a).all()]
    if bad:
        raise FloatingPointError(f"non-finite values in column(s) {', '.join(bad)}")
    return table


# Float cells are written by integer arithmetic on whole columns, byte for
# byte what format(v, ".17g") gives (Steele & White, PLDI 1990; Adams,
# OOPSLA 2019).  A nonzero |v| = m 2**(q - 53) in [10**_LO, 10**(_HI + 1)),
# with 2**52 <= m < 2**53, has the decimal exponent E = floor(log10 |v|) in
# [_LO, _HI]; for p = 16 - E the 17 digits are D = m 5**p / 2**s rounded half
# to even, s = 37 + E - q.  A zero is D = 0 at E = 0: "0" or "-0".
# From E = _WORD = -11 up, 5**p < 2**63 is one word, m 5**p < 2**116 and s is
# 1 to 62 (10**(_HI + 1) = 1e15 < 2**50): a rounded right shift of a two-word
# product.  D never rounds up to 10**17 there: the largest double below each
# 10**(E + 1) lies at least 4 units of the 17th digit below it.
# Below, 1e-38 <= |v| < 1e-11, p = 28 to 54: 5**p < 2**126 is two words, so
# floor(m 5**p / 2**64) is m times the high word plus the high word of m
# times the low word, and s = 61 to 125.  As 5**p is odd and m < 2**(s - 1),
# m 5**p / 2**s is never a tie: D is bit s - 1 of m 5**p added to its bits
# from s up.  One double there rounds up to 10**17: 1e-14, 0.12 units of the
# 17th digit below 10**-14, so D = 10**17 is carried to 10**16 and E + 1.
# A block holding any other value (|v| < 10**_LO, subnormals included, and
# |v| >= 1e15) is written whole by format().  A bool cell is written as
# float(v), 0 or 1.
#
# A cell is six words (48 bytes) of which a mask keeps the bytes shown:
# "-0.000" d0 "." | four words "d.d.d.d." with the digits d1 ... d16 |
# "e-XX" and the terminator.  So the sign, the lead "0." and -E - 1 zeros of
# -4 <= E < 0, the '.' after any digit and the exponent of E < -4 all have
# fixed places.
_LO, _WORD, _HI = -38, -11, 14
_NX = _HI + 1 - _LO  # exponents [_LO, _HI]
_BLOCK_CELLS = 6144  # cells per write: the writer's temporaries scale with it
# cells per compaction of a block's bytes: its byte index (8 B per byte kept)
# then stays below _float_cells' temporaries, which set a block's peak
_CHUNK_CELLS = 2048


def _at_least_ten_to(e: int) -> float:
    """The smallest double >= 10**e."""
    t = float(f"1e{e}")
    num, den = t.as_integer_ratio()
    return t if num * 10 ** max(-e, 0) >= den * 10 ** max(e, 0) else nextafter(t, inf)


def _words(parts: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(parts), dtype=np.uint64)


def _cell_masks() -> np.ndarray:
    """Mask rows, as words: index (sign * _NX + E - _LO) * 17 + digits shown - 1."""
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
    masks = masks.reshape(-1, 48)
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
# 5**p = _FIVE_HI[p] 2**64 + _FIVE_LO[p], and _FIVE_HI[p] = 0 for p <= 27
_FIVE_HI = np.array([5**p >> 64 for p in range(17 - _LO)], dtype=np.uint64)
_FIVE_LO = np.array([5**p & 2**64 - 1 for p in range(17 - _LO)], dtype=np.uint64)
_DOTTED, _TRAILING = _quad_tables()
_HEAD = _words([b"-0.000%d." % d for d in range(10)])
_EXPONENT = _words([b"e%+03d\0\0\0\0" % x for x in range(_LO, _HI + 1)])
_COMMA, _NEWLINE = _words([b"\0\0\0\0,\0\0\0", b"\0\0\0\0\n\0\0\0"])
_MASKS = _cell_masks()
_LOW32, _32, _ONE = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(1)


def _product(m: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of m f, for uint64 m < 2**57 and any f, in
    32-bit limbs."""
    m0, m1, f0, f1 = m & _LOW32, m >> _32, f & _LOW32, f >> _32
    low = m0 * f0
    mid = m1 * f0 + (low >> _32)
    carry = (mid & _LOW32) + m0 * f1
    lo = (low & _LOW32) | (carry << _32)
    hi = m1 * f1 + (mid >> _32) + (carry >> _32)
    return hi, lo


def _rounded_shift(m: np.ndarray, f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """m f / 2**s rounded half to even, for uint64 m < 2**53, f < 2**63 and
    1 <= s <= 63 whose result is below 2**63."""
    hi, lo = _product(m, f)
    d = (hi << (np.uint64(64) - s)) | (lo >> s)
    return d + ((lo & ((_ONE << s) - _ONE)) + (d & _ONE) > (_ONE << (s - _ONE)))


def _tiny_digits(mant: np.ndarray, e: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D and E of cells |v| = mant 2**q in [10**_LO, 10**_WORD), E = e
    before the carry.  For m = 16 mant 2**53, hi and lo are the words of
    floor(m 5**p / 2**64), whose bits from r = s - 61 up (r = 0 to 64; numpy
    shifts a uint64 by 64 to 0) are floor(2 mant 2**53 5**p / 2**s): D is
    that plus one, halved."""
    m = (mant * 2.0**57).astype(np.uint64)
    carry = _product(m, _FIVE_LO[16 - e])[0]
    hi, lo = _product(m, _FIVE_HI[16 - e])
    lo += carry
    hi += lo < carry
    r = (e - q - 24).astype(np.uint64)
    d = ((hi << (np.uint64(64) - r)) | (lo >> r)) + _ONE >> _ONE
    up = d == 10**17  # the carry of 1e-14
    return np.where(up, 10**16, d), e + up


def _float_cells(v: np.ndarray, words: np.ndarray) -> np.ndarray | None:
    """Lay out the %.17g cells of float64 `v` in `words` (n x 6) and return
    each cell's mask index; or return None, with `words` untouched, if a
    cell is neither 0 nor in [10**_LO, 10**(_HI + 1))."""
    a = np.abs(v)
    zero = a == 0.0
    a[zero] = 1.0  # E = 0, and D = 0 below
    if not (a.min() >= _TEN[0] and a.max() < _TEN[-1]):
        return None
    mant, q = np.frexp(a)  # a = mant 2**q, 1/2 <= mant < 1
    e = ((q - 1) * 78913) >> 18  # floor((q - 1) log10 2): E or E - 1
    e += a >= _TEN[e - _LO + 1]
    # (m 5**p) >> (37 + E - q) = a 10**p for m = mant 2**53; D of a cell
    # below 10**_WORD is meaningless here, and made apart below
    d = _rounded_shift((mant * 2.0**53).astype(np.uint64), _FIVE_LO[16 - e], (37 + e - q).astype(np.uint64))
    tiny = np.flatnonzero(e < _WORD)
    if tiny.size:
        d[tiny], e[tiny] = _tiny_digits(mant[tiny], e[tiny], q[tiny])
    d[zero] = 0
    d = d.view(np.int64)
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
    return (np.signbit(v) * _NX + e - _LO) * 17 + 16 - trailing


def _csv_lines(data: Sequence[np.ndarray]) -> bytes:
    """The CSV lines of equal-length columns, each cell format(float(v), ".17g")."""
    rows = len(data[0])
    words = np.empty((rows, len(data), 6), dtype=np.uint64)
    values = np.stack(data, axis=1).astype(np.float64, copy=False).ravel()
    masks = _float_cells(values, words.reshape(-1, 6))
    if masks is None:  # one %-format of the block, as format(v, ".17g") each
        return (b"%.17g," * (len(data) - 1) + b"%.17g\n") * rows % tuple(values.tolist())
    words[:, :-1, 5] |= _COMMA
    words[:, -1, 5] |= _NEWLINE
    cells = words.view(np.uint8).reshape(-1, 48)
    parts = []
    for start in range(0, len(masks), _CHUNK_CELLS):  # chunks keep the byte index small
        chunk = slice(start, start + _CHUNK_CELLS)
        keep = _MASKS.take(masks[chunk], axis=0).view(bool)
        parts.append(cells[chunk].ravel().take(np.flatnonzero(keep)).tobytes())
    return b"".join(parts)


def write_table(table: ResultTable, path: str) -> None:
    """Write CSV: '#' metadata lines, header row, then the data rows in
    blocks of about `_BLOCK_CELLS` cells (whole rows, at least one), each
    one write, so the writer's working set does not grow with the column
    count.  Every cell holds format(float(v), ".17g") (17 significant
    digits), and 0/1 for a bool column."""
    head = [f"# {key} = {table.metadata[key]}\n" for key in sorted(table.metadata)]
    head.append(",".join(table.columns) + "\n")
    rows = len(table.data[0]) if table.data else 0
    block = max(1, _BLOCK_CELLS // max(1, len(table.data)))
    try:
        with open(path, "wb") as handle:
            handle.write("".join(head).encode())
            for start in range(0, rows, block):
                handle.write(_csv_lines([a[start : start + block] for a in table.data]))
    except OSError as exc:
        raise OSError(f"cannot write table to {path!r}: {exc}") from exc


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomfield",
        description="Two-level atom + quantized field scenario runner",
    )
    # the config and its overrides, alike for `run` and `validate`
    config_p = argparse.ArgumentParser(add_help=False)
    config_p.add_argument("config", help="path to the key-value config file")
    config_p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", parents=[config_p], help="run a scenario config and write CSV")
    run_p.add_argument("--out", help="output CSV path (overrides the config)")
    sub.add_parser("list-scenarios", help="print the known scenarios")
    sub.add_parser("validate", parents=[config_p], help="validate a config without running it")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help (0) or its usage line
        return 1 if exc.code else 0
    if args.command == "list-scenarios":
        for name in sorted(SCENARIOS):
            print(f"{name}: {', '.join(sorted(SCENARIOS[name]))}")
        return 0
    try:
        with open(args.config, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        print(f"config error: config is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text, args.override)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print(f"valid {config.scenario} config")
        return 0
    out = args.out or config.output
    if not out:  # an empty `output =` names no path either
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
        sizes = ", ".join(f"{key} = {value}" for key, value in sorted(config.params.items()))
        print(f"config error: work too large for memory ({sizes}): {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # a QuadratureError of the parabola-eta probe
        print(f"numerical error: scenario {config.scenario!r}: {exc}", file=sys.stderr)
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
