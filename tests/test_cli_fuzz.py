"""Property test of the CLI contract over every scenario's schema.

Each drawn config mixes valid values, out-of-range values, unparsable text,
omitted keys and unknown keys.  Whatever the input, `main` must return one
of the documented exit codes (0 success, 1 config error, 2 numerical error,
3 I/O error) and never print a traceback; every key that is unknown, out of
range, unparsable, not finite or missing must be named in the config errors;
and a CSV written with exit 0 holds only finite numbers.

The values of the keys that set the amount of work (sample counts, mode
band, horizon, echo count) are kept small so the whole file runs in seconds.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atomfield import cli
from golden_check import read_table

# valid draws of the work-setting and domain-sensitive keys; any other key
# draws from a wide range of its type
_VALID = {
    "samples": st.integers(2, 30),
    "n_r": st.integers(2, 12),
    "n_theta": st.integers(2, 12),
    "n_z": st.integers(2, 12),
    "n_rho": st.integers(2, 12),
    "mean_n": st.floats(0.0, 50.0),
    "band_width": st.floats(15.0, 30.0),
    "spacing": st.floats(0.02, 0.08),
    "t_max": st.floats(0.01, 3.0) | st.just(1e4),
    "gamma_R": st.floats(0.05, 5.0),
    "t_max_R": st.floats(0.01, 12.0),
    "k_per_mm": st.floats(0.01, 100.0),
    "rel_tol": st.floats(1e-14, 1e-2),
    "abs_tol": st.floats(1e-16, 1e-4),
}

_WIDE_FLOATS = st.floats(-1e300, 1e300) | st.sampled_from([0.0, 5e-324, 1e-300, 1e300])

_UNPARSABLE = st.sampled_from(["", "abc", "1.2.3", "--1", "1e", "0x10", "[1]", "1 2"])
_OUT_OF_RANGE_FLOAT = st.sampled_from(["-1", "-0.5", "-1e300", "nan", "-inf"])
_OUT_OF_RANGE_INT = st.sampled_from(["-1", "0", "1"])
_NON_FINITE = st.sampled_from(["inf", "-inf", "nan", "1e400", "Infinity"])

_UNKNOWN = ["mystery", "Samples", "t_end", "rel_tol", "abs_tol", "orientation", "gamma_r"]


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _valid(key: str, spec) -> st.SearchStrategy:
    if key in _VALID:
        base = _VALID[key]
    elif spec.parse is cli._parse_bool:
        base = st.booleans()
    elif spec.parse is int:
        base = st.integers(2, 20)
    else:
        base = _WIDE_FLOATS
    if spec.check is not None:
        base = base.filter(spec.check)
    return base.map(_text)


@st.composite
def _config(draw, scenario: str):
    """Config text plus the keys the parser must reject."""
    schema = cli.SCENARIOS[scenario]
    lines = [f"scenario = {scenario}"]
    bad: set[str] = set()
    # half of the configs are well formed, so that they reach the physics
    broken = draw(st.booleans())
    for key, spec in schema.items():
        kinds = ["omit", "valid", "valid"]
        if broken:
            kinds.append("unparsable")
            if spec.check is not None:
                kinds.append("out_of_range")
            if spec.parse is float:
                kinds.append("non_finite")
        kind = draw(st.sampled_from(kinds))
        if kind == "omit":
            if spec.required:
                bad.add(key)
            continue
        if kind == "valid":
            value = draw(_valid(key, spec))
        elif kind == "unparsable":
            value = draw(_UNPARSABLE)
            bad.add(key)
        elif kind == "non_finite":
            value = draw(_NON_FINITE)
            bad.add(key)
        else:
            value = draw(_OUT_OF_RANGE_INT if spec.parse is int else _OUT_OF_RANGE_FLOAT)
            bad.add(key)
        lines.append(f"{key} = {value}")
    unknown = [key for key in _UNKNOWN if key not in schema]
    for key in draw(st.lists(st.sampled_from(unknown), unique=True, max_size=2 * broken)):
        lines.append(f"{key} = {draw(st.sampled_from(['1', '1e-3', 'x']))}")
        bad.add(key)
    order = draw(st.permutations(lines))
    return "\n".join(order) + "\n", bad


@pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_main_keeps_its_exit_code_contract(scenario, data):
    text, bad = data.draw(_config(scenario))
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "fuzz.csv"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(cfg), "--out", str(out)])
        err = err.getvalue()
        assert code in (0, 1, 2, 3), text
        assert "Traceback" not in err, text
        if bad:
            assert code == 1, text
            for key in bad:
                assert repr(key) in err, (key, text)
        else:
            assert code in (0, 1, 2), (text, err)
            assert (code == 0) == out.exists(), (text, err)
        if code == 0:
            table = read_table(str(out))
            assert np.all(np.isfinite(np.array(table.data, dtype=float))), text
