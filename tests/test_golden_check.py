"""The golden comparator accepts an unchanged golden and rejects real changes."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from atomfield import cli, multimode
from golden_check import read_table, table_mismatches

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden(name: str) -> cli.ResultTable:
    return read_table(GOLDEN_DIR / f"{name}.csv")


def _with_value(table: cli.ResultTable, row: int, column: str, value: float) -> cli.ResultTable:
    data = [a.copy() for a in table.data]
    data[table.columns.index(column)][row] = value
    return replace(table, data=tuple(data))


def _with_metadata(table: cli.ResultTable, **changes: str | None) -> cli.ResultTable:
    metadata = dict(table.metadata)
    for key, value in changes.items():
        if value is None:
            del metadata[key]
        else:
            metadata[key] = value
    return replace(table, metadata=metadata)


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")))
def test_golden_matches_itself(name):
    golden = _golden(name)
    assert table_mismatches(golden, golden) == []


@pytest.mark.parametrize(
    "name, column",
    [
        ("free-decay", "p_pole"),
        ("free-decay", "t"),
        ("jcp-inversion", "w"),
        ("parabola-field", "im_spherical"),
        ("sphere-revival", "p_e"),
    ],
)
def test_rejects_closed_form_value_off_by_1e12_relative(name, column):
    golden = _golden(name)
    j = golden.columns.index(column)
    # the value that sets the column scale S; one far below S may move by
    # K eps S in absolute terms, which is more than 1e-12 of itself
    row = int(np.argmax(np.abs(golden.data[j])))
    changed = _with_value(golden, row, column, golden.data[j][row] * (1 + 1e-12))
    assert table_mismatches(changed, golden) != []


def test_rejects_ode_value_off_by_ten_tolerances():
    # free-decay solves its band spectrally, at the solver's stated bound, which
    # is no wider than the DOP853 tolerance it replaced (rtol 1e-9, atol 1e-12)
    bound = multimode._SPECTRAL_ERROR
    assert 0.0 < bound <= 1e-12
    golden = _golden("free-decay")
    j = golden.columns.index("p_e")
    rows = len(golden.data[j])
    for row in (0, rows // 2, rows - 1):
        value = golden.data[j][row]
        changed = _with_value(golden, row, "p_e", value + 10 * bound)
        assert table_mismatches(changed, golden) != []
        within = _with_value(golden, row, "p_e", value + bound / 2)
        assert table_mismatches(within, golden) == []
    drift = float(golden.metadata["norm_drift"])
    changed = _with_metadata(golden, norm_drift=repr(drift + 10 * bound))
    assert table_mismatches(changed, golden) != []


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("free-decay", "spacing", "0.05"),
        ("free-decay", "scenario", "free-wavepacket"),
        ("parabola-field", "rho_max", "20"),
        ("parabola-field", "format_version", "2"),
        ("jcp-inversion", "t_max_used", "30.000000000000004"),
    ],
)
def test_rejects_changed_config_echo(name, key, value):
    golden = _golden(name)
    assert golden.metadata[key] != value
    changed = _with_metadata(golden, **{key: value})
    assert table_mismatches(changed, golden) != []


def test_rejects_missing_or_extra_metadata_key():
    golden = _golden("free-decay")
    for changed in (
        _with_metadata(golden, band_width=None),
        _with_metadata(golden, norm_drift=None),
        _with_metadata(golden, extra="1"),
    ):
        assert table_mismatches(changed, golden) != []
        assert table_mismatches(golden, changed) != []


def test_rejects_dropped_row():
    golden = _golden("free-decay")
    for row in (0, len(golden.data[0]) - 1):
        changed = replace(golden, data=tuple(np.delete(a, row) for a in golden.data))
        assert table_mismatches(changed, golden) != []


def test_rejects_renamed_column():
    golden = _golden("free-decay")
    changed = replace(golden, columns=["t", "p_e", "p_exp"])
    assert table_mismatches(changed, golden) != []


def test_rejects_flipped_integer_flag_and_nan():
    golden = _golden("parabola-field")
    j = golden.columns.index("near_boundary")
    flipped = _with_value(golden, 0, "near_boundary", 1.0 - golden.data[j][0])
    assert table_mismatches(flipped, golden) != []
    nan = _with_value(golden, 0, "energy_density", float("nan"))
    assert table_mismatches(nan, golden) != []


@pytest.mark.parametrize(
    "key", ["probe_z_mm", "probe_quadrature_error", "probe_closed_vs_quadrature"]
)
def test_rejects_probe_diagnostic_off_by_1e12(key):
    golden = _golden("parabola-eta")
    changed = _with_metadata(golden, **{key: repr(float(golden.metadata[key]) + 1e-12)})
    assert table_mismatches(changed, golden) != []
