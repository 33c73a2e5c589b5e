"""The golden comparator accepts an unchanged golden and rejects real changes."""

import inspect
from dataclasses import replace
from pathlib import Path

import pytest

from atomfield import cli, multimode
from golden_check import run_config, table_mismatches

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def free_decay_tolerance(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "free-decay.csv"
    code, ode_tolerance = run_config(GOLDEN_DIR / "free-decay.cfg", out)
    assert code == 0
    return ode_tolerance


def _golden(name: str) -> cli.ResultTable:
    return cli.read_table(GOLDEN_DIR / f"{name}.csv")


def _with_value(table: cli.ResultTable, row: int, column: str, value: float) -> cli.ResultTable:
    j = table.columns.index(column)
    rows = list(table.rows)
    rows[row] = rows[row][:j] + (value,) + rows[row][j + 1 :]
    return replace(table, rows=rows)


def _with_metadata(table: cli.ResultTable, **changes: str | None) -> cli.ResultTable:
    metadata = dict(table.metadata)
    for key, value in changes.items():
        if value is None:
            del metadata[key]
        else:
            metadata[key] = value
    return replace(table, metadata=metadata)


def test_run_records_the_tolerance_the_scenario_passes(free_decay_tolerance, tmp_path):
    # free-decay leaves rtol and atol at the defaults of integrate_atom_modes
    rtol = inspect.signature(multimode.integrate_atom_modes).parameters["rtol"].default
    atol = inspect.signature(multimode.integrate_atom_modes).parameters["atol"].default
    assert free_decay_tolerance == (rtol, atol)
    code, ode_tolerance = run_config(GOLDEN_DIR / "jcp-vacuum.cfg", tmp_path / "v.csv")
    assert code == 0 and ode_tolerance is None


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")))
def test_golden_matches_itself(name, free_decay_tolerance):
    golden = _golden(name)
    assert table_mismatches(golden, golden, free_decay_tolerance) == []


def test_ode_output_needs_a_recorded_tolerance():
    golden = _golden("free-decay")
    assert table_mismatches(golden, golden, None) != []


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
def test_rejects_closed_form_value_off_by_1e12_relative(name, column, free_decay_tolerance):
    golden = _golden(name)
    j = golden.columns.index(column)
    # the value that sets the column scale S; one far below S may move by
    # K eps S in absolute terms, which is more than 1e-12 of itself
    row = max(range(len(golden.rows)), key=lambda i: abs(golden.rows[i][j]))
    changed = _with_value(golden, row, column, golden.rows[row][j] * (1 + 1e-12))
    assert table_mismatches(changed, golden, free_decay_tolerance) != []


def test_rejects_ode_value_off_by_ten_tolerances(free_decay_tolerance):
    rtol, atol = free_decay_tolerance
    golden = _golden("free-decay")
    j = golden.columns.index("p_e")
    for row in (0, len(golden.rows) // 2, len(golden.rows) - 1):
        value = golden.rows[row][j]
        changed = _with_value(golden, row, "p_e", value + 10 * (rtol * abs(value) + atol))
        assert table_mismatches(changed, golden, free_decay_tolerance) != []
    drift = float(golden.metadata["norm_drift"])
    changed = _with_metadata(golden, norm_drift=repr(drift + 10 * (rtol * drift + atol)))
    assert table_mismatches(changed, golden, free_decay_tolerance) != []


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
def test_rejects_changed_config_echo(name, key, value, free_decay_tolerance):
    golden = _golden(name)
    assert golden.metadata[key] != value
    changed = _with_metadata(golden, **{key: value})
    assert table_mismatches(changed, golden, free_decay_tolerance) != []


def test_rejects_missing_or_extra_metadata_key(free_decay_tolerance):
    golden = _golden("free-decay")
    for changed in (
        _with_metadata(golden, abs_tol=None),
        _with_metadata(golden, norm_drift=None),
        _with_metadata(golden, extra="1"),
    ):
        assert table_mismatches(changed, golden, free_decay_tolerance) != []
        assert table_mismatches(golden, changed, free_decay_tolerance) != []


def test_rejects_dropped_row(free_decay_tolerance):
    golden = _golden("free-decay")
    for row in (0, len(golden.rows) - 1):
        changed = replace(golden, rows=golden.rows[:row] + golden.rows[row + 1 :])
        assert table_mismatches(changed, golden, free_decay_tolerance) != []


def test_rejects_renamed_column(free_decay_tolerance):
    golden = _golden("free-decay")
    changed = replace(golden, columns=["t", "p_e", "p_exp"])
    assert table_mismatches(changed, golden, free_decay_tolerance) != []


def test_rejects_flipped_integer_flag_and_nan():
    golden = _golden("parabola-field")
    j = golden.columns.index("near_boundary")
    flipped = _with_value(golden, 0, "near_boundary", 1.0 - golden.rows[0][j])
    assert table_mismatches(flipped, golden, None) != []
    nan = _with_value(golden, 0, "energy_density", float("nan"))
    assert table_mismatches(nan, golden, None) != []


@pytest.mark.parametrize(
    "key", ["probe_z_mm", "probe_quadrature_error", "probe_closed_vs_quadrature"]
)
def test_rejects_probe_diagnostic_off_by_1e12(key):
    golden = _golden("parabola-eta")
    changed = _with_metadata(golden, **{key: repr(float(golden.metadata[key]) + 1e-12)})
    assert table_mismatches(changed, golden, None) != []
