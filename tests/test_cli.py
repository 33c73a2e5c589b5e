"""Config parsing, CSV round trips and scenario plumbing."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomfield import cli, parabolic_mirror
from atomfield.numerics import QuadratureSpec
from golden_check import read_table, run_config, table_mismatches

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_NAMES = sorted(p.stem for p in GOLDEN_DIR.glob("*.cfg"))
SRC_DIR = Path(__file__).parent.parent / "src"


class TestParseConfig:
    def test_minimal_valid(self):
        config = cli.parse_config("scenario = jcp-vacuum\n")
        assert config.scenario == "jcp-vacuum"
        assert config.params["detuning"] == 0.0  # default applied
        assert config.params["samples"] == 401

    def test_comments_and_blank_lines(self):
        text = """
        # a comment
        scenario = jcp-vacuum   # trailing comment
        detuning = 1.5
        """
        config = cli.parse_config(text)
        assert config.params["detuning"] == 1.5

    def test_all_errors_reported_at_once(self):
        text = "\n".join(
            [
                "scenario = free-decay",
                "band_width = not-a-number",
                "spacing = -1",
                "mystery = 3",
                "just a bare line",
            ]
        )
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config(text)
        errors = info.value.errors
        assert len(errors) == 4
        assert any("band_width" in e for e in errors)
        assert any("spacing" in e for e in errors)
        assert any("mystery" in e for e in errors)
        assert any("bare line" in e for e in errors)

    def test_missing_scenario(self):
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config("detuning = 1\n")
        assert any("scenario" in e for e in info.value.errors)

    def test_unknown_scenario(self):
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config("scenario = banana\n")
        assert any("unknown scenario" in e for e in info.value.errors)

    def test_duplicate_key(self):
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config("scenario = jcp-vacuum\ndetuning = 1\ndetuning = 2\n")
        assert any("duplicate" in e for e in info.value.errors)

    def test_missing_required_key(self):
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config("scenario = jcp-inversion\n")
        assert any("mean_n" in e for e in info.value.errors)

    def test_override_wins(self):
        config = cli.parse_config(
            "scenario = jcp-vacuum\ndetuning = 1\n", overrides=["detuning=2.5"]
        )
        assert config.params["detuning"] == 2.5

    def test_bad_override(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("scenario = jcp-vacuum\n", overrides=["detuning"])

    def test_empty_key(self):
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config("scenario = jcp-vacuum\n\n= 5\n")
        assert info.value.errors == ["line 3: empty key"]

    def test_unparsable_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "ode.cfg"
        cfg.write_text("scenario = sphere-revival\ngamma_R = 1\nwith_ode = maybe\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "w.csv")]) == 1
        err = capsys.readouterr().err
        assert "key 'with_ode': cannot parse value 'maybe'" in err and "Traceback" not in err


@pytest.fixture
def fallbacks(monkeypatch):
    """One entry per `_float_cells` call: whether its block went to format()."""
    seen = []
    float_cells = cli._float_cells

    def spy(v, words):
        masks = float_cells(v, words)
        seen.append(masks is None)
        return masks

    monkeypatch.setattr(cli, "_float_cells", spy)
    return seen


class TestTableIO:
    def test_round_trip_bit_exact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 16)  # 8 rows of 2 columns: 21 rows in three blocks
        rng = np.random.default_rng(3)
        a, b = np.append(rng.uniform(-1e3, 1e3, (2, 20)), [[1.0 / 3.0], [np.pi]], axis=1)
        table = cli.ResultTable(["a", "b"], (a, b), {"scenario": "test"})
        path = tmp_path / "t.csv"
        cli.write_table(table, path)
        back = read_table(path)
        assert back.columns == ["a", "b"]
        assert back.metadata["scenario"] == "test"
        assert len(back.data[0]) == 21
        for got, want in zip(back.data, table.data):
            assert got.tolist() == want.tolist()  # bit-exact, not approx

    @pytest.mark.parametrize("columns", [1, 2, 5, 8])
    def test_blocks_of_whole_rows_follow_the_per_value_rule(self, columns, tmp_path, monkeypatch):
        # 24 cells a block: 24, 12, 4 and 3 rows; three full blocks and one row more
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 24)
        rows = 3 * (24 // columns) + 1
        rng = np.random.default_rng(columns)
        data = rng.standard_normal((columns, rows)) * 10.0 ** rng.integers(-14, 18, (columns, rows))
        data[0, :2] = 0.0, -0.0
        names = [f"c{j}" for j in range(columns)]
        path = tmp_path / "t.csv"
        cli.write_table(cli.ResultTable(names, tuple(data), {"scenario": "t"}), path)
        want = ["# scenario = t", ",".join(names)]
        want += [",".join(format(v, ".17g") for v in row) for row in data.T.tolist()]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_a_block_outside_the_digit_range_goes_to_format_whole(self, tmp_path, monkeypatch, fallbacks):
        # 3 columns, 4 rows a block: the middle block of three holds a
        # subnormal and 1e300, so format() writes it, the others take the
        # digit path
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 12)
        rng = np.random.default_rng(44)
        data = rng.uniform(1.0, 10.0, (3, 12)) * 10.0 ** rng.integers(-38, 15, (3, 12))
        data *= rng.choice([-1.0, 1.0], (3, 12))
        data[0, :2] = 0.0, -0.0
        data[0, 5], data[2, 6] = 5e-324, 1e300
        path = tmp_path / "t.csv"
        cli.write_table(cli.ResultTable(["a", "b", "c"], tuple(data), {}), path)
        want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in data.T.tolist())
        assert path.read_bytes() == ("a,b,c\n" + want).encode()
        assert fallbacks == [False, True, False]

    def test_write_memory_does_not_grow_with_the_column_count(self, tmp_path):
        # equal cell counts in 8 and in 2 columns: blocks of equal cell
        # count give the writer the same working set above the held table
        rng = np.random.default_rng(7)
        peaks = {}
        for columns in (8, 2):
            data = rng.uniform(-1e3, 1e3, (columns, 200_000 // columns))
            table = cli.ResultTable([f"c{j}" for j in range(columns)], tuple(data), {})
            tracemalloc.start()
            try:
                cli.write_table(table, tmp_path / f"{columns}.csv")
                peaks[columns] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] == pytest.approx(peaks[2], rel=0.3, abs=0)

    @pytest.mark.parametrize("chunk", [1, 5, 7, 16])
    def test_compaction_chunks_split_rows_alike(self, chunk, monkeypatch, fallbacks):
        # 3 columns of 10 rows: chunks of 5, 7 and 16 cells end inside a row;
        # every cell is in the digit path's range, so the chunks are used
        rng = np.random.default_rng(chunk)
        data = rng.uniform(1.0, 10.0, (3, 10)) * 10.0 ** rng.integers(-38, 15, (3, 10))
        data *= rng.choice([-1.0, 1.0], (3, 10))
        data[0, :2] = 0.0, -0.0
        whole = cli._csv_lines(list(data))
        want = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in data.T.tolist())
        assert whole == want.encode()
        monkeypatch.setattr(cli, "_CHUNK_CELLS", chunk)
        assert cli._csv_lines(list(data)) == whole
        assert fallbacks == [False, False]

    def test_block_memory_per_cell(self):
        # a block of _BLOCK_CELLS cells of the 8 parabola-field columns: the
        # compaction of its bytes by chunks of cells keeps the block's peak
        # at the float layout's (about 195 B a cell; an index over the
        # whole block's output bytes peaked at about 290); a block of cells
        # all in [1e-38, 1e-11), each made by the two-word 5**p, about 225 B
        rng = np.random.default_rng(11)
        rows = cli._BLOCK_CELLS // 8
        data = list(rng.standard_normal((8, rows)) * 10.0 ** rng.integers(-14, 4, (8, rows)))
        data[7] = rng.integers(0, 2, rows) == 1
        tiny = rng.uniform(1.0, 10.0, (8, rows)) * 10.0 ** rng.integers(-38, -11, (8, rows))
        for block in (data, list(tiny * rng.choice([-1.0, 1.0], (8, rows)))):
            cli._csv_lines(block)
            tracemalloc.start()
            try:
                cli._csv_lines(block)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / cli._BLOCK_CELLS <= 240

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        cli.write_table(cli.ResultTable(["x"], (np.array([]),), {}), path)
        assert path.read_text() == "x\n"

    def test_no_columns_metadata_and_empty_header(self, tmp_path):
        path = tmp_path / "e.csv"
        cli.write_table(cli.ResultTable([], (), {"scenario": "t"}), path)
        assert path.read_text() == "# scenario = t\n\n"

    @pytest.mark.parametrize(
        "column", [np.array([1 + 2j, 3 - 1j]), np.array(["1", "3"]), np.array([b"1", b"3"]), [1.0, None]]
    )
    def test_non_real_column_rejected(self, column):
        # a complex column would lose its imaginary part, a text one fail
        # only inside the writer, after the file is open
        with pytest.raises(ValueError, match="column 'z'"):
            cli.ResultTable(["x", "z"], ([1.0, 2.0], column), {})

    def test_bytes_follow_the_per_value_rule(self, tmp_path):
        # extremes of the double range, and 1/3 and pi, as a column from
        # Python floats and one of numpy float64, next to an int column of
        # 0/1 and a bool column, which is written as 0/1
        big = 1.7976931348623157e308
        values = [-0.0, 5e-324, big, -big, 1 / 3, np.pi]
        flags = [i % 2 for i in range(len(values))]
        columns = (values, np.array(values), np.array(flags), np.array(flags) == 1)
        table = cli.ResultTable(["py", "np", "flag", "bool"], columns, {"scenario": "t", "b": "2"})
        path = tmp_path / "t.csv"
        cli.write_table(table, path)
        # the rule the writer must keep: str(v) for an int, 0/1 for a bool, else 17 digits
        want = ["# b = 2", "# scenario = t", "py,np,flag,bool"] + [
            f"{format(v, '.17g')},{format(v, '.17g')},{f},{int(f == 1)}" for v, f in zip(values, flags)
        ]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()
        assert want[3] == "-0,-0,0,0"
        assert want[4] == "4.9406564584124654e-324,4.9406564584124654e-324,1,1"

    def test_integer_columns_stay_exact(self, tmp_path):
        # every integer up to 2**53 in magnitude is a double and prints as
        # str(n); beyond it a cell would round, so the table refuses it
        edge = np.array([2**53, -(2**53), 2**53 - 1, 0])
        path = tmp_path / "n.csv"
        cli.write_table(cli.ResultTable(["n"], (edge,), {}), path)
        assert path.read_text() == "n\n" + "".join(f"{n}\n" for n in edge.tolist())
        for column in (
            np.array([0, 2**53 + 1]),
            np.array([-(2**53) - 1]),
            np.array([np.iinfo(np.int64).min]),
            np.array([2**64 - 1], dtype=np.uint64),
        ):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                cli.ResultTable(["n"], (column,), {})

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_scenario_bytes_follow_the_per_value_rule(self, name, tmp_path, fallbacks):
        table = cli.run_scenario(cli.parse_config((GOLDEN_DIR / f"{name}.cfg").read_text()))
        path = tmp_path / "t.csv"
        cli.write_table(table, path)
        assert fallbacks and not any(fallbacks)  # every block takes the digit path
        # the documented rule for every cell: str(v) for an int, 0/1 for a bool
        cells = [[format(float(v), ".17g") for v in a.tolist()] for a in table.data]
        want = [f"# {key} = {table.metadata[key]}" for key in sorted(table.metadata)]
        want += [",".join(table.columns)] + [",".join(row) for row in zip(*cells)]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            cli.ResultTable(["a", "b"], ([1.0], []), {})
        with pytest.raises(ValueError):
            cli.ResultTable(["a", "b"], ([1.0],), {})

    def test_write_failure_has_path_context(self, tmp_path):
        table = cli.ResultTable(["x"], ([1.0],), {})
        with pytest.raises(OSError, match="no/such"):
            cli.write_table(table, str(tmp_path / "no/such/dir.csv"))


def _cells(values) -> list[str]:
    """The CSV cells the writer makes of a one-column float table.  The
    zeros and the values in [10**-38, 10**15) are also written as a block of
    their own, which must take the digit path and give the same cells."""
    v = np.asarray(values, dtype=float)
    cells = cli._csv_lines([v]).decode().splitlines()
    a = np.abs(v)
    inside = (a == 0.0) | (a >= cli._TEN[0]) & (a < cli._TEN[-1])
    if inside.any():
        assert cli._float_cells(v[inside], np.empty((inside.sum(), 6), dtype=np.uint64)) is not None
        assert cli._csv_lines([v[inside]]).decode().splitlines() == np.array(cells)[inside].tolist()
    return cells


def _halfway_cases() -> dict[float, int]:
    """Doubles v exactly halfway between two 17-digit decimals, v 10**p = N + 1/2
    with 10**16 <= N < 10**17, each with its N: v = k / 2**(p + 1) for an odd
    k = (2 N + 1) / 5**p."""
    cases = {}
    for p in range(1, 25):
        first = -(-(2 * 10**16 + 1) // 5**p) | 1
        for k in range(first, first + 8, 2):
            if k * 5**p < 2 * 10**17 and k < 2**53:
                cases[k / 2 ** (p + 1)] = (k * 5**p - 1) // 2
    return cases


def _near_ties() -> list[float]:
    """For each E in [_LO, _WORD): the doubles nearest (N + 1/2) 10**(E - 16)
    for the ends of 10**16 <= N < 10**17 and six N between, each with its
    neighbours one ulp away."""
    rng = np.random.default_rng(43)
    corpus = []
    for e in range(cli._LO, cli._WORD):
        for n in [10**16, 10**17 - 1, *rng.integers(10**16, 10**17, 6).tolist()]:
            x = float(Fraction(2 * n + 1, 2) * Fraction(10) ** (e - 16))
            corpus += [float(np.nextafter(x, 0.0)), x, float(np.nextafter(x, np.inf))]
    return corpus


class TestFloatCells:
    """The integer %.17g writer against Python's `format(v, ".17g")`."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_matches_format(self, values):
        assert _cells(values) == [format(v, ".17g") for v in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(1e-40, 1e-10), st.floats(-1e-10, -1e-40)), min_size=1, max_size=40))
    def test_matches_format_below_the_one_word_path(self, values):
        assert _cells(values) == [format(v, ".17g") for v in values]

    def test_fixed_corpus(self):
        big = float(np.finfo(float).max)
        corpus = [0.0, 5e-324, big, 9.9999999999999999e-5, 9.9999999999999998e15]
        # the edges of the integer path, [1e-38, 1e15), the bound 1e-11 of its
        # one-word 5**p, and every power of ten from 1e-39 to 1e16, as the
        # nearest double and as 10.0**e, each with its neighbours one ulp away
        powers = {x for e in range(-39, 17) for x in (float(f"1e{e}"), 10.0**e)}
        for x in [1e-38, 1e-11, 1e15, *sorted(powers)]:
            corpus += [float(np.nextafter(x, 0.0)), x, float(np.nextafter(x, np.inf))]
        # ties at the 17th digit, rounding down (N even) and up (N odd)
        halfway = _halfway_cases()
        assert {n % 2 for n in halfway.values()} == {0, 1} and len(halfway) > 40
        corpus += list(halfway)
        # below 1e-8 no double is a tie, so the nearest to (N + 1/2) 10**(E - 16)
        # and its neighbours, for E under the one-word path
        corpus += _near_ties()
        corpus += [-x for x in corpus]
        assert _cells(corpus) == [format(v, ".17g") for v in corpus]

    def test_no_carry_to_eighteen_digits(self):
        # the one-word path never rounds D up to 10**17: below each power of
        # ten 10**(e + 1) it covers, the nearest double is over 4 units of the
        # 17th digit away
        for e in range(cli._WORD, cli._HI + 1):
            below = float(np.nextafter(cli._TEN[e - cli._LO + 1], 0.0))
            assert Fraction(below) < Fraction(10) ** (e + 1) <= Fraction(cli._TEN[e - cli._LO + 1])
            assert Fraction(below) * Fraction(10) ** (16 - e) < 10**17 - 4

    def test_carry_below_the_one_word_path(self):
        # below 1e-11 the largest double under 10**(e + 1) can lie closer to
        # it: 1e-14 is 0.12 units of the 17th digit below 10**-14 and prints
        # as 1e-14, carried from D = 10**17; every such double and its lower
        # neighbour prints as format() does
        carried, corpus = [], []
        for e in range(cli._LO, cli._WORD):
            below = float(np.nextafter(cli._TEN[e - cli._LO + 1], 0.0))
            assert Fraction(below) < Fraction(10) ** (e + 1) <= Fraction(cli._TEN[e - cli._LO + 1])
            if Fraction(below) * Fraction(10) ** (16 - e) >= 10**17 - Fraction(1, 2):
                carried.append(below)
            corpus += [below, float(np.nextafter(below, 0.0))]
        assert carried == [1e-14] and _cells(carried) == ["1e-14"]
        assert _cells(corpus) == [format(v, ".17g") for v in corpus]

    def test_exponent_estimate_at_binade_ends(self):
        # ((q - 1) 78913) >> 18 is E or E - 1 at both ends of every binade
        # [2**(q - 1), 2**q) that meets [1e-38, 1e15)
        first, last = (int(np.frexp(x)[1]) for x in (cli._TEN[0], cli._TEN[-1]))
        for q in range(first, last + 1):
            for x in (math.ldexp(0.5, q), float(np.nextafter(math.ldexp(1.0, q), 0.0))):
                exact = math.floor(math.log10(x))
                exact -= Fraction(10) ** exact > Fraction(x)
                exact += Fraction(10) ** (exact + 1) <= Fraction(x)
                assert ((q - 1) * 78913) >> 18 in (exact, exact - 1)


class TestMain:
    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in cli.SCENARIOS:
            assert name in out

    def test_module_entry_point_lists_the_scenarios(self):
        # `-m atomfield.cli` would warn on stderr: importing the package has
        # already loaded `cli` before it runs again as __main__
        done = subprocess.run(
            [sys.executable, "-m", "atomfield", "list-scenarios"],
            env={**os.environ, "PYTHONPATH": str(SRC_DIR), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0
        assert done.stderr == ""
        names = [line.split(":")[0] for line in done.stdout.splitlines()]
        assert names == sorted(cli.SCENARIOS) and len(names) == 7

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.cfg"), "--out", "x.csv"]) == 3

    def test_missing_output_directory(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = jcp-vacuum\nsamples = 11\n")
        out = tmp_path / "no" / "w.csv"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"I/O error: cannot write table to {str(out)!r}")
        assert not out.parent.exists()

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = banana\n")
        assert cli.main(["run", str(cfg), "--out", "x.csv"]) == 1

    def test_validate_only(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = jcp-vacuum\n")
        assert cli.main(["validate", str(cfg)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_reports_band_and_spacing_with_other_key_errors(self, tmp_path, capsys):
        # a band below 20 Gamma and a spacing above Gamma / 20 were "valid"
        # and only failed in `run`; now they are key errors, reported at once
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = free-decay\nband_width = 10\nspacing = 0.06\nsamples = 1\n")
        assert cli.main(["validate", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "valid" not in captured.out
        errors = captured.err.splitlines()
        assert len(errors) == 3 and all(e.startswith("config error: key ") for e in errors)
        for key in ("band_width", "spacing", "samples"):
            assert any(f"'{key}'" in e and "out of range" in e for e in errors)
        # sphere-revival's band too, with or without the ODE column
        for with_ode in ("true", "false"):
            sphere = "scenario = sphere-revival\ngamma_R = 1\nband_width = 10\n"
            cfg.write_text(sphere + f"with_ode = {with_ode}\n")
            assert cli.main(["validate", str(cfg)]) == 1
            assert capsys.readouterr().err == "config error: key 'band_width': value '10' out of range\n"

    def test_run_requires_output_path(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = jcp-vacuum\n")
        assert cli.main(["run", str(cfg)]) == 1

    def test_output_key_in_config(self, tmp_path):
        out = tmp_path / "w.csv"
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(f"scenario = jcp-vacuum\nsamples = 11\noutput = {out}\n")
        assert cli.main(["run", str(cfg)]) == 0
        assert out.exists()

    def test_run_with_override(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = jcp-vacuum\nsamples = 11\n")
        out = tmp_path / "w.csv"
        assert cli.main(["run", str(cfg), "--out", str(out), "--override", "t_max=1.0"]) == 0
        table = read_table(out)
        assert table.metadata["t_max"] == "1"
        assert table.data[0][-1] == 1.0

    def test_parser_is_reused_and_overrides_stay_with_their_call(self, tmp_path, monkeypatch):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = jcp-vacuum\nsamples = 11\n")
        assert cli.main(["validate", str(cfg)]) == 0  # the parser exists from here on

        def rebuilt():
            raise AssertionError("main built a second parser")

        seen = []
        parse = cli.parse_config

        def spy(text, overrides=()):
            seen.append(list(overrides))
            return parse(text, overrides)

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        monkeypatch.setattr(cli, "parse_config", spy)
        run = ["run", str(cfg), "--out", str(tmp_path / "w.csv")]
        assert cli.main([*run, "--override", "t_max=1.0"]) == 0
        assert cli.main(run) == 0
        assert cli.main([*run, "--override", "t_max=2.0"]) == 0
        assert seen == [["t_max=1.0"], [], ["t_max=2.0"]]
        assert read_table(tmp_path / "w.csv").metadata["t_max"] == "2"

    def test_metadata_records_parameters(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = sphere-revival\ngamma_R = 1\nsamples = 31\n")
        out = tmp_path / "w.csv"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        meta = read_table(out).metadata
        assert meta["scenario"] == "sphere-revival"
        assert meta["gamma_R"] == "1"
        assert meta["format_version"] == "1"

    def test_near_boundary_is_an_integer_column(self, tmp_path):
        out = tmp_path / "w.csv"
        assert cli.main(["run", str(GOLDEN_DIR / "parabola-field.cfg"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header].split(",")[-1] == "near_boundary"
        flags = [line.rsplit(",", 1)[1] for line in lines[header + 1 :]]
        assert set(flags) == {"0", "1"}

    def test_eta_scan_reports_quadrature_error(self, tmp_path):
        cfg = tmp_path / "eta.cfg"
        cfg.write_text(
            "scenario = parabola-eta\nk_per_mm = 0.7853981633974483\nsamples = 11\n"
        )
        out = tmp_path / "w.csv"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        meta = read_table(out).metadata
        assert float(meta["probe_quadrature_error"]) < 1e-8
        assert float(meta["probe_closed_vs_quadrature"]) < 1e-9


class TestDomainGuards:
    """Configs that pass parse_config but break a library guard exit 1, no traceback."""

    @staticmethod
    def _run(tmp_path, text):
        cfg = tmp_path / "guard.cfg"
        cfg.write_text(text)
        return cli.main(["run", str(cfg), "--out", str(tmp_path / "w.csv")])

    @pytest.mark.parametrize(
        "text",
        [
            "scenario = free-decay\nspacing = 0.1\n",
            "scenario = free-decay\nt_max = 400\n",
            "scenario = parabola-field\nomega_f = 60\nf = 10\n",
            "scenario = sphere-revival\ngamma_R = 1\nwith_ode = true\nband_width = 5\n",
            "scenario = jcp-inversion\nmean_n = 4\nt_max = -1\n",
            "scenario = free-decay\nt_max = 0.5\nsamples = 3\nband_width = 19.9\n",
            "scenario = free-decay\nt_max = 0.5\nsamples = 3\nspacing = 0.051\n",
            # the radius grid runs from 10 / omega_eg = 0.01 to r = time: 1e-3
            # wrote a descending grid with exit 0, 5e-324 overflowed to inf/nan
            "scenario = free-wavepacket\ntime = 1e-3\n",
            "scenario = free-wavepacket\ntime = 5e-324\n",
        ],
    )
    def test_guard_is_a_config_error(self, tmp_path, capsys, text):
        assert self._run(tmp_path, text) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    # a reversed range wrote a descending z grid, an equal one a constant
    # grid (401 identical rows), both with exit 0
    @pytest.mark.parametrize("low_value, high_value", [(40, 30), (8, 8)])
    @pytest.mark.parametrize(
        "text, low, high",
        [
            ("scenario = parabola-eta\nk_per_mm = 1\n", "z_min_mm", "z_max_mm"),
            ("scenario = parabola-field\n", "z_min", "z_max"),
        ],
    )
    def test_empty_or_reversed_z_range_is_a_config_error(
        self, tmp_path, capsys, text, low, high, low_value, high_value
    ):
        text += f"{low} = {low_value}\n{high} = {high_value}\n"
        assert self._run(tmp_path, text) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert f"{low} = " in err and f"{high} = " in err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize(
        "text",
        [
            # each value sits inside the documented 1e-12 slack, on the wrong
            # side of its boundary (band >= 20 Gamma, spacing <= Gamma / 20,
            # omega_eg / Gamma >= 10, omega_eg f >= 50)
            "scenario = free-decay\nt_max = 0.5\nsamples = 3\n"
            "band_width = 19.9999999999999\n",
            "scenario = free-decay\nt_max = 0.5\nsamples = 3\n"
            "spacing = 0.05000000000001\n",
            "scenario = free-decay\nt_max = 0.5\nsamples = 3\n"
            "omega_over_gamma = 9.9999999999999\n",
            "scenario = parabola-field\nomega_f = 50\nf = 4.1\nn_z = 3\nn_rho = 3\n",
            "scenario = parabola-field\nomega_f = 49.9999999999999\nf = 4.1\nn_z = 3\nn_rho = 3\n",
        ],
    )
    def test_boundary_value_is_accepted(self, tmp_path, text):
        assert self._run(tmp_path, text) == 0

    def test_sample_on_an_echo_time_runs(self, tmp_path):
        # t = 17 * 2R rounds one ulp short of the 17th echo, u = -4.4e-16: exited 1
        text = "scenario = sphere-revival\ngamma_R = 0.1\nt_max_R = 40\nsamples = 101\n"
        assert self._run(tmp_path, text) == 0

    @pytest.mark.parametrize(
        "text",
        [
            # each raised OverflowError or ZeroDivisionError, or (inf) hung in
            # the ODE on a NaN decay rate
            "scenario = free-wavepacket\nomega_over_gamma = 1e300\n",
            "scenario = free-decay\nomega_over_gamma = inf\nt_max = 0.5\nsamples = 3\n",
            "scenario = jcp-inversion\nmean_n = 1\ndetuning = 1e300\n",
            "scenario = parabola-field\nf = 1e300\nn_z = 3\nn_rho = 3\n",
        ],
    )
    def test_out_of_range_arithmetic_is_a_config_error(self, tmp_path, capsys, text):
        assert self._run(tmp_path, text) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400", "Infinity"])
    def test_non_finite_float_is_a_config_error(self, tmp_path, capsys, value):
        # inf used to write w = nan on every row and exit 0
        text = f"scenario = jcp-vacuum\ndetuning = {value}\nsamples = 1\nt_max = -1\n"
        assert self._run(tmp_path, text) == 1
        err = capsys.readouterr().err
        assert "'detuning'" in err and "not a finite number" in err
        # reported together with the other key errors
        assert "'samples'" in err and "'t_max'" in err
        assert not (tmp_path / "w.csv").exists()

    def test_non_finite_result_is_a_config_error(self, tmp_path, capsys):
        # finite keys, but the Rabi phase 2 t overflows to inf and cos gives nan
        text = "scenario = jcp-vacuum\nt_max = 1e308\nsamples = 3\n"
        assert self._run(tmp_path, text) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "non-finite values in column(s) w" in err
        assert not (tmp_path / "w.csv").exists()

    def test_non_finite_result_prints_only_the_error_line(self, tmp_path):
        # numpy's overflow and invalid-value RuntimeWarnings, with library
        # paths, used to come first; a fresh interpreter shows real stderr
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("scenario = jcp-vacuum\nt_max = 1e308\nsamples = 3\n")
        run = ["run", str(cfg), "--out", str(tmp_path / "w.csv")]
        done = subprocess.run(
            [sys.executable, "-c", f"import sys\nfrom atomfield import cli\nsys.exit(cli.main({run!r}))"],
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr == (
            "config error: parameters out of double-precision range: "
            "non-finite values in column(s) w\n"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "scenario = jcp-vacuum\n",
            "scenario = free-decay\n",
            "scenario = sphere-revival\ngamma_R = 1\nwith_ode = true\n",
        ],
    )
    def test_work_too_large_for_memory_is_a_config_error(self, tmp_path, capsys, text):
        # numpy refuses 1e15 samples (7 PiB) at once, without touching memory
        assert self._run(tmp_path, text + "samples = 1000000000000000\n") == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert "samples = 1000000000000000" in err
        assert not (tmp_path / "w.csv").exists()

    def test_runtime_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(params, meta):
            raise RuntimeError("solver gave up")

        monkeypatch.setitem(cli._RUNNERS, "jcp-vacuum", fail)
        assert self._run(tmp_path, "scenario = jcp-vacuum\n") == 2
        assert "solver gave up" in capsys.readouterr().err

    def test_quadrature_failure_names_the_scenario(self, tmp_path, capsys):
        # no quadrature meets a tolerance of 1e-300
        text = (
            "scenario = parabola-eta\nk_per_mm = 1\nsamples = 11\n"
            "rel_tol = 1e-300\nabs_tol = 1e-300\n"
        )
        assert self._run(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical error: scenario 'parabola-eta': quadrature did not converge"
        )
        assert "Traceback" not in err and not (tmp_path / "w.csv").exists()


class TestToleranceKeys:
    """rel_tol/abs_tol are parabola-eta's probe-quadrature keys and no one else's."""

    def test_other_scenarios_reject_them(self, tmp_path, capsys):
        cfg = tmp_path / "decay.cfg"
        cfg.write_text("scenario = free-decay\nrel_tol = 1e-3\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "w.csv")]) == 1
        err = capsys.readouterr().err
        assert "unknown key 'rel_tol'" in err and "Traceback" not in err
        for scenario in set(cli.SCENARIOS) - {"parabola-eta"}:
            assert not {"rel_tol", "abs_tol"} & set(cli.SCENARIOS[scenario])

    def test_parabola_eta_passes_them_to_the_probe(self, tmp_path, monkeypatch):
        specs = []
        quadrature = parabolic_mirror.eta_quadrature

        def spy(geometry, point, spec):
            specs.append(spec)
            return quadrature(geometry, point, spec)

        monkeypatch.setattr(parabolic_mirror, "eta_quadrature", spy)
        cfg = tmp_path / "eta.cfg"
        cfg.write_text(
            "scenario = parabola-eta\nk_per_mm = 0.7853981633974483\nsamples = 11\n"
            "rel_tol = 1e-7\nabs_tol = 1e-9\n"
        )
        out = tmp_path / "w.csv"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        assert [(s.rel_tol, s.abs_tol) for s in specs] == [(1e-7, 1e-9)]
        meta = read_table(out).metadata
        assert float(meta["rel_tol"]) == 1e-7 and float(meta["abs_tol"]) == 1e-9
        config = cli.parse_config("scenario = parabola-eta\nk_per_mm = 1\n")
        assert (config.params["rel_tol"], config.params["abs_tol"]) == (1e-10, 1e-13)
        # the probe's defaults are eta_quadrature's own, from one definition
        probe = QuadratureSpec(config.params["rel_tol"], config.params["abs_tol"])
        assert probe == parabolic_mirror._theta_spec(0.0, None)
        for bad in ("rel_tol = 0", "abs_tol = -1e-9"):
            with pytest.raises(cli.ConfigError):
                cli.parse_config(f"scenario = parabola-eta\nk_per_mm = 1\n{bad}\n")


class TestGoldenFiles:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_regenerates_exactly(self, name, tmp_path):
        cfg = GOLDEN_DIR / f"{name}.cfg"
        out = tmp_path / f"{name}.csv"
        code, ode_bound = run_config(cfg, out)
        assert code == 0
        golden = read_table(GOLDEN_DIR / f"{name}.csv")
        assert table_mismatches(read_table(out), golden, ode_bound) == []


class TestGoldensUnderAnotherBuild:
    """The goldens hold within tolerance when the two sources of drift that
    `golden_check` names change: numpy's SIMD loops for the elementary
    functions, and the BLAS kernels (their reduction order).  Each switch is
    an environment variable of a child process and the CPU features it turns
    off; the run without a switch is the reference it must differ from."""

    SWITCHES = {
        "numpy-simd-off": (
            {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
            ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
        ),
        "openblas-prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, ("AVX", "AVX2", "AVX512F")),
    }
    RUN_GOLDENS = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from golden_check import run_config\n"
        "bounds = {}\n"
        "for cfg in sorted(Path(sys.argv[1]).glob('*.cfg')):\n"
        "    code, bounds[cfg.stem] = run_config(cfg, Path(sys.argv[2]) / f'{cfg.stem}.csv')\n"
        "    assert code == 0, cfg.stem\n"
        "print(json.dumps(bounds))\n"
    )

    @classmethod
    def run_goldens(cls, out: Path, switch: dict[str, str]) -> dict[str, float | None]:
        """Run every golden config in a fresh interpreter whose environment is
        this one's, without any switch variable, plus `switch`; return the
        finite-band error bound each run recorded."""
        unset = {name for variables, _ in cls.SWITCHES.values() for name in variables}
        env = {k: v for k, v in os.environ.items() if k not in unset}
        env["PYTHONPATH"] = os.pathsep.join((str(SRC_DIR), str(Path(__file__).parent)))
        done = subprocess.run(
            [sys.executable, "-c", cls.RUN_GOLDENS, str(GOLDEN_DIR), str(out)],
            env={**env, **switch},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("reference")
        self.run_goldens(out, {})
        return out

    @pytest.mark.parametrize("switch", sorted(SWITCHES))
    def test_goldens_hold_and_the_switch_changes_a_cell(self, switch, reference, tmp_path):
        from numpy._core._multiarray_umath import __cpu_features__

        variables, features = self.SWITCHES[switch]
        if not any(__cpu_features__.get(f) for f in features):
            pytest.skip(f"this CPU has none of {features}, so {variables} changes nothing")
        differing = 0
        for name, ode_bound in self.run_goldens(tmp_path, variables).items():
            got = read_table(tmp_path / f"{name}.csv")
            golden = read_table(GOLDEN_DIR / f"{name}.csv")
            assert table_mismatches(got, golden, ode_bound) == [], name
            same = read_table(reference / f"{name}.csv")
            differing += sum(int(np.count_nonzero(a != b)) for a, b in zip(got.data, same.data))
        # a switch that moves no cell proves nothing about other builds
        assert differing > 0, f"{variables} changed no cell of the goldens"


class TestImportGraph:
    """No scipy module loads with `import atomfield`, nor in any golden
    scenario: parabola-eta's on-axis probe runs `numerics`' own port of
    QUADPACK, so scipy.integrate (with scipy.optimize and scipy.sparse behind
    it) serves only the DOP853 oracles; each case runs in a fresh interpreter.
    With scipy made unimportable, every scenario still runs and writes the
    same bytes, so numpy is the only runtime dependency."""

    RUN_ALL = (
        "import contextlib, sys\n"
        "from pathlib import Path\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "from atomfield import cli\n"
        "out = Path(sys.argv[2])\n"
        "for cfg in map(Path, sys.argv[3:]):\n"
        "    assert cli.main(['run', str(cfg), '--out', str(out / f'{cfg.stem}.csv')]) == 0, cfg\n"
        "with open(out / 'list-scenarios.txt', 'w') as f, contextlib.redirect_stdout(f):\n"
        "    assert cli.main(['list-scenarios']) == 0\n"
    )

    # the library's own quadratures off the CLI paths: the field energy, both
    # parts, and the rate quadrature with its default spec
    LIBRARY_CALLS = (
        "import sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "from atomfield import free_space, parabolic_mirror as pm\n"
        "atom = free_space.TwoLevelAtom.from_linewidth(1.0, 1e3)\n"
        "geometry = pm.ParabolicGeometry(focal_length=2.0, wavenumber=0.7853981633974483)\n"
        "values = [*free_space.field_energy(atom, 1.0)]\n"
        "values += free_space.field_energy(atom, 1.0, 'electric')\n"
        "values += pm.eta_quadrature(geometry, (0.0, 0.0, 3.0))\n"
        "print(*map(repr, values))\n"
    )

    @staticmethod
    def fresh_run(code: str, *argv: str, timeout: float = 120) -> str:
        """The stdout of `code` run with `argv` in a fresh interpreter."""
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def scipy_loaded_after(self, code: str) -> list[str]:
        """The scipy modules loaded after `code`."""
        probe = "import sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        return self.fresh_run(f"{code}\n{probe}").splitlines()[-1].split()

    def test_import_loads_no_integrator(self):
        assert self.scipy_loaded_after("import atomfield") == []

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_no_golden_scenario_loads_scipy(self, name, tmp_path):
        run = ["run", str(GOLDEN_DIR / f"{name}.cfg"), "--out", str(tmp_path / "out.csv")]
        code = f"from atomfield import cli\nassert cli.main({run!r}) == 0"
        assert self.scipy_loaded_after(code) == []

    def test_every_scenario_runs_without_scipy(self, tmp_path):
        with_ode = tmp_path / "sphere-revival-ode.cfg"
        with_ode.write_text((GOLDEN_DIR / "sphere-revival.cfg").read_text() + "with_ode = true\n")
        configs = [str(GOLDEN_DIR / f"{name}.cfg") for name in GOLDEN_NAMES] + [str(with_ode)]
        outputs = {}
        for mode in ("blocked", "plain"):
            out = tmp_path / mode
            out.mkdir()
            self.fresh_run(self.RUN_ALL, mode, str(out), *configs, timeout=300)
            outputs[mode] = {path.name: path.read_bytes() for path in out.iterdir()}
        blocked, plain = outputs["blocked"], outputs["plain"]
        assert len(blocked) == len(configs) + 1 and blocked.keys() == plain.keys()
        assert [name for name in sorted(blocked) if blocked[name] != plain[name]] == []

    def test_library_quadratures_run_without_scipy(self):
        blocked, plain = (
            self.fresh_run(self.LIBRARY_CALLS, mode).split() for mode in ("blocked", "plain")
        )
        assert len(plain) == 8 and blocked == plain
