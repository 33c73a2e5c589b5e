"""Config parsing, CSV round trips and scenario plumbing."""

from pathlib import Path

import numpy as np
import pytest

from atomfield import cli
from golden_check import run_config, table_mismatches

GOLDEN_DIR = Path(__file__).parent / "golden"


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


class TestTableIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [tuple(rng.uniform(-1e3, 1e3, 2)) for _ in range(20)]
        rows.append((1.0 / 3.0, np.pi))
        table = cli.ResultTable(["a", "b"], rows, {"scenario": "test"})
        path = tmp_path / "t.csv"
        cli.write_table(table, path)
        back = cli.read_table(path)
        assert back.columns == ["a", "b"]
        assert back.metadata["scenario"] == "test"
        for got, want in zip(back.rows, rows):
            assert got == want  # bit-exact, not approx

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        cli.write_table(cli.ResultTable(["x"], []), path)
        assert path.read_text() == "x\n"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            cli.ResultTable(["a", "b"], [(1.0,)])

    def test_write_failure_has_path_context(self, tmp_path):
        table = cli.ResultTable(["x"], [(1.0,)])
        with pytest.raises(OSError, match="no/such"):
            cli.write_table(table, str(tmp_path / "no/such/dir.csv"))


class TestMain:
    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in cli.SCENARIOS:
            assert name in out

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.cfg"), "--out", "x.csv"]) == 3

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = banana\n")
        assert cli.main(["run", str(cfg), "--out", "x.csv"]) == 1

    def test_validate_only(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = jcp-vacuum\n")
        assert cli.main(["validate", str(cfg)]) == 0
        assert "valid" in capsys.readouterr().out

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
        table = cli.read_table(out)
        assert table.metadata["t_max"] == "1"
        assert table.rows[-1][0] == 1.0

    def test_metadata_records_parameters(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = sphere-revival\ngamma_R = 1\nsamples = 31\n")
        out = tmp_path / "w.csv"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        meta = cli.read_table(out).metadata
        assert meta["scenario"] == "sphere-revival"
        assert meta["gamma_R"] == "1"
        assert meta["format_version"] == "1"

    def test_eta_scan_reports_quadrature_error(self, tmp_path):
        cfg = tmp_path / "eta.cfg"
        cfg.write_text(
            "scenario = parabola-eta\nk_per_mm = 0.7853981633974483\nsamples = 11\n"
        )
        out = tmp_path / "w.csv"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        meta = cli.read_table(out).metadata
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
        ],
    )
    def test_guard_is_a_config_error(self, tmp_path, capsys, text):
        assert self._run(tmp_path, text) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            # Gamma of these atoms rounds one ulp off 1, so each value sits
            # one ulp on the wrong side of its documented boundary
            "scenario = free-decay\nt_max = 0.5\nsamples = 3\n"
            "band_width = 20\nomega_over_gamma = 622.264\n",
            "scenario = free-decay\nt_max = 0.5\nsamples = 3\n"
            "spacing = 0.05\nomega_over_gamma = 4358.13\n",
            "scenario = parabola-field\nomega_f = 50\nf = 4.1\nn_z = 3\nn_rho = 3\n",
        ],
    )
    def test_boundary_value_is_accepted(self, tmp_path, text):
        assert self._run(tmp_path, text) == 0

    def test_runtime_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(config):
            raise RuntimeError("solver gave up")

        monkeypatch.setitem(cli._RUNNERS, "jcp-vacuum", fail)
        assert self._run(tmp_path, "scenario = jcp-vacuum\n") == 2
        assert "solver gave up" in capsys.readouterr().err


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in GOLDEN_DIR.glob("*.cfg"))
    )
    def test_regenerates_exactly(self, name, tmp_path):
        cfg = GOLDEN_DIR / f"{name}.cfg"
        out = tmp_path / f"{name}.csv"
        code, ode_tolerance = run_config(cfg, out)
        assert code == 0
        golden = cli.read_table(GOLDEN_DIR / f"{name}.csv")
        assert table_mismatches(cli.read_table(out), golden, ode_tolerance) == []
