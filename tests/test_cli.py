import os
from types import SimpleNamespace

import numpy as np
import pytest

from unruh_steering import cli, sweep
from unruh_steering.cli import main
from unruh_steering.sweep import CSV_HEADER


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--scenario", "qubit",
                "--p", "0.0,0.1",
                "--r", "0:0.7:3",
                "--quantities", "d_total,steer_ab",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 3 * 2
        assert "wrote 12 records" in capsys.readouterr().out

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--scenario", "none", "--p", "0.25", "--quantities", "lqu",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("[")

    def test_invalid_p_is_config_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "--scenario", "none", "--p", "0.9", "--quantities", "lqu",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_bad_r_spec_is_config_error(self, tmp_path):
        code = main(
            ["sweep", "--scenario", "qubit", "--p", "0.1", "--r", "0..1",
             "--quantities", "d_total", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1

    def test_r_steps_above_the_cap_fail_before_the_grid_is_allocated(self, tmp_path, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("np.linspace called")

        monkeypatch.setattr(cli.np, "linspace", no_grid)
        out = tmp_path / "x.csv"
        code = main(
            ["sweep", "--scenario", "qubit", "--p", "0.1", "--r", "0:0.7:1000000000000",
             "--quantities", "d_total", "--out", str(out)]
        )
        assert code == 1
        assert "steps must be in" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(sweep.ConfigError):
            cli._parse_r_grid(f"0:0.7:{sweep.GRID_POINTS_MAX + 1}")

    def test_r_steps_at_the_cap_build_the_grid(self, monkeypatch):
        calls = []

        def small_grid(start, end, steps):
            calls.append(steps)
            return [start, end]

        monkeypatch.setattr(cli.np, "linspace", small_grid)
        assert cli._parse_r_grid(f"0:0.7:{sweep.GRID_POINTS_MAX}") == (0.0, 0.7)
        assert calls == [sweep.GRID_POINTS_MAX]

    def test_grid_above_the_cap_is_config_error_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def no_evaluation(task):
            raise AssertionError("grid point evaluated")

        monkeypatch.setattr(sweep, "_evaluate_chunk", no_evaluation)
        out = tmp_path / "x.csv"
        code = main(
            ["sweep", "--scenario", "qubit", "--p", "0.1,0.2", "--r", "0:0.7:50001",
             "--quantities", "d_total", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "exceeds the cap" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--scenario", "qubit", "--p", "0.1,0.1", "--r", "0:0.5:2", "--quantities", "lqu,lqu"],
             "repeated quantity 'lqu'"),
            (["--scenario", "qubit", "--p", "0.1,0.2,0.1", "--r", "0:0.5:2"], "repeated p 0.1"),
            (["--scenario", "qutrit", "--p", "0.1", "--r", "0.3:0.3:2"], "repeated r 0.3"),
            (["--scenario", "none", "--p", "0.1", "--r", "0:0.7:3"], "single r value, got 3"),
        ],
        ids=["quantity", "p", "r", "none-with-r-grid"],
    )
    def test_repeated_output_key_is_config_error_and_writes_nothing(self, tmp_path, capsys, args, message):
        out = tmp_path / "x.csv"
        assert main(["sweep", *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_fifo_out_is_config_error(self, tmp_path, capsys):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        code = main(
            ["sweep", "--scenario", "none", "--p", "0.1", "--quantities", "d_total",
             "--out", str(fifo)]
        )
        assert code == 1
        assert "not a regular file" in capsys.readouterr().err

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["sweep", "--scenario", "warp"]) == 1

    def test_missing_directory_is_io_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "--scenario", "none", "--p", "0.1", "--quantities", "d_total",
             "--out", str(tmp_path / "no_dir" / "x.csv")]
        )
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
    def test_non_finite_phi_is_config_error_and_writes_nothing(self, tmp_path, capsys, phi):
        out = tmp_path / "x.csv"
        code = main(
            ["sweep", "--scenario", "qutrit", "--p", "0.1", f"--phi={phi}",
             "--quantities", "d_total", "--out", str(out)]
        )
        assert code == 1
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_zero_writes_the_bytes_of_zero(self, tmp_path, fmt):
        outputs = []
        for zero in ("-0.0", "0"):
            out = tmp_path / f"{zero}.{fmt}"
            code = main(
                ["sweep", "--scenario", "qubit", f"--p={zero}", f"--r={zero}:0:1", f"--phi={zero}",
                 "--quantities", "lqu,i_ab_closed", "--format", fmt, "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"-0" not in outputs[0]

    def test_failed_render_leaves_no_partial_file(self, tmp_path, monkeypatch):
        calls = []

        def fail_on_value(value):
            calls.append(value)
            if len(calls) > 5:  # the first record's fields render, then rendering fails
                raise ValueError("render failed")
            return "0"

        monkeypatch.setattr(sweep, "format_value", fail_on_value)
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="render failed"):
            main(["sweep", "--scenario", "none", "--p", "0.1,0.2", "--quantities", "d_total",
                  "--out", str(out)])
        assert list(tmp_path.iterdir()) == []

    def test_value_rounding_to_a_power_of_ten_keeps_twelve_digits(self, tmp_path, monkeypatch):
        def rounding_values(matrices):
            return SimpleNamespace(d_total=np.full(len(matrices), 9.9999999999999))

        monkeypatch.setattr(sweep, "decoherence_stack", rounding_values)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--scenario", "none", "--p", "0.1", "--quantities", "d_total", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith(",d_total,10.0000000000")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", ["0:1e400:3", "nan:0.5:1", "0:-inf:2", "-1e308:1e308:3"])
    def test_non_finite_r_grid_is_a_one_line_config_error(self, tmp_path, capsys, spec):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--scenario", "qubit", "--p", "0.1", f"--r={spec}", "--quantities", "d_total",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --r: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_out_name_near_the_length_limit_is_written_with_the_mode_of_open(self, tmp_path, capsys):
        out = tmp_path / ("a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 7) + ".csv")
        umask = os.umask(0o027)
        try:
            assert main(["sweep", "--scenario", "none", "--p", "0.1", "--quantities", "d_total",
                         "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert len(out.read_text().splitlines()) == 2
        assert os.stat(out).st_mode & 0o777 == 0o640
        assert [entry.name for entry in tmp_path.iterdir()] == [out.name]

    def test_out_name_past_the_length_limit_is_one_line_io_error(self, tmp_path, capsys):
        out = tmp_path / ("a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 3) + ".csv")
        code = main(["sweep", "--scenario", "none", "--p", "0.1", "--quantities", "d_total",
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: cannot write {out}: ") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_required_setting(self, capsys):
        assert main(["sweep", "--p", "0.1"]) == 1
        assert "--scenario" in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_drives_sweep(self, tmp_path):
        out = tmp_path / "from_config.csv"
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "# steering sweep\n"
            "scenario = qutrit\n"
            "p = 0.0,0.1\n"
            "r = 0:0.5:3\n"
            "quantities = d_total\n"
            f"out = {out}\n"
        )
        assert main(["sweep", "--config", str(config)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 3

    def test_flags_override_config(self, tmp_path):
        flagged = tmp_path / "flagged.csv"
        config = tmp_path / "sweep.cfg"
        config.write_text(
            f"scenario = qubit\np = 0.3\nquantities = d_total\nout = {tmp_path / 'ignored.csv'}\n"
        )
        assert main(["sweep", "--config", str(config), "--out", str(flagged)]) == 0
        assert flagged.exists()
        assert not (tmp_path / "ignored.csv").exists()

    @pytest.mark.parametrize(
        "entry", ["scenario = warp", "convention = x", "format = xml", "workers = two", "phi = abc"]
    )
    def test_bad_entry_is_config_error_naming_the_setting(self, tmp_path, capsys, entry):
        out = tmp_path / "x.csv"
        config = tmp_path / "sweep.cfg"
        config.write_text(f"scenario = qubit\np = 0.1\nquantities = d_total\nout = {out}\n{entry}\n")
        assert main(["sweep", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"--{entry.split()[0]}" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_flag_before_config_overrides(self, tmp_path):
        flagged = tmp_path / "flagged.csv"
        config = tmp_path / "sweep.cfg"
        config.write_text(
            f"scenario = qubit\np = 0.3\nquantities = d_total\nout = {tmp_path / 'ignored.csv'}\n"
        )
        assert main(["sweep", "--out", str(flagged), "--config", str(config)]) == 0
        assert flagged.exists()
        assert not (tmp_path / "ignored.csv").exists()

    @pytest.mark.parametrize("spelling", [["--config={}"], ["--conf", "{}"]], ids=["equals", "prefix"])
    def test_config_spellings_read_the_file(self, tmp_path, spelling):
        out = tmp_path / "from_config.csv"
        config = tmp_path / "sweep.cfg"
        config.write_text(f"scenario = qubit\np = 0.3\nquantities = d_total\nout = {out}\n")
        assert main(["sweep", *(arg.format(config) for arg in spelling)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_help_is_printed_without_reading_the_config(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--config", str(tmp_path / "none.cfg"), "--he"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: unruh-steering sweep")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("acceleration = 3\n")
        assert main(["sweep", "--config", str(config)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_config_keys_are_the_sweep_flag_names(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("# comment\n\nhelp = 1\n")
        assert main(["sweep", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: {config}:3: unknown key 'help'; "
            "known: scenario, p, r, phi, quantities, convention, format, out, workers\n"
        )

    def test_malformed_line_rejected(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("scenario qubit\n")
        assert main(["sweep", "--config", str(config)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "none.cfg")]) == 1

    def test_byte_order_mark_does_not_change_the_sweep(self, tmp_path):
        outputs = []
        for name, bom in (("plain", ""), ("bom", "\ufeff")):
            config, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            text = f"{bom}scenario = qubit\np = 0.3\nquantities = d_total\nout = {out}\n"
            config.write_text(text, encoding="utf-8")
            assert main(["sweep", "--config", str(config)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        config = tmp_path / "sweep.cfg"
        config.write_bytes(b"\xff\xfescenario = qubit\n" + f"out = {out}\n".encode())
        assert main(["sweep", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read config file") and err.count("\n") == 1
        assert not out.exists()


class TestPresetCommand:
    def test_runs_preset(self, tmp_path, capsys):
        out = tmp_path / "fig4a.csv"
        assert main(["preset", "fig4a", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 101 * 3
        assert "preset fig4a" in capsys.readouterr().out

    def test_unknown_preset_is_config_error(self, tmp_path):
        assert main(["preset", "fig9z", "--out", str(tmp_path / "x.csv")]) == 1


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "verification passed" in out


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
