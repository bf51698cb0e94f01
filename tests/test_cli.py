import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import frame_blocks
from fbmcber import analytic as an
from fbmcber import cli, simulate
from fbmcber.cli import (
    BUDGET_ERROR,
    COMPARE_ERROR,
    USAGE_ERROR,
    _parse_grid,
    _snr_grid,
    build_parser,
    main,
)

# The benchmark's span tracer; bench/ is a directory of scripts.
sys.path.append(str(Path(__file__).parents[1] / "bench"))
import spans  # noqa: E402


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelp:
    @pytest.mark.parametrize("cmd", ["filter-info", "bep", "simulate", "compare"])
    def test_help_exits_zero(self, capsys, cmd):
        with pytest.raises(SystemExit) as info:
            main([cmd, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out or "usage" in out


class TestFilterInfo:
    def test_martin_report(self, capsys):
        code, out, _ = run_cli(capsys, "filter-info", "--filter", "martin")
        assert code == 0
        assert "65.2" in out
        assert "119" in out

    def test_rect_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "filter-info", "--filter", "rect", "--k", "1")
        assert code == 0
        assert "SIR" in out

    def test_egf_set_size(self, capsys):
        code, out, _ = run_cli(capsys, "filter-info", "--filter", "egf",
                               "--alpha", "1.0")
        assert code == 0
        assert "119" in out

    def test_exports(self, capsys, tmp_path):
        base = str(tmp_path / "report")
        taps = str(tmp_path / "taps.txt")
        code, _, _ = run_cli(capsys, "filter-info", "--out", base,
                             "--taps-out", taps)
        assert code == 0
        table = (tmp_path / "report.csv").read_text().splitlines()
        assert table[0] == "m,n,epsilon"
        assert len(table) == 120
        assert len((tmp_path / "taps.txt").read_text().splitlines()) == 65
        manifest = json.loads((tmp_path / "report.manifest.json").read_text())
        assert manifest["sir_db"] == pytest.approx(65.204, abs=0.01)

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "filter-info", "--filter", "nosuch")
        assert code == USAGE_ERROR
        assert "error" in err

    def test_decay_counts_magnitudes(self, capsys):
        """--decay prints that many magnitudes; a negative count is a usage
        error, not a slice from the end."""
        code, out, _ = run_cli(capsys, "filter-info", "--decay", "3")
        assert code == 0
        assert out.split("largest |eps|:\n")[1].count("\n") == 3
        code, out, err = run_cli(capsys, "filter-info", "--decay", "-2")
        assert code == USAGE_ERROR
        assert out == "" and "--decay must be >= 0, got -2" in err

    def test_third_party_taps_analysis(self, capsys, tmp_path):
        from fbmcber.filters import make_martin, save_taps

        path = tmp_path / "third_party.taps"
        save_taps(make_martin(4, 16), path)
        code, out, _ = run_cli(capsys, "filter-info",
                               "--filter", f"file:{path}", "--k", "4")
        assert code == 0
        assert "65.2" in out

    def test_taps_file_is_scaled_to_unit_energy(self, capsys, tmp_path):
        """Martin taps doubled (exact in binary) give the unit file's curve
        byte for byte, and a simulation that agrees with it."""
        from fbmcber.filters import make_martin

        martin = make_martin(4, 16)
        for name, scale in (("unit", 1.0), ("double", 2.0)):
            (tmp_path / f"{name}.taps").write_text(
                "".join(f"{t:.17g}\n" for t in scale * martin.coeffs))
            code, _, _ = run_cli(capsys, "bep", "--filter",
                                 f"file:{tmp_path / name}.taps", "--k", "4",
                                 "--ebn0", "0:12:3", "--out",
                                 str(tmp_path / f"bep-{name}"))
            assert code == 0
        assert ((tmp_path / "bep-double.csv").read_bytes()
                == (tmp_path / "bep-unit.csv").read_bytes())
        code, _, _ = run_cli(capsys, "compare", "--filter",
                             f"file:{tmp_path / 'double'}.taps", "--k", "4",
                             "--kmax", "3", "--ebn0", "6", "--seed", "1",
                             "--min-errors", "200", "--max-bits", "200000",
                             "--out", str(tmp_path / "cmp"))
        assert code == 0

    def test_taps_file_energy_and_scale_are_recorded(self, capsys, tmp_path):
        """A taps file's energy as written and the scale load_taps applied
        are printed by filter-info and kept in every command's manifest;
        a designed filter's manifest has no taps-file record."""
        from fbmcber.filters import make_martin

        path = tmp_path / "double.taps"
        path.write_text("".join(f"{t:.17g}\n" for t in 2.0 * make_martin(4, 16).coeffs))
        record = {"path": str(path), "energy": 4.0, "scale": 0.5}
        sim = ["--ebn0", "6", "--seed", "1", "--min-errors", "50",
               "--max-bits", "100000"]
        for command in (["filter-info"], ["bep", "--kmax", "3", "--ebn0", "6"],
                        ["simulate", *sim], ["compare", "--kmax", "3", *sim]):
            base = str(tmp_path / command[0])
            code, out, _ = run_cli(capsys, *command, "--filter", f"file:{path}",
                                   "--k", "4", "--out", base)
            assert code == 0
            manifest = json.loads(Path(base + ".manifest.json").read_text())
            assert manifest["taps_file"] == record
            if command == ["filter-info"]:
                assert "pulse energy    1.000000000000000\n" in out
                assert ("file energy     4.000000000000000  (taps scaled by 0.5)\n"
                        in out)
        base = str(tmp_path / "martin")
        code, _, _ = run_cli(capsys, "bep", "--kmax", "3", "--ebn0", "6", "--out", base)
        assert code == 0
        assert "taps_file" not in json.loads(Path(base + ".manifest.json").read_text())

    @pytest.mark.parametrize("command", [
        ["filter-info"],
        ["bep", "--system", "fbmc", "--kmax", "3", "--ebn0", "6"],
    ], ids=["filter-info", "bep"])
    def test_non_finite_taps_file_is_a_usage_error(self, capsys, tmp_path, command):
        """A taps file with a nan line is refused before anything is written,
        rather than giving nan BEPs or an SIR of nan dB."""
        from fbmcber.filters import make_martin, save_taps

        path = tmp_path / "bad.taps"
        save_taps(make_martin(4, 16), path)
        path.write_text(path.read_text() + "nan\n")
        code, out, err = run_cli(capsys, *command, "--filter", f"file:{path}",
                                 "--k", "4", "--out", str(tmp_path / "curve"))
        assert code == USAGE_ERROR
        assert "finite" in err and "nan" not in out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.taps"]

    def test_asymmetric_taps_file_is_a_usage_error(self, capsys, tmp_path):
        """Martin taps with a 1% linear tilt: the table keeps the m + n even
        elements only, right for even-symmetric taps alone, so filter-info,
        bep and compare refuse them before writing anything, naming the
        asymmetry; simulate, whose modem is right for any taps, runs."""
        from fbmcber.filters import make_martin

        taps = make_martin(4, 16).coeffs
        taps = taps * (1 + 0.01 * np.linspace(-1, 1, taps.size))
        path = tmp_path / "tilted.taps"
        path.write_text("".join(f"{t:.17g}\n" for t in taps))
        sim = ["--ebn0", "6", "--seed", "1", "--min-errors", "50",
               "--max-bits", "100000"]
        for command in (["filter-info", "--taps-out", str(tmp_path / "t")],
                        ["bep", "--kmax", "3", "--ebn0", "6"],
                        ["compare", "--kmax", "3", *sim]):
            code, out, err = run_cli(capsys, *command, "--filter",
                                     f"file:{path}", "--k", "4",
                                     "--out", str(tmp_path / "x"))
            assert code == USAGE_ERROR
            assert "not even-symmetric" in err and "0.00238" in err
            assert out == ""
            assert sorted(p.name for p in tmp_path.iterdir()) == ["tilted.taps"]
        code, _, _ = run_cli(capsys, "simulate", *sim, "--filter",
                             f"file:{path}", "--k", "4",
                             "--out", str(tmp_path / "sim"))
        assert code == 0
        assert (tmp_path / "sim.csv").exists()


class TestBep:
    def test_pam_exact_matches_formula(self, capsys, tmp_path):
        base = str(tmp_path / "curve")
        code, _, _ = run_cli(
            capsys, "bep", "--system", "pam", "--np", "2",
            "--ebn0", "0:10:5", "--out", base,
        )
        assert code == 0
        lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "ebn0_db,bep,model,filter,kmax"
        rows = [line.split(",") for line in lines[1:]]
        got = np.array([float(r[1]) for r in rows])
        expected = an.pam_awgn_exact(2, an.db_to_linear([0.0, 5.0, 10.0]))
        assert np.allclose(got, expected, rtol=1e-12)
        assert rows[0][2] == "pam-awgn-exact"

    def test_fbmc_small_kmax(self, capsys, tmp_path):
        base = str(tmp_path / "fbmc")
        code, _, err = run_cli(
            capsys, "bep", "--system", "fbmc", "--kmax", "3",
            "--ebn0", "0,6,12", "--out", base,
        )
        assert code == 0
        assert "enumerated 512 offsets/point as 22 support points" in err
        manifest = json.loads((tmp_path / "fbmc.manifest.json").read_text())
        assert manifest["offsets_per_point"] == 512
        assert manifest["support_points"] == 22  # one |eps| group of 3
        lines = (tmp_path / "fbmc.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[3] == "martin-k4"

    def test_fbmc_time_in_milliseconds(self, capsys, tmp_path):
        """A curve that takes a few milliseconds does not print 0.0s."""
        base = str(tmp_path / "fbmc")
        code, _, err = run_cli(
            capsys, "bep", "--system", "fbmc", "--kmax", "3",
            "--ebn0", "0,6,12", "--out", base,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "fbmc.manifest.json").read_text())
        seconds = manifest["stage_s"]["bep"]
        printed = err.split(" elements in ")[1].split()
        assert printed[1:3] == ["ms", "total"]
        assert float(printed[0]) > 0.0
        assert float(printed[0]) == float(f"{seconds * 1e3:.3g}")

    def test_budget_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bep", "--system", "fbmc", "--kmax", "8",
            "--budget", "800", "--ebn0", "0:2:1",
            "--out", str(tmp_path / "x"),
        )
        assert code == BUDGET_ERROR
        assert "841 support points" in err
        assert "kmax" in err

    @pytest.mark.parametrize("system,channel,form,name", [
        (system, channel, form, f"{system}_{channel}_{form}")
        for system in ("pam", "fbmc") for channel in ("awgn", "rayleigh")
        for form in ("approx", "exact")
    ] + [("ofdm", channel, "exact", f"ofdm_{channel}")
         for channel in ("awgn", "rayleigh")])
    def test_curve_is_the_analytic_function_of_its_name(
            self, capsys, tmp_path, monkeypatch, system, channel, form, name):
        calls = []

        def fake(*args, **kwargs):
            calls.append(name)
            return np.full(2, 0.25)

        monkeypatch.setattr(an, name, fake)
        code, _, _ = run_cli(capsys, "bep", "--system", system, "--channel",
                             channel, "--form", form, "--kmax", "2",
                             "--ebn0", "0,6", "--out", str(tmp_path / "c"))
        assert code == 0
        assert calls == [name]
        rows = (tmp_path / "c.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == [f"{system}-{channel}-{form}"] * 2
        assert [float(r.split(",")[1]) for r in rows] == [0.25, 0.25]

    @pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
    def test_ofdm_approx_is_rejected(self, capsys, tmp_path, channel):
        code, _, err = run_cli(capsys, "bep", "--system", "ofdm", "--channel",
                               channel, "--form", "approx",
                               "--out", str(tmp_path / "x"))
        assert code == USAGE_ERROR
        assert "OFDM curves implement the exact form only" in err
        assert not (tmp_path / "x.csv").exists()


class TestSimulate:
    def test_deterministic_output(self, capsys, tmp_path):
        args = ["simulate", "--system", "pam", "--np", "2", "--channel", "awgn",
                "--ebn0", "2:4:2", "--min-errors", "50", "--max-bits", "200000",
                "--seed", "7"]
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        assert code == 0
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min-errors = 40\nebn0 = 2:2:1  # single point\nseed = 9\n")
        code, _, _ = run_cli(
            capsys, "simulate", "--system", "pam", "--np", "2",
            "--config", str(cfg), "--seed", "11",
            "--max-bits", "100000", "--out", str(tmp_path / "c"),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "c.manifest.json").read_text())
        assert manifest["seed"] == 11  # flag beats config file
        assert manifest["config"]["min_errors"] == 40

    @pytest.mark.parametrize("stop,flags", [
        ("max_bits", ["--ebn0", "4", "--min-errors", "10000000",
                      "--max-bits", "500000"]),
        ("min_errors", ["--ebn0", "0", "--min-errors", "50"]),
        ("target_rel_se", ["--ebn0", "0", "--min-errors", "50",
                           "--target-rel-se", "0.5"]),
    ])
    def test_manifest_records_how_points_stopped(self, capsys, tmp_path, stop,
                                                 flags):
        base = str(tmp_path / "run")
        code, _, _ = run_cli(capsys, "simulate", "--system", "pam", "--np", "8",
                             *flags, "--seed", "4", "--out", base)
        assert code == 0
        (point,) = json.loads(Path(base + ".manifest.json").read_text())["points"]
        assert point["stop"] == stop
        frame_bits = simulate.PamSystem(8).frame_bits
        schedule = [simulate._batch_frames(b, frame_bits)
                    for b in range(point["batches"])]
        assert point["frames"] == sum(schedule)
        assert point["bits"] == point["frames"] * frame_bits
        if stop == "max_bits":
            assert point["batches"] == 2 and point["bits"] >= 500_000
            assert point["bits"] - schedule[-1] * frame_bits < 500_000
        else:
            assert point["batches"] == 1 and point["errors"] >= 50
        assert set(point) >= {"ebn0_db", "errors", "se_block", "upper_bound_only"}
        csv = (tmp_path / "run.csv").read_text().splitlines()[0]
        assert csv == "ebn0_db,bits,errors,ber,ci95,se_block"

    def test_config_run_leaves_no_state(self, capsys, tmp_path):
        """A --config run then a plain run of another subcommand in one
        process writes what two fresh processes write."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min-errors = 40\nebn0 = 2:4:2\nseed = 9\nnp = 4\n")
        runs = [["simulate", "--system", "pam", "--config", str(cfg),
                 "--max-bits", "100000"],
                ["bep", "--system", "pam", "--ebn0", "0:4:2"]]
        for i, argv in enumerate(runs):
            assert run_cli(capsys, *argv, "--out", str(tmp_path / f"in{i}"))[0] == 0
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for i, argv in enumerate(runs):
            subprocess.run([sys.executable, "-m", "fbmcber.cli", *argv,
                            "--out", str(tmp_path / f"fresh{i}")],
                           check=True, env=env, capture_output=True, timeout=120)
            assert ((tmp_path / f"in{i}.csv").read_bytes()
                    == (tmp_path / f"fresh{i}.csv").read_bytes())

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for key in ("frobnicate", "taps-out", "config", "command", "fn", "help"):
            cfg.write_text(f"{key} = 3\n")
            code, _, err = run_cli(
                capsys, "simulate", "--system", "pam", "--config", str(cfg),
            )
            assert code == USAGE_ERROR
            assert f"unknown config key {key!r}" in err

    def test_config_values_checked_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("form = nope\n")
        for flags in (["--config", str(cfg)], ["--form", "nope"]):
            with pytest.raises(SystemExit) as info:
                main(["simulate", "--system", "pam", *flags,
                      "--out", str(tmp_path / "x")])
            assert info.value.code == USAGE_ERROR
            err = capsys.readouterr().err
            assert "argument --form: invalid choice: 'nope'" in err
        assert not (tmp_path / "x.csv").exists()

    def test_abbreviated_flag_beats_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-bits = 5000\nmin-errors = 10000000\nebn0 = 4\n")
        base = str(tmp_path / "run")
        code, _, _ = run_cli(capsys, "simulate", "--system", "pam",
                             "--config", str(cfg), "--max-b", "100000",
                             "--out", base)
        assert code == 0
        manifest = json.loads(Path(base + ".manifest.json").read_text())
        assert manifest["config"]["max_bits"] == 100000
        assert manifest["points"][0]["bits"] >= 100000

    @pytest.mark.parametrize("flags,message", [
        (["--target-rel-se", "nan"], "target_rel_se must be finite and > 0"),
        (["--target-rel-se", "inf"], "target_rel_se must be finite and > 0"),
        (["--target-rel-se", "-1"], "target_rel_se must be finite and > 0"),
        (["--target-rel-se", "0"], "target_rel_se must be finite and > 0"),
        (["--max-bits", "0"], "max_bits must be > 0"),
        (["--max-bits", "-100"], "max_bits must be > 0"),
        (["--min-errors", "-5"], "min_errors must be >= 0"),
        (["--min-frames", "-1"], "min_frames must be >= 0"),
    ], ids=["se-nan", "se-inf", "se-negative", "se-zero", "bits-zero",
            "bits-negative", "errors-negative", "frames-negative"])
    def test_impossible_stop_rule(self, capsys, tmp_path, flags, message):
        code, _, err = run_cli(capsys, "simulate", "--system", "pam",
                               "--ebn0", "4", *flags,
                               "--out", str(tmp_path / "x"))
        assert code == USAGE_ERROR
        assert message in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--ncp", "-1"], "cyclic prefix length must be >= 0, got -1"),
        (["--m", "0"], "need at least one subcarrier, got 0"),
        (["--m", "-4"], "need at least one subcarrier, got -4"),
    ], ids=["cp-negative", "m-zero", "m-negative"])
    def test_impossible_ofdm_system(self, capsys, tmp_path, flags, message):
        for command in ("simulate", "bep"):
            code, _, err = run_cli(capsys, command, "--system", "ofdm",
                                   "--ebn0", "4", *flags,
                                   "--out", str(tmp_path / "x"))
            assert code == USAGE_ERROR
            assert message in err
            assert not (tmp_path / "x.csv").exists()


class TestCompare:
    def test_pam_within_three_sigma(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "compare", "--system", "pam", "--np", "2",
            "--ebn0", "0:6:3", "--min-errors", "200",
            "--max-bits", "2000000", "--seed", "3",
            "--out", str(tmp_path / "cmp"),
        )
        assert code == 0
        lines = (tmp_path / "cmp.csv").read_text().strip().splitlines()
        assert lines[0] == "ebn0_db,bep,ber,bits,errors,ci95,z,flag"
        assert all(line.endswith("OK") for line in lines[1:])

    def test_empty_sim_input(self, capsys, tmp_path):
        sim = tmp_path / "empty.csv"
        sim.write_text("ebn0_db,bits,errors,ber,ci95\n")
        code, _, err = run_cli(
            capsys, "compare", "--system", "pam", "--np", "2",
            "--ebn0", "0:6:3", "--sim-csv", str(sim),
            "--out", str(tmp_path / "cmp"),
        )
        assert code == USAGE_ERROR
        assert "empty" in err

    def test_grid_mismatch(self, capsys, tmp_path):
        sim = tmp_path / "sim.csv"
        sim.write_text("ebn0_db,bits,errors,ber,ci95\n"
                       "1,1000,10,1e-2,6e-3\n")
        code, _, err = run_cli(
            capsys, "compare", "--system", "pam", "--np", "2",
            "--ebn0", "0:6:3", "--sim-csv", str(sim),
            "--out", str(tmp_path / "cmp"),
        )
        assert code == USAGE_ERROR

    def test_reuses_simulation_csv(self, capsys, tmp_path):
        sim_base = tmp_path / "sim"
        code, _, _ = run_cli(
            capsys, "simulate", "--system", "pam", "--np", "2",
            "--ebn0", "2:6:2", "--min-errors", "150",
            "--max-bits", "2000000", "--seed", "5",
            "--out", str(sim_base),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "compare", "--system", "pam", "--np", "2",
            "--ebn0", "2:6:2", "--sim-csv", str(sim_base) + ".csv",
            "--out", str(tmp_path / "cmp"),
        )
        assert code == 0
        assert "worst |z|" in out

    def test_rayleigh_fbmc_csv_round_trip(self, capsys, tmp_path):
        # Under block fading z rests on the frame-replicate SE, which the
        # simulate CSV must carry for --sim-csv to reproduce it.
        args = ["--system", "fbmc", "--channel", "rayleigh", "--kmax", "3",
                "--ebn0", "10,20", "--seed", "1", "--min-errors", "1000000",
                "--max-bits", "500000"]
        sim = str(tmp_path / "sim")
        assert run_cli(capsys, "simulate", *args, "--out", sim)[0] == 0
        codes = [
            run_cli(capsys, "compare", *args, "--out", str(tmp_path / "a"))[0],
            run_cli(capsys, "compare", *args, "--sim-csv", sim + ".csv",
                    "--out", str(tmp_path / "b"))[0],
        ]
        assert codes[0] == codes[1]

        def z_column(name):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            return [line.split(",")[6] for line in lines[1:]]

        assert z_column("a") == z_column("b")

    @pytest.mark.parametrize("row", ["6,1000,1001", "6,1000,-3"],
                             ids=["errors-above-bits", "negative-errors"])
    def test_impossible_counts(self, capsys, tmp_path, row):
        sim = tmp_path / "sim.csv"
        sim.write_text(f"ebn0_db,bits,errors\n{row}\n")
        code, _, err = run_cli(
            capsys, "compare", "--system", "pam", "--np", "2",
            "--ebn0", "6", "--sim-csv", str(sim),
            "--out", str(tmp_path / "cmp"),
        )
        assert code == USAGE_ERROR
        assert "error count" in err

    @pytest.mark.parametrize("se_block", ["nan", "inf", "-1e-3"])
    def test_bad_se_block(self, capsys, tmp_path, se_block):
        sim = tmp_path / "sim.csv"
        sim.write_text("ebn0_db,bits,errors,ber,ci95,se_block\n"
                       f"6,100000,5000,5.0e-2,1.4e-3,{se_block}\n")
        code, _, err = run_cli(
            capsys, "compare", "--system", "pam", "--np", "2",
            "--ebn0", "6", "--sim-csv", str(sim),
            "--out", str(tmp_path / "cmp"),
        )
        assert code == USAGE_ERROR
        assert "se_block" in err

    def test_non_finite_z_fails(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "z_scores", lambda result, prob: np.array([np.nan]))
        sim = tmp_path / "sim.csv"
        sim.write_text("ebn0_db,bits,errors\n6,100000,3\n")
        code, _, err = run_cli(
            capsys, "compare", "--system", "pam", "--np", "2",
            "--ebn0", "6", "--sim-csv", str(sim),
            "--out", str(tmp_path / "cmp"),
        )
        assert code == COMPARE_ERROR
        assert "DIVERGENT" in (tmp_path / "cmp.csv").read_text()
        assert "FAILED at 1 of 1 points" in err
        assert "6 dB: z = +nan" in err

    def test_divergence_exit_code(self, capsys, tmp_path):
        # A deliberately wrong analytic target (BPSK curve vs 8-PAM sim);
        # the message names the failing point and the SE that set its z.
        sim = tmp_path / "sim.csv"
        for se_block, source in (("", "binomial"), (",1e-2", "se_block"),
                                 (",1e-5", "binomial")):
            header = "ebn0_db,bits,errors,ber,ci95" + (",se_block" if se_block else "")
            sim.write_text(f"{header}\n"
                           f"0,100000,7900,7.9e-2,1.7e-3{se_block}\n"
                           f"6,100000,5000,5.0e-2,1.4e-3{se_block}\n")
            code, _, err = run_cli(
                capsys, "compare", "--system", "pam", "--np", "2",
                "--ebn0", "0,6", "--sim-csv", str(sim),
                "--out", str(tmp_path / "cmp"),
            )
            assert code == COMPARE_ERROR
            lines = err.strip().splitlines()
            assert lines[0] == "comparison FAILED at 1 of 2 points beyond 3 sigma:"
            assert lines[1].startswith("  6 dB: z = +")
            assert lines[1].endswith(f"from {source}")
            assert len(lines) == 2

    def test_implied_se_named(self, capsys, tmp_path):
        # No errors where the curve expects many: the analytic SE is largest.
        sim = tmp_path / "sim.csv"
        sim.write_text("ebn0_db,bits,errors\n0,100000,0\n")
        code, _, err = run_cli(
            capsys, "compare", "--system", "pam", "--np", "2", "--ebn0", "0",
            "--sim-csv", str(sim), "--out", str(tmp_path / "cmp"),
        )
        assert code == COMPARE_ERROR
        assert "0 dB: z = -" in err and err.rstrip().endswith("from implied")


class TestRunManifest:
    @pytest.mark.parametrize("argv,stages", [
        (["filter-info"], {"filter_design", "build_set"}),
        (["bep", "--kmax", "3", "--ebn0", "0:4:2"],
         {"filter_design", "build_set", "bep"}),
        (["bep", "--system", "pam", "--ebn0", "0:4:2"], {"bep"}),
        (["compare", "--kmax", "3", "--ebn0", "4", "--min-errors", "50",
          "--max-bits", "100000"],
         {"filter_design", "build_set", "bep", "simulate"}),
        (["simulate", "--ebn0", "4", "--min-errors", "50",
          "--max-bits", "100000"], {"filter_design", "simulate"}),
        (["simulate", "--system", "ofdm", "--ebn0", "4", "--min-errors", "50",
          "--max-bits", "100000"], {"simulate"}),
    ])
    def test_versions_and_stage_times(self, capsys, tmp_path, argv, stages):
        base = str(tmp_path / "run")
        code, _, _ = run_cli(capsys, *argv, "--out", base)
        assert code == 0
        manifest = json.loads(Path(base + ".manifest.json").read_text())
        versions = manifest["versions"]
        assert set(versions) == {"fbmcber", "numpy", "scipy", "python", "blas"}
        assert versions["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert versions["blas"] == f"{blas.get('name')} {blas.get('version')}"
        assert versions["python"] == ".".join(map(str, sys.version_info[:3]))
        assert set(manifest["stage_s"]) == stages
        assert all(t >= 0.0 for t in manifest["stage_s"].values())


class TestTrace:
    def test_compare_records_every_layer(self, capsys, tmp_path):
        """The benchmark's per-layer metrics read spans of names it patches
        in the package; an in-process FBMC compare must reach all of them."""
        tracer = spans.Tracer()
        with spans.traced(tracer):
            code, _, _ = run_cli(capsys, "compare", "--filter", "martin",
                                 "--kmax", "3", "--ebn0", "6",
                                 "--min-errors", "50", "--max-bits", "50000",
                                 "--out", str(tmp_path / "cmp"))
        assert code == 0
        assert {s.name for s in tracer.spans} >= {
            "make_martin", "build_set", "truncate", "fbmc_exact",
            "reduce_offsets", "run_ber", "fbmc_frames", "synthesize",
            "analyze", "z_scores"}

    @pytest.mark.parametrize("system,flags", [
        ("pam", ["--np", "4"]),
        ("ofdm", ["--nq", "16", "--m", "16", "--ncp", "2"]),
    ])
    def test_pam_and_ofdm_compare_record_their_layers(self, capsys, tmp_path,
                                                       system, flags):
        def blocks(system, channel, gamma_b, frames, rng):
            return {"blocks": len(frame_blocks(system, frames))}

        patches = [(*p[:4], blocks) if p[1].endswith(".simulate_frames") else p
                   for p in spans.PATCHES]
        tracer = spans.Tracer()
        with spans.traced(tracer, patches):
            code, _, _ = run_cli(capsys, "compare", "--system", system, *flags,
                                 "--ebn0", "4,8", "--min-errors", "50",
                                 "--max-bits", "300000",
                                 "--out", str(tmp_path / "cmp"))
        assert code == 0
        frames = f"{system}_frames"
        assert {s.name for s in tracer.spans} >= {
            "closed_form", "run_ber", frames, "map", "demap", "z_scores"}
        # one map and one demap per block, called by the batch itself:
        # QAM as PAM over the interleaved parts nests no traced call
        batches = [i for i, s in enumerate(tracer.spans) if s.name == frames]
        per_batch = [tracer.spans[i].attrs["blocks"] for i in batches]
        assert max(per_batch) >= 3
        for name in ("map", "demap"):
            parents = [s.parent for s in tracer.spans if s.name == name]
            assert [parents.count(i) for i in batches] == per_batch


class TestGridParsing:
    def test_parser_builds(self):
        assert build_parser() is not None

    def test_bad_grid(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "bep", "--system", "pam", "--np", "2",
            "--ebn0", "10:0:1", "--out", str(tmp_path / "x"),
        )
        assert code == USAGE_ERROR

    @pytest.mark.parametrize("system", ["pam", "fbmc"])
    @pytest.mark.parametrize("grid", ["nan,inf", "0,inf", "nan:4:1", "0:inf:1"])
    def test_non_finite_grid(self, capsys, tmp_path, system, grid):
        code, _, err = run_cli(
            capsys, "bep", "--system", system, "--kmax", "3",
            "--ebn0", grid, "--out", str(tmp_path / "x"),
        )
        assert code == USAGE_ERROR
        assert "values must be finite" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("grid", ["0:1e308:1e-300", "0:1e12:1e-6"])
    def test_oversized_range(self, capsys, tmp_path, grid):
        """A range of more than 10**6 points, or of a count that overflows a
        float, is a usage error that names the grid, not a traceback."""
        code, _, err = run_cli(
            capsys, "bep", "--system", "pam", "--ebn0", grid,
            "--out", str(tmp_path / "x"),
        )
        assert code == USAGE_ERROR
        assert f"bad grid {grid!r}: more than 1000000 points" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command,flags", [
        ("bep", ["--filter", "egf", "--alpha", "0.25", "--channel",
                 "rayleigh"]),
        ("simulate", ["--system", "pam"]),
        ("compare", ["--system", "pam"]),
    ], ids=["bep", "simulate", "compare"])
    @pytest.mark.parametrize("grid", ["3100", "0,3100", "3000:3100:100"])
    def test_overflowing_point(self, capsys, tmp_path, command, flags, grid):
        """A point whose linear SNR overflows is a usage error that names
        it, not a NaN curve or an overflow warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, command, *flags, "--ebn0", grid,
                                   "--out", str(tmp_path / "x"))
        assert code == USAGE_ERROR
        assert f"bad grid {grid!r}: 3100 dB overflows the linear SNR" in err
        assert not any(tmp_path.iterdir())

    def test_largest_points_parse(self):
        assert _snr_grid("-3000,3000,3082.5").tolist() == [-3000.0, 3000.0,
                                                           3082.5]
        with pytest.raises(ValueError, match="3082.6 dB overflows"):
            _snr_grid("3082.6")

    def test_range_of_the_most_points(self):
        assert len(_parse_grid("0:999999:1")) == 10**6
        with pytest.raises(ValueError, match="more than 1000000 points"):
            _parse_grid("0:1000000:1")

    @pytest.mark.parametrize("text,expected", [
        ("0:11:3", [0.0, 3.0, 6.0, 9.0]),
        ("0:12:3", [0.0, 3.0, 6.0, 9.0, 12.0]),
        ("0:1:0.1", [0.1 * i for i in range(11)]),
        ("5:5", [5.0]),
        ("0,2.5", [0.0, 2.5]),
    ])
    def test_range_stops_at_or_before_stop(self, text, expected):
        assert np.allclose(_parse_grid(text), expected, rtol=0, atol=1e-12)
        assert len(_parse_grid(text)) == len(expected)
