"""Config parsing, subcommand outputs, exit codes, and reproducibility."""

import ast
import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from alphaduplex import cli, montecarlo, sweep
from alphaduplex.analytic import ber_downlink, ber_uplink
from alphaduplex.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_QUADRATURE,
    EXIT_REFINEMENT,
    EXIT_STARVATION,
    EXIT_VALIDATION,
    ConfigError,
    parse_alpha_grid,
    parse_config,
)
from alphaduplex.model import Direction, SystemParams
from alphaduplex.montecarlo import EmpiricalMetrics, SimConfig, run_campaign
from alphaduplex.pulse import BandPlan, PulseKind, PulsePair, interference_factors, make_pulses
from alphaduplex.specfun import QuadratureError


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _scipy_modules_after(code):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    script = ("import sys; from alphaduplex import cli; " + code + "; "
              "print(sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


# every unit suffix in lower and upper case, and bare numbers, as parsed
UNIT_VALUES = [
    ("rho", "30 dBm", 1.0), ("rho", "30 dbm", 1.0), ("rho", "30 DBM", 1.0),
    ("rho", "-70 dBm", 1e-10),
    ("p_b", "5 mW", 0.005), ("p_b", "5 mw", 0.005), ("p_b", "5 MW", 0.005),
    ("n0", "2 W", 2.0), ("n0", "2 w", 2.0), ("p_u_max", "0.25", 0.25),
    ("beta", "-80 dB", 1e-08), ("beta", "20 db", 100.0),
    ("beta", "-30 DB", 0.001), ("beta", "0.5", 0.5),
    ("b_u", "1.5 GHz", 1.5e9), ("b_u", "1.5 ghz", 1.5e9),
    ("b_u", "1.5 GHZ", 1.5e9), ("b_d", "2 MHz", 2e6), ("b_d", "2 mhz", 2e6),
    ("b_d", "2 MHZ", 2e6), ("b_u", "3 kHz", 3000.0), ("b_u", "3 khz", 3000.0),
    ("b_u", "3 KHZ", 3000.0), ("b_d", "7 Hz", 7.0), ("b_d", "7 hz", 7.0),
    ("b_d", "7 HZ", 7.0), ("b_u", "1e6", 1e6), ("b_u", "1e999 Hz", math.inf),
    ("lambda_bs", "3 /km2", 3.0), ("lambda_bs", "3 /KM2", 3.0),
    ("lambda_bs", "2.5", 2.5),
    ("region_side", "20 km", 20.0), ("core_side", "2 KM", 2.0),
    ("region_side", "12.5", 12.5),
    ("eta", "4", 4.0), ("omega2_d", "0.5", 0.5), ("m_symbols", "2", 2),
    ("n_realizations", "300", 300), ("seed", " 7 ", 7),
]

MALFORMED = [   # (key, value, the full message)
    ("lambda_bs", "lots", "lambda_bs: cannot parse density value 'lots' (per km2)"),
    ("eta", "lots", "eta: cannot parse number 'lots'"),
    ("rho", "lots", "rho: cannot parse power value 'lots' (use W, mW, or dBm)"),
    ("p_b", "lots", "p_b: cannot parse power value 'lots' (use W, mW, or dBm)"),
    ("p_u_max", "lots",
     "p_u_max: cannot parse power value 'lots' (use W, mW, or dBm)"),
    ("beta", "lots",
     "beta: cannot parse ratio value 'lots' (use a linear value or dB)"),
    ("n0", "lots", "n0: cannot parse power value 'lots' (use W, mW, or dBm)"),
    ("b_u", "lots",
     "b_u: cannot parse frequency value 'lots' (use Hz, kHz, MHz, or GHz)"),
    ("b_d", "lots",
     "b_d: cannot parse frequency value 'lots' (use Hz, kHz, MHz, or GHz)"),
    ("omega1_u", "lots", "omega1_u: cannot parse number 'lots'"),
    ("omega2_u", "lots", "omega2_u: cannot parse number 'lots'"),
    ("omega1_d", "lots", "omega1_d: cannot parse number 'lots'"),
    ("omega2_d", "lots", "omega2_d: cannot parse number 'lots'"),
    ("m_symbols", "lots", "m_symbols: cannot parse integer 'lots'"),
    ("n_realizations", "lots", "n_realizations: cannot parse integer 'lots'"),
    ("seed", "lots", "seed: cannot parse integer 'lots'"),
    ("region_side", "lots", "region_side: cannot parse length value 'lots' (km)"),
    ("core_side", "lots", "core_side: cannot parse length value 'lots' (km)"),
    # 10 ** 400 overflows a double; unknown or missing numbers
    ("rho", "4000 dBm",
     "rho: cannot parse power value '4000 dBm' (use W, mW, or dBm)"),
    ("beta", "4000 dB",
     "beta: cannot parse ratio value '4000 dB' (use a linear value or dB)"),
    ("p_b", "5 kW", "p_b: cannot parse power value '5 kW' (use W, mW, or dBm)"),
    ("n0", "W", "n0: cannot parse power value 'W' (use W, mW, or dBm)"),
    ("b_d", "1 THz",
     "b_d: cannot parse frequency value '1 THz' (use Hz, kHz, MHz, or GHz)"),
    ("m_symbols", "2.0", "m_symbols: cannot parse integer '2.0'"),
]


class TestParseConfig:
    def test_empty_document_gives_reference_defaults(self):
        cfg = parse_config("")
        assert cfg.params == SystemParams()
        assert cfg.sim == SimConfig(n_realizations=100, seed=1)
        assert cfg.pulses == PulsePair(uplink=PulseKind.TRIANGULAR,
                                       downlink=PulseKind.RECTANGULAR)
        assert cfg.alpha_grid[0] == 0.0
        assert cfg.alpha_grid[-1] == 1.0
        assert len(cfg.alpha_grid) == 11

    def test_dbm_and_watts_agree(self):
        a = parse_config("[params]\nrho = -70 dBm\n")
        b = parse_config("[params]\nrho = 1e-10 W\n")
        assert a.params.rho == b.params.rho

    def test_unit_suffixes(self):
        cfg = parse_config(
            "[params]\n"
            "beta = -80 dB\n"
            "b_u = 1 MHz\n"
            "b_d = 2000 kHz\n"
            "lambda_bs = 3 /km2\n"
            "p_b = 5000 mW\n"
            "[sim]\n"
            "region_side = 20 km\n")
        assert cfg.params.beta == pytest.approx(1e-8, rel=1e-12)
        assert cfg.params.b_u == 1e6
        assert cfg.params.b_d == 2e6
        assert cfg.params.lambda_bs == 3.0
        assert cfg.params.p_b == pytest.approx(5.0, rel=1e-12)
        assert cfg.sim.region_side == 20.0

    def test_path_loss_exponent_validated(self):
        with pytest.raises(ConfigError, match="eta"):
            parse_config("[params]\neta = 1.5\n")

    def test_unknown_keys_and_sections_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config("[params]\nbogus = 3\n")
        with pytest.raises(ConfigError, match="mystery"):
            parse_config("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError):
            parse_config("not an ini document")
        for section, key in (("sim", "candidate_cap"), ("sweep", "refine_tol")):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(f"[{section}]\n{key} = 1\n")

    def test_pulse_names(self):
        cfg = parse_config("[pulses]\nuplink = rectangular\n"
                           "downlink = triangular\n")
        assert cfg.pulses.uplink is PulseKind.RECTANGULAR
        assert cfg.pulses.downlink is PulseKind.TRIANGULAR
        with pytest.raises(ConfigError, match="gaussian"):
            parse_config("[pulses]\nuplink = gaussian\n")

    def test_sweep_section(self):
        cfg = parse_config("[sweep]\nalpha_grid = 0:1:0.5\n")
        assert cfg.alpha_grid == (0.0, 0.5, 1.0)

    def test_bad_quantity_messages_name_the_key(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config("[params]\nrho = lots\n")
        with pytest.raises(ConfigError, match="n_realizations"):
            parse_config("[sim]\nn_realizations = many\n")

    @pytest.mark.parametrize("key, raw, expected", UNIT_VALUES)
    def test_converted_values(self, key, raw, expected):
        parse = {**cli._PARAM_PARSERS, **cli._SIM_PARSERS}[key]
        value = parse(raw, key)
        assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize("key, raw, message", MALFORMED)
    def test_malformed_value_messages(self, key, raw, message):
        section = "params" if key in cli._PARAM_PARSERS else "sim"
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[{section}]\n{key} = {raw}\n")
        assert str(exc.value) == message

    def test_every_key_has_a_malformed_case(self):
        keys = [*cli._PARAM_PARSERS, *cli._SIM_PARSERS]
        assert [key for key, raw, _ in MALFORMED if raw == "lots"] == keys


class TestAlphaGrid:
    def test_inclusive_expansion(self):
        assert parse_alpha_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert parse_alpha_grid("0.5:0.5:1") == (0.5,)
        assert len(parse_alpha_grid("0:1:1e-5")) == 100_001   # the bound

    def test_endpoint_snapping(self):
        grid = parse_alpha_grid("0:1:0.1")
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 11
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_rejections(self):
        for bad in ("0:1", "0:1:0", "1:0:0.1", "0:2:0.5", "a:b:c",
                    "nan:1:0.1", "0:1:nan", "0:inf:0.1", "0:1.05:0.5",
                    "0:1:5e-324", "0:1:1e-12", "0:1e-13:1e-14"):
            with pytest.raises(ConfigError):
                parse_alpha_grid(bad)

    @pytest.mark.parametrize("command", ["factors", "analytic", "sweep",
                                         "validate"])
    def test_grid_repeated_by_snapping(self, tmp_path, capsys, command):
        # 0, 1e-14, ... all snap to 0: the grid repeats a value
        rc = cli.main([command, "--out", str(tmp_path / "out"),
                       "--alpha-grid", "0:1e-13:1e-14"])
        assert rc == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "config",
            "message": "alpha_grid: grid must be strictly increasing"}
        assert not (tmp_path / "out").exists()


class TestCommands:
    def test_factors_identical_pulses_equal_columns(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[pulses]\nuplink = rectangular\n"
                       "downlink = rectangular\n")
        rc = cli.main(["factors", "--config", str(ini), "--out",
                       str(tmp_path), "--alpha-grid", "0:1:0.125"])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "factors.csv")
        assert rows[0] == ["alpha", "i_du_sq", "i_ud_sq"]
        assert len(rows) == 10
        for _, du, ud in rows[1:]:
            assert du == ud

    def test_analytic_single_point_rows_and_values(self, tmp_path):
        rc = cli.main(["analytic", "--out", str(tmp_path),
                       "--alpha-grid", "0:0:1"])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "analytic.csv")
        assert rows[0] == ["direction", "alpha", "ber", "bandwidth_hz",
                           "throughput_bps"]
        assert [r[0] for r in rows[1:]] == ["uplink", "downlink"]
        p = SystemParams()
        plan = BandPlan(p.b_u, p.b_d, 0.0)
        pulses = PulsePair(uplink=PulseKind.TRIANGULAR,
                           downlink=PulseKind.RECTANGULAR)
        fac = interference_factors(plan, *make_pulses(pulses, plan))
        ul = ber_uplink(0.0, fac, p)
        dl = ber_downlink(0.0, fac, p)
        assert float(rows[1][2]) == pytest.approx(ul.ber, rel=1e-11)
        assert float(rows[2][2]) == pytest.approx(dl.ber, rel=1e-11)
        assert float(rows[1][4]) == pytest.approx(ul.throughput, rel=1e-11)

    def test_analytic_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert cli.main(["analytic", "--out", str(d),
                             "--alpha-grid", "0:1:0.5"]) == EXIT_OK
        assert (d1 / "analytic.csv").read_bytes() == \
            (d2 / "analytic.csv").read_bytes()

    def test_simulate_matches_campaign(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[sim]\nn_realizations = 5\n")
        rc = cli.main(["simulate", "--config", str(ini), "--out",
                       str(tmp_path), "--seed", "11",
                       "--alpha-grid", "0:0.4:0.4"])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "simulate.csv")
        assert rows[0] == ["direction", "alpha", "mean_ber", "std_err",
                           "n_links", "bandwidth_hz", "throughput_bps"]
        metrics = run_campaign(SystemParams(),
                               SimConfig(n_realizations=5, seed=11),
                               [0.0, 0.4],
                               PulsePair(uplink=PulseKind.TRIANGULAR,
                                         downlink=PulseKind.RECTANGULAR))
        assert len(rows) - 1 == len(metrics)
        for row, m in zip(rows[1:], metrics):
            assert row[0] == m.direction.value
            assert float(row[2]) == pytest.approx(m.mean_ber, rel=1e-11)
            assert int(row[4]) == m.n_links

    def test_sweep_emits_points_and_comparison(self, tmp_path):
        rc = cli.main(["sweep", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / "summary.txt").read_text().splitlines())
        assert 0.20 <= float(summary["balanced_alpha"]) <= 0.35
        assert float(summary["fd_delta_dl_pct"]) > 0.0
        assert float(summary["fd_delta_ul_pct"]) < 0.0
        assert "crossing_1_alpha" in summary
        table = read_csv(tmp_path / "sweep.csv")
        assert table[0] == ["alpha", "t_ul", "t_dl", "ber_ul", "ber_dl"]
        assert len(table) == 12

    def test_sweep_without_crossing_reports_and_succeeds(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[params]\nbeta = 0\n")
        rc = cli.main(["sweep", "--config", str(ini), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "summary.txt").read_text() == "no_crossing=true\n"

    def test_validate_passes_at_reference_parameters(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[sim]\nn_realizations = 60\n")
        rc = cli.main(["validate", "--config", str(ini), "--out",
                       str(tmp_path), "--seed", "13",
                       "--alpha-grid", "0:1:0.5"])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "validate.csv")
        assert rows[0][-1] == "status"
        assert all(r[-1] == "pass" for r in rows[1:])
        summary = (tmp_path / "validate.txt").read_text().splitlines()
        assert summary[-1] == "status=pass"
        assert float(summary[0].split("=")[1]) <= 0.02

    def test_validate_failure_exit_code(self, tmp_path, monkeypatch):
        def fake_campaign(params, sim, alphas, pulses, factors=None):
            out = []
            for alpha in alphas:
                for direction in (Direction.UPLINK, Direction.DOWNLINK):
                    bw = BandPlan(params.b_u, params.b_d,
                                  alpha).accessible_bandwidth(direction)
                    out.append(EmpiricalMetrics(
                        direction=direction, alpha=alpha, mean_ber=0.9,
                        std_err=1e-6, n_links=10, bandwidth=bw,
                        throughput=math.log2(params.m_symbols) * bw * 0.1))
            return out

        monkeypatch.setattr(cli, "run_campaign", fake_campaign)
        rc = cli.main(["validate", "--out", str(tmp_path),
                       "--alpha-grid", "0:0:1"])
        assert rc == EXIT_VALIDATION
        rows = read_csv(tmp_path / "validate.csv")
        assert any(r[-1] == "fail" for r in rows[1:])

    def test_starvation_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CANDIDATE_CAP", 1)
        monkeypatch.setattr(montecarlo, "_block", {})   # keyed without the cap
        ini = tmp_path / "cfg.ini"
        ini.write_text("[sim]\nn_realizations = 1\n")
        rc = cli.main(["simulate", "--config", str(ini), "--out",
                       str(tmp_path), "--seed", "3", "--alpha-grid", "0:0:1"])
        assert rc == EXIT_STARVATION
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "starvation"
        assert err["message"]

    def test_quadrature_exit_code(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise QuadratureError("panel budget exhausted")

        monkeypatch.setattr(cli, "sweep_alpha", boom)
        rc = cli.main(["analytic", "--out", str(tmp_path)])
        assert rc == EXIT_QUADRATURE

    def test_refinement_stall_exit_code(self, tmp_path, monkeypatch, capsys):
        # no polished root ever meets the balance tolerance
        monkeypatch.setattr(sweep._CachedCurves, "balanced_at",
                            lambda self, alpha: False)
        rc = cli.main(["sweep", "--out", str(tmp_path),
                       "--alpha-grid", "0:1:0.1"])
        assert rc == EXIT_REFINEMENT
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "refinement"
        assert "stalled" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_brent_stall_exit_code(self, tmp_path, monkeypatch, capsys):
        # two iterations cannot polish a crossing bracket of the reference
        # sweep, which takes five
        monkeypatch.setattr(sweep, "_BRENT_MAXITER", 2)
        rc = cli.main(["sweep", "--out", str(tmp_path),
                       "--alpha-grid", "0:1:0.1"])
        assert rc == EXIT_REFINEMENT
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "refinement"
        assert "did not converge in 2 iterations" in err["message"]
        assert list(tmp_path.iterdir()) == []


class TestErrorHandling:
    def test_config_error_exit_and_json_line(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[params]\neta = 1.5\n")
        rc = cli.main(["analytic", "--config", str(ini), "--out",
                       str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "eta" in err["message"]

    @pytest.mark.parametrize("command, config", [
        ("analytic", "[params]\nb_u = inf Hz\n"),
        ("analytic", "[params]\np_b = inf W\n"),
        ("analytic", "[params]\np_b = 4000 dBm\n"),
        ("analytic", "[params]\neta = inf\n"),
        ("simulate", "[sim]\nregion_side = inf km\n"),
        ("simulate", "[sim]\nregion_side = 1e200 km\n"),
        # E[P_u^(2/eta)] divided by zero
        ("analytic", "[params]\nlambda_bs = 1e-300 /km2\n"),
        # 1 - 2/eta rounded to 1, outside the 2F1 kernel's range
        ("analytic", "[params]\neta = 1e150\n"),
        # an infinite inversion radius
        ("analytic", "[params]\np_u_max = 1e300 W\nrho = 1e-320 W\n"),
    ], ids=["b_u_inf", "p_b_inf", "p_b_overflow", "eta_inf", "region_inf",
            "region_overflow", "lambda_underflow", "eta_huge",
            "inversion_radius_inf"])
    def test_non_finite_values_are_config_errors(self, tmp_path, capsys,
                                                 command, config):
        ini = tmp_path / "cfg.ini"
        ini.write_text(config)
        rc = cli.main([command, "--config", str(ini), "--out",
                       str(tmp_path / "out"), "--alpha-grid", "0:1:0.5"])
        assert rc == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "config"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config", [
        "[params]\nb_d = 1e12 Hz\n",
        "[params]\nb_d = 1 Hz\n",
        "[params]\nomega1_u = 2\n",
        "[params]\nomega1_d = 1.5\n",
    ], ids=["band_ratio_high", "band_ratio_low", "omega1_u", "omega1_d"])
    def test_out_of_range_params_are_config_errors(self, tmp_path, capsys,
                                                   config):
        # a huge band ratio used to hang in the factor integrals, and
        # omega1 > 1 ended in a traceback from a BER above 1
        ini = tmp_path / "cfg.ini"
        ini.write_text(config)
        rc = cli.main(["analytic", "--config", str(ini), "--out",
                       str(tmp_path), "--alpha-grid", "0:1:0.5"])
        assert rc == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "config"
        assert not (tmp_path / "analytic.csv").exists()

    def test_band_ratio_bound_is_inclusive(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[params]\nb_d = 1000 MHz\n")
        rc = cli.main(["analytic", "--config", str(ini), "--out",
                       str(tmp_path), "--alpha-grid", "0:1:0.5"])
        assert rc == 0
        assert len((tmp_path / "analytic.csv").read_text().splitlines()) == 7

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["analytic", "--config", str(tmp_path / "absent.ini"),
                       "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"

    def test_config_file_not_utf8(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_bytes("[params]\neta = 4  # µ\n".encode("latin-1"))
        rc = cli.main(["analytic", "--config", str(ini), "--out",
                       str(tmp_path)])
        assert rc == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config" and str(ini) in err["message"]

    @pytest.mark.parametrize("out", ["file", "file/below"])
    def test_out_path_through_a_file(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("not a directory\n")
        rc = cli.main(["factors", "--out", str(tmp_path / out),
                       "--alpha-grid", "0:0:1"])
        assert rc == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config" and out in err["message"]
        assert (tmp_path / "file").read_text() == "not a directory\n"

    def test_output_file_name_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "factors.csv").mkdir()
        rc = cli.main(["factors", "--out", str(tmp_path),
                       "--alpha-grid", "0:0:1"])
        assert rc == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config" and "factors.csv" in err["message"]

    def test_sweep_checks_every_output_name_first(self, tmp_path, capsys):
        # summary.txt is written last: a directory of that name used to be
        # found only after sweep.csv was written
        (tmp_path / "summary.txt").mkdir()
        rc = cli.main(["sweep", "--out", str(tmp_path), "--alpha-grid", "0:1:0.5"])
        assert rc == EXIT_CONFIG
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "config" and "summary.txt" in line
        assert out == "" and not (tmp_path / "sweep.csv").exists()

    def test_validate_checks_output_names_before_its_campaign(
            self, tmp_path, capsys, monkeypatch):
        def campaign(*args, **kwargs):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(cli, "run_campaign", campaign)
        (tmp_path / "validate.txt").mkdir()
        rc = cli.main(["validate", "--out", str(tmp_path), "--alpha-grid", "0:0:1"])
        assert rc == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "config" and "validate.txt" in line
        assert not (tmp_path / "validate.csv").exists()

    def test_unwritable_output_name(self, tmp_path, capsys, monkeypatch):
        # os.access stands in for permissions, which root would not obey
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        rc = cli.main(["factors", "--out", str(tmp_path), "--alpha-grid", "0:0:1"])
        assert rc == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert "factors.csv" in json.loads(line)["message"]
        assert list(tmp_path.iterdir()) == []

    def test_write_after_the_check_is_still_mapped(self, tmp_path):
        # a name that becomes a directory between the check and the write
        with pytest.raises(ConfigError, match="cannot write output file"):
            cli._write_lines(str(tmp_path), ["key=value"])

    @pytest.mark.parametrize("side", ["1000.001 km", "1e200 km"])
    def test_expected_bs_count_is_bounded(self, tmp_path, capsys,
                                          monkeypatch, side):
        # at 1e200 km, placing a realization overflowed; the commands that
        # place a network reject the config before any work or output
        def refuse(*args, **kwargs):
            raise AssertionError("the campaign must not start")

        monkeypatch.setattr(cli, "run_campaign", refuse)
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[params]\nlambda_bs = 1 /km2\n"
                       f"[sim]\nregion_side = {side}\n")
        for command in ("simulate", "validate"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(ini),
                             "--out", str(out)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            (line,) = captured.err.splitlines()
            assert "expected BSs per realization" in json.loads(line)["message"]
            assert captured.out == ""
            assert not out.exists()

    def test_expected_bs_bound_is_inclusive(self):
        cfg = parse_config("[params]\nlambda_bs = 1 /km2\n"
                           "[sim]\nregion_side = 1000 km\n")
        assert cfg.params.lambda_bs * cfg.sim.region_side ** 2 == 1e6
        cli._check_expected_bs(cfg)   # no error at exactly 10^6

    def test_closed_forms_take_any_density(self, tmp_path, capsys):
        # the placement bound binds only simulate and validate: at 1e4 /km2
        # the default 20 km region would hold 4e6 BSs, but factors,
        # analytic and sweep place none
        ini = tmp_path / "cfg.ini"
        ini.write_text("[params]\nlambda_bs = 1e4 /km2\n")
        for command in ("factors", "analytic", "sweep"):
            assert cli.main([command, "--config", str(ini),
                             "--out", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "analytic.csv")
        assert len(rows) == 1 + 2 * 11
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:])
        summary = (tmp_path / "summary.txt").read_text()
        assert summary == "no_crossing=true\n"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("params, ber_dl", [
        ("n0 = 1e300 W", "1"),
        ("beta = 1\np_b = 1e300 W", "0.120417627057")],
        ids=["noise_overflow", "self_interference_overflow"])
    def test_overflowing_sinr_constants_are_limits(self, tmp_path, capsys,
                                                   params, ber_dl):
        # the uplink's constant over omega2 and the downlink's s b(r)
        # overflow to inf: the SINR they leave is 0 (BER 1) or an
        # e^(-inf) = 0 term, not a nan or a RuntimeWarning
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[params]\n{params}\n")
        for command in ("analytic", "sweep"):
            assert cli.main([command, "--config", str(ini),
                             "--out", str(tmp_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "analytic.csv")[1:]
        assert {r[2] for r in rows if r[0] == "uplink"} == {"1"}
        assert {r[2] for r in rows if r[0] == "downlink"} == {ber_dl}
        assert capsys.readouterr().err == ""

    def test_sweep_at_vanishing_bandwidths(self, tmp_path, capsys):
        # throughputs near 1e-134 bit/s underflow the Brent extrapolation's
        # denominator to 0; the search bisects there, as scipy's brentq does,
        # and finds the reference sweep's crossings
        ini = tmp_path / "cfg.ini"
        ini.write_text("[params]\nb_u = 1e-134 Hz\nb_d = 1e-134 Hz\n")
        summaries = []
        for args in ([], ["--config", str(ini)]):
            out = tmp_path / str(len(summaries))
            assert cli.main(["sweep", "--out", str(out)] + args) == EXIT_OK
            summaries.append(dict(
                line.split("=", 1)
                for line in (out / "summary.txt").read_text().splitlines()
                if not line.split("=", 1)[0].endswith("_bps")))
        assert summaries[0] == summaries[1]
        assert "crossing_1_alpha" in summaries[0]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("params", [
        "lambda_bs = 1e-300 /km2", "eta = 1e150",
        "p_u_max = 1e300 W\nrho = 1e-320 W"],
        ids=["lambda_underflow", "eta_huge", "inversion_radius_inf"])
    def test_closed_form_bounds_bind_only_closed_form_commands(
            self, tmp_path, capsys, params):
        # the factors read none of these values and keep their output
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[params]\n{params}\n")
        grid = ["--alpha-grid", "0:1:0.5"]
        assert cli.main(["factors", "--out", str(tmp_path / "ref")]
                        + grid) == EXIT_OK
        assert cli.main(["factors", "--config", str(ini),
                         "--out", str(tmp_path / "factors")] + grid) == EXIT_OK
        assert ((tmp_path / "factors" / "factors.csv").read_bytes()
                == (tmp_path / "ref" / "factors.csv").read_bytes())
        capsys.readouterr()
        for command in ("analytic", "sweep", "validate"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(ini),
                             "--out", str(out)] + grid) == EXIT_CONFIG
            (line,) = capsys.readouterr().err.splitlines()
            assert json.loads(line)["error"] == "config"
            assert not out.exists()

    def test_bad_flag_values(self, tmp_path, capsys):
        assert cli.main(["analytic", "--out", str(tmp_path),
                         "--seed", "-1"]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "config", "message": "seed must be a nonnegative integer"}
        assert cli.main(["analytic", "--out", str(tmp_path),
                         "--alpha-grid", "0::1"]) == EXIT_CONFIG

    def test_import_defers_scipy_spatial(self):
        # scipy.spatial loads only when a simulation needs it
        code = ("import sys, alphaduplex.cli; "
                "print('scipy.spatial' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_sweep_never_imports_scipy_optimize(self, tmp_path):
        # the crossing search polishes roots with its own Brent solver
        code = ("import sys; from alphaduplex import cli; "
                "rc = cli.main(['sweep', '--alpha-grid', '0:1:0.1', "
                f"'--out', {str(tmp_path)!r}]); "
                "print(rc, 'scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip().splitlines()[-1] == "0 False"
        assert "balanced_alpha=" in (tmp_path / "summary.txt").read_text()

    def test_no_module_imports_scipy_optimize(self):
        for path in Path(cli.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [f"{node.module}.{a.name}"
                                             for a in node.names]
                else:
                    continue
                assert not any(n.startswith("scipy.optimize")
                               for n in names), path.name

    def test_import_loads_no_scipy(self):
        assert _scipy_modules_after("import alphaduplex.cli") == []

    @pytest.mark.parametrize("command", ["sweep", "analytic"])
    def test_eta4_analysis_loads_no_scipy(self, tmp_path, command):
        # at eta = 4 the transforms are arctans and gamma(2, .) is elementary
        run = (f"rc = cli.main([{command!r}, '--alpha-grid', '0:1:0.1', "
               f"'--out', {str(tmp_path)!r}]); assert rc == 0")
        assert _scipy_modules_after(run) == []

    def test_reference_validate_loads_no_scipy_spatial(self, tmp_path):
        # neighbour pairs come from the cell grid, and no realization of
        # the reference config asks a k-d tree
        ini = tmp_path / "cfg.ini"
        ini.write_text("[sim]\nn_realizations = 20\n")
        run = (f"rc = cli.main(['validate', '--config', {str(ini)!r}, "
               f"'--out', {str(tmp_path)!r}]); assert rc == 0")
        loaded = _scipy_modules_after(run)
        assert not any(m.startswith("scipy.spatial") for m in loaded)

    def test_reference_validate_loads_no_scipy(self, tmp_path):
        # erfc is an in-package Cephes port, so the whole path is scipy-free
        ini = tmp_path / "cfg.ini"
        ini.write_text("[sim]\nn_realizations = 20\n")
        run = (f"rc = cli.main(['validate', '--config', {str(ini)!r}, "
               f"'--out', {str(tmp_path)!r}]); assert rc == 0")
        assert _scipy_modules_after(run) == []

    def test_eta3_simulate_asks_the_k_d_tree(self, tmp_path, monkeypatch):
        # at eta = 3 the realizations list no pairs and ask cKDTree.query;
        # the output equals a campaign placed by the per-round oracle
        from mc_oracles import sample_realization_per_round

        ini = tmp_path / "cfg.ini"
        ini.write_text("[params]\neta = 3\n[sim]\nn_realizations = 2\n")
        args = ["simulate", "--config", str(ini), "--alpha-grid", "0:1:0.5"]
        run = (f"rc = cli.main({args + ['--out', str(tmp_path / 'got')]!r}); "
               "assert rc == 0")
        assert "scipy.spatial" in _scipy_modules_after(run)
        monkeypatch.setattr(montecarlo, "sample_realization",
                            sample_realization_per_round)
        assert cli.main(args + ["--out", str(tmp_path / "want")]) == EXIT_OK
        assert ((tmp_path / "got" / "simulate.csv").read_bytes()
                == (tmp_path / "want" / "simulate.csv").read_bytes())

    def test_general_eta_loads_scipy_special(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[params]\neta = 3.5\n")
        run = (f"rc = cli.main(['analytic', '--config', {str(ini)!r}, "
               f"'--alpha-grid', '0:1:0.5', '--out', {str(tmp_path)!r}]); "
               "assert rc == 0")
        assert "scipy.special" in _scipy_modules_after(run)
        assert len(read_csv(tmp_path / "analytic.csv")) == 1 + 2 * 3

    def test_no_module_imports_scipy_at_module_level(self):
        def module_level(nodes):   # statements that run at import time
            for node in nodes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                yield node
                yield from module_level(ast.iter_child_nodes(node))

        for path in Path(cli.__file__).parent.glob("*.py"):
            for node in module_level(ast.parse(path.read_text()).body):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), (
                    f"{path.name}, line {node.lineno}")

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.main([])
