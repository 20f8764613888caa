"""End-to-end tests for the command-line interface.

Every subcommand runs in a real subprocess so that argument parsing, record
formatting, stream separation, and exit codes are exercised exactly as a
shell user sees them; only the test that the parser is built once per process
calls ``cli.main`` in this one.  Numeric fields are parsed back to floats and compared
against the frozen desk anchors; textual assertions use the library's own
error messages verified elsewhere in the suite.
"""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

from finsleroid import cli
from finsleroid.numdiff import TOL_INDICATRIX

from _reference import REF
from conftest import config_path

TIMEOUT = 120


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run ``finsleroid`` as a subprocess and capture both streams as text."""
    return subprocess.run(
        [sys.executable, "-m", "finsleroid.cli", *args],
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )


def parse_records(stdout: str) -> dict[str, str]:
    """Parse ``key = value`` lines into an ordered string dictionary."""
    records: dict[str, str] = {}
    for line in stdout.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            records[key.strip()] = value.strip()
    return records


def rel_close(text: str, expected: float, tol: float = 1e-13) -> bool:
    value = float(text)
    return abs(value - expected) <= tol * max(1.0, abs(expected))


DESK = config_path("desk")
ORIGIN = ("--point", "0", "0", "0", "0")


class TestEvalCommand:
    def test_time_unit_direction_records(self):
        result = run_cli("eval", "--config", DESK, *ORIGIN, "--vector", "1", "0", "0", "0")
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert records["sector"] == "time-future"
        assert records["side"] == "boundary"
        assert rel_close(records["F2"], REF["F2_e0"])
        assert rel_close(records["y_cov.0"], REF["y_cov_e0_0"])
        assert float(records["y_cov.1"]) == 0.0
        assert float(records["y_cov.2"]) == 0.0
        assert rel_close(records["y_cov.3"], REF["y_cov_e0_3"])
        assert rel_close(records["det_ratio"], REF["det_ratio_e0"])
        assert rel_close(records["indicatrix_curvature"], REF["curvature_time"])
        assert rel_close(records["CC"], REF["CC_e0"])
        # orthonormal-frame image of a frame-aligned unit ray is the first leg
        assert [float(records[f"R.{i}"]) for i in range(4)] == [1.0, 0.0, 0.0, 0.0]
        # frame-component symmetries of the axisymmetric stack
        assert records["g_frame.0.0"] == records["F2"]
        assert records["g_frame.1.1"] == records["g_frame.2.2"]
        assert records["g_frame.0.3"] == records["y_cov.3"]
        assert len(records) == 24

    def test_axis_direction_omits_singular_records(self):
        result = run_cli("eval", "--config", DESK, *ORIGIN, "--vector", "0", "0", "0", "-1")
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert records["sector"] == "space-like"
        assert records["side"] == "left"
        assert float(records["F2"]) == -1.0
        assert float(records["det_ratio"]) == 1.0
        assert float(records["y_cov.3"]) == 1.0
        assert rel_close(records["CC"], -REF["cc_product"])
        # every record that divides by the radial part is dropped on the axis
        assert "indicatrix_curvature" not in records
        assert not any(key.startswith("R.") for key in records)
        assert not any(key.startswith("g_frame.") for key in records)
        assert set(records) == {
            "sector", "side", "F2",
            "y_cov.0", "y_cov.1", "y_cov.2", "y_cov.3",
            "det_ratio", "CC",
        }

    def test_unsupported_direction_exits_two(self):
        result = run_cli("eval", "--config", DESK, *ORIGIN, "--vector", "-1", "0", "0", "0")
        assert result.returncode == 2
        records = parse_records(result.stdout)
        assert "sector" in records
        assert "F2" not in records
        assert "unsupported" in result.stderr

    def test_csv_format(self):
        result = run_cli(
            "eval", "--config", DESK, *ORIGIN,
            "--vector", "0", "1", "0", "0", "--format", "csv",
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert header[:3] == ["sector", "side", "F2"]
        assert "indicatrix_curvature" in header
        assert header[-1] == "g_frame.3.3"
        assert len(header) == len(row) == 24
        assert row[0] == "space-like"
        assert row[1] == "boundary"
        assert rel_close(row[header.index("F2")], REF["F2_ex"])
        assert rel_close(row[header.index("indicatrix_curvature")], REF["curvature_space"])

    def test_space_like_curvature_at_charge_near_two(self, tmp_path):
        """ROADMAP item 11: at g = 1.9 this space-like direction printed
        0.098149 for the constant 1 - g^2/4 = 0.0975."""
        config = tmp_path / "charge_1_9.cfg"
        config.write_text(
            "dim = 4\na.0.0 = 1\na.1.1 = -1\na.2.2 = -1\na.3.3 = -1\nb.3 = 1\ng = 1.9\n"
        )
        vector = ("-0.6964096504580652", "0.612631526996714", "-0.34918442691876983",
                  "-0.13329083567882735")
        result = run_cli("eval", "--config", str(config), *ORIGIN, "--vector", *vector)
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert records["sector"] == "space-like"
        assert abs(float(records["indicatrix_curvature"]) - 0.0975) < TOL_INDICATRIX

    def test_missing_config_exits_two(self):
        result = run_cli("eval", "--config", "/nonexistent/nowhere.cfg",
                         *ORIGIN, "--vector", "1", "0", "0", "0")
        assert result.returncode == 2
        assert result.stderr.strip() != ""

    def test_degenerate_direction_exits_three(self):
        # c = 0.9 shrinks the admissible radius; this space ray has nu < 0
        result = run_cli(
            "eval", "--config", config_path("desk_c09"), *ORIGIN,
            "--vector", "0.4330127018922193", "0", "0", "-1",
        )
        assert result.returncode == 3
        assert "geometry error" in result.stderr

    def test_comma_joined_vector_rejected(self):
        result = run_cli("eval", "--config", DESK, *ORIGIN, "--vector", "1,0,0,0")
        assert result.returncode == 2

    def test_wall_time_reported_on_stderr(self):
        result = run_cli("eval", "--config", DESK, *ORIGIN, "--vector", "1", "0", "0", "0")
        assert "wall_time_s = " in result.stderr
        assert "wall_time_s" not in result.stdout


GEO_HEADER = "s,x0,x1,x2,x3,v0,v1,v2,v3,F2"


class TestGeodesicCommand:
    ARGS = (
        "geodesic", "--config", config_path("desk_shifted_b"),
        "--start", "0.1", "0.2", "0.3", "0.4",
        "--velocity", "1", "0", "0", "0.2",
        "--length", "0.5", "--step", "0.125",
    )

    def test_stdout_csv(self):
        result = run_cli(*self.ARGS)
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == GEO_HEADER
        assert len(lines) == 1 + 5
        first = [float(cell) for cell in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1:5] == [0.1, 0.2, 0.3, 0.4]
        assert first[5:9] == [1.0, 0.0, 0.0, 0.2]
        stderr = parse_records(result.stderr)
        assert float(stderr["length"]) == 0.5
        assert float(stderr["F2_drift"]) < 1e-6

    def test_out_file_moves_records_to_stdout(self, tmp_path):
        out = tmp_path / "trajectory.csv"
        result = run_cli(*self.ARGS, "--out", str(out))
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert float(records["length"]) == 0.5
        assert int(records["rows"]) == 5
        assert float(records["F2_drift"]) < 1e-6
        lines = out.read_text().splitlines()
        assert lines[0] == GEO_HEADER
        assert len(lines) == 1 + 5
        # the stored norm column matches an independent evaluation at the start
        from finsleroid.background import load_config, sample
        from finsleroid.kinematics import classify
        from finsleroid.metric import metric_function

        field = load_config(config_path("desk_shifted_b"))
        here = sample(field, np.array([0.1, 0.2, 0.3, 0.4]))
        expected = metric_function(here, np.array([1.0, 0.0, 0.0, 0.2]))
        stored = float(lines[1].split(",")[-1])
        assert abs(stored - expected) <= 1e-12 * abs(expected)

    def test_rk45_integrator(self):
        result = run_cli(*self.ARGS[:-2], "--method", "rk45")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == GEO_HEADER
        s_column = [float(line.split(",")[0]) for line in lines[1:]]
        assert all(b > a for a, b in zip(s_column, s_column[1:]))
        assert s_column[-1] == 0.5

    def test_truncation_exits_three_with_footer(self, tmp_path):
        out = tmp_path / "truncated.csv"
        result = run_cli(
            "geodesic", "--config", config_path("desk_shifted_b"),
            "--start", "0", "0.05", "0", "0",
            "--velocity", "1", "-0.5", "0", "0.12",
            "--length", "2.0", "--out", str(out),
        )
        assert result.returncode == 3
        records = parse_records(result.stdout)
        assert float(records["length"]) < 2.0
        assert result.stderr.startswith("truncated: ")
        lines = out.read_text().splitlines()
        assert lines[0] == GEO_HEADER
        assert lines[-1].startswith("# truncated: ")
        assert "degenerated" in lines[-1]

    def test_unwritable_out_fails_before_integrating(self, tmp_path, monkeypatch, capsys):
        from finsleroid import cli

        calls = []
        monkeypatch.setattr(cli, "geodesic_integrate", lambda *a, **k: calls.append(a))
        code = cli.main([*self.ARGS, "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert calls == []


class TestCheckCommand:
    def test_desk_suite_passes(self):
        result = run_cli("check", "--config", DESK, "--samples", "16", "--seed", "0")
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert records["command"] == "check"
        assert records["samples"] == "16"
        assert records["seed"] == "0"
        assert records["tol_profile"] == "default"
        assert records["status"] == "ok"
        assert int(records["checks_failed"]) == 0
        assert int(records["checks_run"]) > 0
        assert int(records["checks_run"]) == int(records["checks_passed"])
        # enough positions per shard for consecutive-pair identities to fire
        assert records["check.angle_routes.status"] == "pass"
        assert int(records["check.angle_routes.count"]) > 0
        assert float(records["worst_residual"]) < 1.0

    def test_byte_determinism_across_runs_and_threads(self):
        args = ("check", "--config", DESK, "--samples", "8", "--seed", "123")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("seed", ["13", "15", "20", "27"])
    def test_sub_unit_norm_battery_skips_degenerate_dual_radius(self, seed):
        # these seeds once drew space-like directions with nu <= 0
        result = run_cli(
            "check", "--config", config_path("desk_c09"), "--samples", "40", "--seed", seed
        )
        assert result.returncode == 0, result.stderr
        assert parse_records(result.stdout)["status"] == "ok"

    @pytest.mark.parametrize("seed", ["16", "19", "21"])
    def test_angle_pair_skips_direction_outside_sector(self, seed):
        # these seeds paired a direction with an earlier one that is unsupported
        # (16, 19) or in the other sector (21) at the new point
        result = run_cli(
            "check", "--config", config_path("desk_curved_a"), "--samples", "40", "--seed", seed
        )
        assert result.returncode == 0, result.stderr
        assert parse_records(result.stdout)["status"] == "ok"

    def test_strict_profile_tightens_exact_identities(self):
        result = run_cli(
            "check", "--config", DESK, "--samples", "8", "--seed", "1",
            "--tol-profile", "strict",
        )
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert records["tol_profile"] == "strict"
        default = parse_records(
            run_cli("check", "--config", DESK, "--samples", "8", "--seed", "1").stdout
        )
        strict_tol = float(records["check.cartan_norm.tol"])
        default_tol = float(default["check.cartan_norm.tol"])
        assert strict_tol == pytest.approx(0.1 * default_tol, rel=1e-12)

    def test_zero_charge_background_has_exact_null_cartan(self):
        result = run_cli(
            "check", "--config", config_path("desk_curved_a"),
            "--samples", "8", "--seed", "0",
        )
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert float(records["check.cartan_norm.residual"]) == 0.0
        assert records["check.cartan_norm.status"] == "pass"

    def test_wrong_signature_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad_signature.cfg"
        bad.write_text(
            "dim = 4\na.0.0 = -1\na.1.1 = -1\na.2.2 = -1\na.3.3 = -1\n"
            "b.3 = 1\ng = 0.6\n"
        )
        result = run_cli("check", "--config", str(bad), "--samples", "4")
        assert result.returncode == 2
        assert "got 0 positive, 4 negative" in result.stderr

    def test_syntax_error_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad_syntax.cfg"
        bad.write_text("dim = 4\na.0.0 = 1/\n")
        result = run_cli("check", "--config", str(bad), "--samples", "4")
        assert result.returncode == 2
        assert "line 2: syntax error at column 9" in result.stderr

    def test_non_ascii_digit_in_config_exits_two(self, tmp_path):
        bad = tmp_path / "superscript.cfg"
        bad.write_text("dim = 4\na.0.0 = 1\ng = 0.\u00b2\n", encoding="utf-8")
        result = run_cli("eval", "--config", str(bad), *ORIGIN, "--vector", "1", "0", "0", "0")
        assert result.returncode == 2
        assert result.stderr.splitlines()[:-1] == [
            "configuration error: line 3: syntax error at column 5: "
            "unexpected character '\u00b2' at offset 2"
        ]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dim = 17\n", "line 1: dim must be at most 16"),
            (
                "dim = 4\na.0.0 = 1\ng = sin(1e400)\n",
                "line 3: syntax error at column 5: number '1e400' overflows at offset 4",
            ),
        ],
        ids=["dim_17", "overflowing_literal"],
    )
    def test_config_refused_in_one_line_exits_two(self, tmp_path, text, message):
        bad = tmp_path / "refused.cfg"
        bad.write_text(text)
        result = run_cli("eval", "--config", str(bad), *ORIGIN, "--vector", "1", "0", "0", "0")
        assert result.returncode == 2
        assert result.stderr.splitlines()[:-1] == [f"configuration error: {message}"]

    def test_config_that_is_not_utf8_exits_two(self, tmp_path):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"dim = 4\n# \xff\xfe\na.0.0 = 1\n")
        result = run_cli("eval", "--config", str(bad), *ORIGIN, "--vector", "1", "0", "0", "0")
        assert result.returncode == 2
        assert result.stderr.splitlines()[:-1] == [
            f"configuration error: {bad}: not UTF-8 text at byte 10"
        ]

    def test_sampler_exhaustion_exits_three(self, tmp_path):
        # a valid Lorentzian base whose time-future cone is too thin to hit
        thin = tmp_path / "thin_cone.cfg"
        thin.write_text(
            "dim = 4\na.0.0 = 0.0001\na.1.1 = -1\na.2.2 = -1\na.3.3 = -1\n"
            "b.3 = 1\ng = 0.6\n"
        )
        result = run_cli("check", "--config", str(thin), "--samples", "1", "--seed", "0")
        assert result.returncode == 3
        assert result.stderr.startswith(
            "geometry error: rejection sampling exhausted 100000 tries with 0/1 accepted\n"
        )
        assert "Traceback" not in result.stderr


class TestAngleCommand:
    def test_reference_pair_records(self):
        result = run_cli(
            "angle", "--config", DESK, *ORIGIN,
            "--y1", "0", "1", "0", "0",
            "--y2", "0", "0", "0", "-1",
        )
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert rel_close(records["angle_direct"], REF["alpha_ex_axis"])
        assert rel_close(records["angle_chart"], REF["alpha_ex_axis"], tol=1e-9)
        assert rel_close(records["angle_factor"], REF["alpha_ex_axis"], tol=1e-9)
        assert float(records["route_spread"]) < 1e-10
        # base cosine -0.3 between the rays, scaled by both norms and the
        # space-sector sign convention
        expected_product = 0.3 * math.sqrt(-REF["F2_ex"])
        assert rel_close(records["scalar_product"], expected_product, tol=1e-12)

    def test_self_angle_is_exactly_zero(self):
        result = run_cli(
            "angle", "--config", DESK, *ORIGIN,
            "--y1", "1", "0.2", "-0.1", "0.3",
            "--y2", "1", "0.2", "-0.1", "0.3",
        )
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert float(records["angle_direct"]) == 0.0
        assert float(records["route_spread"]) == 0.0

    def test_mixed_sector_pair_exits_three(self):
        result = run_cli(
            "angle", "--config", DESK, *ORIGIN,
            "--y1", "1", "0", "0", "0",
            "--y2", "0", "1", "0", "0",
        )
        assert result.returncode == 3
        assert "geometry error" in result.stderr


class TestHamiltonianCommand:
    def test_unit_covector_records(self):
        result = run_cli(
            "hamiltonian", "--config", DESK, *ORIGIN,
            "--p", repr(REF["y_cov_e0_0"]), "0", "0", repr(REF["y_cov_e0_3"]),
        )
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert records["dual_sector"] == "time-future"
        assert records["route"] == "closed"
        # the covector is the momentum image of the unit time ray, so the
        # dual norm squared reproduces the primal norm squared
        assert rel_close(records["H2"], REF["F2_e0"])
        assert rel_close(records["H2_newton"], REF["F2_e0"])
        assert float(records["route_agreement"]) < 1e-12
        assert rel_close(records["b_hat"], -REF["y_cov_e0_3"])
        assert rel_close(records["q_hat"], REF["y_cov_e0_0"])
        assert float(records["J_hat"]) > 0.0
        assert "f_hat" in records and "B_hat" in records

    def test_action_gradient_residual(self):
        action = (
            f"{REF['R0_time_axis']!r}*x0 - {-REF['R3_time_axis']!r}*x3"
        )
        result = run_cli(
            "hamiltonian", "--config", DESK, *ORIGIN,
            "--action", action, "--mass", "1",
        )
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert float(records["hj_residual"]) < 1e-12

    def test_non_ascii_action_exits_two(self):
        result = run_cli(
            "hamiltonian", "--config", DESK, *ORIGIN, "--action", "x0\u00b2", "--mass", "1"
        )
        assert result.returncode == 2
        assert result.stderr.splitlines()[:-1] == [
            "configuration error: unexpected character '\u00b2' at offset 2"
        ]

    def test_null_ray_covector_exits_three(self):
        result = run_cli(
            "hamiltonian", "--config", DESK, *ORIGIN, "--p", "0", "0", "0", "-1",
        )
        assert result.returncode == 3
        assert "positive-support null ray" in result.stderr

    @pytest.mark.parametrize("mass", ["nan", "inf"])
    def test_non_finite_mass_exits_two(self, mass):
        result = run_cli("hamiltonian", "--config", DESK, "--action", "x0", "--mass", mass)
        assert result.returncode == 2
        assert "configuration error: --mass must be finite" in result.stderr
        assert result.stdout == ""


class TestConformalCommand:
    def test_time_unit_image_records(self):
        result = run_cli(
            "conformal", "--config", DESK, *ORIGIN, "--vector", "1", "0", "0", "0",
        )
        assert result.returncode == 0
        records = parse_records(result.stdout)
        assert rel_close(records["S2"], REF["S2_e0"])
        assert float(records["s_residual"]) < 1e-9
        assert float(records["roundtrip_residual"]) < 1e-9
        # scale factor for a unit ray: p = kappa^2 with S2 = p^2 * F2 scaling
        kappa = float(records["kappa"])
        h_time = REF["h_time"]
        expected_kappa = (1.0 / h_time) * REF["F2_e0"] ** ((1.0 - h_time) / 2.0)
        assert abs(kappa - expected_kappa) < 1e-13
        zeta = np.array([float(records[f"zeta.{i}"]) for i in range(4)])
        s2_from_zeta = zeta[0] ** 2 - zeta[1] ** 2 - zeta[2] ** 2 - zeta[3] ** 2
        assert abs(s2_from_zeta - float(records["S2"])) < 1e-12

    def test_preferred_direction_fixed_point(self):
        result = run_cli(
            "conformal", "--config", DESK, *ORIGIN, "--vector", "0", "0", "0", "-1",
        )
        assert result.returncode == 0
        records = parse_records(result.stdout)
        zeta = [float(records[f"zeta.{i}"]) for i in range(4)]
        assert zeta[:3] == [0.0, 0.0, 0.0]
        assert abs(zeta[3] - (-1.0)) < 5e-16
        assert abs(float(records["S2"]) - (-1.0)) < 5e-16


class TestTopLevel:
    def test_help_exits_zero(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for sub in ("eval", "geodesic", "check", "angle", "hamiltonian", "conformal"):
            assert sub in result.stdout

    def test_unknown_subcommand_exits_two(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_one_parser_per_process(self, monkeypatch, capsys):
        inits = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            inits.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert cli.main(["eval", "--config", DESK, *ORIGIN, "--vector", "1", "0", "0", "0"]) == 0
        # the first call builds the parser and its six subparsers; the second reuses them
        assert len(inits) == 7
        assert capsys.readouterr().out.count("sector = time-future") == 2

    def test_console_script_matches_module(self):
        module = run_cli("eval", "--config", DESK, *ORIGIN, "--vector", "1", "0", "0", "0")
        script = subprocess.run(
            ["finsleroid", "eval", "--config", DESK, *ORIGIN,
             "--vector", "1", "0", "0", "0"],
            capture_output=True, text=True, timeout=TIMEOUT,
        )
        assert script.returncode == 0
        assert script.stdout == module.stdout


class TestInputContracts:
    """Bad numeric input is an input error (exit 2), never a traceback."""

    GEO = ("geodesic", "--config", DESK, "--velocity", "1", "0", "0", "0")
    EVAL = ("eval", "--config", DESK, *ORIGIN)

    @pytest.mark.parametrize(
        "extra",
        [
            ("--step", "0"),
            ("--step", "-0.1"),
            ("--length", "0"),
            ("--length", "-1"),
            ("--length", "inf"),
            ("--length", "nan"),
            ("--start", "nan", "0", "0", "0"),
        ],
        ids=["step0", "step-neg", "length0", "length-neg", "length-inf", "length-nan", "start-nan"],
    )
    def test_geodesic_rejects(self, extra):
        result = run_cli(*self.GEO, *extra)
        assert result.returncode == 2
        assert "configuration error: --" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "velocity",
        [("nan", "0", "0", "0"), ("1", "inf", "0", "0"), ("0", "0", "0", "0")],
        ids=["nan", "inf", "zero"],
    )
    def test_geodesic_rejects_velocity(self, velocity):
        result = run_cli("geodesic", "--config", DESK, "--velocity", *velocity)
        assert result.returncode == 2
        assert "configuration error: --velocity" in result.stderr

    @pytest.mark.parametrize(
        "vector",
        [("nan", "0", "0", "0"), ("inf", "0", "0", "0"), ("0", "0", "0", "0")],
        ids=["nan", "inf", "zero"],
    )
    def test_eval_rejects_vector(self, vector):
        result = run_cli(*self.EVAL, "--vector", *vector)
        assert result.returncode == 2
        assert "configuration error: --vector" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_check_rejects_empty_battery(self, count):
        result = run_cli("check", "--config", DESK, "--samples", count)
        assert result.returncode == 2
        assert "configuration error: --samples" in result.stderr
        assert "status" not in result.stdout

    def test_check_rejects_negative_seed(self):
        result = run_cli("check", "--config", DESK, "--samples", "1", "--seed", "-1")
        assert result.returncode == 2
        assert "configuration error: --seed must be non-negative" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_geodesic_step_budget_exits_three(self):
        # 10**6 steps exceed the 200000-step budget, so the run stops at once
        result = run_cli(*self.GEO, "--length", "1", "--step", "1e-6")
        assert result.returncode == 3
        assert "geometry error: fixed-step integrator needs more than 200000 steps" in result.stderr
        assert result.stdout == ""


class TestNegativeNumbers:
    """A negative number in any notation is a value, never an option."""

    EVAL = ("eval", "--config", DESK, *ORIGIN)

    def test_exponent_reads_as_its_plain_twin(self):
        exponent = run_cli(*self.EVAL, "--vector", "1", "-1e-3", "0", "0")
        plain = run_cli(*self.EVAL, "--vector", "1", "-0.001", "0", "0")
        assert exponent.returncode == plain.returncode == 0
        assert exponent.stdout == plain.stdout

    def test_start_with_exponent_integrates(self):
        result = run_cli(
            "geodesic", "--config", DESK, "--start", "-1e-3", "0", "0", "0",
            "--velocity", "1", "0", "0", "0.2", "--length", "0.01", "--step", "0.005",
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[1].startswith("0,-0.001,")

    def test_negative_infinity_is_a_non_finite_component(self):
        result = run_cli(*self.EVAL, "--vector", "1", "-inf", "0", "0")
        assert result.returncode == 2
        assert "configuration error: --vector has non-finite components" in result.stderr

    def test_unknown_option_is_still_a_usage_error(self):
        result = run_cli(*self.EVAL, "--vector", "1", "0", "0", "0", "-x")
        assert result.returncode == 2
        assert "unrecognized arguments: -x" in result.stderr
