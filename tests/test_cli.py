import contextlib
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bmech import __version__, cli
from bmech.cli import bundled_spec_path, main
from conftest import STEEP_OSCILLATOR

FREE = bundled_spec_path("free_particle")
OSC = bundled_spec_path("harmonic_oscillator")


def run(tmp_path, *argv, name="report.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, out


class TestParse:
    def test_valid_spec(self, tmp_path):
        code, report, _ = run(tmp_path, "parse", "--spec", OSC)
        assert code == 0
        assert report["tool_version"] == __version__
        assert len(report["spec_hash"]) == 64
        assert report["result"]["dim"] == 1
        assert report["result"]["natural"] is True
        assert report["config_echo"]["subcommand"] == "parse"

    def test_missing_file(self, tmp_path, capsys):
        code = main(["parse", "--spec", str(tmp_path / "nope.json")])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_spec_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "dim": 0}')
        assert main(["parse", "--spec", str(bad)]) == 1


class TestClassical:
    def test_free_particle_action(self, tmp_path):
        code, report, _ = run(tmp_path, "classical", "--spec", FREE,
                              "--xi", "0", "--xf", "1", "--tf", "1",
                              "--slices", "64")
        assert code == 0
        result = report["result"]
        assert result["action"] == pytest.approx(0.5, abs=1e-12)
        assert result["p_f"][0] == pytest.approx(1.0, abs=1e-12)
        assert result["convergence"]["converged"] is True
        assert result["greens"]["gFif"][0][0] == pytest.approx(-1.0, abs=1e-8)

    def test_caustic_exits_2_and_names_error(self, tmp_path, capsys):
        code, report, _ = run(tmp_path, "classical", "--spec", OSC,
                              "--xi", "1", "--xf", "1",
                              "--tf", repr(math.pi), "--slices", "200")
        assert code == 2
        assert "SingularHessian" in capsys.readouterr().err
        assert report["result"]["error"]["type"] == "SingularHessian"

    def test_outside_domain(self, tmp_path):
        code, _, _ = run(tmp_path, "classical", "--spec", FREE,
                         "--xi", "0", "--xf", "25", "--tf", "1")
        assert code == 1

    def test_scan_marks_failures(self, tmp_path):
        code, report, _ = run(tmp_path, "classical", "--spec", OSC,
                              "--xi", "1", "--xf", "1",
                              "--tf", "3.0", "--slices", "100",
                              "--scan", f"1.0:{math.pi}:3")
        assert code == 0
        records = report["result"]["scan"]
        assert len(records) == 3
        assert records[0]["action"] == pytest.approx(
            ((1 + 1) * math.cos(1.0) - 2) / (2 * math.sin(1.0)), abs=1e-3)
        assert records[-1]["error"]["type"] == "SingularHessian"

    @pytest.mark.parametrize("scan", ["1:2:0", "abc", "1:2:-3"])
    def test_malformed_scan_is_usage_error(self, tmp_path, capsys, scan):
        code, report, _ = run(tmp_path, "classical", "--spec", FREE,
                              "--xi", "0", "--xf", "1", "--tf", "1",
                              f"--scan={scan}")
        assert code == 1
        assert report is None
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "--scan" in err[0] and "start:stop:count" in err[0]

    def test_determinism_byte_identical(self, tmp_path):
        argv = ["classical", "--spec", OSC, "--xi", "0.2", "--xf", "0.9",
                "--tf", "1.1", "--slices", "80", "--seed", "3"]
        _, _, out1 = run(tmp_path, *argv, name="a.json")
        _, _, out2 = run(tmp_path, *argv, name="a.json")
        text = out1.read_text()
        _, _, out3 = run(tmp_path, *argv, name="b.json")
        # same --out path run twice: identical bytes; config echo includes
        # the out path, so compare like-for-like runs
        assert text == out1.read_text()
        assert json.loads(text)["result"] == json.loads(out3.read_text())["result"]


class TestBrackets:
    def test_boundary_and_covariant_table(self, tmp_path):
        code, report, _ = run(
            tmp_path, "brackets", "--spec", OSC,
            "--at", "1.0,-1.0,1.0,1.0",
            "--pairs", "F:x1~F:x2;F:x1^2~G:1,0",
            "--tf", repr(math.pi / 2))
        assert code == 0
        pairs = report["result"]["pairs"]
        assert pairs[0]["boundary"] == 0.0
        assert pairs[0]["covariant"] == pytest.approx(1.0, rel=1e-6)
        assert pairs[1]["boundary"] == pytest.approx(-2.0, rel=1e-8)
        assert report["result"]["fg_identity_sweep_max"] < 1e-8

    def test_malformed_pair_is_usage_error(self, tmp_path):
        code, _, _ = run(tmp_path, "brackets", "--spec", OSC,
                         "--at", "1,0,1,0", "--pairs", "Q:zzz~F:x1")
        assert code == 1

    def test_wrong_point_length(self, tmp_path):
        code, _, _ = run(tmp_path, "brackets", "--spec", OSC,
                         "--at", "1,0", "--pairs", "F:x1~F:x2")
        assert code == 1


class TestQuantizeCheck:
    def test_report_fields(self, tmp_path):
        code, report, _ = run(tmp_path, "quantize-check", "--spec", OSC,
                              "--grid", "64", "--gamma", "0.3")
        assert code == 0
        result = report["result"]
        assert 1.8 <= result["commutator_order"] <= 2.2
        assert result["ordering_relation_residual"] < 1e-12
        assert result["hermiticity_residual"] < 1e-12
        assert result["shift_permutation_residual"] < 1e-12


class TestPropagator:
    def test_trotter_run_with_csv_dumps(self, tmp_path):
        code, report, out = run(tmp_path, "propagator", "--spec", OSC,
                                "--T", "0.5", "--grid", "64",
                                "--method", "trotter", "--slices", "64")
        assert code == 0
        assert report["result"]["method"] == "trotter"
        stem = str(out)[: -len(".json")]
        abs_csv = np.loadtxt(stem + ".absK.csv", delimiter=",")
        arg_csv = np.loadtxt(stem + ".argK.csv", delimiter=",")
        assert abs_csv.shape == (64, 64)
        assert arg_csv.shape == (64, 64)
        assert report["result"]["singular_values_top4"][1] > 0.0

    def test_cn_method_alias(self, tmp_path):
        code, report, _ = run(tmp_path, "propagator", "--spec", FREE,
                              "--T", "0.3", "--grid", "64",
                              "--method", "cn", "--slices", "32")
        assert code == 0
        assert report["result"]["method"] == "cranknicolson"

    @pytest.mark.parametrize("slices", ["0", "-4"])
    def test_slices_below_one_is_usage_error(self, tmp_path, capsys, slices):
        code, _, _ = run(tmp_path, "propagator", "--spec", OSC, "--T", "0.5",
                         "--grid", "64", f"--slices={slices}")
        assert code == 1
        assert "ValueError" in capsys.readouterr().err

    def test_norm_watchdog_exits_2(self, tmp_path, capsys):
        steep = tmp_path / "steep.json"
        steep.write_text(STEEP_OSCILLATOR)
        code, report, _ = run(tmp_path, "propagator", "--spec", str(steep),
                              "--T", "1", "--grid", "64",
                              "--method", "trotter", "--slices", "2")
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Instability" in err[0]
        assert report["result"]["error"]["type"] == "Instability"

    def test_threads_flag_is_ignored(self, tmp_path, monkeypatch):
        argv = ["propagator", "--spec", OSC, "--T", "0.5", "--grid", "64",
                "--method", "trotter", "--slices", "64"]

        def outputs(*extra):
            _, report, out = run(tmp_path, *argv, *extra)
            dumps = [out.with_suffix(s).read_bytes() for s in (".absK.csv", ".argK.csv")]
            return out.read_bytes(), report, dumps

        _, one, one_dumps = outputs("--threads", "1")
        _, three, three_dumps = outputs("--threads", "3")
        assert one["result"] == three["result"]
        assert one_dumps == three_dumps
        # the default must not echo the machine's core count
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        two_cores = outputs()
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert outputs() == two_cores

    def test_non_natural_system_fails_usage(self, tmp_path):
        bad = tmp_path / "odd.json"
        bad.write_text(json.dumps({
            "name": "odd", "dim": 1, "lagrangian": "v1^4",
            "parameters": {}, "domain": [{"min": -1, "max": 1}]}))
        code, _, _ = run(tmp_path, "propagator", "--spec", str(bad),
                         "--T", "0.5", "--grid", "64")
        assert code == 1


class TestSemiclassical:
    def test_run_and_dumps(self, tmp_path):
        code, report, out = run(tmp_path, "semiclassical", "--spec", OSC,
                                "--T", repr(math.pi / 4), "--grid", "96",
                                "--slices", "128", "--classical-slices", "100",
                                "--window=-1.5,1.5")
        assert code == 0
        result = report["result"]
        assert result["measure_variation"] < 0.01
        assert result["constraint_residuals"]["const"] < 0.05
        assert result["constraint_residuals"]["dilation"] > 0.1
        # the oscillator is quadratic: the whole window from one solve
        assert result["action_pairs_solved"] == 1
        stem = str(out)[: -len(".json")]
        for suffix in (".absK.csv", ".argK.csv", ".measure_abs.csv",
                       ".measure_arg.csv", ".residual_const.csv",
                       ".residual_dilation.csv"):
            assert (tmp_path / ("report" + suffix)).exists() or \
                np.loadtxt(stem + suffix, delimiter=",") is not None
        # the pendulum is reversible but not quadratic: the upper triangle
        code, report, _ = run(tmp_path, "semiclassical", "--spec",
                              bundled_spec_path("pendulum"), "--T", "0.5",
                              "--grid", "64", "--slices", "64",
                              "--classical-slices", "50", "--window=-1,1",
                              name="pendulum.json")
        assert code == 0
        points = report["result"]["window"]["points"]
        assert report["result"]["action_pairs_solved"] == points * (points + 1) // 2


class TestUsageErrors:
    def test_argparse_error_exits_1(self, capsys):
        # a comma list starting with a minus sign reads as an option
        code = main(["semiclassical", "--spec", OSC, "--T", "0.785",
                     "--window", "-2,2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--window" in err
        assert len(err.splitlines()) == 1

    # before: -inf,inf wrote "Infinity" into the report (not JSON), 1 a
    # ValueError about unpacking and abc,2 the float conversion's message
    @pytest.mark.parametrize("window", ["-inf,inf", "1", "abc,2", "2,1",
                                        "nan,1", "1,2,3"])
    def test_malformed_window_is_usage_error(self, tmp_path, capsys, window):
        code, report, _ = run(tmp_path, "semiclassical", "--spec", OSC,
                              "--T", "0.785", "--grid", "16", f"--window={window}")
        assert code == 1 and report is None
        err = capsys.readouterr().err.splitlines()
        assert err == [f"bmech: usage error: argument --window: expected min,max "
                       f"with finite min < max, got {window!r}"]

    # before: empty fields were dropped, so each call ran on the remaining
    # numbers (x_i = [1]; the point 1,-1,1,1; the window -2,2) and exited 0
    @pytest.mark.parametrize("argv, option, text", [
        (["classical", "--spec", OSC, "--xi", "1,,", "--xf", "1", "--tf", "1"],
         "--xi", "1,,"),
        (["brackets", "--spec", OSC, "--at", "1,-1,,1,1", "--pairs", "F:x1~F:x2"],
         "--at", "1,-1,,1,1"),
        (["semiclassical", "--spec", OSC, "--T", "0.785", "--grid", "16",
          "--window=-2,,2"], "--window", "-2,,2"),
    ])
    def test_empty_comma_field_is_usage_error(self, tmp_path, capsys, argv, option, text):
        code, report, _ = run(tmp_path, *argv)
        assert code == 1 and report is None
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"bmech: usage error: argument {option}:")
        assert err[0].endswith(repr(text))

    @pytest.mark.parametrize("argv, option", [
        (["propagator", "--spec", OSC, "--T", "nan", "--grid", "16"], "--T"),
        (["classical", "--spec", OSC, "--xi", "0", "--xf", "1", "--tf", "inf"],
         "--tf"),
        (["brackets", "--spec", OSC, "--at", "1,-1,1,1", "--pairs", "F:x1~F:x2",
          "--ti=-inf"], "--ti"),
        (["quantize-check", "--spec", OSC, "--gamma", "nan"], "--gamma"),
    ])
    def test_non_finite_time_is_usage_error(self, capsys, argv, option):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"bmech: usage error: argument {option}:")
        assert "finite" in err[0]

    # x1^2 vanishes at the ring point x = 0; adding 1e-305 keeps it positive
    # there but far below 1e-14 of its largest value on the ring
    @pytest.mark.parametrize("metric, error", [
        ("x1^2", "SingularMetric"),
        ("x1^2 + 1e-305", "SingularMetric"),
    ])
    def test_metric_defect_exits_1(self, tmp_path, capsys, metric, error):
        spec = tmp_path / "bad_metric.json"
        spec.write_text(json.dumps({
            "name": "bad_metric", "dim": 1,
            "lagrangian": f"0.5*({metric})*v1^2", "metric": [[metric]],
            "parameters": {}, "domain": [{"min": -3, "max": 3}]}))
        code = main(["propagator", "--spec", str(spec), "--T", "0.5",
                     "--grid", "16", "--slices", "4"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"bmech: {error}:")

    # exp(900) overflows on the ring; numpy's warning must not reach stderr
    @pytest.mark.parametrize("method", ["cn", "trotter"])
    def test_overflowing_metric_exits_1_in_one_line(self, tmp_path, capsys, method):
        spec = tmp_path / "huge_metric.json"
        spec.write_text(json.dumps({
            "name": "huge_metric", "dim": 1,
            "lagrangian": "0.5*exp(100*x1^2)*v1^2", "metric": [["exp(100*x1^2)"]],
            "parameters": {}, "domain": [{"min": -3, "max": 3}]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["propagator", "--spec", str(spec), "--T", "0.5",
                         "--grid", "16", "--slices", "4", f"--method={method}"])
        assert code == 1 and caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("bmech: SingularMetric:")

    # before: numpy's overflow and invalid-value warnings, then Instability
    # with exit 2
    @pytest.mark.parametrize("argv", [
        ["propagator", "--method=cn"],
        ["propagator", "--method=trotter"],
        ["semiclassical", "--classical-slices=8"],
    ])
    def test_overflowing_potential_exits_1_in_one_line(self, tmp_path, capsys, argv):
        spec = tmp_path / "huge_potential.json"
        spec.write_text(json.dumps({
            "name": "huge_potential", "dim": 1,
            "lagrangian": "0.5*v1^2 - exp(100*x1^2)", "metric": [["1"]],
            "potential": "exp(100*x1^2)", "parameters": {},
            "domain": [{"min": -3, "max": 3}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--spec", str(spec), "--T", "0.5",
                         "--grid", "16", "--slices", "4"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["bmech: DomainError: potential is not finite on the ring"]

    # before: a traceback of the IsADirectoryError
    def test_unreadable_spec_or_unwritable_out_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for argv in (["--spec", str(tmp_path)],
                     ["--spec", OSC, "--out", str(tmp_path)],
                     ["--spec", OSC, "--out", str(blocker / "report.json")]):
            assert main(["parse", *argv]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("bmech: ")
            assert "Error:" in err[0] and str(tmp_path) in err[0]

    def test_numerical_failure_with_unwritable_out_exits_2(self, tmp_path, capsys):
        code = main(["classical", "--spec", OSC, "--xi", "1", "--xf", "1",
                     "--tf", repr(math.pi), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("bmech: numerical failure: SingularHessian:")

    # LinAlgError subclasses ValueError, which alone would make it exit 1
    def test_linalg_error_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        code, report, _ = run(tmp_path, "propagator", "--spec", OSC, "--T", "0.5",
                              "--grid", "16", "--slices", "4", "--method=cn")
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["bmech: numerical failure: LinAlgError: "
                       "Eigenvalues did not converge"]
        assert report["result"]["error"]["type"] == "LinAlgError"

    @pytest.mark.parametrize("method", ["cn", "trotter"])
    def test_zero_constant_metric_exits_1(self, tmp_path, capsys, method):
        spec = tmp_path / "zero_metric.json"
        spec.write_text(json.dumps({
            "name": "zero_metric", "dim": 1, "lagrangian": "-0.5*x1^2",
            "metric": [["0"]], "parameters": {},
            "domain": [{"min": -3, "max": 3}]}))
        assert main(["parse", "--spec", str(spec)]) == 0
        capsys.readouterr()
        code = main(["propagator", "--spec", str(spec), "--T", "0.5",
                     "--grid", "16", "--slices", "4", f"--method={method}"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("bmech: SingularMetric:")

    @pytest.mark.parametrize("argv", [
        ["propagator", "--T", "0.5"],
        ["semiclassical", "--T", "0.5"],
        ["quantize-check"],
    ])
    def test_grid_below_minimum_exits_1(self, capsys, argv):
        assert main([*argv, "--spec", OSC, "--grid=0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].endswith("grids need at least 8 points per axis")

    @pytest.mark.parametrize("grid", ["0", "15"])
    def test_quantize_check_grid_names_its_minimum(self, capsys, grid):
        # the check halves the grid, so it needs 16 points, not 8
        assert main(["quantize-check", "--spec", OSC, f"--grid={grid}"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "needs --grid 16 or more" in err[0]
        capsys.readouterr()
        assert main(["quantize-check", "--spec", OSC, "--grid=16"]) == 0

    @pytest.mark.parametrize("grid", ["15", "abc"])
    def test_quantize_check_grid_is_a_usage_error(self, tmp_path, capsys, grid):
        code, report, _ = run(tmp_path, "quantize-check", "--spec", OSC,
                              f"--grid={grid}")
        assert code == 1 and report is None
        err = capsys.readouterr().err.splitlines()
        assert err == [f"bmech: usage error: argument --grid: quantize-check needs "
                       f"--grid 16 or more, got {grid!r}: it also uses a grid of "
                       f"half as many points, and grids need at least 8 points "
                       f"per axis"]

    def test_negative_sweep_is_usage_error(self, tmp_path, capsys):
        argv = ["brackets", "--spec", OSC, "--at", "1,-1,1,1",
                "--pairs", "F:x1~F:x2"]
        code, report, _ = run(tmp_path, *argv, "--sweep=-1")
        assert code == 1 and report is None
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("bmech: usage error: argument --sweep:")
        code, report, _ = run(tmp_path, *argv, "--sweep=0")
        assert code == 0
        assert report["result"]["fg_identity_sweep_max"] is None

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        assert main([flag]) == 0
        assert capsys.readouterr().out


class TestSharedParser:
    """In-process calls share one parser; what they write must not differ
    from calls that each build their own."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def sequence(self, tmp_path, capsys):
        classical = ["classical", "--spec", OSC, "--xi", "0.2", "--xf", "0.9",
                     "--tf", "1.1", "--slices", "80"]
        calls = [
            ["classical", "--spec", OSC, "--xi", "0", "--xf", "1", "--tf", "nan"],
            ["--version"],
            [*classical, "--out", str(tmp_path / "ok.json")],
            ["classical", "--spec", OSC, "--xi", "1", "--xf", "1",
             "--tf", repr(math.pi), "--out", str(tmp_path / "caustic.json")],
            [*classical, "--out", str(tmp_path / "ok.json")],
        ]
        seen = []
        for argv in calls:
            code = main(argv)
            out, err = capsys.readouterr()
            report = Path(argv[-1]).read_bytes() if "--out" in argv else None
            seen.append((code, out, err, report))
        return seen

    def test_shared_parser_writes_what_fresh_parsers_write(
            self, tmp_path, capsys, monkeypatch):
        shared = self.sequence(tmp_path, capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.sequence(tmp_path, capsys)
        assert [s[0] for s in shared] == [1, 0, 0, 2, 0]
        for code, _, err, _ in shared:
            assert len(err.splitlines()) == (0 if code == 0 else 1)
        assert shared[1][1] == __version__ + "\n"
        assert shared[2][3] == shared[4][3]
        assert shared == fresh

    def test_help_wraps_to_columns_at_call_time(self, capsys, monkeypatch):
        def help_text(columns):
            monkeypatch.setenv("COLUMNS", str(columns))
            assert main(["classical", "--help"]) == 0
            return capsys.readouterr().out

        shared = [help_text(120), help_text(50)]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [help_text(120), help_text(50)]
        assert shared == fresh
        assert shared[0] != shared[1]
        assert max(map(len, shared[1].splitlines())) <= 50

    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        builds = []
        build = cli.build_parser

        def counting_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        main(["--version"])
        main(["parse", "--spec", OSC, "--out", str(tmp_path / "r.json")])
        main(["classical", "--spec", OSC])
        assert len(builds) == 1


class TestLogging:
    def test_bmech_log_env_controls_verbosity(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BMECH_LOG", "info")
        out = tmp_path / "r.json"
        assert main(["parse", "--spec", OSC, "--out", str(out)]) == 0
        assert "report written" in capsys.readouterr().err

    def test_each_call_logs_to_its_own_stderr(self, tmp_path, monkeypatch, capsys):
        # an info-level call whose stderr is closed afterwards, then a
        # failing call at the default level: one stderr line, no logging
        # traceback from the first call's stream
        monkeypatch.setenv("BMECH_LOG", "info")
        stream = io.StringIO()
        with contextlib.redirect_stderr(stream):
            assert main(["parse", "--spec", OSC, "--out", str(tmp_path / "r.json")]) == 0
        assert "report written" in stream.getvalue()
        stream.close()
        monkeypatch.delenv("BMECH_LOG")
        steep = tmp_path / "steep.json"
        steep.write_text(STEEP_OSCILLATOR)
        code, _, _ = run(tmp_path, "propagator", "--spec", str(steep),
                         "--T", "1", "--grid", "64", "--method", "trotter",
                         "--slices", "2")
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Instability" in err[0]


class TestReportAggregation:
    def test_merge(self, tmp_path):
        _, _, first = run(tmp_path, "parse", "--spec", OSC, name="one.json")
        _, _, second = run(tmp_path, "parse", "--spec", FREE, name="two.json")
        code, merged, _ = run(tmp_path, "report", str(first), str(second),
                              name="merged.json")
        assert code == 0
        assert len(merged["result"]["reports"]) == 2
        names = {r["result"]["name"] for r in merged["result"]["reports"]}
        assert names == {"harmonic_oscillator", "free_particle"}


# Calls in a fresh interpreter, as a shell user makes them: the bmech modules
# loaded after importing the CLI and parsing a system file, then after each
# call; the SciPy modules loaded after the calls that need none, then after a
# classical solve, which factors with LAPACK
FRESH_CALLS = """
import json, sys
sys.path.insert(0, sys.argv[1])
osc, out = sys.argv[2], sys.argv[3]
loaded_now = lambda: sorted(name for name in sys.modules if name.split(".")[0] == "bmech")
import bmech.cli
from bmech import sysdsl
with open(osc, "rb") as fh:
    sysdsl.parse(fh.read().decode("utf-8"))
loaded = {"setup": loaded_now()}
kernel = ["propagator", "--spec", osc, "--T", "0.5", "--grid", "32", "--slices", "8"]
calls = {"parse": ["parse", "--spec", osc],
         "quantize-check": ["quantize-check", "--spec", osc, "--grid", "16"],
         "cn": [*kernel, "--method", "cn"], "trotter": [*kernel, "--method", "trotter"]}
codes = []
for name, argv in calls.items():
    codes.append(bmech.cli.main([*argv, "--out", out]))
    loaded[name] = loaded_now()
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
code = bmech.cli.main(["classical", "--spec", osc, "--xi", "0.2", "--xf", "0.9",
                       "--tf", "1", "--out", out])
print(json.dumps({"codes": codes, "scipy": scipy, "classical": code,
                  "lapack": "scipy.linalg.lapack" in sys.modules, "loaded": loaded}))
"""


@pytest.fixture(scope="class")
def fresh_calls(tmp_path_factory):
    src = str(Path(cli.__file__).resolve().parents[1])
    out = tmp_path_factory.mktemp("fresh") / "report.json"
    done = subprocess.run([sys.executable, "-c", FRESH_CALLS, src, OSC, str(out)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestStartup:
    def test_only_second_variations_load_scipy(self, fresh_calls):
        assert fresh_calls["codes"] == [0, 0, 0, 0]
        assert fresh_calls["scipy"] == []
        assert fresh_calls["classical"] == 0 and fresh_calls["lapack"]

    def test_each_subcommand_loads_only_the_layers_it_runs(self, fresh_calls):
        loaded = {name: set(modules) for name, modules in fresh_calls["loaded"].items()}
        assert loaded["setup"] == {"bmech", "bmech.cli", "bmech.errors", "bmech.sysdsl"}
        assert loaded["parse"] == loaded["setup"]
        layers = {f"bmech.{name}" for name in ("bqm", "classical", "symplectic", "dump")}
        assert "bmech.quantize" in loaded["quantize-check"]
        assert not loaded["quantize-check"] & layers
        assert {"bmech.bqm", "bmech.dump"} <= loaded["cn"]
        assert not loaded["trotter"] & {"bmech.classical", "bmech.symplectic"}
