"""End-to-end tests of the command-line interface via subprocess.

Most invocations go through `python -m srfolds.cli` so the tests exercise
argument parsing, exit codes, and the printed artifacts exactly as a user
would see them. Numeric output is cross-checked against the library called
in-process, and determinism is checked byte-for-byte. The SU(2)/SL(2)
outputs are also compared byte-for-byte with golden files in tests/golden,
captured before the two group modules were merged into contact.py; the two
many-root scans were captured before their brackets were polished in
lockstep, and the Grushin scans before they took their stratum function from
its closed-form restriction to each ray. The CLI subprocesses turn a
RuntimeWarning into an error, as pyproject does for the tests themselves.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import srfolds
from srfolds import grushin_exp, sl2_exp, su2_exp
from srfolds.cli import main
from srfolds.grushin import GrushinBase

TWO_PI = 6.283185307179586
GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = str(Path(srfolds.__file__).resolve().parents[1])
# each case runs in every --format; conj-scan rays cover a tilted SU(2) ray,
# the SU(2) w0 = 0 ray, two SL(2) rays with r > 0, an SL(2) ray with r <= 0
# and three Grushin scans
GOLDEN_CASES = {
    "expmap_su2": ("expmap", "--structure", "su2", "--covector", "1,2,0.5",
                   "--t", "0.7"),
    "expmap_sl2_r_positive": ("expmap", "--structure", "sl2",
                              "--covector", "0.4,-0.3,1.5"),
    "expmap_sl2_r_negative": ("expmap", "--structure", "sl2",
                              "--covector", "1,0,0.25", "--t", "1.2"),
    "scan_su2": ("conj-scan", "--structure", "su2", "--direction", "1,0,0.5",
                 "--s-max", "20"),
    "scan_su2_w0_zero": ("conj-scan", "--structure", "su2",
                         "--direction", "1,1,0", "--s-max", "15"),
    "scan_sl2": ("conj-scan", "--structure", "sl2", "--direction", "1,0,2",
                 "--s-max", "14"),
    "scan_sl2_shallow": ("conj-scan", "--structure", "sl2",
                         "--direction", "0.3,0,1", "--s-max", "10"),
    "scan_sl2_r_nonpositive": ("conj-scan", "--structure", "sl2",
                               "--direction", "1,0,0.5"),
    # rays with over a hundred roots, whose brackets are polished in lockstep
    "scan_su2_many_roots": ("conj-scan", "--structure", "su2",
                            "--direction", "0.3,0.8,1.1", "--s-max", "400"),
    "scan_sl2_many_roots": ("conj-scan", "--structure", "sl2",
                            "--direction", "0.2,0.5,1.3", "--s-max", "400"),
    # Grushin rays: the README base with a direction of each sign of u0,
    # the axis base at alpha = 1, and an off-axis base at non-integer alpha
    "scan_grushin_readme": ("conj-scan", "--structure", "grushin", "--alpha", "1.5",
                            "--base", "0.5,0", "--direction", "0.4,1",
                            "--direction=-0.6,1", "--s-max", "20"),
    "scan_grushin_axis": ("conj-scan", "--structure", "grushin", "--alpha", "1",
                          "--base", "0,0", "--direction", "0.3,1", "--s-max", "20"),
    "scan_grushin_off_axis": ("conj-scan", "--structure", "grushin", "--alpha", "2.5",
                              "--base", "0.3,0", "--direction", "1,0.5", "--s-max", "20"),
}


def _cli_command(*args):
    """The argv and the environment of a `python -m srfolds.cli` subprocess."""
    # the subprocess imports the same srfolds as this process, also from a
    # checkout that is not installed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    # pyproject's filterwarnings does not reach a subprocess
    return [sys.executable, "-W", "error::RuntimeWarning", "-m", "srfolds.cli", *args], env


def run_cli(*args):
    argv, env = _cli_command(*args)
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)


class TestExpmap:
    def test_grushin_text_output(self):
        proc = run_cli("expmap", "--structure", "grushin", "--alpha", "1",
                       "--base", "1,0", "--covector", "0,1", "--t", "1")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        values = dict(line.split(" = ") for line in lines)
        assert set(values) == {"x", "y", "u", "v"}
        state = grushin_exp(GrushinBase(1.0, 1.0, 0.0), (0.0, 1.0), 1.0)
        assert float(values["x"]) == pytest.approx(state.position[0], rel=1e-11)
        assert float(values["y"]) == pytest.approx(state.position[1], rel=1e-11)

    def test_grushin_axis_base_with_huge_v0(self):
        # at x0 = 0 the energy is u0^2 = 1 although v0^2 overflows; the
        # geodesic has amplitude 1e-100 and frequency 1e100
        proc = run_cli("expmap", "--structure", "grushin", "--alpha", "2",
                       "--base", "0,0", "--covector", "1,1e200")
        assert proc.returncode == 0, proc.stderr
        values = {key: float(value) for key, value in
                  (line.split(" = ") for line in proc.stdout.strip().splitlines())}
        state = grushin_exp(GrushinBase(2.0, 0.0, 0.0), (1.0, 1e200), 1.0)
        assert values["x"] == pytest.approx(state.position[0], rel=1e-11)
        assert values["u"] == pytest.approx(state.momentum[0], rel=1e-11)
        assert abs(values["x"]) <= 1e-100
        assert values["v"] == 1e200

    def test_su2_json_matches_library(self):
        proc = run_cli("expmap", "--structure", "su2",
                       "--covector", "1,2,0.5", "--t", "0.7",
                       "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert set(payload) == {"config", "results", "versions", "tolerances"}
        assert payload["config"]["structure"] == "su2"
        point, momentum = su2_exp((1.0, 2.0, 0.5), 0.7)
        pos = payload["results"]["position"]
        assert pos["alpha_re"] == pytest.approx(point.alpha_re, abs=1e-11)
        assert pos["beta_im"] == pytest.approx(point.beta_im, abs=1e-11)
        mom = payload["results"]["momentum"]
        for key, expect in zip(("u", "v", "w"), momentum):
            assert mom[key] == pytest.approx(expect, abs=1e-11)

    def test_sl2_csv_matches_library(self):
        proc = run_cli("expmap", "--structure", "sl2",
                       "--covector", "1,0,0.25", "--t", "1.2",
                       "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "name,value"
        values = dict(line.split(",") for line in lines[1:])
        point, _ = sl2_exp((1.0, 0.0, 0.25), 1.2)
        assert float(values["m11"]) == pytest.approx(point.m11, rel=1e-11)
        assert float(values["m22"]) == pytest.approx(point.m22, rel=1e-11)

    def test_versions_block_present(self):
        proc = run_cli("expmap", "--structure", "su2", "--covector", "0,1,0",
                       "--format", "json")
        versions = json.loads(proc.stdout)["versions"]
        assert set(versions) == {"srfolds", "numpy", "scipy", "python"}


class TestConjScan:
    def test_su2_csv_five_records(self):
        proc = run_cli("conj-scan", "--structure", "su2",
                       "--direction", "1,0,0.5", "--s-max", "20",
                       "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "s,stratum,order,class,k1,k2,k3,f0,f1"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(TWO_PI, abs=1e-9)
        assert first[1] == "C1"
        assert first[2] == "1"
        assert first[3] == "Tangential"
        classes = [line.split(",")[3] for line in lines[1:]]
        assert classes == ["Tangential", "Fold", "Tangential", "Fold",
                           "Tangential"]

    def test_direction_whose_norm_overflows(self):
        # the squares of the components overflow; the direction still scans
        proc = run_cli("conj-scan", "--structure", "su2", "--direction=1e308,0,5e307",
                       "--s-max", "20", "--format", "csv")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len(proc.stdout.strip().splitlines()) == 6

    def test_sl2_negative_r_ray_is_empty(self):
        proc = run_cli("conj-scan", "--structure", "sl2",
                       "--direction", "1,-0.5,-1", "--s-max", "10",
                       "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "s,stratum,order,class,k1,k2,k3,f0,f1"

    def test_grushin_zero_v_ray_is_empty(self):
        proc = run_cli("conj-scan", "--structure", "grushin",
                       "--alpha", "1", "--base", "1,0",
                       "--direction", "1,0", "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "s,stratum,order,class,k1,k2,k3,f0,f1"

    def test_grushin_csv_blank_third_kernel_and_f1_cells(self):
        proc = run_cli("conj-scan", "--structure", "grushin",
                       "--alpha", "1", "--base", "1,0",
                       "--direction", "0,1", "--s-max", "4",
                       "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == 9
        assert float(cells[0]) == pytest.approx(math.pi, abs=1e-9)
        assert cells[6] == ""  # k3: the plane has a two-dimensional fiber
        assert cells[8] == ""  # f1: single stratum function
        assert cells[4] != "" and cells[5] != "" and cells[7] != ""

    def test_json_payload_shape(self):
        proc = run_cli("conj-scan", "--structure", "su2",
                       "--direction", "1,0,0.5", "--s-max", "10",
                       "--format", "json")
        payload = json.loads(proc.stdout)
        assert set(payload) == {"config", "results", "versions", "tolerances"}
        assert set(payload["tolerances"]) == {"root_tol", "pairing_tol",
                                              "second_order_tol",
                                              "rank_tol_factor"}
        (result,) = payload["results"]
        assert result["direction"] == [1.0, 0.0, 0.5]
        for record in result["records"]:
            assert set(record) == {"s", "stratum", "order", "class",
                                   "k1", "k2", "k3", "f0", "f1", "covector"}

    def test_repeat_run_is_byte_identical(self):
        args = ("conj-scan", "--structure", "su2", "--direction", "1,0,0.5",
                "--s-max", "20", "--format", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_out_flag_writes_file(self, tmp_path):
        out_file = tmp_path / "scan.csv"
        proc = run_cli("conj-scan", "--structure", "sl2",
                       "--direction", "1,0,2", "--s-max", "12",
                       "--format", "csv", "--out", str(out_file))
        assert proc.returncode == 0
        assert proc.stdout == ""
        content = out_file.read_text()
        assert content.startswith("s,stratum,order,class")
        assert content.endswith("\n")


class TestGolden:
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_group_output_is_byte_identical(self, name, fmt, capsys):
        assert main([*GOLDEN_CASES[name], "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            # the versions block names the installed library versions
            payload = json.loads(out)
            del payload["versions"]
            out = json.dumps(payload, indent=2) + "\n"
        assert out == (GOLDEN_DIR / f"{name}.{fmt}").read_text()


class TestExitCodes:
    def test_missing_required_argument(self):
        proc = run_cli("conj-scan", "--structure", "su2")
        assert proc.returncode == 2

    def test_unknown_flag(self):
        proc = run_cli("expmap", "--structure", "su2", "--covector", "1,0,0",
                       "--bogus")
        assert proc.returncode == 2

    def test_alpha_rejected_for_group(self):
        proc = run_cli("expmap", "--structure", "su2", "--alpha", "2",
                       "--covector", "1,0,0")
        assert proc.returncode == 2
        assert "usage error" in proc.stderr

    def test_base_rejected_for_group(self):
        proc = run_cli("expmap", "--structure", "sl2", "--base", "1,0",
                       "--covector", "1,0,0")
        assert proc.returncode == 2
        assert "usage error" in proc.stderr

    def test_wrong_covector_arity(self):
        proc = run_cli("expmap", "--structure", "su2", "--covector", "1,0")
        assert proc.returncode == 2
        assert "usage error" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("expmap", "--structure", "su2", "--covector", "1,0,0.5"),
        ("conj-scan", "--structure", "su2", "--direction", "1,0,0.5"),
    ], ids=["expmap", "conj-scan"])
    def test_seed_is_selftest_only(self, argv, capsys):
        # only the self-test battery draws random numbers
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_selftest_has_no_format(self, capsys):
        # the battery prints one text table; a --format it would ignore is refused
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--direction", "1,0,0.5", "--root-tol", "0"),
        ("--direction", "1,0,0.5", "--root-tol", "-1"),
        ("--direction", "1,0,0.5", "--root-tol", "nan"),
        ("--direction", "1,0,0.5", "--s-max", "inf"),
        ("--direction", "1,0,0.5", "--s-max", "-1"),
        ("--direction", "1,0,0.5", "--scan-points", "1"),
        ("--direction", "0,0,1", "--root-tol", "-1"),   # a ray the gate empties
    ], ids=str)
    def test_bad_root_tol_or_s_max_is_one_error_line(self, flags):
        # a flag value that no ray could take is a usage error, found before any scan
        proc = run_cli("conj-scan", "--structure", "su2", *flags)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage error: --")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_non_finite_alpha_is_one_usage_error_line(self):
        proc = run_cli("expmap", "--structure", "grushin", "--alpha", "nan",
                       "--covector", "1,0")
        assert proc.returncode == 2
        assert proc.stderr == "usage error: --alpha must be finite, got nan\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("args", [
        ("expmap", "--structure", "su2", "--covector", "1e200,0,1e200"),
        ("expmap", "--structure", "sl2", "--covector", "1e200,0,1e200"),
        ("expmap", "--structure", "sl2", "--covector", "1e4,0,1"),
        ("conj-scan", "--structure", "su2", "--direction", "1,0,1", "--s-max", "1e300"),
    ], ids=str)
    def test_covector_whose_curvature_overflows(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "overflows" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args,message", [
        (("expmap", "--base", "0.5,0", "--covector", "1,1e200"),
         "covector (1.0, 1e+200) too large: its energy overflows"),
        (("expmap", "--base", "0.5,0", "--covector", "1e160,1"),
         "covector (1e+160, 1.0) too large: its energy overflows"),
        (("conj-scan", "--base", "0.5,0", "--direction", "1,1", "--s-max", "1e300"),
         "covector (7.071067811865476e+295, 7.071067811865476e+295) too large: "
         "its energy overflows"),
        (("expmap", "--base", "1e200,0", "--covector", "1,1"),
         "x0 = 1e+200 too large: |x0|^(2 alpha) overflows at alpha = 2.0"),
        (("conj-scan", "--base", "1e200,0", "--direction", "1,1"),
         "x0 = 1e+200 too large: |x0|^(2 alpha) overflows at alpha = 2.0"),
        (("expmap", "--alpha", "1", "--base", "1e170,0", "--covector", "1,1"),
         "x0 = 1e+170 too large: |x0|^(2 alpha) overflows at alpha = 1.0"),
        # t is finite; the phase omega t is not
        (("expmap", "--base", "0.5,0", "--covector", "1,3", "--t", "1e308"),
         "covector (1.0, 3.0) too large at t = 1e+308: its phase omega t overflows"),
        # the straight line of v0 = 0, and of a v0 whose square underflows
        (("expmap", "--base", "0.5,0", "--covector", "10,0", "--t", "1e308"),
         "covector (10.0, 0.0) too large at t = 1e+308: its line x0 + u0 t overflows"),
        (("expmap", "--base", "0.5,0", "--covector", "10,1e-200", "--t", "1e308"),
         "covector (10.0, 1e-200) too large at t = 1e+308: its line x0 + u0 t overflows"),
    ], ids=["expmap-v0", "expmap-u0", "conj-scan", "expmap-base", "conj-scan-base",
            "expmap-base-alpha-1", "expmap-phase", "expmap-line", "expmap-line-underflow"])
    def test_grushin_overflow_is_one_error_line(self, args, message):
        command, *flags = args
        proc = run_cli(command, "--structure", "grushin", "--alpha", "2", *flags)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("args", [
        ("--structure", "su2", "--direction", "1,0,0.5"),
        ("--structure", "sl2", "--direction", "1,0,2"),
        ("--structure", "grushin", "--alpha", "2", "--base", "0.5,0", "--direction", "1,1"),
    ], ids=["su2", "sl2", "grushin"])
    def test_s_max_whose_grid_energy_underflows_is_one_error_line(self, args):
        proc = run_cli("conj-scan", *args, "--s-max", "1e-160")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: s_max = 1e-160 is too small")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize("args", [
        ("expmap", "--structure", "su2", "--covector", "1,0,0.5", "--t", "inf"),
        ("expmap", "--structure", "sl2", "--covector", "1,0,0.5", "--t", "nan"),
        ("expmap", "--structure", "grushin", "--covector", "1,0", "--t", "inf"),
    ], ids=str)
    def test_non_finite_time_is_one_error_line(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: t must be finite")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_alpha_below_one_is_computation_error(self):
        proc = run_cli("expmap", "--structure", "grushin", "--alpha", "0.5",
                       "--base", "1,0", "--covector", "0,1")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_negative_seed_is_one_usage_error_line(self):
        proc = run_cli("selftest", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stderr == "usage error: seed must be a non-negative integer, got -1\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ("expmap", "--structure", "su2", "--covector", "1,0,0.5"),
        ("conj-scan", "--structure", "su2", "--direction", "1,0,0.5"),
        ("selftest",),
    ], ids=["expmap", "conj-scan", "selftest"])
    def test_out_in_missing_directory_is_one_usage_error_line(self, argv, tmp_path):
        out_file = tmp_path / "missing" / "out.txt"
        proc = run_cli(*argv, "--out", str(out_file))
        assert proc.returncode == 2
        assert proc.stderr == (f"usage error: cannot write --out {str(out_file)!r}: "
                               "No such file or directory\n")
        assert proc.stdout == ""
        assert not out_file.parent.exists()


    def test_reader_that_closes_the_pipe_gets_no_traceback(self):
        # srfolds ... | head -n 1: some 120 kB of JSON outgrow the pipe's
        # buffer, so the CLI is still writing when its reader goes away
        argv, env = _cli_command("conj-scan", "--structure", "su2", "--direction", "1,0,0.5",
                                 "--s-max", "1000", "--format", "json")
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.wait(timeout=300)
        finally:
            proc.kill()
            proc.stderr.close()
        assert first == b"{\n"
        assert b"Traceback" not in stderr
        assert stderr == b""
        assert proc.returncode == 1


class TestSelftest:
    def test_passes_quickly_and_deterministically(self):
        start = time.monotonic()
        first = run_cli("selftest", "--seed", "42")
        elapsed = time.monotonic() - start
        assert first.returncode == 0
        assert elapsed < 60.0
        assert "16/16 checks passed" in first.stdout
        second = run_cli("selftest", "--seed", "42")
        assert second.returncode == 0
        assert second.stdout == first.stdout

    def test_planted_wrong_closed_form_fails(self, monkeypatch, capsys):
        true_sin_cos = srfolds.selftest.sin_cos_alpha

        def shifted(alpha, t):
            s, c = true_sin_cos(alpha, t)
            return s + 1e-6, c

        monkeypatch.setattr(srfolds.selftest, "sin_cos_alpha", shifted)
        assert main(["selftest", "--seed", "42"]) == 1
        lines = capsys.readouterr().out.splitlines()
        identity = [line for line in lines if line.startswith("alpha-trig-identity")]
        assert identity and identity[0].endswith("FAIL")
        assert lines[-1] != "16/16 checks passed"

    @pytest.mark.parametrize("route,check", [
        ("su2_exp", "su2-exp-ode"), ("sl2_exp", "sl2-exp-ode"),
        ("su2_frame_images", "su2-frame-identity"), ("sl2_frame_images", "sl2-frame-identity"),
    ])
    def test_planted_wrong_group_route_fails_only_its_check(self, monkeypatch, capsys,
                                                             route, check):
        # the exp-ODE and frame-identity checks are written once for both
        # groups: a route of one group planted wrong fails that group's check
        # and no other, so no check compares the other group's route
        true_route = getattr(srfolds.selftest, route)

        def planted(*args):
            if route.endswith("_exp"):
                point, momentum = true_route(*args)
                return point, momentum + 1e-6
            return true_route(*args) * (1.0 + 1e-6)

        monkeypatch.setattr(srfolds.selftest, route, planted)
        assert main(["selftest", "--seed", "42"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:-1] if line.endswith("FAIL")] == [check]
        assert lines[-1] == "15/16 checks passed"

    @pytest.mark.parametrize("route,check", [
        ("su2_exp", "su2-exp-ode"), ("sl2_exp", "sl2-exp-ode"),
        ("grushin_exp", "grushin-exp-ode"),
        ("propagate_linear_jacobi", "group-jacobi-linear-ode"),
    ])
    def test_one_nan_from_a_route_fails_its_check(self, monkeypatch, capsys, route, check):
        # a comparison with NaN is false, so max(worst, nan) keeps worst and
        # a fold by max drops the NaN; the battery's one fold keeps it. The
        # route's first call alone hands back a NaN: the group momentum's
        # first entry, the Grushin abscissa, or the propagator's x_a
        true_route = getattr(srfolds.selftest, route)
        calls = []

        def planted(*args):
            out = true_route(*args)
            calls.append(args)
            if len(calls) > 1:
                return out
            if route == "grushin_exp":
                return dataclasses.replace(out, position=(math.nan, out.position[1]))
            first, second = out
            second = second.copy()
            second[0] = math.nan
            return first, second

        monkeypatch.setattr(srfolds.selftest, route, planted)
        assert main(["selftest", "--seed", "42"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] + line.split()[-1:] for line in lines[1:-1]
                if line.endswith("FAIL")] == [[check, "nan", "FAIL"]]
        assert lines[-1] == "15/16 checks passed"
