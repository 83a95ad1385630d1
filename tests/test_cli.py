import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from rotorkin import cli
from rotorkin import ellipse as ell
from rotorkin.csvout import _BLOCK, _column_blocks, _write_csv
from rotorkin.curves import curve_from_spec, make_catalog_curve
from rotorkin.plane import uniform_grid
from rotorkin.reconstruct import Trajectory
from rotorkin.space import (space_distance_kinematics,
                            space_distance_kinematics_array)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def per_cell_csv(header, rows):
    """The reference CSV text: one f"{cell:.17g}" per cell, row by row."""
    return ",".join(header) + "\n" + "".join(
        ",".join(f"{float(cell):.17g}" for cell in row) + "\n"
        for row in rows)


# -- kinematics -----------------------------------------------------------------

def test_kinematics_row_count(capsys):
    code, out, _ = run(capsys, ["kinematics", "--curve", "ellipse",
                                "--samples", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,D,dD,d2D,rot_speed"
    assert len(lines) == 6


def assert_json_matches_csv(capsys, args, rows):
    code, csv_out, _ = run(capsys, args)
    assert code == 0
    code, json_out, _ = run(capsys, args + ["--format", "json"])
    assert code == 0
    headers = csv_out.splitlines()[0].split(",")
    payload = json.loads(json_out)
    assert len(payload) == rows
    for row_text, row_obj in zip(csv_out.splitlines()[1:], payload):
        assert list(row_obj.keys()) == headers
        for cell, value in zip(row_text.split(","), row_obj.values()):
            assert float(cell) == value


def test_kinematics_json_parity(capsys):
    assert_json_matches_csv(
        capsys, ["kinematics", "--curve", "ellipse", "--samples", "7"], 7)


def test_kinematics_deterministic(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = cli.main(["kinematics", "--curve", "ellipse",
                         "--samples", "128", "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_kinematics_space_curve_columns(capsys):
    code, out, _ = run(capsys, ["kinematics", "--curve", "cubic",
                                "--samples", "4"])
    assert code == 0
    assert out.splitlines()[0] == "t,D,dD,d2D,speed_A,speed_B,speed_C"


def test_kinematics_local_frame(capsys):
    code, out, _ = run(capsys, ["kinematics", "--curve", "ellipse",
                                "--frame", "local", "--samples", "3"])
    assert code == 0
    assert out.splitlines()[0] == "t,D,dD,d2D,rot_speed,phi,psi_speed"


def test_kinematics_point_frame(capsys):
    code, out, _ = run(capsys, ["kinematics", "--curve", "ellipse",
                                "--frame", "point:0.5,0.25", "--samples", "3"])
    assert code == 0


@pytest.mark.parametrize("flags, record, axes", [
    (["--curve", "ellipse", "--a", "3", "--b", "1.5"], None,
     {"a": 3, "b": 1.5}),
    ([], {"kind": "ellipse", "params": {"a": 3}}, {"a": 3}),
    # the flags build the curve; the record is not read
    (["--curve", "ellipse"], {"kind": "ellipse", "params": {"a": 3}}, {}),
    ([], {"kind": "ellipse", "params": None}, {}),
    # sqrt(a * a - b * b) is an ulp off EllipseParams.c here: the command
    # takes the focus the profile and the presets use
    (["--curve", "ellipse", "--a", "64.46506555880927",
      "--b", "31.615863867821915"], None,
     {"a": 64.46506555880927, "b": 31.615863867821915}),
])
def test_focus_frame_uses_the_axes_of_the_curve(capsys, tmp_path, flags,
                                                record, axes):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": record} if record else {}))
    curve = make_catalog_curve("ellipse", axes)
    a, b = curve.point(0.0).x, curve.point(0.5 * math.pi).y
    c = ell.EllipseParams(a, b).c
    argv = ["kinematics", "--config", str(path), "--samples", "7"] + flags
    code, focus, _ = run(capsys, argv + ["--frame", "focus"])
    assert code == 0
    code, point, _ = run(capsys, argv + ["--frame", f"point:{c!r},0"])
    assert code == 0
    assert focus == point


def test_unknown_curve_is_config_error(capsys):
    code, _, err = run(capsys, ["kinematics", "--curve", "nosuch"])
    assert code == 2
    assert "config error" in err


def test_focus_frame_requires_ellipse(capsys):
    code, _, err = run(capsys, ["kinematics", "--curve", "circle",
                                "--frame", "focus"])
    assert code == 2


def test_an_unknown_catalog_parameter_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": {"kind": "line",
                                          "params": {"zz": 1}}}))
    code, out, err = run(capsys, ["kinematics", "--config", str(path)])
    assert (code, out, err) == (
        2, "", "config error: line: unknown parameters ['zz']\n")


def test_focus_frame_of_a_huge_ellipse_is_too_large(capsys):
    # a * a overflowed into "non-finite vector component: inf"
    message = "config error: ellipse axis a=1e+200 is too large\n"
    for argv in (["kinematics", "--curve", "ellipse", "--a", "1e200",
                  "--b", "1", "--samples", "5", "--frame", "focus"],
                 ["ellipse", "--a", "1e200", "--b", "1"]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", message)


def test_center_on_curve_is_numeric_error(capsys, tmp_path):
    # a line through the origin hits the frame center at t = 0
    config = {"curve": {"kind": "line",
                        "params": {"x0": 0.0, "y0": 0.0, "a": 1.0, "b": 1.0}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run(capsys, ["kinematics", "--config", str(path),
                                "--samples", "11"])
    assert code == 3
    assert "CenterOnCurve" in err


def test_config_file_with_flag_override(capsys, tmp_path):
    config = {"curve": {"kind": "ellipse", "params": {"a": 3.0, "b": 1.0}},
              "samples": 4}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["kinematics", "--config", str(path),
                                "--samples", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # flag wins over the config value
    assert float(lines[1].split(",")[1]) == 3.0  # curve from config


def test_expr_curve_via_config(capsys, tmp_path):
    config = {"curve": {"kind": "expr",
                        "expr": {"x": "cos(t)", "y": "0.5*sin(t)"},
                        "domain": [0.0, 6.28]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["kinematics", "--config", str(path),
                                "--samples", "3"])
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == 1.0


# -- reconstruct -----------------------------------------------------------------

def test_reconstruct_preset_ok(capsys, tmp_path):
    out_path = tmp_path / "trajectory.csv"
    code, out, _ = run(capsys, ["reconstruct", "--preset", "ellipse-origin",
                                "--out", str(out_path)])
    assert code == 0
    assert out.startswith("max_error=")
    assert float(out.split("=")[1]) < 1e-6
    assert out_path.read_text().splitlines()[0] == "t,x,y"


def test_reconstruct_coarse_step_exceeds_tolerance(capsys):
    code, out, _ = run(capsys, ["reconstruct", "--preset", "ellipse-origin",
                                "--step", str(2.0 * math.pi / 50.0)])
    assert code == 1
    assert out.startswith("max_error=")
    assert float(out.split("=")[1]) >= 1e-6


def test_reconstruct_plane_crossing_exits_3(capsys, tmp_path):
    config = {"domain": [-2.0, 1.0]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run(capsys, ["reconstruct", "--preset", "helix",
                                "--config", str(path)])
    assert code == 3
    assert "ProjectionCollapse" in err


def test_reconstruct_unknown_preset(capsys):
    code, _, err = run(capsys, ["reconstruct", "--preset", "nosuch"])
    assert code == 2


def test_a_default_step_that_rounds_to_0_names_the_domain(capsys, tmp_path):
    # span / 10^4 of a subnormal span is 0: the step error blamed a step
    # the config never gave
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": {
        "kind": "expr", "expr": {"x": "1+t", "y": "1"}, "domain": [0, 1e-320]}}))
    assert run(capsys, ["reconstruct", "--config", str(path)]) == (
        2, "", "config error: domain [0, 9.99989e-321] is too short for the "
        "default step: span / 10^4 rounds to 0\n")
    # a step the config gives keeps its own error
    code, out, err = run(capsys, ["reconstruct", "--config", str(path),
                                  "--step", "0"])
    assert (code, out) == (2, "")
    assert err == "config error: step must be finite and positive, got 0.0\n"


def test_reconstruct_bad_steps_are_config_errors(capsys, tmp_path):
    # zero, NaN, a step count past the cap, and a negative step
    out_path = tmp_path / "trajectory.csv"
    for step in ("0", "nan", "1e-300", "-1"):
        code, out, err = run(capsys, ["reconstruct", "--preset", "circle",
                                      f"--step={step}", "--out", str(out_path)])
        assert code == 2, step
        assert out == "" and err.startswith("config error: step"), step
        assert not out_path.exists()
    # a boolean config step, which ran as a step of 1.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": "circle", "step": True}))
    code, out, err = run(capsys, ["reconstruct", "--config", str(path),
                                  "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err == "config error: step must be finite and positive, got True\n"
    assert not out_path.exists()


@pytest.mark.parametrize("preset", ["ellipse-origin", "ellipse-focus"])
@pytest.mark.parametrize("domain", [[0.1, 1], [0, 1], [2, 6]])
def test_ellipse_presets_start_and_step_on_the_config_domain(capsys, tmp_path,
                                                            preset, domain):
    # the problem started at theta = 0 with a step of 2 pi / 10^4 on any
    # domain: on [0.1, 1] the presets exited 1 (max_error 0.159 and 0.395),
    # and on [0, 1] they wrote 1,593 rows
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": preset, "domain": domain}))
    out_path = tmp_path / "trajectory.csv"
    code, out, err = run(capsys, ["reconstruct", "--config", str(path),
                                  "--out", str(out_path)])
    assert (code, err) == (0, "")
    assert float(out.removeprefix("max_error=")) <= 1e-14
    rows = out_path.read_text().splitlines()[1:]
    assert len(rows) == 10001
    assert [float(row.split(",")[0]) for row in (rows[0], rows[-1])] == domain


def test_reconstruct_start_on_coordinate_plane_exits_3(capsys, tmp_path):
    # (cos t, sin t, t) starts at (1, 0, 0): its yOz projection is the zero
    # vector, which used to become an all-NaN trajectory and exit 0
    config = {"curve": {"kind": "expr",
                        "expr": {"x": "cos(t)", "y": "sin(t)", "z": "t"},
                        "domain": [0, 1]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "trajectory.csv"
    code, out, err = run(capsys, ["reconstruct", "--config", str(path),
                                  "--out", str(out_path)])
    assert code == 3
    assert out == ""
    assert "ProjectionCollapse" in err
    assert not out_path.exists()


@pytest.mark.parametrize("expr", [
    # a space curve whose start (about -2.6e299 in z) squares past the
    # largest float: numpy's norm warned "overflow encountered in dot" and
    # the run blamed a coordinate plane
    {"x": "3.038351 + 1.525773*cos(t) + 0.317333*sin(2*t)",
     "y": "3.218705 + 1.313973*sin(t) + 0.242169*cos(2*t)",
     "z": "1.581239 + 0.258763*t + 0.208643*sin(t)"},
    # a plane curve starting at (-1.5e308, -1.5e308): np.hypot warned
    # and the run exited 2 with "e0 must be a unit vector"
    {"x": "1.5e8*t", "y": "1.5e8*t"},
])
def test_reconstruct_start_distance_overflow_exits_3(capsys, tmp_path, expr):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": {"kind": "expr", "expr": expr,
                                          "domain": [-1e300, 1e300]}}))
    code, out, err = run(capsys, ["reconstruct", "--config", str(path)])
    assert (code, out) == (3, "")
    assert err == ("NonFiniteData: start distance overflows at t=-1e+300 "
                   "(step=None)\n")


@pytest.mark.parametrize("record", [
    {"kind": "expr", "expr": {"x": "t", "y": "2*t"}, "domain": [0, 1]},
    {"kind": "expr", "expr": {"x": "t", "y": "2*t", "z": "3*t"},
     "domain": [0, 1]},
    # the start is 1e-200 from the origin in each coordinate: its norm
    # underflows to 0
    {"kind": "helix", "params": dict.fromkeys(
        ("radius", "pitch", "cx", "cy", "cz"), 1e-200)},
])
def test_reconstruct_start_on_the_center_exits_3(capsys, tmp_path, record):
    # numpy warned dividing by the zero start distance, and the run exited 2
    # with "D0 must be positive"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": record}))
    code, out, err = run(capsys, ["reconstruct", "--config", str(path)])
    assert (code, out) == (3, "")
    assert err == ("CenterOnCurve: start distance vanishes at t=0 "
                   "(step=None)\n")


def test_reconstruct_max_error_does_not_overflow(capsys, tmp_path):
    # the trajectory ends about 1e285 off a line near 1e300: numpy's norm
    # squared past the largest float, warned, and printed max_error=inf
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": {
        "kind": "expr", "expr": {"x": "t", "y": "2*t"},
        "domain": [1e300, 1.5e300]}}))
    code, out, err = run(capsys, ["reconstruct", "--config", str(path)])
    assert (code, err) == (1, "")
    assert float(out.removeprefix("max_error=")) == pytest.approx(
        1.2262255561466659e+285, rel=1e-9)


def test_reconstruct_record_whose_samples_overflow_exits_3(capsys, tmp_path):
    # z = t^3 overflows from about 5.6e102 on: the closed forms sample
    # the grid on arrays and name its first non-finite row
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": {"kind": "cubic",
                                          "domain": [0.2, 1e150]}}))
    code, out, err = run(capsys, ["reconstruct", "--config", str(path)])
    assert (code, out) == (3, "")
    assert err == ("KinematicsError: non-finite vector component at "
                   "t=1e+146 (step=None)\n")


def test_ellipse_preset_start_whose_double_overflows_exits_3(capsys,
                                                             tmp_path):
    # math.cos(2 theta0) of 2 theta0 = -inf raised ValueError: a traceback
    # and exit 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": "ellipse-focus",
                                "domain": [-1.7e308, 6.283185307179586]}))
    code, out, err = run(capsys, ["reconstruct", "--config", str(path)])
    assert (code, out) == (3, "")
    assert err == ("NonFiniteData: start values are not finite at "
                   "t=-1.7e+308 (step=None)\n")


def test_kinematics_grid_whose_span_times_its_index_overflows(capsys,
                                                              tmp_path):
    # numpy warned "overflow encountered in multiply", the grid ended in
    # inf, and the run exited 3 with OutOfDomain at t=inf
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": {
        "kind": "expr", "expr": {"x": "t", "y": "1"},
        "domain": [0.2, 1.7e308]}, "samples": 64}))
    code, out, err = run(capsys, ["kinematics", "--frame", "local",
                                  "--config", str(path)])
    assert (code, err) == (0, "")
    rows = [[float(cell) for cell in row.split(",")]
            for row in out.splitlines()[1:]]
    assert len(rows) == 64
    assert (rows[0][0], rows[-1][0]) == (0.2, 1.7e308)
    assert all(row[1:] == [0.0, 1.0, 0.0, 0.0, 1.0, 0.0] for row in rows)


@pytest.mark.parametrize("args", [
    ["--preset", "circle", "--step", "0.01"],
    ["--preset", "helix", "--step", "0.01"],
])
def test_reconstruct_json_matches_csv(capsys, tmp_path, args):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    code, csv_out, _ = run(capsys, ["reconstruct", *args,
                                    "--out", str(csv_path)])
    assert code == 0
    code, json_out, _ = run(capsys, ["reconstruct", *args, "--format", "json",
                                     "--out", str(json_path)])
    assert code == 0
    assert json_out == csv_out and csv_out.startswith("max_error=")
    lines = csv_path.read_text().splitlines()
    payload = json.loads(json_path.read_text())
    assert len(payload) == len(lines) - 1 > 1
    for row_text, row_obj in zip(lines[1:], payload):
        assert list(row_obj.keys()) == lines[0].split(",")
        assert [float(cell) for cell in row_text.split(",")] == list(
            row_obj.values())


def test_reconstruct_format_comes_from_the_config(capsys, tmp_path):
    out_path = tmp_path / "t.json"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": "circle", "step": 0.01,
                                "format": "json", "out": str(out_path)}))
    code, _, _ = run(capsys, ["reconstruct", "--config", str(path)])
    assert code == 0
    assert json.loads(out_path.read_text())[0] == {"t": 0.0, "x": 1.0,
                                                    "y": 0.0}


@pytest.mark.parametrize("fmt", ["xml", 1])
def test_reconstruct_bad_format_is_a_config_error(capsys, tmp_path, fmt):
    # an unknown format used to be accepted and written as CSV
    out_path = tmp_path / "t.csv"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": "circle", "format": fmt}))
    code, out, err = run(capsys, ["reconstruct", "--config", str(path),
                                  "--out", str(out_path)])
    assert code == 2
    assert out == "" and err.startswith("config error: format")
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["kinematics", "reconstruct", "surface",
                                     "ellipse"])
def test_an_out_path_that_cannot_be_opened_is_a_config_error(capsys, tmp_path,
                                                             command):
    # it used to raise FileNotFoundError out of main: a traceback, exit 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "surface": {"kind": "sphere", "params": {"radius": 2.0, "cz": 5.0}},
        "chart_curve": {"u": "t", "v": "0.3*sin(t)", "domain": [0.2, 5.8]}}))
    argv = {"kinematics": ["--curve", "ellipse", "--samples", "5"],
            "reconstruct": ["--preset", "circle", "--step", "0.01"],
            "surface": ["--config", str(config), "--samples", "5"],
            "ellipse": ["--samples", "5"]}[command]
    for out_path, reason in ((tmp_path / "missing" / "out.csv",
                              "No such file or directory"),
                             (tmp_path, "Is a directory"),
                             (tmp_path / "nul\0.csv", "embedded null byte")):
        code, out, err = run(capsys, [command, *argv, "--out", str(out_path)])
        assert (code, out) == (2, "")
        assert err == f"config error: cannot write {out_path}: {reason}\n"


# -- surface ---------------------------------------------------------------------

def test_surface_command(capsys, tmp_path):
    config = {
        "surface": {"kind": "sphere", "params": {"radius": 2.0, "cz": 5.0}},
        "chart_curve": {"u": "t", "v": "0.3*sin(t)", "domain": [0.2, 5.8]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, ["surface", "--config", str(path),
                                "--samples", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,D,dD,d2D,speed_A,speed_B,speed_C"
    assert len(lines) == 6


def test_surface_needs_chart_curve(capsys):
    code, _, err = run(capsys, ["surface", "--surface", "sphere"])
    assert code == 2


def test_surface_overflow_exits_3_without_rows(capsys, tmp_path):
    # a sphere of radius 1e200 used to print inf and nan cells and exit 0
    config = {
        "surface": {"kind": "sphere", "params": {"radius": 1e200, "cz": 5.0}},
        "chart_curve": {"u": "t", "v": "0.3*sin(t)", "domain": [0.2, 5.8]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "surface.csv"
    for out_args in ([], ["--out", str(out_path)]):
        code, out, err = run(capsys, ["surface", "--config", str(path),
                                      "--samples", "5", *out_args])
        assert code == 3
        assert out == ""
        assert err.startswith("NonFiniteData at t=0.2: ")
    assert not out_path.exists()


# -- ellipse ---------------------------------------------------------------------

def test_ellipse_profile(capsys):
    code, out, _ = run(capsys, ["ellipse", "--a", "2", "--b", "1",
                                "--samples", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,xi1,d1,d2,d3,rot_speed_origin,rot_speed_focus"
    assert len(lines) == 6


def test_ellipse_bad_axes(capsys):
    code, _, err = run(capsys, ["ellipse", "--a", "1", "--b", "2"])
    assert code == 2


def test_ellipse_json_matches_csv(capsys):
    assert_json_matches_csv(
        capsys, ["ellipse", "--a", "2", "--b", "1", "--samples", "5"], 5)


def test_degenerate_ellipse_profile_exits_3_without_rows(monkeypatch,
                                                        capsys):
    # c = sqrt(4 - 1e-18) rounds to a, so the focus sits on the curve at
    # theta = 0, as kinematics --frame focus reports with CenterOnCurve;
    # the streamed profile's error is the line, without a full-length pass
    monkeypatch.setattr(ell, "profile_columns", None)
    code, out, err = run(capsys, ["ellipse", "--a", "2", "--b", "1e-9",
                                  "--samples", "5"])
    assert (code, out) == (3, "")
    assert err == ("NonFiniteData at t=0: ellipse profile of a=2.0, "
                   "b=1e-09 is not finite\n")


def test_surface_grid_end_one_ulp_past_the_domain_is_sampled(capsys,
                                                             tmp_path):
    # the grid's last point 0.1 + (2.7 - 0.1) rounds one ulp past 2.7; the
    # chart curve kept its own exact domain check and exited 3 with
    # "OutOfDomain at t=2.7", where every other curve allows the slack
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "surface": {"kind": "torus", "params": {"R": 2, "r": 0.5, "cz": 3}},
        "chart_curve": {"u": "t", "v": "sin(t) + 2", "domain": [0.1, 2.7]}}))
    code, out, err = run(capsys, ["surface", "--config", str(path)])
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 100
    last = uniform_grid((0.1, 2.7), 100)[-1]
    assert last > 2.7
    assert float(rows[-1].split(",")[0]) == last


# -- sample counts ---------------------------------------------------------------

SURFACE_CONFIG = {
    "surface": {"kind": "sphere", "params": {"radius": 2.0, "cz": 5.0}},
    "chart_curve": {"u": "t", "v": "0.3*sin(t)", "domain": [0.2, 5.8]},
}
SAMPLED_COMMANDS = {
    "kinematics": (["kinematics"], {"curve": {"kind": "ellipse"}}),
    "surface": (["surface"], SURFACE_CONFIG),
    "ellipse": (["ellipse"], {}),
}


def run_sampled(capsys, tmp_path, command, flag=None, **config):
    argv, base = SAMPLED_COMMANDS[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**base, **config}))
    argv = argv + ["--config", str(path)]
    if flag is not None:
        argv += ["--samples", flag]
    return run(capsys, argv)


@pytest.mark.parametrize("command", sorted(SAMPLED_COMMANDS))
def test_samples_flag_zero_is_config_error(capsys, tmp_path, command):
    code, out, err = run_sampled(capsys, tmp_path, command, flag="0")
    assert code == 2
    assert out == "" and "samples" in err


@pytest.mark.parametrize("command", sorted(SAMPLED_COMMANDS))
@pytest.mark.parametrize("value", ["abc", 2.5, True, 1, -3, None])
def test_bad_config_samples_are_config_errors(capsys, tmp_path, command,
                                              value):
    code, out, err = run_sampled(capsys, tmp_path, command, samples=value)
    assert code == 2
    assert out == "" and "samples" in err


@pytest.mark.parametrize("command", sorted(SAMPLED_COMMANDS))
def test_samples_flag_wins_over_config(capsys, tmp_path, command):
    code, out, _ = run_sampled(capsys, tmp_path, command, flag="3", samples=0)
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run_sampled(capsys, tmp_path, command, samples=5)
    assert code == 0
    assert len(out.splitlines()) == 6


@pytest.mark.parametrize("command", sorted(SAMPLED_COMMANDS))
def test_samples_above_the_cap_are_config_errors(capsys, tmp_path, command):
    # rejected before any array is allocated; never run at this size
    code, out, err = run_sampled(capsys, tmp_path, command,
                                 samples=cli.MAX_SAMPLES + 1)
    assert code == 2
    assert out == "" and "samples" in err


# -- config validation -----------------------------------------------------

def run_config(capsys, tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return run(capsys, [command, "--config", str(path), "--samples", "3"])


@pytest.mark.parametrize("command, config", [
    ("kinematics", {"curve": {"kind": "expr", "domain": ["a", 1],
                              "expr": {"x": "cos(t)", "y": "sin(t)"}}}),
    ("kinematics", {"curve": {"kind": "ellipse", "domain": ["a", "b"]}}),
    ("surface", {**SURFACE_CONFIG, "chart_curve": {
        **SURFACE_CONFIG["chart_curve"], "domain": ["a", "b"]}}),
    ("kinematics", {"curve": {"kind": "ellipse", "domain": [0.0, 1e400]}}),
    ("kinematics", {"curve": {"kind": "line", "params": {"x0": "a"}}}),
    ("kinematics", {"curve": {"kind": "ellipse", "params": "abc"}}),
    ("kinematics", {"curve": {"kind": "ellipse", "params": [1, 2]}}),
    ("ellipse", {"a": "x"}),
    ("ellipse", {"b": [1]}),
    # surface parameters (JSON accepts NaN and Infinity)
    ("surface", {**SURFACE_CONFIG, "surface": {
        "kind": "sphere", "params": {"cz": "a"}}}),
    ("surface", {**SURFACE_CONFIG, "surface": {
        "kind": "graph", "params": {"c11": "abc"}}}),
    ("surface", {**SURFACE_CONFIG, "surface": {
        "kind": "sphere", "params": {"radius": math.nan}}}),
    ("surface", {**SURFACE_CONFIG, "surface": {
        "kind": "graph", "params": {"c11": math.inf}}}),
    ("surface", {**SURFACE_CONFIG, "surface": {
        "kind": "torus", "params": {"cz": math.inf}}}),
    ("surface", {**SURFACE_CONFIG, "surface": {
        "kind": "sphere", "params": {"radius": True}}}),
])
def test_non_numeric_records_are_config_errors(capsys, tmp_path, command,
                                               config):
    # these crashed with TypeError or ValueError (exit 1)
    code, out, err = run_config(capsys, tmp_path, command, config)
    assert code == 2
    assert out == "" and err.startswith("config error")


@pytest.mark.parametrize("argv, config", [
    (["surface"], {**SURFACE_CONFIG, "chart_curve": ["u", "v", "domain"]}),
    (["surface"], {**SURFACE_CONFIG, "surface": {"kind": ["sphere"]}}),
    (["surface"], {**SURFACE_CONFIG, "surface": {
        "kind": "graph", "params": {"coeffs": "ab"}}}),
    (["reconstruct"], {"preset": ["circle"]}),
    (["reconstruct"], {"curve": {"kind": ["ellipse"]}}),
    (["kinematics"], {"curve": {"kind": ["ellipse"]}}),
    (["surface", "--surface", "sphere"], {**SURFACE_CONFIG, "surface": [1]}),
])
def test_records_of_the_wrong_type_are_config_errors(capsys, tmp_path, argv,
                                                     config):
    # these crashed with TypeError or ValueError (exit 1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, argv + ["--config", str(path)])
    assert code == 2
    assert out == "" and err.startswith("config error")


def test_deeply_nested_expression_is_config_error(capsys, tmp_path):
    # 2,000 nested parentheses crashed with RecursionError (exit 1)
    nested = "(" * 2000 + "t" + ")" * 2000
    code, out, err = run_config(capsys, tmp_path, "kinematics", {
        "curve": {"kind": "expr", "expr": {"x": nested, "y": "t"},
                  "domain": [0.0, 1.0]}})
    assert code == 2
    assert out == "" and "nested deeper" in err


@pytest.mark.parametrize("text", ["t^1e400", "t^(1/1e-400)"])
@pytest.mark.parametrize("command", ["kinematics", "reconstruct", "surface"])
def test_exponent_literals_out_of_range_are_config_errors(capsys, tmp_path,
                                                          command, text):
    # these exited 1 with a ValueError or ZeroDivisionError traceback
    record = {"kind": "expr", "expr": {"x": text, "y": "t"},
              "domain": [1.0, 2.0]}
    config = ({**SURFACE_CONFIG, "chart_curve": {
        **SURFACE_CONFIG["chart_curve"], "u": text}}
        if command == "surface" else {"curve": record})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, [command, "--config", str(path)])
    assert code == 2
    assert out == "" and err.startswith("config error")
    assert "exponent" in err


def test_domain_of_infinite_width_is_a_config_error(tmp_path):
    # [-1e308, 1e308] printed numpy's RuntimeWarning from the sample grid,
    # then "OutOfDomain at t=nan", and exited 3; in a fresh process, so
    # that a warning would reach stderr as it does for users
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"curve": {"kind": "ellipse", "domain": [-1e308, 1e308]}}))
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "rotorkin.cli", "kinematics", "--config",
         str(path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "config error: bad domain (-1e+308, 1e+308)\n"


@pytest.mark.parametrize("command", sorted(SAMPLED_COMMANDS))
@pytest.mark.parametrize("field", [{"out": 7}, {"out": 1}, {"out": ["a"]},
                                   {"format": "xml"}, {"format": 1}])
def test_bad_output_fields_are_config_errors(capsys, tmp_path, command,
                                             field):
    # an integer out was opened as a file descriptor (1 would close
    # stdout), and an unknown format silently wrote CSV
    code, out, err = run_sampled(capsys, tmp_path, command, **field)
    assert code == 2
    assert out == "" and err.startswith("config error")


@pytest.mark.parametrize("config", [
    {"curve": {"kind": "ellipse"}, "frame": 5},
    {"curve": {"kind": "ellipse"}, "frame": ["origin"]},
    {"curve": {"kind": "expr", "expr": {"x": 5, "y": "t"},
               "domain": [0.0, 1.0]}},
])
def test_non_string_frame_and_expression_are_config_errors(capsys, tmp_path,
                                                           config):
    # these crashed with AttributeError (exit 1)
    code, out, err = run_config(capsys, tmp_path, "kinematics", config)
    assert code == 2
    assert out == "" and err.startswith("config error")


def test_bad_reconstruct_out_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": "circle", "out": 7}))
    code, out, err = run(capsys, ["reconstruct", "--config", str(path)])
    assert code == 2
    assert out == "" and "out must be" in err


@pytest.mark.parametrize("command, config", [
    ("kinematics", {"curve": {"kind": "expr", "domain": [0.0, 1.0], "expr": {
        "x": "+".join(["t"] * 10000), "y": "t"}}}),
    ("kinematics", {"curve": {"kind": "expr", "domain": [0.0, 1.0], "expr": {
        "x": "1 + t", "y": "*".join(["sin(t)"] * 80)}}}),
    ("surface", {**SURFACE_CONFIG, "chart_curve": {
        **SURFACE_CONFIG["chart_curve"], "v": "*".join(["sin(t)"] * 80)}}),
])
def test_oversized_expressions_are_config_errors(capsys, tmp_path, command,
                                                 config):
    # a 10,000-term sum crashed differentiation with RecursionError (exit
    # 1); an 80-factor product has a 33-million-node third derivative
    code, out, err = run_config(capsys, tmp_path, command, config)
    assert code == 2
    assert out == "" and err.startswith("config error")


@pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf", "1e-6"])
def test_fd_step_variable_is_ignored(capsys, monkeypatch, value):
    # the finite-difference steps are fixed: no environment variable
    # fails a run or changes its output
    argv = ["kinematics", "--curve", "ellipse", "--samples", "3"]
    plain = run(capsys, argv)
    monkeypatch.setenv("ROTOR_FD_STEP", value)
    assert run(capsys, argv) == plain
    assert plain[0] == 0


# each raised out of main before it was caught (a traceback, exit 1)
UNREADABLE_CONFIGS = {
    "non-utf8": b'{"samples": 3, "out": "\xff"}',  # UnicodeDecodeError
    "deep": b"[" * 200_000,  # RecursionError
    "long-int": b'{"samples": ' + b"9" * 5000 + b"}",  # int digit limit
}


@pytest.mark.parametrize("command", ["kinematics", "reconstruct", "surface",
                                     "ellipse"])
@pytest.mark.parametrize("name", sorted(UNREADABLE_CONFIGS))
def test_unreadable_configs_are_config_errors(capsys, tmp_path, command,
                                              name):
    path = tmp_path / "config.json"
    path.write_bytes(UNREADABLE_CONFIGS[name])
    code, out, err = run(capsys, [command, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: cannot read config {path}: ")
    assert err.count("\n") == 1


# -- numerical failures on the array path ----------------------------------

EXP_CURVE = {"kind": "expr", "expr": {"x": "exp(t)", "y": "t+2"},
             "domain": [0, 800]}


@pytest.mark.parametrize("args, line", [
    (["--curve", "circle", "--frame", "point:1,0", "--samples", "9"],
     "CenterOnCurve at t=0: the curve meets the frame center at t=0"),
    (["--curve", "ellipse", "--frame", "point:0,-1", "--samples", "5"],
     "CenterOnCurve at t=4.71239: the curve meets the frame center at "
     "t=4.71239"),
    (["--curve", "ellipse", "--a", "1e300", "--b", "1e299", "--samples", "3"],
     "NonFiniteData at t=0: kinematics overflow at t=0"),
    (["--curve", "helix", "--samples", "5"],
     "AxisProjectionDegenerate at t=0: yOz-plane projection vanishes at t=0"),
    # used to print inf and nan cells and exit 0
    (["--curve", "cubic", "--a", "1e200", "--samples", "3"],
     "NonFiniteData at t=0.2: non-finite kinematics at t=0.2"),
    # a config instead of flags; math's OverflowError and ValueError used
    # to escape the expression evaluator with a traceback and exit 1
    ({"curve": EXP_CURVE, "samples": 5},
     "NonFiniteData at t=200: non-finite kinematics at t=200"),
    ({"curve": EXP_CURVE, "samples": 5, "frame": "local"},
     "NonFiniteData at t=400: kinematics overflow at t=400"),
    ({"curve": {**EXP_CURVE, "expr": {"x": "exp(t)", "y": "t+2", "z": "t"}},
      "samples": 5},
     "NonFiniteData at t=200: non-finite kinematics at t=200"),
    ({"curve": {"kind": "expr", "expr": {"x": "t^300", "y": "t+2"},
                "domain": [1, 1000]}, "samples": 5},
     "EvalDomain at t=250.75: 250.75^300 overflows"),
    ({"curve": {"kind": "expr", "expr": {"x": "t", "y": "exp(1000*t)"},
                "domain": [0, 1]}, "samples": 2},
     "EvalDomain at t=1: exp of 1000 overflows"),
    ({"curve": {"kind": "expr", "expr": {"x": "sin(t*1e308*10)", "y": "t"},
                "domain": [1, 2]}, "samples": 3},
     "EvalDomain at t=1: sin of inf is undefined"),
])
def test_degenerate_samples_exit_3_with_the_failing_t(capsys, tmp_path, args,
                                                       line):
    if isinstance(args, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(args))
        args = ["--config", str(path)]
    code, out, err = run(capsys, ["kinematics"] + args)
    assert code == 3
    assert out == "" and err == line + "\n"


# numpy would compute these as finite values where the scalar walker
# raises: past the 1/0 or ln(0) it flags inside, or, as np.power(-1.0,
# 3.3e16) = 1, without the walker's rule for a negative base
HIDDEN = [({"x": "t + 1", "y": "1/(1/(t-0.5))"}, [0, 1],
           "0.5", "division by zero at t=0.5"),
          ({"x": "t + 1", "y": "exp(ln(t-0.5))"}, [0.5, 1],
           "0.5", "ln of non-positive value 0"),
          ({"x": "t + 1", "y": "exp(ln(t-0.5))"}, [0, 1],
           "0", "ln of non-positive value -0.5"),
          ({"x": "t", "y": "t^(1e17/3)"}, [-1, -0.5],
           "-1", "negative base with fractional exponent"),
          # r samples on arrays; only r' = 1/(2 sqrt(t)) fails
          ({"x": "t + 1", "y": "sqrt(t)"}, [0, 1],
           "0", "division by zero at t=0")]


@pytest.mark.parametrize("exprs, domain, t, message", HIDDEN)
@pytest.mark.parametrize("frame", ["origin", "point:-1,-1", "local"])
def test_failures_numpy_hides_exit_3_in_kinematics(capsys, tmp_path, exprs,
                                                   domain, t, message, frame):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": {"kind": "expr", "expr": exprs,
                                          "domain": domain},
                                "samples": 3, "frame": frame}))
    code, out, err = run(capsys, ["kinematics", "--config", str(path)])
    assert (code, out, err) == (3, "", f"EvalDomain at t={t}: {message}\n")


@pytest.mark.parametrize("exprs, domain, t, message", HIDDEN)
def test_failures_numpy_hides_exit_3_in_reconstruct(capsys, tmp_path, exprs,
                                                    domain, t, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": {"kind": "expr", "expr": exprs,
                                          "domain": domain}}))
    code, out, err = run(capsys, ["reconstruct", "--config", str(path)])
    assert (code, out, err) == (3, "", f"EvalDomain: {message} (step=None)\n")


# -- the space path ------------------------------------------------------------

def test_expr_space_curve_csv_is_the_scalar_loop(capsys, tmp_path):
    record = {"kind": "expr", "domain": [0.1, 2.0],
              "expr": {"x": "1.5 + cos(t)", "y": "2 + sin(2*t)", "z": "t"}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": record, "samples": 50}))
    code, out, _ = run(capsys, ["kinematics", "--config", str(path)])
    assert code == 0
    curve = curve_from_spec(record)
    rows = [(t, *astuple(space_distance_kinematics(curve, t)))
            for t in uniform_grid(curve.domain, 50).tolist()]
    header = ["t", "D", "dD", "d2D", "speed_A", "speed_B", "speed_C"]
    assert out == per_cell_csv(header, rows)


def cubic_csv(n):
    """The reference CSV of `kinematics --curve cubic --samples n`."""
    curve = make_catalog_curve("cubic")
    ts = uniform_grid(curve.domain, n)
    kin = astuple(space_distance_kinematics_array(curve, ts))
    return per_cell_csv(["t", "D", "dD", "d2D", "speed_A", "speed_B",
                         "speed_C"], zip(ts, *kin))


# four row blocks, so that two and three usable CPUs cut them into runs
@pytest.mark.parametrize("n", [2, 4 * _BLOCK - 1, 4 * _BLOCK, 4 * _BLOCK + 1])
def test_streamed_rows_match_per_cell_formatting(capsys, n):
    code, out, _ = run(capsys, ["kinematics", "--curve", "cubic",
                                "--samples", str(n)])
    assert code == 0
    assert out == cubic_csv(n)


def test_space_curve_json_matches_csv(capsys):
    assert_json_matches_csv(
        capsys, ["kinematics", "--curve", "cubic", "--samples", "7"], 7)


# -- CSV formatting ----------------------------------------------------------

def written_csv(header, columns):
    fh = io.StringIO()
    _write_csv(lambda: nullcontext(fh), header, _column_blocks(columns))
    return fh.getvalue()


def test_csv_formatter_matches_per_cell_formatting():
    rows = [(-0.0, 5e-324, 1e308), (3, -7, 2 ** 60),
            (np.float64(0.1), np.float64(-1e-310), math.pi),
            (1.0 / 3.0, np.float64(2.0) ** 0.5, True)]
    want = "a,b,c\n" + "".join(
        ",".join(f"{float(v):.17g}" for v in row) + "\n" for row in rows)
    assert written_csv(["a", "b", "c"], np.array(rows, dtype=float).T) == want
    assert written_csv(["a"], np.empty((1, 0))) == "a\n"


# -- CSV on forked writers ---------------------------------------------------

SIZES = [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK]


def on_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("n", SIZES)
def test_csv_is_the_same_on_any_number_of_cpus(monkeypatch, capsys, tmp_path,
                                               n):
    want = cubic_csv(n)
    argv = ["kinematics", "--curve", "cubic", "--samples", str(n)]
    for cpus in (1, 2, 3):
        on_cpus(monkeypatch, cpus)
        assert run(capsys, argv) == (0, want, "")
        out_path = tmp_path / f"{cpus}.csv"
        assert run(capsys, argv + ["--out", str(out_path)]) == (0, "", "")
        assert out_path.read_text() == want


@pytest.mark.parametrize("n", SIZES)
def test_trajectory_csv_is_the_same_on_any_number_of_cpus(monkeypatch,
                                                          tmp_path, n):
    rng = np.random.default_rng(n)
    trajectory = Trajectory(np.sort(rng.uniform(0.0, 1.0, n)),
                            rng.standard_normal((n, 3)) * 1e3, 0.0)
    want = per_cell_csv(["t", "x", "y", "z"],
                        zip(trajectory.ts, *trajectory.points.T))
    for cpus in (1, 2, 3):
        on_cpus(monkeypatch, cpus)
        path = tmp_path / f"{cpus}.csv"
        trajectory.write_csv(path)
        assert path.read_text() == want


@pytest.mark.parametrize("n", SIZES)
def test_surface_and_ellipse_csv_are_the_same_on_any_number_of_cpus(
        monkeypatch, capsys, tmp_path, n):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "surface": {"kind": "torus", "params": {"R": 2.0, "r": 0.5}},
        "chart_curve": {"u": "0.5 + t", "v": "1.3 + 0.3*sin(2*t)",
                        "domain": [0.2, 5.2]}}))
    params = ell.EllipseParams(2.3, 1.4)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"curve": {
        "kind": "expr", "domain": [0.1, 2.0],
        "expr": {"x": "1.5 + cos(t)", "y": "2 + sin(2*t)", "z": "t"}}}))
    commands = {
        # an expression space curve: every row runs the scalar API
        "kinematics": (["kinematics", "--config", str(space),
                        "--samples", str(n)], None),
        "surface": (["surface", "--config", str(path), "--samples", str(n)],
                    None),
        "ellipse": (["ellipse", "--a", "2.3", "--b", "1.4",
                     "--samples", str(n)],
                    per_cell_csv(ell.PROFILE_HEADER.split(","),
                                 zip(*ell.profile_columns(params, n)))),
    }
    for argv, want in commands.values():
        for cpus in (1, 2, 3):
            on_cpus(monkeypatch, cpus)
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, "")
            want = want or out  # on one CPU, nothing forks
            assert out == want


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# each child formats into a pipe that nobody reads, so it blocks until it
# is killed; the parent's first write, into its own run's file, fails
KILL_AND_REAP = """
import io, os, sys, tempfile
from contextlib import nullcontext
import numpy as np
from rotorkin.csvout import _BLOCK, _column_blocks, _write_csv

class BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

cpus = int(sys.argv[1])
read_end, write_end = os.pipe()
files = [BrokenPipe()]  # the first file made is run 0's, this process's
tempfile.TemporaryFile = lambda *args, **kwargs: (
    files.pop() if files else open(write_end, "w", closefd=False))
os.sched_getaffinity = lambda pid: set(range(cpus))
table = np.random.default_rng(0).standard_normal((16 * cpus * _BLOCK, 2))
try:
    _write_csv(lambda: nullcontext(sys.stdout), ["a", "b"],
               _column_blocks(table.T))
except BrokenPipeError:
    pass
else:
    sys.exit("the write did not fail")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(0)
sys.exit("a child was left")
"""


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_failed_parent_write_kills_and_reaps_the_children(cpus):
    # the scenario runs in its own interpreter and session: if the kill is
    # lost, the write never returns, and the timeout kills the session's
    # process group, blocked children included, and fails the test
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.Popen([sys.executable, "-c", KILL_AND_REAP, str(cpus)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=env, start_new_session=True)
    try:
        _, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the write did not return: a blocked child was not killed")
    assert (child.returncode, err) == (0, "")


def test_a_failed_child_s_run_is_redone_by_the_parent(monkeypatch):
    # each child's blocks raise, so it exits 1; the parent formats their
    # runs itself
    columns = np.random.default_rng(1).standard_normal((3 * _BLOCK, 2)).T
    want = written_csv(["a", "b"], columns)
    on_cpus(monkeypatch, 3)
    parent = os.getpid()
    count, block = _column_blocks(columns)

    def in_the_parent_only(k):
        if os.getpid() != parent:
            raise RuntimeError("a block in a child")
        return block(k)
    fh = io.StringIO()
    _write_csv(lambda: nullcontext(fh), ["a", "b"], (count, in_the_parent_only))
    assert fh.getvalue() == want
    assert_no_child_left()


# errors in the rows of a forked worker's run: the parent redoes the run,
# so the first failing t in order is reported, as on one CPU
RUN_ERRORS = {
    # 3,072 samples at t = 0, 1, ..., 3071; the projection vanishes in the
    # last block
    "last-run": (["kinematics"], {"curve": {
        "kind": "expr", "domain": [0, 3071],
        "expr": {"x": "t - 3000", "y": "2*(t - 3000)", "z": "1 + t/1000"}}},
        "AxisProjectionDegenerate at t=3000: "
        "xOy-plane projection vanishes at t=3000"),
    "chart-exit": (["surface"], {
        "surface": {"kind": "torus", "params": {"R": 2.0, "r": 0.5}},
        "chart_curve": {"u": "t", "v": "1.3 + 0.3*sin(2*t)",
                        "domain": [0.2, 6.5]}},
        "OutOfDomain at t=6.2846: (u, v)=(6.2846, 1.30085) outside the "
        "chart domain"),
    # the projection vanishes in block 1, the curve meets the origin in
    # block 2
    "runs-1-and-2": (["kinematics"], {"curve": {
        "kind": "expr", "domain": [0, 3071],
        "expr": {"x": "(t - 1500)*(t - 2500)", "y": "2*(t - 1500)*(t - 2500)",
                 "z": "t - 2500"}}},
        "AxisProjectionDegenerate at t=1500: "
        "xOy-plane projection vanishes at t=1500"),
}


@pytest.mark.parametrize("argv, config, line", RUN_ERRORS.values(),
                         ids=RUN_ERRORS)
def test_an_error_in_a_forked_run_is_the_one_cpu_error(monkeypatch, capsys,
                                                       tmp_path, argv,
                                                       config, line):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "samples": 3 * _BLOCK}))
    for cpus in (1, 2, 3):
        on_cpus(monkeypatch, cpus)
        assert run(capsys, argv + ["--config", str(path)]) == (3, "",
                                                               line + "\n")
        assert_no_child_left()


def test_the_origin_fails_run_2_of_runs_1_and_2(capsys, tmp_path):
    # block 2 alone, t = 2048, ..., 3071
    curve = {**RUN_ERRORS["runs-1-and-2"][1]["curve"], "domain": [2048, 3071]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"curve": curve, "samples": _BLOCK}))
    code, out, err = run(capsys, ["kinematics", "--config", str(path)])
    assert (code, out) == (3, "")
    assert err.startswith("CenterOnCurve at t=2500: ")


@pytest.mark.parametrize("command", ["kinematics", "surface"])
def test_a_worker_that_cannot_write_has_its_rows_redone(monkeypatch, capsys,
                                                        tmp_path, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "curve": {"kind": "expr", "domain": [0.1, 2.0],
                  "expr": {"x": "1.5 + cos(t)", "y": "2 + sin(2*t)",
                           "z": "t"}},
        "surface": {"kind": "torus", "params": {"R": 2.0, "r": 0.5}},
        "chart_curve": {"u": "0.5 + t", "v": "1.3 + 0.3*sin(2*t)",
                        "domain": [0.2, 5.2]},
        "samples": 3 * _BLOCK}))
    argv = [command, "--config", str(path)]
    on_cpus(monkeypatch, 1)
    want = run(capsys, argv)
    assert want[0] == 0
    on_cpus(monkeypatch, 3)
    # a forked child closes every temporary file made so far, its run's
    # too, so its writes fail and it exits 1; the parent's stay open
    made, make, fork = [], tempfile.TemporaryFile, os.fork

    def temporary_file(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    def fork_that_cannot_write():
        pid = fork()
        if pid == 0:
            for file in made:
                os.close(file.fileno())
        return pid
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    monkeypatch.setattr(os, "fork", fork_that_cannot_write)
    assert run(capsys, argv) == want
    assert_no_child_left()


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [
    ["kinematics", "--curve", "cubic", "--samples", str(5 * _BLOCK)],
    ["reconstruct", "--preset", "circle"]], ids=["csv", "max_error"])
def test_a_closed_stdout_is_a_config_error(argv, unbuffered):
    # a reader that went away before the first byte: the CSV rows, or the
    # max_error= line, ended in a BrokenPipeError traceback and exit 1
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rotorkin.cli", *argv], stdout=write_end,
            stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr
    assert done.stderr == "config error: cannot write the output: Broken pipe\n"


def test_a_closed_stdout_kills_and_reaps_the_csv_children(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = open(write_end, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    on_cpus(monkeypatch, 3)
    try:
        code = cli.main(["kinematics", "--curve", "cubic",
                         "--samples", str(8 * _BLOCK)])
    finally:
        stdout.close()  # main pointed the descriptor at the null device
    assert code == 2
    assert_no_child_left()


# -- verify ----------------------------------------------------------------------

def test_verify_filter_runs_subset(capsys):
    code, out, _ = run(capsys, ["verify", "--filter", "ellipse"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)
    cids = {line.split()[1] for line in lines}
    assert cids == {"focal-table", "average-speeds", "accel-zeros"}


@pytest.mark.parametrize("name", ["elipse", "", "PLANE"])
def test_verify_filter_matching_nothing_is_a_config_error(capsys, name):
    code, out, err = run(capsys, ["verify", "--filter", name])
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    for tag in ("plane", "space", "surface", "ellipse", "reconstruction",
                "cli"):
        assert tag in err


def test_verify_filter_takes_a_criterion_id(capsys):
    code, out, _ = run(capsys, ["verify", "--filter", "line-degeneracy"])
    assert code == 0
    assert out.split()[:2] == ["PASS", "line-degeneracy"]


def test_verify_fault_injection_fails_psi_criterion(capsys):
    code, out, _ = run(capsys, ["verify", "--filter", "local-limits",
                                "--inject-fault", "psi"])
    assert code == 1
    assert out.startswith("FAIL local-limits")


# -- start-up imports ------------------------------------------------------------

# runs `python -m rotorkin.cli ARGS` the way -m does (the package first, then
# the module as __main__) and writes the exit code and sys.modules to FILE
MODULES_AFTER_RUN = """
import json, runpy, sys
path, sys.argv = sys.argv[1], ["rotorkin", *sys.argv[2:]]
try:
    runpy.run_module("rotorkin.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    with open(path, "w") as fh:
        json.dump([exc.code, sorted(sys.modules)], fh)
"""

TORUS = {"surface": {"kind": "torus", "params": {"R": 2, "r": 0.5, "cz": 3}},
         "chart_curve": {"u": "t", "v": "sin(t) + 2", "domain": [0.1, 2.7]}}


def run_python(*args):
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


@pytest.mark.parametrize("argv, unused", [
    (["kinematics", "--curve", "ellipse", "--samples", "2"],
     {"surface", "verify", "reconstruct", "expr", "ellipse", "space",
      "numerics"}),
    (["kinematics", "--curve", "cubic", "--samples", "2"],
     {"surface", "verify", "reconstruct", "expr", "ellipse"}),
    (["reconstruct", "--preset", "circle"],
     {"surface", "verify", "expr", "space", "numerics"}),
    (["ellipse", "--samples", "2"], {"reconstruct", "surface"}),
    (["surface", "--config", "{torus}", "--samples", "2"],
     {"verify", "reconstruct"}),
], ids=["kinematics-plane", "kinematics-space", "reconstruct", "ellipse",
        "surface"])
def test_a_command_imports_only_the_modules_it_runs(tmp_path, argv, unused):
    torus = tmp_path / "torus.json"
    torus.write_text(json.dumps(TORUS))
    modules = tmp_path / "modules.json"
    done = run_python("-c", MODULES_AFTER_RUN, str(modules),
                      *(arg.format(torus=torus) for arg in argv),
                      "--out", str(tmp_path / "out.csv"))
    code, loaded = json.loads(modules.read_text())
    assert code == 0, done.stderr
    assert "rotorkin.curves" in loaded
    assert not {f"rotorkin.{name}" for name in unused} & set(loaded)


# -- the program's exit -------------------------------------------------------

def run_program(*args):
    """`python ARGS` in a new process that imports this rotorkin, with its
    output buffered as by default and returned as bytes."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env)


def test_a_csv_on_a_pipe_is_the_out_file(tmp_path):
    # the program ends by os._exit: every row must be flushed before it
    argv = ["kinematics", "--curve", "cubic", "--samples", "100000"]
    out = tmp_path / "cubic.csv"
    piped = run_program("-m", "rotorkin.cli", *argv)
    written = run_program("-m", "rotorkin.cli", *argv, "--out", str(out))
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert piped.stdout.count(b"\n") == 100001
    assert piped.stdout == out.read_bytes()


CENTER_ON_CURVE = {"curve": {"kind": "expr", "expr": {"x": "t", "y": "2*t"},
                             "domain": [0, 1]}}
EXITS = {
    "tolerance": (["reconstruct", "--preset", "ellipse-origin",
                   "--step", str(2.0 * math.pi / 50.0)], {}, 1),
    "config": (["reconstruct"], {"preset": "circle", "step": True}, 2),
    "numeric": (["reconstruct"], CENTER_ON_CURVE, 3),
}


@pytest.mark.parametrize("argv, config, code", EXITS.values(), ids=EXITS)
def test_the_program_exits_as_main_returns(capsys, tmp_path, argv, config,
                                           code):
    # the same exit code, stdout and stderr as main's in-process run, so
    # no traceback and no lost line
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [*argv, "--config", str(path)]
    want = run(capsys, argv)
    assert want[0] == code
    done = run_program("-m", "rotorkin.cli", *argv)
    assert (done.returncode, done.stdout.decode(),
            done.stderr.decode()) == want


def test_a_reader_that_stops_early_is_a_config_error():
    # the reader closes the pipe after the first bytes, as `| head` does
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "rotorkin.cli", "kinematics", "--curve",
         "cubic", "--samples", "100000"], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env)
    assert child.stdout.read(64).startswith(b"t,D,dD,")
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait() == 2
    assert err == b"config error: cannot write the output: Broken pipe\n"


# a caller that runs the program the way -m does, with an exit handler
# registered first
EXIT_HANDLERS = """
import atexit, runpy, sys
atexit.register(print, "an exit handler registered before the run")
sys.argv = ["rotorkin", *sys.argv[1:]]
try:
    runpy.run_module("rotorkin.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("SystemExit", exc.code)
    raise
"""


def test_the_program_ends_without_the_teardown():
    # the SystemExit reaches the caller, whose buffered output is still
    # flushed; the exit handlers registered before the run are skipped
    done = run_program("-c", EXIT_HANDLERS, "reconstruct", "--preset",
                       "circle")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.splitlines()[1:] == [b"SystemExit 0"]


def test_package_names_resolve_to_their_home_modules():
    import importlib

    import rotorkin
    homes = {"curves": ("PlaneCurve", "SpaceCurve", "make_catalog_curve",
                        "curve_from_spec", "reparametrize",
                        "transform_curve"),
             "vec": ("Vec2", "Vec3"), "ellipse": ("EllipseParams",)}
    assert sorted(rotorkin.__all__) == sorted(sum(homes.values(), ()))
    for module, names in homes.items():
        home = importlib.import_module(f"rotorkin.{module}")
        for name in names:
            assert getattr(rotorkin, name) is getattr(home, name)
    star = {}
    exec("from rotorkin import *", star)
    assert set(rotorkin.__all__) <= star.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(rotorkin, "no_such_name")
    assert set(rotorkin.__all__) <= set(dir(rotorkin))


def test_the_package_import_loads_no_module_and_submodules_still_import():
    done = run_python("-c", "import json, sys, rotorkin\n"
                      "before = [m for m in sys.modules if 'rotorkin.' in m]\n"
                      "from rotorkin import verify\n"
                      "print(json.dumps([before, verify.__name__]))")
    assert json.loads(done.stdout) == [[], "rotorkin.verify"], done.stderr


def test_verify_under_dash_m_runs_cli_once():
    # -m runs cli.py as __main__; the cli-determinism criterion's
    # `from . import cli` must find that module, not import cli.py again
    done = run_python("-X", "importtime", "-m", "rotorkin.cli", "verify",
                      "--filter", "cli")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS cli-determinism ")
    assert re.search(r"\| +rotorkin\.curves$", done.stderr, re.M)
    assert not re.search(r"\| +rotorkin\.cli$", done.stderr, re.M)


def test_preset_help_names_every_preset(capsys):
    from rotorkin import reconstruct
    with pytest.raises(SystemExit):
        cli.main(["reconstruct", "--help"])
    help_text = capsys.readouterr().out
    names = help_text.rsplit("--preset PRESET", 1)[1].split()[0]
    assert names.split("|") == sorted(reconstruct.PRESETS)
