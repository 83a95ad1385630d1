import json
import math

import pytest

from rotorkin import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_unknown_curve_is_config_error(capsys):
    code, _, err = run(capsys, ["kinematics", "--curve", "nosuch"])
    assert code == 2
    assert "config error" in err


def test_focus_frame_requires_ellipse(capsys):
    code, _, err = run(capsys, ["kinematics", "--curve", "circle",
                                "--frame", "focus"])
    assert code == 2


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


def test_reconstruct_bad_steps_are_config_errors(capsys, tmp_path):
    # zero, NaN, a step count past the cap, and a negative step
    out_path = tmp_path / "trajectory.csv"
    for step in ("0", "nan", "1e-300", "-1"):
        code, out, err = run(capsys, ["reconstruct", "--preset", "circle",
                                      f"--step={step}", "--out", str(out_path)])
        assert code == 2, step
        assert out == "" and err.startswith("config error: step"), step
        assert not out_path.exists()


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


# -- verify ----------------------------------------------------------------------

def test_verify_filter_runs_subset(capsys):
    code, out, _ = run(capsys, ["verify", "--filter", "ellipse"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)
    cids = {line.split()[1] for line in lines}
    assert cids == {"focal-table", "average-speeds", "accel-zeros"}


def test_verify_fault_injection_fails_psi_criterion(capsys):
    code, out, _ = run(capsys, ["verify", "--filter", "local-limits",
                                "--inject-fault", "psi"])
    assert code == 1
    assert out.startswith("FAIL local-limits")
