"""Row blocks from sampling to the output: the array paths sample and run
their kernels one block of `_BLOCK` rows at a time into full-length
columns, and the writers stack one block of rows at a time."""

import io
import json
import math
import tracemalloc
from dataclasses import astuple, fields

import numpy as np
import pytest

from rotorkin import cli
from rotorkin.csvout import _BLOCK, _write_json
from rotorkin.curves import curve_from_spec, make_catalog_curve
from rotorkin.errors import KinematicsError
from rotorkin.plane import (distance_kinematics, distance_kinematics_array,
                            local_limits, local_limits_array, uniform_grid)
from rotorkin.space import (space_distance_kinematics,
                            space_distance_kinematics_array)
from rotorkin.vec import Vec2

SIZES = [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK]


def expr_curve(domain, **expr):
    return curve_from_spec({"kind": "expr", "domain": domain, "expr": expr})


ELLIPSE = make_catalog_curve("ellipse", {"a": 2.0, "b": 1.0})
PLANE_EXPR = expr_curve([0.0, 6.0], x="2 + cos(t)", y="sin(2*t)")
HELIX = make_catalog_curve("helix", {"cx": 3.0, "cy": 2.0, "cz": 1.0})
SPACE_EXPR = expr_curve([0.1, 2.0], x="1.5 + cos(t)", y="2 + sin(2*t)",
                        z="t")
POINT = Vec2(0.5, -3.0)

# name: (array function, scalar function, curve); the pairs of every
# `*_array` function with its scalar API, on sampled catalog and
# expression curves and on a space expression curve, which runs the
# scalar loop
ARRAYS = {
    "plane-origin": (lambda c, ts: distance_kinematics_array(c, Vec2(0, 0), ts),
                     lambda c, t: distance_kinematics(c, Vec2(0, 0), t),
                     ELLIPSE),
    "plane-point-expr": (
        lambda c, ts: distance_kinematics_array(c, POINT, ts),
        lambda c, t: distance_kinematics(c, POINT, t), PLANE_EXPR),
    "local": (local_limits_array, local_limits, ELLIPSE),
    "local-expr": (local_limits_array, local_limits, PLANE_EXPR),
    "space-cubic": (space_distance_kinematics_array, space_distance_kinematics,
                    make_catalog_curve("cubic")),
    "space-helix": (space_distance_kinematics_array, space_distance_kinematics,
                    HELIX),
    "space-expr": (space_distance_kinematics_array, space_distance_kinematics,
                   SPACE_EXPR),
}


def field_bytes(result):
    """Each field of an array result as its float64 bytes, vectors included."""
    return {f.name: np.ascontiguousarray(getattr(result, f.name)).tobytes()
            for f in fields(result)}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", ARRAYS)
def test_the_rows_of_a_tail_are_the_tail_of_the_rows(name, n):
    # starting k rows later moves every block boundary across the rows
    array, _, curve = ARRAYS[name]
    ts = uniform_grid(curve.domain, n)
    rows = array(curve, ts)
    for k in (1, 7, _BLOCK - 1):
        tail = array(curve, ts[k:])
        want = {f.name: np.ascontiguousarray(getattr(rows, f.name)[k:])
                .tobytes() for f in fields(rows)}
        assert field_bytes(tail) == want, k


def scalar_error(scalar, curve, ts):
    """(type, t, message) of the first error of the per-sample loop."""
    for t in ts.tolist():
        try:
            scalar(curve, t)
        except KinematicsError as exc:
            return type(exc), t, str(exc)
    return None


# a degenerate parameter only in the third block, at row 2 * _BLOCK + 5
DEGENERATE = {
    # the circle through the origin meets it at t = pi
    "plane-origin": (ARRAYS["plane-origin"][:2],
                     make_catalog_curve("circle", {"cx": 1.0}),
                     (0.5, 2.5), math.pi, (3.5, 6.0)),
    # r' = (3t^2 - 2t, 2t) vanishes at t = 0
    "local": (ARRAYS["local"][:2],
              make_catalog_curve("polynomial",
                                 {"x_coeffs": (1.0, 0.0, -1.0, 1.0),
                                  "y_coeffs": (0.0, 0.0, 1.0)}),
              (-1.0, -0.1), 0.0, (0.1, 1.0)),
    # the default helix's yOz projection vanishes at t = 0
    "space": (ARRAYS["space-cubic"][:2], make_catalog_curve("helix"),
              (0.5, 3.0), 0.0, (3.5, 6.0)),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_a_degenerate_row_in_the_third_block_is_the_scalar_error(name):
    (array, scalar), curve, before, bad, after = DEGENERATE[name]
    ts = np.concatenate([np.linspace(*before, 2 * _BLOCK + 5), [bad],
                         np.linspace(*after, _BLOCK - 6)])
    want = scalar_error(scalar, curve, ts)
    assert want[1] == bad
    with pytest.raises(KinematicsError) as exc:
        array(curve, ts)
    assert (type(exc.value), exc.value.t, str(exc.value)) == want


LN = expr_curve([-1.0, 3.0], x="t", y="ln(t)")


def assert_scalar_bits(result, scalar, curve, ts):
    for f in fields(result):
        want = [getattr(scalar(curve, t), f.name) for t in ts.tolist()]
        want = [v.as_tuple() if isinstance(v, Vec2) else v for v in want]
        assert (np.ascontiguousarray(getattr(result, f.name)).tobytes()
                == np.array(want, dtype=float).tobytes()), f.name


def test_sampling_that_fails_in_the_third_block_redoes_every_row():
    # ln fails for t < 0, only in the third block; the local frame needs
    # r' and r'' alone, which stay defined there, so every row, the
    # first two blocks' too, is the per-sample loop's
    ts = 2.9995 - np.arange(3 * _BLOCK) / 1000
    assert (ts[:2 * _BLOCK] > 0).all() and (ts[2 * _BLOCK:] < 0).any()
    with pytest.raises(KinematicsError):
        LN.sample(ts)
    LN.sample(ts[:2 * _BLOCK])  # the first two blocks alone do sample
    assert_scalar_bits(local_limits_array(LN, ts), local_limits, LN, ts)


def test_the_ln_local_frame_is_the_per_sample_loop(capsys, tmp_path):
    # ln fails for t < 0, in the first of five blocks only
    ts = uniform_grid(LN.domain, 5000)
    assert_scalar_bits(local_limits_array(LN, ts), local_limits, LN, ts)
    path = tmp_path / "ln.json"
    path.write_text(json.dumps({"curve": {
        "kind": "expr", "domain": [-1, 3], "expr": {"x": "t", "y": "ln(t)"}}}))
    assert cli.main(["kinematics", "--config", str(path), "--frame", "local",
                     "--samples", "5000"]) == 0
    rows = [local_limits(LN, t) for t in ts.tolist()]
    want = "t,D,dD,d2D,rot_speed,phi,psi_speed\n" + "".join(
        ",".join(f"{v:.17g}" for v in (t, 0.0, r.phi, r.phi_prime,
                                         r.psi_speed, r.phi, r.psi_speed))
        + "\n" for t, r in zip(ts.tolist(), rows))
    assert capsys.readouterr().out == want


# -- JSON, one block at a time ----------------------------------------------

SPECIAL = [-0.0, 5e-324, 1e308, -1e-310, 0.1, 1.0 / 3.0, 2.0 ** 60]


@pytest.mark.parametrize("n", [0, 1] + SIZES)
def test_json_is_json_dumps_of_every_row(n):
    columns = np.random.default_rng(n).standard_normal((3, n)) * 1e3
    columns.flat[:min(n * 3, len(SPECIAL))] = SPECIAL[:n * 3]
    header = ["t", "D", "speed_A"]
    fh = io.StringIO()
    _write_json(fh, header, columns)
    rows = [dict(zip(header, row)) for row in columns.T.tolist()]
    assert fh.getvalue() == json.dumps(rows, indent=2) + "\n"


@pytest.mark.parametrize("n", SIZES)
def test_kinematics_json_across_blocks(capsys, n):
    curve = make_catalog_curve("cubic")
    ts = uniform_grid(curve.domain, n)
    kin = astuple(space_distance_kinematics_array(curve, ts))
    header = ["t", "D", "dD", "d2D", "speed_A", "speed_B", "speed_C"]
    rows = [dict(zip(header, row))
            for row in np.column_stack((ts, *kin)).tolist()]
    assert cli.main(["kinematics", "--curve", "cubic", "--samples", str(n),
                     "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(rows, indent=2) + "\n"


# -- memory -----------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_no_full_size_intermediate_from_sampling_to_the_file(tmp_path, fmt):
    # the traced peak holds the output columns and at most 2 MB more: the
    # samples, kernel temporaries and formatted text of one block or so
    curve = make_catalog_curve("cubic")
    ts = uniform_grid(curve.domain, 10 ** 5)
    header = ["t", "D", "dD", "d2D", "speed_A", "speed_B", "speed_C"]
    path = tmp_path / f"cubic.{fmt}"
    tracemalloc.start()
    try:
        kin = space_distance_kinematics_array(curve, ts)
        columns = [getattr(kin, f.name) for f in fields(kin)]  # no copies
        cli._emit(header, (ts, *columns), str(path), fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * ts.nbytes + 2 * 2 ** 20
    assert path.stat().st_size > 0
