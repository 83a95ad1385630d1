"""Row blocks from sampling to the output: the array paths sample and run
their kernels one block of `_BLOCK` rows at a time into full-length
columns, every command streams its rows a block at a time from the grid to
the file, and the writers stack one block of rows at a time."""

import io
import json
import math
import tracemalloc
from contextlib import nullcontext
from dataclasses import astuple, fields

import numpy as np
import pytest

from rotorkin import cli
from rotorkin import ellipse as ell
from rotorkin.csvout import _BLOCK, _column_blocks, _write_csv, _write_json
from rotorkin.curves import curve_from_spec, make_catalog_curve
from rotorkin.errors import CenterOnCurve, KinematicsError, SingularPoint
from rotorkin.plane import (PlaneKinematics, _grid_blocks, _local_frame,
                            _over_samples, distance_kinematics,
                            distance_kinematics_array, local_limits,
                            local_limits_array, uniform_grid)
from rotorkin.space import (_origin_frame, space_distance_kinematics,
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
LOCAL_NAMES = ["phi", "phi_prime", "psi_speed"]


def assert_scalar_bits(result, scalar, curve, ts):
    for f in fields(result):
        want = [getattr(scalar(curve, t), f.name) for t in ts.tolist()]
        want = [v.as_tuple() if isinstance(v, Vec2) else v for v in want]
        assert (np.ascontiguousarray(getattr(result, f.name)).tobytes()
                == np.array(want, dtype=float).tobytes()), f.name


def rows_of(result, rows):
    """The array result restricted to `rows`."""
    return type(result)(*(getattr(result, f.name)[rows]
                          for f in fields(result)))


def samples(curve, ts):
    """Whether the curve samples on the parameters ts."""
    try:
        curve.sample(ts)
    except KinematicsError:
        return False
    return True


def block_by_block(array, scalar, curve, ts, names):
    """The float fields `names` at ts under the per-block rule: each block
    of _BLOCK rows is array(curve, block) alone, or the scalar API's rows
    where the curve does not sample on that block."""
    blocks = []
    for k in range(0, len(ts), _BLOCK):
        block = ts[k:k + _BLOCK]
        if samples(curve, block):
            result = array(curve, block)
            blocks.append([getattr(result, name) for name in names])
        else:
            rows = [scalar(curve, t) for t in block.tolist()]
            blocks.append([np.array([getattr(row, name) for row in rows])
                           for name in names])
    return [np.concatenate(column) for column in zip(*blocks)]


def test_sampling_that_fails_in_the_third_block_redoes_every_row():
    # ln fails for t < 0, only in the third block; the local frame needs
    # r' and r'' alone, which stay defined there, so every row of the
    # third block is the per-sample loop's, and each of the first two
    # blocks is the array of that block alone
    ts = 2.9995 - np.arange(3 * _BLOCK) / 1000
    assert (ts[:2 * _BLOCK] > 0).all() and (ts[2 * _BLOCK:] < 0).any()
    with pytest.raises(KinematicsError):
        LN.sample(ts)
    LN.sample(ts[:2 * _BLOCK])  # the first two blocks alone do sample
    result = local_limits_array(LN, ts)
    third = slice(2 * _BLOCK, None)
    assert_scalar_bits(rows_of(result, third), local_limits, LN, ts[third])
    for k in (0, 1):
        block = slice(k * _BLOCK, (k + 1) * _BLOCK)
        assert field_bytes(rows_of(result, block)) == field_bytes(
            local_limits_array(LN, ts[block])), k


@pytest.mark.parametrize("tail", [(-1.0, -0.5), (2.5, 3.0)])
def test_a_later_block_that_fails_to_sample_leaves_the_error(tail):
    # the kernel marks row 5 bad; the scalar API fails at rows 3 and 5.
    # Each block settles its own rows, so whether or not the third block
    # samples (ln of t < 0), only row 5 of the first block is redone, and
    # it fails
    ts = np.concatenate([np.linspace(1.0, 2.0, _BLOCK),
                         np.linspace(2.1, 2.4, _BLOCK),
                         np.linspace(*tail, _BLOCK)])

    def kernel(r, rp, rpp):
        zeros = np.zeros((4, len(r)))
        return (PlaneKinematics(*zeros[:3], np.zeros((len(r), 2)), zeros[3]),
                r[:, 0] != ts[5])

    def scalar(t):
        if t in (ts[3], ts[5]):
            error = CenterOnCurve if t == ts[3] else SingularPoint
            raise error(f"at t={t:g}")
        return PlaneKinematics(1.0, 1.0, 1.0, Vec2(0.0, 0.0), 1.0)

    with pytest.raises(KinematicsError) as exc:
        _over_samples(LN, ts, kernel, scalar)
    assert (type(exc.value), exc.value.t) == (SingularPoint, ts[5])


def test_the_ln_local_frame_settles_each_block_alone(capsys, tmp_path):
    # ln fails for t < 0, in the first two of five blocks: those blocks
    # are the per-sample loop's, the others the array of the block alone,
    # and every cell is within 1e-12 of the per-sample loop, relative to
    # the larger of the cell and its column's largest magnitude
    ts = uniform_grid(LN.domain, 5000)
    assert [samples(LN, ts[k:k + _BLOCK]) for k in range(0, 5000, _BLOCK)] \
        == [False, False, True, True, True]
    want = block_by_block(local_limits_array, local_limits, LN, ts,
                          LOCAL_NAMES)
    result = local_limits_array(LN, ts)
    assert [getattr(result, name).tobytes() for name in LOCAL_NAMES] == [
        column.tobytes() for column in want]
    rows = [local_limits(LN, t) for t in ts.tolist()]
    differ = 0
    for name, column in zip(LOCAL_NAMES, want):
        scalar = np.array([getattr(row, name) for row in rows])
        scale = np.maximum(np.abs(scalar), np.abs(scalar).max())
        assert np.all(np.abs(column - scalar) <= 1e-12 * scale), name
        differ += np.count_nonzero(column != scalar)
    assert differ  # the sampled blocks hold the kernel's bits
    path = tmp_path / "ln.json"
    path.write_text(json.dumps({"curve": {
        "kind": "expr", "domain": [-1, 3], "expr": {"x": "t", "y": "ln(t)"}}}))
    assert cli.main(["kinematics", "--config", str(path), "--frame", "local",
                     "--samples", "5000"]) == 0
    phi, phi_prime, psi_speed = want
    assert capsys.readouterr().out == written(
        COMMANDS["local"][2], (ts, np.zeros(len(ts)), phi, phi_prime,
                               psi_speed, phi, psi_speed), "csv")


def test_only_the_unsampled_block_and_the_bad_rows_call_the_scalar_api(
        monkeypatch, tmp_path):
    # the last of three blocks does not sample (ln past its pole), and the
    # kernel marks one row bad in each of the first two: the stream and
    # the array function call the scalar API at those two rows, then at
    # every row of the last block, once each
    n = 3 * _BLOCK
    curve = curve_from_spec(ln_record(n)["curve"])  # x = t
    ts = uniform_grid(curve.domain, n)
    bad = ts[[5, _BLOCK + 7]]
    kernel, scalar, sample = _local_frame(curve)
    calls = []

    def marking(r, rp, rpp):
        out, good = kernel(r, rp, rpp)
        return out, good & ~np.isin(r[:, 0], bad)

    def counted(t):
        calls.append(t)
        return scalar(t)

    want = bad.tolist() + ts[2 * _BLOCK:].tolist()
    on_cpus(monkeypatch, 1)  # no forked worker: every call is seen here
    cli._emit(["t", *LOCAL_NAMES],
              _grid_blocks(curve, n, LOCAL_NAMES, marking, counted, sample),
              str(tmp_path / "ln.csv"), "csv")
    assert calls == want
    calls.clear()
    _over_samples(curve, ts, marking, counted, sample)
    assert calls == want


# -- JSON, one block at a time ----------------------------------------------

SPECIAL = [-0.0, 5e-324, 1e308, -1e-310, 0.1, 1.0 / 3.0, 2.0 ** 60]


@pytest.mark.parametrize("n", [0, 1] + SIZES)
def test_json_is_json_dumps_of_every_row(n):
    columns = np.random.default_rng(n).standard_normal((3, n)) * 1e3
    columns.flat[:min(n * 3, len(SPECIAL))] = SPECIAL[:n * 3]
    header = ["t", "D", "speed_A"]
    fh = io.StringIO()
    _write_json(lambda: nullcontext(fh), header, _column_blocks(columns))
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
        cli._emit(header, _column_blocks((ts, *columns)), str(path), fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * ts.nbytes + 2 * 2 ** 20
    assert path.stat().st_size > 0


# -- every command streams its rows from the grid to the file ---------------

CUBIC = make_catalog_curve("cubic")
SPACE_RECORD = {"kind": "expr", "domain": [0.1, 2.0],
                "expr": {"x": "1.5 + cos(t)", "y": "2 + sin(2*t)", "z": "t"}}
PLANE_RECORD = {"kind": "expr", "domain": [0.0, 6.0],
                "expr": {"x": "2 + cos(t)", "y": "sin(2*t)"}}
TORUS = {"surface": {"kind": "torus", "params": {"R": 2.0, "r": 0.5}},
         "chart_curve": {"u": "0.5 + t", "v": "1.3 + 0.3*sin(2*t)",
                         "domain": [0.2, 5.2]}}
SPACE_HEADER = ["t", "D", "dD", "d2D", "speed_A", "speed_B", "speed_C"]
SPACE_NAMES = ["D", "dD", "d2D", "speed_a", "speed_b", "speed_c"]


def local_columns(ts, lim):
    return (ts, np.zeros(len(ts)), lim.phi, lim.phi_prime, lim.psi_speed,
            lim.phi, lim.psi_speed)


def scalar_columns(scalar, curve, n, names):
    """The grid of n rows and the fields `names` of scalar(t) there."""
    ts = uniform_grid(curve.domain, n)
    rows = [scalar(t) for t in ts.tolist()]
    return (ts, *(np.array([getattr(row, name) for row in rows])
                  for name in names))


def torus_columns(n):
    from rotorkin import surface
    surf = surface.surface_from_spec(TORUS["surface"])
    chart = TORUS["chart_curve"]
    curve = expr_curve(chart["domain"], x=chart["u"], y=chart["v"])
    return scalar_columns(
        lambda t: surface.surface_distance_kinematics(surf, curve, t), curve,
        n, SPACE_NAMES)


def ln_record(n):
    """A local-frame curve on t = 0, 1, ..., n - 1 whose last row is past
    the pole of ln: the last block does not sample, so its rows are the
    per-sample loop's."""
    return {"curve": {"kind": "expr", "domain": [0, n - 1],
                      "expr": {"x": "t", "y": f"ln({n - 1.5} - t)"}}}


def ln_columns(n):
    curve = curve_from_spec(ln_record(n)["curve"])
    ts = uniform_grid(curve.domain, n)
    phi, phi_prime, psi_speed = block_by_block(
        local_limits_array, local_limits, curve, ts, LOCAL_NAMES)
    return ts, np.zeros(n), phi, phi_prime, psi_speed, phi, psi_speed


def kin(array, curve, names):
    def columns(n):
        ts = uniform_grid(curve.domain, n)
        result = array(curve, ts)
        return (ts, *(getattr(result, name) for name in names))
    return columns


ELLIPSE_AXES = (2.3, 1.4)
# name: (argv, config (or its function of n), header, the full-length
# columns of n rows as the `*_array` function, the scalar API or
# `profile_columns` computes them)
COMMANDS = {
    "origin": (["kinematics", "--curve", "ellipse", "--a", "2", "--b", "1"],
               None, ["t", "D", "dD", "d2D", "rot_speed"],
               kin(ARRAYS["plane-origin"][0], ELLIPSE,
                   ["D", "dD", "d2D", "rot_speed"])),
    "point": (["kinematics", "--frame", "point:0.5,-3"],
              {"curve": PLANE_RECORD}, ["t", "D", "dD", "d2D", "rot_speed"],
              kin(ARRAYS["plane-point-expr"][0], PLANE_EXPR,
                  ["D", "dD", "d2D", "rot_speed"])),
    "local": (["kinematics", "--curve", "ellipse", "--a", "2", "--b", "1",
               "--frame", "local"], None,
              ["t", "D", "dD", "d2D", "rot_speed", "phi", "psi_speed"],
              lambda n: local_columns(uniform_grid(ELLIPSE.domain, n),
                                      local_limits_array(ELLIPSE, uniform_grid(
                                          ELLIPSE.domain, n)))),
    "space": (["kinematics", "--curve", "cubic"], None, SPACE_HEADER,
              kin(space_distance_kinematics_array, CUBIC, SPACE_NAMES)),
    "space-expr": (["kinematics"], {"curve": SPACE_RECORD}, SPACE_HEADER,
                   kin(space_distance_kinematics_array, SPACE_EXPR,
                       SPACE_NAMES)),
    "surface": (["surface"], TORUS, SPACE_HEADER, torus_columns),
    "local-ln": (["kinematics", "--frame", "local"], ln_record,
                 ["t", "D", "dD", "d2D", "rot_speed", "phi", "psi_speed"],
                 ln_columns),
    "ellipse": (["ellipse", "--a", str(ELLIPSE_AXES[0]),
                 "--b", str(ELLIPSE_AXES[1])], None,
                ell.PROFILE_HEADER.split(","),
                lambda n: ell.profile_columns(ell.EllipseParams(*ELLIPSE_AXES),
                                              n)),
}


def written(header, columns, fmt):
    """The bytes the writer gives for the full-length `columns`."""
    fh = io.StringIO()
    (_write_json if fmt == "json" else _write_csv)(
        lambda: nullcontext(fh), header, _column_blocks(columns))
    return fh.getvalue()


def command_argv(name, tmp_path, n, fmt, out=None):
    argv, config, _, _ = COMMANDS[name]
    argv = argv + ["--samples", str(n), "--format", fmt]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config(n) if callable(config) else config))
        argv += ["--config", str(path)]
    return argv + (["--out", str(out)] if out else [])


def on_cpus(monkeypatch, count):
    monkeypatch.setattr("rotorkin.csvout._usable_cpus", lambda: count)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5000])
@pytest.mark.parametrize("name", COMMANDS)
def test_the_stream_writes_the_bytes_of_the_full_columns(monkeypatch, capsys,
                                                         tmp_path, name, n,
                                                         fmt):
    _, _, header, columns = COMMANDS[name]
    want = written(header, columns(n), fmt)
    for cpus in (1, 3):
        on_cpus(monkeypatch, cpus)
        assert cli.main(command_argv(name, tmp_path, n, fmt)) == 0
        assert capsys.readouterr() == (want, "")


def test_one_row_sources_are_the_full_columns():
    # the CLI asks for two rows at least; the sources hold one row too
    params = ell.EllipseParams(*ELLIPSE_AXES)
    assert [c.tobytes() for c in ell._profile_block(params, 1, 0)] == [
        c.tobytes() for c in ell.profile_columns(params, 1)]
    sources = [(space_distance_kinematics_array, _origin_frame, CUBIC,
                SPACE_NAMES),
               (space_distance_kinematics_array, _origin_frame, SPACE_EXPR,
                SPACE_NAMES),
               (local_limits_array, _local_frame, ELLIPSE,
                LOCAL_NAMES)]
    for array, frame, curve, names in sources:
        count, block = _grid_blocks(curve, 1, names, *frame(curve))
        ts = uniform_grid(curve.domain, 1)
        result = array(curve, ts)
        assert count == 1
        assert [np.asarray(c, float).tobytes() for c in block(0)] == [
            c.tobytes() for c in (ts, *(getattr(result, name)
                                        for name in names))]


# the grid t = 0, 1, ..., 3071 with one degenerate row, 2 * _BLOCK + 5 =
# 2053, in the third block
THIRD_BLOCK = {
    # the line y = 2x through the origin at t = 2053
    "origin": (["kinematics"], {"kind": "expr", "domain": [0, 3071],
                                "expr": {"x": "t - 2053",
                                         "y": "2*(t - 2053)"}},
               "CenterOnCurve at t=2053: the curve meets the frame center "
               "at t=2053"),
    # r' = (3t^2 - 2t, 2t) vanishes at t = 0
    "local": (["kinematics", "--frame", "local"],
              {"kind": "polynomial", "domain": [-2053, 1018],
               "params": {"x_coeffs": [1.0, 0.0, -1.0, 1.0],
                          "y_coeffs": [0.0, 0.0, 1.0]}},
              "SingularPoint at t=0: curve is singular at t=0"),
    # the default helix's yOz projection vanishes at t = 0
    "space": (["kinematics"], {"kind": "helix", "domain": [-2053, 1018]},
              "AxisProjectionDegenerate at t=0: yOz-plane projection "
              "vanishes at t=0"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", THIRD_BLOCK)
def test_a_degenerate_row_in_the_third_block_writes_nothing(
        monkeypatch, capsys, tmp_path, name, fmt):
    argv, record, line = THIRD_BLOCK[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"curve": record, "samples": 3 * _BLOCK}))
    out = tmp_path / f"out.{fmt}"
    argv = argv + ["--config", str(config), "--format", fmt]
    for cpus in (1, 3):
        on_cpus(monkeypatch, cpus)
        assert cli.main(argv) == 3
        assert capsys.readouterr() == ("", line + "\n")
        assert cli.main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr() == ("", line + "\n")
        assert not out.exists()
        # a destination that cannot be opened: the numerical failure comes
        # first
        unopenable = str(tmp_path / "no-such-dir" / "out.csv")
        assert cli.main(argv + ["--out", unopenable]) == 3
        assert capsys.readouterr() == ("", line + "\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sampling_that_fails_in_the_third_block_writes_the_scalar_rows(
        monkeypatch, capsys, tmp_path, fmt):
    # ln(2047.5 - t) fails for t >= 2048, in the third block only; the
    # local frame needs r' and r'' alone, which stay defined there, so
    # the third block writes the per-sample loop's rows, and the first
    # two blocks the array's of each block alone
    record = {"kind": "expr", "domain": [0, 3071],
              "expr": {"x": "t", "y": "ln(2047.5 - t)"}}
    curve = curve_from_spec(record)
    ts = uniform_grid(curve.domain, 3 * _BLOCK)
    with pytest.raises(KinematicsError):
        curve.sample(ts[2 * _BLOCK:])
    curve.sample(ts[:2 * _BLOCK])  # the first two blocks alone do sample
    phi, phi_prime, psi_speed = block_by_block(
        local_limits_array, local_limits, curve, ts, LOCAL_NAMES)
    want = written(COMMANDS["local"][2], (ts, np.zeros(len(ts)), phi,
                                          phi_prime, psi_speed, phi,
                                          psi_speed), fmt)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"curve": record, "samples": 3 * _BLOCK}))
    for cpus in (1, 3):
        on_cpus(monkeypatch, cpus)
        assert cli.main(["kinematics", "--frame", "local", "--format", fmt,
                         "--config", str(config)]) == 0
        assert capsys.readouterr() == (want, "")


# name: rows; every command at 1e5 rows, the per-sample surface at 2e4
STREAMED = {"origin": 10 ** 5, "point": 10 ** 5, "local": 10 ** 5,
            "space": 10 ** 5, "space-expr": 10 ** 5, "surface": 2 * 10 ** 4,
            "local-ln": 10 ** 5, "ellipse": 10 ** 5}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", STREAMED)
def test_every_command_streams_in_bounded_memory(monkeypatch, tmp_path,
                                                 name, fmt):
    # through cli.main, on one CPU: the traced peak stays below one column
    # of the full length plus 2 MB, what a block or so of samples, kernel
    # temporaries and formatted text takes
    n = STREAMED[name]
    out = tmp_path / f"out.{fmt}"
    argv = command_argv(name, tmp_path, n, fmt, out)
    on_cpus(monkeypatch, 1)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 2 * 2 ** 20
    assert out.read_text().count("\n") >= n
