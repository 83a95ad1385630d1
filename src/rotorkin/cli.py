"""Command-line front end.

Subcommands: kinematics, reconstruct, surface, ellipse, verify.  A JSON
config file supplies the same fields as the flags; flags win.  Exit codes:
0 success, 1 tolerance failure, 2 config error, 3 numerical degeneracy.
Each cmd_ function imports the modules that only its command runs.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import os
import sys
from functools import partial
from typing import Optional

import numpy as np

from .csvout import _column_blocks, _write_csv, _write_json
from .curves import (CATALOG, _spec_domain, curve_from_spec,
                     make_catalog_curve)
from .errors import (BadParameters, ExprSyntaxError, KinematicsError,
                     UnknownCurve, UnknownIdentifier)
from .plane import _distance_frame, _grid_blocks, _local_frame
from .vec import Vec2

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
# the most samples one run may ask for, as for reconstruction steps
MAX_SAMPLES = 10 ** 6
# the names of reconstruct.PRESETS, sorted, for --preset's help
PRESET_NAMES = ("circle", "ellipse-focus", "ellipse-origin", "helix")


class ConfigError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorkin",
        description="rotating-frame kinematics of parametric curves")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    k = sub.add_parser("kinematics", help="sample frame kinematics to CSV/JSON")
    common(k)
    k.add_argument("--curve", help="catalog curve name")
    k.add_argument("--a", type=float, help="ellipse semi-major axis")
    k.add_argument("--b", type=float, help="ellipse semi-minor axis")
    k.add_argument("--radius", type=float, help="circle/helix radius")
    k.add_argument("--pitch", type=float, help="helix pitch")
    k.add_argument("--frame", default=None,
                   help="origin | focus | point:ax,ay | local")
    k.add_argument("--samples", type=int, default=None)

    r = sub.add_parser("reconstruct", help="rebuild a trajectory from motion data")
    common(r)
    r.add_argument("--preset", help="|".join(PRESET_NAMES))
    r.add_argument("--step", type=float, default=None)

    s = sub.add_parser("surface", help="kinematics of a chart curve on a surface")
    common(s)
    s.add_argument("--surface", dest="surface_kind",
                   help="sphere | torus | cylinder | plane | graph")
    s.add_argument("--samples", type=int, default=None)

    e = sub.add_parser("ellipse", help="export the focal distance profile")
    common(e)
    e.add_argument("--a", type=float, default=None)
    e.add_argument("--b", type=float, default=None)
    e.add_argument("--samples", type=int, default=None)

    v = sub.add_parser("verify", help="run the acceptance criteria")
    v.add_argument("--filter", default=None,
                   help="run only criteria with this tag or id")
    v.add_argument("--inject-fault", default=None,
                   help=argparse.SUPPRESS)  # test hook
    return parser


def _load_config(args) -> dict:
    config = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                config = json.load(fh)
        # ValueError: undecodable bytes, bad JSON or too many int digits
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
    return config


def _samples(args, config) -> int:
    """The sample count: the flag when given, else the config's, else 100;
    it must be an integer from 2 to MAX_SAMPLES."""
    samples = args.samples if args.samples is not None else config.get(
        "samples", 100)
    if (isinstance(samples, bool) or not isinstance(samples, int)
            or not 2 <= samples <= MAX_SAMPLES):
        raise ConfigError(f"samples must be an integer from 2 to "
                          f"{MAX_SAMPLES}, got {samples!r}")
    return samples


def _out_path(args, config) -> Optional[str]:
    """The output path, None for stdout: the flag when given, else the
    config's, which must be a string (an integer would be opened as a
    file descriptor)."""
    out = args.out or config.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    return out


def _format(args, config) -> str:
    """The output format: the flag when given, else the config's, else
    csv; it must be csv or json."""
    fmt = args.format or config.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    return fmt


def _emit(headers, rows, out_path: Optional[str], fmt: str) -> None:
    """Write the rows of the block source `rows` (`csvout`) to out_path or
    stdout.  The destination is opened once every row is formatted, so a
    block that raises writes nothing; a path that cannot be opened is then
    a config error."""
    def destination():
        try:
            return (open(out_path, "w", newline="") if out_path
                    else contextlib.nullcontext(sys.stdout))
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot write {out_path}: {reason}")
    (_write_json if fmt == "json" else _write_csv)(destination, headers, rows)


def _stream(write) -> int:
    """Run write(), which emits the rows; a KinematicsError is exit 3."""
    try:
        write()
    except KinematicsError as exc:
        return _numeric_failure(exc)
    return EXIT_OK


def _resolve_curve(args, config):
    """The curve and the parameters it was built from: the flags, or the
    record's params (None when it has none)."""
    record = config.get("curve")
    name = getattr(args, "curve", None)
    if name:
        params = {}
        for key in ("a", "b", "radius", "pitch"):
            value = getattr(args, key, None)
            if value is not None:
                params[key] = value
        return make_catalog_curve(name, params), params
    if record:
        return curve_from_spec(record), record.get("params")
    raise ConfigError("no curve given (use --curve or config curve record)")


def _parse_frame(spec):
    if not isinstance(spec, str):
        raise ConfigError(f"bad frame spec {spec!r}")
    if spec in ("origin", "local", "focus"):
        return spec, None
    if spec.startswith("point:"):
        try:
            ax, ay = (float(p) for p in spec[len("point:"):].split(","))
        except ValueError:
            raise ConfigError(f"bad frame spec {spec!r}")
        return "point", Vec2(ax, ay)
    raise ConfigError(f"bad frame spec {spec!r}")


def _numeric_failure(exc: KinematicsError) -> int:
    """Print the error line of a numerical degeneracy at `exc.t`."""
    print(f"{type(exc).__name__} at t={exc.t:g}: {exc}", file=sys.stderr)
    return EXIT_NUMERIC


def cmd_kinematics(args) -> int:
    config = _load_config(args)
    curve, params = _resolve_curve(args, config)
    frame_spec = args.frame or config.get("frame", "origin")
    samples = _samples(args, config)
    fmt = _format(args, config)
    out = _out_path(args, config)
    frame, point = _parse_frame(frame_spec)

    if frame == "focus":
        if curve.name != "ellipse":
            raise ConfigError("focus frame is only valid for the ellipse")
        # the axes the curve was built with
        axes = {**CATALOG["ellipse"].__kwdefaults__, **(params or {})}
        from .ellipse import EllipseParams
        # raises if a is too large to square
        point = Vec2(EllipseParams(axes["a"], axes["b"]).c, 0.0)
        frame = "point"
    if curve.dim == 3 and frame != "origin":
        raise ConfigError("space curves support only the origin frame")
    if frame == "local" and curve.dim != 2:
        raise ConfigError("the local frame sampler applies to plane curves")

    if curve.dim == 3:
        from .space import _origin_frame
        headers = ["t", "D", "dD", "d2D", "speed_A", "speed_B", "speed_C"]
        names = ("D", "dD", "d2D", "speed_a", "speed_b", "speed_c")
        kinematics = _origin_frame(curve)
    elif frame == "local":
        headers = ["t", "D", "dD", "d2D", "rot_speed", "phi", "psi_speed"]
        names = ("phi", "phi_prime", "psi_speed")
        kinematics = _local_frame(curve)
    else:
        headers = ["t", "D", "dD", "d2D", "rot_speed"]
        names = ("D", "dD", "d2D", "rot_speed")
        kinematics = _distance_frame(
            curve, point if point is not None else Vec2(0.0, 0.0))

    def emit(rows):
        count, block = rows
        _emit(headers, (count, lambda k: _local_columns(*block(k)))
              if frame == "local" else rows, out, fmt)
    return _stream(partial(_grid_blocks, emit, curve, samples, names,
                           *kinematics))


def _local_columns(ts, phi, phi_prime, psi_speed):
    """The local frame's output columns, with the chord-limit values
    D -> 0, dD -> phi, d2D -> phi'."""
    return (ts, np.broadcast_to(0.0, ts.shape), phi, phi_prime, psi_speed,
            phi, psi_speed)


def cmd_reconstruct(args) -> int:
    from . import reconstruct
    config = _load_config(args)
    preset_name = args.preset or config.get("preset")
    if preset_name is not None and not isinstance(preset_name, str):
        raise ConfigError(f"preset must be a name, got {preset_name!r}")
    step = args.step if args.step is not None else config.get("step")
    fmt = _format(args, config)
    out = _out_path(args, config)
    domain = config.get("domain")
    try:
        if preset_name:
            trajectory, max_error, tolerance = reconstruct.run_preset(
                preset_name, step=step,
                domain=_spec_domain(domain) if domain is not None else None)
        else:
            record = config.get("curve")
            if not record:
                raise ConfigError("reconstruct needs --preset or a curve record")
            curve = curve_from_spec(record)
            if curve.dim == 2:
                problem = reconstruct.plane_data_from_curve(curve, step=step)
                trajectory = reconstruct.reconstruct_plane(problem)
            else:
                problem = reconstruct.space_data_from_curve(curve, step=step)
                trajectory = reconstruct.reconstruct_space(problem)
            max_error, tolerance = trajectory.max_error_vs(curve), 1e-5
    except (ConfigError, BadParameters, UnknownCurve, ExprSyntaxError,
            UnknownIdentifier):
        raise  # configuration problems, not numerical ones
    except KinematicsError as exc:
        print(f"{type(exc).__name__}: {exc} (step={step})", file=sys.stderr)
        return EXIT_NUMERIC
    if out:
        _emit(trajectory.header,
              _column_blocks((trajectory.ts, *trajectory.points.T)), out, fmt)
    print(f"max_error={max_error:.17g}")
    return EXIT_OK if max_error < tolerance else EXIT_TOLERANCE


def cmd_surface(args) -> int:
    from . import surface
    config = _load_config(args)
    record = config.get("surface")
    if args.surface_kind:
        if not isinstance(record, (dict, type(None))):
            raise ConfigError(
                f"surface record must be an object, got {record!r}")
        record = {"kind": args.surface_kind,
                  "params": (record or {}).get("params")}
    if not record:
        raise ConfigError("surface command needs --surface or a surface record")
    surf = surface.surface_from_spec(record)

    cc = config.get("chart_curve")
    if not isinstance(cc, dict) or not {"u", "v", "domain"} <= cc.keys():
        raise ConfigError(
            "surface command needs a chart_curve record {u, v, domain}")
    curve = curve_from_spec({"kind": "expr", "domain": cc["domain"],
                             "expr": {"x": cc["u"], "y": cc["v"]}})

    samples = _samples(args, config)
    fmt = _format(args, config)
    out = _out_path(args, config)
    headers = ["t", "D", "dD", "d2D", "speed_A", "speed_B", "speed_C"]
    names = ["D", "dD", "d2D", "speed_a", "speed_b", "speed_c"]

    def scalar(t):
        # a non-finite row raises NonFiniteData instead of printing inf
        return surface.surface_distance_kinematics(surf, curve, t)

    emit = partial(_emit, headers, out_path=out, fmt=fmt)
    return _stream(partial(_grid_blocks, emit, curve, samples, names, None,
                           scalar, False))


def cmd_ellipse(args) -> int:
    from . import ellipse as ell
    config = _load_config(args)
    a = args.a if args.a is not None else config.get("a", 2.0)
    b = args.b if args.b is not None else config.get("b", 1.0)
    samples = _samples(args, config)
    fmt = _format(args, config)
    out = _out_path(args, config)
    params = ell.EllipseParams(a, b)  # bad axes are config errors
    return _stream(partial(
        _emit, ell.PROFILE_HEADER.split(","),
        (samples, partial(ell._profile_block, params, samples)), out, fmt))


def cmd_verify(args) -> int:
    from . import verify
    results = verify.run_all(filter_tag=args.filter,
                             fault=getattr(args, "inject_fault", None))
    if not results:  # only a filter that matches nothing selects none
        tags = dict.fromkeys(tag for _, ts, _ in verify.CRITERIA for tag in ts)
        raise ConfigError(f"--filter {args.filter!r} matches no criterion; "
                          f"give a tag ({', '.join(tags)}) or a criterion id")
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_TOLERANCE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "kinematics": cmd_kinematics,
        "reconstruct": cmd_reconstruct,
        "surface": cmd_surface,
        "ellipse": cmd_ellipse,
        "verify": cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except (ConfigError, KinematicsError) as exc:
        # bad parameters and malformed records are configuration errors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError as exc:
        # a closed stdout cannot be written, like an --out that cannot be
        # opened; the null device takes the interpreter's final flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"config error: cannot write the output: {exc.strerror}",
              file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    """The program's entry point: SystemExit with main's code; at exit, the
    output is flushed and os._exit skips the interpreter's teardown."""
    code = main()

    def exit_now():  # a flush that raises leaves the normal exit to run
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    atexit.register(exit_now)
    sys.exit(code)


if __name__ == "__main__":
    # under -m this file is __main__: verify's `from . import cli` reuses it
    sys.modules.setdefault("rotorkin.cli", sys.modules[__name__])
    run()
