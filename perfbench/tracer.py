"""Span tracer for one rotorkin CLI process.

Run as `python tracer.py SPANS_FILE CLI_ARG...`: it imports rotorkin.cli
inside a `cli.import` span, wraps each module's entry points, runs
`rotorkin.cli.main(CLI_ARGS)` inside a `cli.main` span, writes every span
to SPANS_FILE once at the end, and exits with main's exit code.

A span is (name, parent span, start, end).  Names are `<layer>.<entry>`,
where the layer is the rotorkin module, except that `Trajectory.write_csv`
counts as `cli` emission and a reconstruction field callable is a
`<layer>.rhs` span of the module that defined it.  Wrappers are installed
wherever a name is looked up: a function imported by name into another
module is replaced there too, and methods are replaced on their class.

Some boundaries are counted rather than spanned, because a span per call
would cost more than the call itself: Vec2/Vec3 constructions, and the
recursive calls of `expr.evaluate` and `expr.differentiate` below the
outermost one.  Their time lands in the enclosing span.

Importing this module imports nothing from rotorkin and installs nothing.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("vec", "numerics", "expr", "curves", "plane", "space", "surface",
          "reconstruct", "ellipse", "verify", "cli")


class SpanLog:
    """Spans and counters of one process, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.measured: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, recursive: bool = False):
        """`fn` wrapped so that each call records a span named `name`.

        With `recursive`, calls made while a span of this wrapper is open
        are counted in counters[name + "_calls"] (as is the outer call)
        but get no span of their own.
        """
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter
        counters, calls_key = self.counters, name + "_calls"
        if recursive:
            counters.setdefault(calls_key, 0)
        open_depth = [0]

        def wrapper(*args, **kwargs):
            if recursive:
                counters[calls_key] += 1
                if open_depth[0]:
                    return fn(*args, **kwargs)
                open_depth[0] = 1
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                open_depth[0] = 0

        return functools.update_wrapper(wrapper, fn)

    def save(self, path: str) -> None:
        import numpy as np
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 meta=np.array(json.dumps({"names": self.names,
                                           "counters": self.counters,
                                           "measured": self.measured})))


def self_times(parent, start, end):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of it; a span nested in a span of the same name (recursion) is
    an ordinary child.
    """
    import numpy as np
    parent = np.asarray(parent)
    duration = np.asarray(end) - np.asarray(start)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested],
                          minlength=len(duration))
    return duration - covered


# -- installation -------------------------------------------------------------------

def _public_functions(module):
    return [(n, f) for n, f in vars(module).items()
            if inspect.isfunction(f) and f.__module__ == module.__name__
            and not n.startswith("_")]


def _replace_everywhere(modules, original, wrapped) -> None:
    """Rebind every module-level name that refers to `original`."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def install(log: SpanLog) -> None:
    """Wrap the entry points of every rotorkin layer (see module doc)."""
    from rotorkin import (cli, curves, ellipse, expr, numerics, plane,
                          reconstruct, space, surface, vec, verify)
    modules = [cli, curves, ellipse, expr, numerics, plane, reconstruct,
               space, surface, vec, verify]

    def wrap(layer, module, name, fn=None, **kw):
        original = getattr(module, name)
        wrapped = log.span(f"{layer}.{name}", fn or original, **kw)
        _replace_everywhere(modules, original, wrapped)

    special = {(expr, "evaluate"), (expr, "differentiate"),
               (reconstruct, "reconstruct_plane"),
               (reconstruct, "reconstruct_space"),
               (reconstruct, "integrate_unit_direction")}
    special |= {(verify, runner.__name__) for _, _, runner in verify.CRITERIA}
    for module in modules:
        for name, _ in _public_functions(module):
            if (module, name) not in special:
                wrap(module.__name__.rpartition(".")[2], module, name)

    wrap("cli", cli, "_emit")
    wrap("cli", cli, "_load_config")
    wrap("expr", expr, "evaluate", recursive=True)
    wrap("expr", expr, "differentiate", recursive=True)

    for cls in (vec.Vec2, vec.Vec3):
        post_init = cls.__post_init__

        def counted(self, _post_init=post_init):
            log.counters["vec.constructed"] += 1
            return _post_init(self)
        cls.__post_init__ = counted
    log.counters["vec.constructed"] = 0

    point, derivative = curves._Curve.point, curves._Curve.derivative
    log.counters["curves.fd_calls"] = 0

    def derivative_counting_fd(self, t, order):
        if order in (1, 2, 3) and (self.d1, self.d2, self.d3)[order - 1] is None:
            log.counters["curves.fd_calls"] += 1
        return derivative(self, t, order)
    curves._Curve.point = log.span("curves.point", point)
    curves._Curve.derivative = log.span("curves.derivative",
                                        derivative_counting_fd)

    traj = reconstruct.Trajectory
    traj.max_error_vs = log.span("reconstruct.max_error_vs", traj.max_error_vs)
    traj.write_csv = log.span("cli.write_csv", traj.write_csv)
    _install_reconstruct(log, wrap, reconstruct)
    _install_verify(log, verify)


def _rhs_span(log: SpanLog, fn):
    layer = (getattr(fn, "__module__", None) or "").rpartition(".")[2]
    return log.span(f"{layer if layer in LAYERS else 'reconstruct'}.rhs", fn)


def _install_reconstruct(log: SpanLog, wrap, reconstruct) -> None:
    """Spans around the integrators and their field callables; steps and
    the largest renormalization drift from what the integrators return."""
    log.counters["reconstruct.steps"] = 0
    log.counters["reconstruct.max_drift"] = 0.0

    def record(n_points, drift):
        log.counters["reconstruct.steps"] += n_points - 1
        log.counters["reconstruct.max_drift"] = max(
            log.counters["reconstruct.max_drift"], float(drift))

    def integrator(original, fields):
        def run(problem):
            problem = dataclasses.replace(problem, **{
                f: _rhs_span(log, getattr(problem, f)) for f in fields})
            trajectory = original(problem)
            record(len(trajectory.ts), trajectory.max_drift)
            return trajectory
        return functools.update_wrapper(run, original)

    wrap("reconstruct", reconstruct, "reconstruct_plane",
         integrator(reconstruct.reconstruct_plane, ("rhs_D", "rhs_e")))
    wrap("reconstruct", reconstruct, "reconstruct_space",
         integrator(reconstruct.reconstruct_space,
                    ("rhs_D", "rhs_eA", "rhs_eB", "rhs_eC")))

    unit = reconstruct.integrate_unit_direction

    def integrate_unit_direction(rhs_e, *args, **kwargs):
        ts, es, drift = unit(_rhs_span(log, rhs_e), *args, **kwargs)
        record(len(ts), drift)
        return ts, es, drift
    wrap("reconstruct", reconstruct, "integrate_unit_direction",
         functools.update_wrapper(integrate_unit_direction, unit))
    wrap("reconstruct", reconstruct, "_triangulate")


def _install_verify(log: SpanLog, verify) -> None:
    """A span per criterion, named by its id, keeping its measured value."""
    def criterion(cid, runner):
        def run(fault=None):
            result = runner(fault)
            log.measured[cid] = float(result.measured)
            return result
        return log.span(f"verify.{cid}", functools.update_wrapper(run, runner))

    verify.CRITERIA = tuple((cid, tags, criterion(cid, runner))
                            for cid, tags, runner in verify.CRITERIA)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    log = SpanLog()
    load = log.span("cli.import", importlib.import_module)
    cli = load("rotorkin.cli")
    install(log)  # wraps cli.main as the `cli.main` span
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        log.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
