"""Acceptance verification suite.

Each criterion measures a worst-case deviation against its stated bound
and reports PASS/FAIL; run_all runs them on forked workers.  Everything is
seeded and deterministic.  The `fault` hook perturbs the local-limit
closed forms so the suite's own failure path can be exercised.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from . import ellipse as ell
from . import plane, reconstruct, space, surface
from .curves import make_catalog_curve, transform_curve
from .numerics import extrapolate_to_zero, fd_derivative
from .vec import Vec2, Vec3

_SEED = 20260810
_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
# forming the chord r(t+dt) - r(t) carries ~1e-16 absolute noise, so probes
# whose leading coefficient scales like dt^2 or dt^3 need a gentler ladder
_LADDER_WIDE = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.cid} {self.measured:.6g} {self.bound:.6g}"


def _case_rel(pairs: list[tuple[float, float]]) -> float:
    """Worst pointwise relative error with the denominator floored at a
    thousandth of the case's own scale.

    Rates and speeds cross zero at isolated parameters; there the FD
    oracle's ~1e-10 absolute noise would dominate a pure ratio, so samples
    landing near a crossing are measured against the quantity's scale.
    """
    scale = max((max(abs(a), abs(b)) for a, b in pairs), default=0.0)
    floor = max(1e-3 * scale, 1e-9)
    return max((abs(a - b) / max(abs(a), abs(b), floor) for a, b in pairs),
               default=0.0)


def _sample(rng, domain, n, shrink=1e-3):
    t0, t1 = domain
    pad = shrink * (t1 - t0)
    return (t0 + pad + (t1 - t0 - 2 * pad) * rng.random(n)).tolist()


_POINT_CENTER = Vec2(-1.0, 1.0)


def _plane_cases():
    # the circle is offset from both frame centers: concentric with the
    # frame its distance profile is constant and a relative FD comparison
    # degenerates to noise over noise (the exact-zero case is unit-tested)
    return (make_catalog_curve("line"),
            make_catalog_curve("circle", {"cx": 0.5, "cy": 0.25}),
            make_catalog_curve("ellipse"),
            make_catalog_curve("parabola"),
            make_catalog_curve("polynomial"))


def _shifted_helix():
    return make_catalog_curve("helix", {"cx": 2.0, "cy": 2.0, "cz": 1.0},
                              domain=(0.0, math.pi))


def _surface_cases():
    # shifted off the origin so the distance profile is non-constant and
    # every coordinate-plane projection stays well away from zero
    sph = surface.make_surface("sphere", {"cz": 5.0})
    tor = surface.make_surface("torus", {"cz": 3.0})

    def chart(v_fns, name):  # u = t
        return surface.chart_curve(
            lambda t: t, v_fns[0], domain=(0.2, 5.8),
            u_derivs=(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0),
            v_derivs=v_fns[1:], name=name)
    return ((sph, chart((lambda t: 0.3 * math.sin(t) + 0.2,
                         lambda t: 0.3 * math.cos(t),
                         lambda t: -0.3 * math.sin(t),
                         lambda t: -0.3 * math.cos(t)), "sphere-band")),
            (tor, chart((lambda t: math.sin(t) + 2.0, lambda t: math.cos(t),
                         lambda t: -math.sin(t), lambda t: -math.cos(t)),
                        "torus-wind")))


def _rate_cases():
    """Each distance-rate and rotation case once, in the order the criteria
    draw their samples: (domain, rel(s), the scalar kinematics of rel at t,
    its projected speeds with their planes, array kernels).

    The array kernels are (kernel(ts), scalar(t)) pairs that fd-rates holds
    against the scalar API; a None scalar is the case's own kinematics.
    """
    speeds = tuple(zip(("speed_a", "speed_b", "speed_c"), space._PLANES))
    for curve in _plane_cases():
        for center in (Vec2(0.0, 0.0), _POINT_CENTER):
            arrays = ((partial(plane.distance_kinematics_array, curve, center),
                       None),)
            if center is _POINT_CENTER:  # the local limits once per curve
                arrays += ((partial(plane.local_limits_array, curve),
                            partial(plane.local_limits, curve)),)
            yield (curve.domain,
                   lambda s, _c=curve, _p=center: _c.point(s) - _p,
                   partial(plane.distance_kinematics, curve, center),
                   (("rot_speed", (0, 1)),), arrays)
    for curve in (make_catalog_curve("cubic"), _shifted_helix()):
        yield (curve.domain, curve.point,
               partial(space.space_distance_kinematics, curve), speeds,
               ((partial(space.space_distance_kinematics_array, curve),
                 None),))
    curve_a = _shifted_helix()
    curve_b = make_catalog_curve(
        "helix", {"cx": -2.0, "cy": -2.0, "cz": -1.0, "pitch": 0.5},
        domain=(0.0, math.pi))
    yield (curve_a.domain, lambda s: curve_b.point(s) - curve_a.point(s),
           partial(space.pair_kinematics, curve_a, curve_b), speeds, ())
    for surf, chart in _surface_cases():
        yield (chart.domain, surface.composed_space_curve(surf, chart).point,
               partial(surface.surface_distance_kinematics, surf, chart),
               speeds, ())


def _array_rel(array, rows) -> float:
    """Worst relative gap between the columns of an array kernel's result
    and the same fields of the scalar results `rows`, vectors by component,
    each column floored as _case_rel floors a case."""
    worst = 0.0
    for f in fields(array):
        values = [getattr(row, f.name) for row in rows]
        want = np.array([v.as_tuple() for v in values]
                        if isinstance(values[0], Vec2) else values)
        got = getattr(array, f.name)
        scale = np.maximum(np.abs(got), np.abs(want))
        floor = np.maximum(1e-3 * scale.max(axis=0), 1e-9)
        worst = max(worst, float(
            (np.abs(got - want) / np.maximum(scale, floor)).max()))
    return worst


# -- criterion 1: distance-rate consistency --------------------------------------

def crit_fd_rates(fault=None) -> CriterionResult:
    """FD of |rel| against the scalar distance rate; at the same samples,
    every column of the array kernels against the scalar API."""
    rng = np.random.default_rng(_SEED)
    start = time.perf_counter()
    worst = mismatch = 0.0
    for domain, rel, kinematics, _, arrays in _rate_cases():
        def dist(s):
            return rel(s).norm()
        ts = _sample(rng, domain, 1000)
        kins = [kinematics(t) for t in ts]
        worst = max(worst, _case_rel(
            [(kin.dD, fd_derivative(dist, t, 1, domain=domain))
             for t, kin in zip(ts, kins)]))
        for kernel, scalar in arrays:
            rows = kins if scalar is None else [scalar(t) for t in ts]
            mismatch = max(mismatch, _array_rel(kernel(np.asarray(ts)), rows))

    elapsed = time.perf_counter() - start
    return CriterionResult(
        cid="fd-rates",
        passed=worst < 1e-6 and mismatch <= 1e-12 and elapsed < 5.0,
        measured=worst, bound=1e-6,
        detail=f"elapsed {elapsed:.2f}s, array kernels {mismatch:.2g} "
               "(bound 1e-12)")


# -- criterion 2: rotational-speed consistency ------------------------------------

def _fd_turn_speed(rel, keep, t: float, domain) -> float:
    """FD speed at t of the unit direction of rel projected onto the
    coordinate plane `keep` (a pair of component indices)."""
    i, j = keep

    def e(s):
        r = rel(s).as_tuple()
        norm = math.hypot(r[i], r[j])
        return Vec2(r[i] / norm, r[j] / norm)
    return fd_derivative(e, t, 1, domain=domain).norm()


def crit_rot_speeds(fault=None) -> CriterionResult:
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    for domain, rel, kinematics, speeds, _ in _rate_cases():
        cases = tuple([] for _ in speeds)
        for t in _sample(rng, domain, 300):
            kin = kinematics(t)
            for case, (name, keep) in zip(cases, speeds):
                case.append((getattr(kin, name),
                             _fd_turn_speed(rel, keep, t, domain)))
        worst = max(worst, *(_case_rel(case) for case in cases))

    return CriterionResult(
        cid="rot-speeds", passed=worst < 1e-6, measured=worst, bound=1e-6)


# -- criterion 3: local-limit ladder convergence ----------------------------------

def _ladder_extrapolate(fn: Callable[[float], tuple],
                        ladder=_LADDER) -> list[float]:
    """Each column of the rows fn(dt), one per rung, extrapolated to 0."""
    rows = [fn(dt) for dt in ladder]
    return [extrapolate_to_zero(ladder, column) for column in zip(*rows)]


def _gap(hat: float, closed: float, bump: float = 0.0) -> float:
    """|hat - (closed + bump)| relative to |closed|, floored at 1; the
    `psi` fault passes a bump."""
    return abs(hat - (closed + bump)) / max(1.0, abs(closed))


def crit_local_limits(fault=None) -> CriterionResult:
    bump = 1e-2 if fault == "psi" else 0.0
    worst = 0.0
    s13_worst = 0.0
    chord_rates = attrgetter("dD", "rot_speed", "d2D")

    for name, ts in (("ellipse", (0.4, 1.1, 2.3, 4.0)),
                     ("parabola", (-1.0, 0.3, 1.2)),
                     ("polynomial", (-0.5, 0.4))):
        curve = make_catalog_curve(name)
        for t in ts:
            lim = plane.local_limits(curve, t)
            phi_hat, psi_hat, dphi_hat = _ladder_extrapolate(
                lambda dt: chord_rates(plane.chord_kinematics(curve, t, dt)))
            worst = max(worst, _gap(phi_hat, lim.phi),
                        _gap(psi_hat, lim.psi_speed, bump),
                        _gap(dphi_hat, lim.phi_prime))

    for name, ts in (("helix", (0.7, 2.0, 4.4)), ("cubic", (0.4, 0.9))):
        curve = make_catalog_curve(name)
        for t in ts:
            lim = space.derivative_plane_limits(curve, t)

            def chord_rate(dt):
                f = curve.point(t + dt) - curve.point(t)
                return (f.dot(curve.derivative(t + dt, 1)) / f.norm(),)

            (phi_hat,) = _ladder_extrapolate(chord_rate)
            s12_hat, s13_hat, s23_hat = _ladder_extrapolate(
                lambda dt: space.derivative_plane_speeds(curve, t, dt),
                _LADDER_WIDE)
            worst = max(worst, _gap(phi_hat, lim.phi),
                        _gap(s12_hat, lim.psi12.norm(), bump),
                        _gap(s23_hat, lim.psi23.norm()))
            s13_worst = max(s13_worst, abs(s13_hat))

    for surf, chart in _surface_cases():
        for t in (1.0, 2.6, 4.1):
            hats = _ladder_extrapolate(
                lambda dt: surface.surface_chord_speeds(surf, chart, t, dt),
                _LADDER_WIDE)
            for hat, closed in zip(hats, surface.surface_plane_rot_limits(
                    surf, chart, t)):
                worst = max(worst, _gap(hat, closed))

    passed = worst < 1e-4 and s13_worst < 1e-3
    return CriterionResult(
        cid="local-limits", passed=passed, measured=max(worst, s13_worst),
        bound=1e-4,
        detail=f"s13 ladder {s13_worst:.3g} (bound 1e-3)")


# -- criterion 4: line degeneracy --------------------------------------------------

def crit_line_degeneracy(fault=None) -> CriterionResult:
    curve = make_catalog_curve("line")
    worst = 0.0
    for t in (-3.0, -0.5, 0.0, 1.25, 4.0):
        lim = plane.local_limits(curve, t)
        worst = max(worst, abs(lim.psi_speed), abs(lim.phi_prime))
    return CriterionResult(
        cid="line-degeneracy", passed=worst == 0.0, measured=worst, bound=0.0)


# -- criterion 5: order-3 chain-rule expansion (surfaces) ---------------------------

def crit_chart_expansion(fault=None) -> CriterionResult:
    rng = np.random.default_rng(_SEED + 5)
    worst = 0.0
    for surf, chart in _surface_cases():
        composed = surface.composed_space_curve(surf, chart)
        for t in _sample(rng, chart.domain, 100, shrink=2e-3):
            expansion = surface.chart_curve_derivatives(surf, chart, t)[3]
            oracle = fd_derivative(composed.position, t, 3, h=1e-3,
                                   domain=chart.domain)
            worst = max(worst,
                        (expansion - oracle).norm() / max(oracle.norm(), 1e-9))
    return CriterionResult(
        cid="chart-expansion", passed=worst < 1e-4, measured=worst, bound=1e-4)


# -- criteria 6-8: ellipse case study -----------------------------------------------

def crit_focal_table(fault=None) -> CriterionResult:
    report = ell.verify_focal_table(ell.EllipseParams(2.0, 1.0))
    return CriterionResult(
        cid="focal-table", passed=report.ok and report.endpoint_max_err <= 1e-12,
        measured=report.endpoint_max_err, bound=1e-12,
        detail=f"{len(report.violations)} sign violations")


def crit_average_speeds(fault=None) -> CriterionResult:
    worst = 0.0
    for a in (2.0, 1.1, 10.0):
        params = ell.EllipseParams(a, 1.0)
        for frame, n in (("origin", 4), ("focus", 2)):
            width = 2.0 * math.pi / n  # quarter or half turns
            for k in range(n):
                avg = ell.average_rotational_speed(
                    params, frame, (k * width, (k + 1) * width))
                worst = max(worst, abs(avg - 1.0))
    return CriterionResult(
        cid="average-speeds", passed=worst < 1e-8, measured=worst, bound=1e-8)


def crit_accel_zeros(fault=None) -> CriterionResult:
    worst = 0.0
    for a in (2.0, 1.1):
        params = ell.EllipseParams(a, 1.0)
        for frame, closed in (("origin", ell.origin_zero_closed_form(params)),
                              ("focus", (0.5 * math.pi, 1.5 * math.pi))):
            roots = ell.accel_zero_locations(params, frame)
            worst = max(worst, *(abs(r - c) for r, c in zip(roots, closed)))
    return CriterionResult(
        cid="accel-zeros", passed=worst < 1e-10, measured=worst, bound=1e-10)


# -- criterion 9: reconstruction round-trips -----------------------------------------

def _order_from_ladder(steps, errors) -> float:
    logs = np.log(np.asarray(steps))
    loge = np.log(np.maximum(np.asarray(errors), 1e-300))
    slope, _ = np.polyfit(logs, loge, 1)
    return float(slope)


def crit_reconstruction(fault=None) -> CriterionResult:
    worst = 0.0
    orders = []
    ladder = (1e-2, 5e-3, 2.5e-3)
    for curve, data, run in (
            (make_catalog_curve("ellipse", {"a": 2.0, "b": 1.0}),
             reconstruct.plane_data_from_curve, reconstruct.reconstruct_plane),
            (_shifted_helix(), reconstruct.space_data_from_curve,
             reconstruct.reconstruct_space)):
        span = curve.domain[1] - curve.domain[0]

        def error(order, frac):
            problem = data(curve, order=order, step=frac * span)
            return run(problem).max_error_vs(curve)
        worst = max(worst, error(1, 1e-4), error(2, 1e-4))
        orders.append(_order_from_ladder(
            ladder, [error(1, frac) for frac in ladder]))

    min_order = min(orders)
    passed = worst < 1e-5 and min_order >= 3.5
    return CriterionResult(
        cid="reconstruction", passed=passed, measured=worst, bound=1e-5,
        detail=f"convergence orders {[f'{o:.2f}' for o in orders]}")


# -- criterion 10: congruence ---------------------------------------------------------

def _random_rotation2(rng) -> tuple:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    return ((c, -s), (s, c))


def _random_rotation3(rng) -> tuple:
    # quaternion-sampled uniform rotation
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def crit_congruence(fault=None) -> CriterionResult:
    rng = np.random.default_rng(_SEED + 10)
    worst = 0.0
    ok = True

    ellipse_curve = make_catalog_curve("ellipse", {"a": 2.0, "b": 1.0})
    grid2 = plane.uniform_grid(ellipse_curve.domain, 40)
    helix_curve = make_catalog_curve("helix")
    grid3 = plane.uniform_grid(helix_curve.domain, 30, shrink=0.02)
    for curve, grid, rotation, vec, congruent in (
            (ellipse_curve, grid2, _random_rotation2, Vec2,
             plane.plane_congruent),
            (helix_curve, grid3, _random_rotation3, Vec3,
             space.space_congruent)):
        for _ in range(20):  # rigid motions keep every invariant
            moved = transform_curve(curve, rotation(rng),
                                    vec(*rng.uniform(-3, 3, size=curve.dim)))
            report = congruent(curve, moved, grid)
            ok = ok and report.congruent
            worst = max(worst, report.max_deviation)

    perturbed = make_catalog_curve("ellipse", {"a": 2.0, "b": 1.1})
    ok = ok and not plane.plane_congruent(
        ellipse_curve, perturbed, grid2).congruent
    pitch_perturbed = make_catalog_curve("helix", {"pitch": 1.05})
    ok = ok and not space.space_congruent(
        helix_curve, pitch_perturbed, grid3).congruent
    mirrored = transform_curve(
        helix_curve, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)))
    mirror_report = space.space_congruent(helix_curve, mirrored, grid3)
    ok = ok and not mirror_report.congruent and mirror_report.quantity == "epsilon"

    return CriterionResult(
        cid="congruence", passed=ok and worst < 1e-9, measured=worst,
        bound=1e-9)


# -- criterion 11: first fundamental form ----------------------------------------------

def crit_fundamental_form(fault=None) -> CriterionResult:
    rng = np.random.default_rng(_SEED + 11)
    worst = 0.0
    for surf, chart in _surface_cases():
        for t in _sample(rng, chart.domain, 200):
            (u, v) = chart.point(t).as_tuple()
            up = np.array(chart.derivative(t, 1).as_tuple())
            geo = surface.surface_geometry(surf, u, v)
            first_form = float(np.einsum("ij,i,j->", geo.g, up, up))
            phi = surface.surface_local_first_derivative(surf, chart, t)
            worst = max(worst,
                        abs(phi * phi - first_form) / max(1.0, first_form))
    return CriterionResult(
        cid="fundamental-form", passed=worst < 1e-12, measured=worst,
        bound=1e-12)


# -- criterion 12: CLI determinism -------------------------------------------------------

def crit_cli_determinism(fault=None) -> CriterionResult:
    import tempfile
    from pathlib import Path

    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for name in ("first.csv", "second.csv"):
            path = Path(tmp) / name
            code = cli.main(["kinematics", "--curve", "ellipse",
                             "--samples", "64", "--out", str(path)])
            if code != 0:
                return CriterionResult(
                    cid="cli-determinism", passed=False, measured=float(code),
                    bound=0.0, detail="kinematics run failed")
            outs.append(path.read_bytes())
    identical = outs[0] == outs[1]
    return CriterionResult(
        cid="cli-determinism", passed=identical,
        measured=0.0 if identical else 1.0, bound=0.0)


# (id, static tags, runner); tags drive --filter without running anything
CRITERIA = (
    ("fd-rates", ("plane", "space", "surface"), crit_fd_rates),
    ("rot-speeds", ("plane", "space", "surface"), crit_rot_speeds),
    ("local-limits", ("plane", "space", "surface"), crit_local_limits),
    ("line-degeneracy", ("plane",), crit_line_degeneracy),
    ("chart-expansion", ("surface",), crit_chart_expansion),
    ("focal-table", ("ellipse",), crit_focal_table),
    ("average-speeds", ("ellipse",), crit_average_speeds),
    ("accel-zeros", ("ellipse",), crit_accel_zeros),
    ("reconstruction", ("reconstruction",), crit_reconstruction),
    ("congruence", ("plane", "space"), crit_congruence),
    ("fundamental-form", ("surface",), crit_fundamental_form),
    ("cli-determinism", ("cli",), crit_cli_determinism),
)


def _run(index: int, fault: Optional[str]) -> CriterionResult:
    return CRITERIA[index][2](fault)


def run_all(filter_tag: Optional[str] = None,
            fault: Optional[str] = None) -> list[CriterionResult]:
    """The selected criteria in CRITERIA order, on up to one forked worker
    per usable CPU; workers get indices into their copy of CRITERIA."""
    picked = [k for k, (cid, tags, _) in enumerate(CRITERIA)
              if filter_tag is None or filter_tag in tags or filter_tag == cid]
    workers = min(len(picked), reconstruct._usable_cpus())
    mapper = map
    with ExitStack() as stack:
        if workers > 1:
            import multiprocessing  # lazily: 12-18 ms a CLI start would pay
            # fork: workers inherit the imports and the table; no Python
            # thread runs yet, and OpenBLAS rebuilds its own after a fork
            if "fork" in multiprocessing.get_all_start_methods():
                from concurrent.futures import ProcessPoolExecutor
                mapper = stack.enter_context(ProcessPoolExecutor(
                    workers, multiprocessing.get_context("fork"))).map
        return list(mapper(_run, picked, [fault] * len(picked)))
