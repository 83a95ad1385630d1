import collections
import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotorkin import Vec2
from rotorkin import ellipse as ell
from rotorkin.curves import _Curve, curve_from_spec, make_catalog_curve
from rotorkin.errors import (BadParameters, NonFiniteData, NonTangentField,
                             ProjectionCollapse, StepTooLarge)
from rotorkin.reconstruct import (_BLOCK, PlaneReconstructionProblem,
                                  Trajectory, integrate_unit_direction,
                                  plane_data_from_curve, reconstruct_plane,
                                  reconstruct_space, run_preset,
                                  space_data_from_curve)

TWO_PI = 2.0 * math.pi


# -- unit-direction integration: reconstruct_plane with D fixed at 1 ---------------

def unit_direction(rhs_e, e0, domain, step):
    """(ts, directions, max_drift) from reconstruct_plane with rhs_D = 0
    and D0 = 1, so the points are the integrated unit directions."""
    trajectory = reconstruct_plane(PlaneReconstructionProblem(
        rhs_D=lambda t: 0.0, rhs_e=rhs_e, D0=1.0, e0=e0, domain=domain,
        step=step))
    return trajectory.ts, trajectory.points, trajectory.max_drift


def test_zero_field_keeps_direction():
    ts, es, drift = unit_direction(
        lambda t, e: np.zeros(2), np.array([1.0, 0.0]), (0.0, 1.0), 1e-2)
    assert np.all(es[:, 0] == 1.0)
    assert np.all(es[:, 1] == 0.0)
    assert drift == 0.0


def test_constant_rotation_quarter_turn():
    def rhs(t, e):
        return np.array([-e[1], e[0]])  # unit angular rate

    ts, es, drift = unit_direction(
        rhs, np.array([1.0, 0.0]), (0.0, 0.5 * math.pi), 1e-4)
    assert np.linalg.norm(es[-1] - np.array([0.0, 1.0])) <= 1e-8
    assert drift <= 1e-12


def test_ellipse_direction_field():
    # the center-frame direction data of the ellipse integrates to the
    # analytic direction unit(a cos, b sin); at pi/2 that is (0, 1)
    a, b = 2.0, 1.0

    def rhs(theta, e):
        ct, st = math.cos(theta), math.sin(theta)
        q = a * a * ct * ct + b * b * st * st
        return np.array([-b * st, a * ct]) * (a * b / q ** 1.5)

    ts, es, _ = unit_direction(
        rhs, np.array([1.0, 0.0]), (0.0, 0.5 * math.pi), 1e-4)
    assert np.linalg.norm(es[-1] - np.array([0.0, 1.0])) <= 1e-6


def test_radial_field_rejected():
    with pytest.raises(NonTangentField):
        unit_direction(lambda t, e: e, np.array([1.0, 0.0]), (0.0, 1.0), 1e-2)


def test_integrate_unit_direction_is_reconstruct_plane():
    def rhs(t, e):
        return np.array([-e[1], e[0]]) * (1.0 + t)

    args = (rhs, np.array([0.6, 0.8]), (0.0, 2.0), 1e-3)
    for got, want in zip(integrate_unit_direction(*args),
                         unit_direction(*args)):
        assert np.array_equal(got, want)


def test_drift_small_for_fine_steps():
    # curve data takes the angle sums: every direction is (cos, sin)
    curve = make_catalog_curve("ellipse")
    problem = plane_data_from_curve(curve, step=1e-3)
    trajectory = reconstruct_plane(problem)
    assert trajectory.max_drift == 0.0


# -- plane reconstruction ---------------------------------------------------------

def test_origin_data_regenerates_ellipse():
    params = ell.EllipseParams(2.0, 1.0)
    problem = ell.origin_reconstruction_problem(params, step=TWO_PI / 1e4)
    trajectory = reconstruct_plane(problem)
    curve = make_catalog_curve("ellipse", {"a": 2.0, "b": 1.0})
    assert trajectory.max_error_vs(curve) <= 1e-6


def test_focus_data_regenerates_ellipse():
    params = ell.EllipseParams(2.0, 1.0)
    problem = ell.focus_reconstruction_problem(params, step=TWO_PI / 1e4)
    trajectory = reconstruct_plane(problem)
    curve = make_catalog_curve("ellipse", {"a": 2.0, "b": 1.0})
    assert trajectory.max_error_vs(curve) <= 1e-6


def test_constant_distance_rotation_closes_circle():
    problem = PlaneReconstructionProblem(
        rhs_D=lambda t: 0.0,
        rhs_e=lambda t, e: np.array([-e[1], e[0]]),
        D0=1.0, e0=np.array([1.0, 0.0]),
        domain=(0.0, TWO_PI), step=TWO_PI / 1e4)
    trajectory = reconstruct_plane(problem)
    assert np.linalg.norm(trajectory.points[-1] - trajectory.points[0]) <= 1e-8


def test_first_and_second_order_forms_agree():
    curve = make_catalog_curve("ellipse")
    step = TWO_PI / 5e3
    runs = [reconstruct_plane(plane_data_from_curve(curve, order=k, step=step))
            for k in (1, 2)]
    errors = [run.max_error_vs(curve) for run in runs]
    gap = np.abs(runs[0].points - runs[1].points).max()
    assert gap <= 10.0 * max(max(errors), 1e-12)


def test_round_trip_convergence_order():
    curve = make_catalog_curve("ellipse")
    span = curve.domain[1] - curve.domain[0]
    steps = [1e-2 * span, 5e-3 * span, 2.5e-3 * span]
    errors = []
    for step in steps:
        problem = plane_data_from_curve(curve, order=1, step=step)
        errors.append(reconstruct_plane(problem).max_error_vs(curve))
    order = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert order >= 3.5


def test_uniqueness_probe():
    # a non-unit initial direction is rejected, and perturbing D0 by delta
    # moves the initial point by exactly delta * e0
    curve = make_catalog_curve("ellipse")
    problem = plane_data_from_curve(curve, step=0.1)
    with pytest.raises(BadParameters):
        PlaneReconstructionProblem(
            rhs_D=problem.rhs_D, rhs_e=problem.rhs_e, D0=problem.D0,
            e0=np.array([2.0, 0.0]), domain=problem.domain, step=problem.step)
    delta = 1e-3
    from dataclasses import replace
    bumped = replace(problem, D0=problem.D0 + delta)
    p0 = reconstruct_plane(problem).points[0]
    p1 = reconstruct_plane(bumped).points[0]
    shift = p1 - p0
    expected = delta * np.asarray(problem.e0)
    assert np.linalg.norm(shift - expected) <= 1e-12


def test_distance_hitting_zero_raises():
    problem = PlaneReconstructionProblem(
        rhs_D=lambda t: -1.0,
        rhs_e=lambda t, e: np.zeros(2),
        D0=0.5, e0=np.array([1.0, 0.0]), domain=(0.0, 1.0), step=1e-2)
    with pytest.raises(StepTooLarge):
        reconstruct_plane(problem)


# -- space reconstruction -----------------------------------------------------------

def shifted_helix(domain=(0.0, math.pi)):
    return make_catalog_curve("helix", {"cx": 2.0, "cy": 2.0, "cz": 1.0},
                              domain=domain)


def test_space_round_trip():
    curve = shifted_helix()
    problem = space_data_from_curve(curve, step=1e-4 * math.pi)
    trajectory = reconstruct_space(problem)
    assert trajectory.max_error_vs(curve) <= 1e-5


def test_space_second_order_round_trip():
    curve = shifted_helix()
    problem = space_data_from_curve(curve, order=2, step=1e-4 * math.pi)
    trajectory = reconstruct_space(problem)
    assert trajectory.max_error_vs(curve) <= 1e-5


def test_constant_data_stationary():
    # zero data keeps the point fixed, on the general path (the problem's
    # time-only data dropped) and on the time-only path
    problem = space_data_from_curve(shifted_helix(), step=1e-2)
    from dataclasses import replace
    frozen = replace(problem,
                     rhs_D=lambda t: 0.0,
                     rhs_eA=lambda t, e: np.zeros(3),
                     rhs_eB=lambda t, e: np.zeros(3),
                     rhs_eC=lambda t, e: np.zeros(3),
                     data=None)
    zero_data = replace(problem, data=lambda ts: (np.zeros(len(ts)),
                                                  np.zeros((len(ts), 3))))
    for p in (frozen, zero_data):
        trajectory = reconstruct_space(p)
        assert np.abs(trajectory.points - trajectory.points[0]).max() == 0.0


def test_plane_crossing_collapses():
    # un-offset helix: y = sin t crosses zero inside (0.3, 4.0)
    curve = make_catalog_curve("helix", domain=(0.3, 4.0))
    problem = space_data_from_curve(curve, step=1e-3)
    with pytest.raises(ProjectionCollapse):
        reconstruct_space(problem)


def test_space_convergence_order():
    curve = shifted_helix()
    span = math.pi
    steps = [1e-2 * span, 5e-3 * span, 2.5e-3 * span]
    errors = []
    for step in steps:
        problem = space_data_from_curve(curve, order=1, step=step)
        errors.append(reconstruct_space(problem).max_error_vs(curve))
    order = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert order >= 3.5


def test_round_trip_order_for_every_catalog_curve():
    # each catalog curve (kept off the frame center, and off the coordinate
    # planes in space) reconstructs at fourth order from its own data; the
    # circle's angular speed and distance are constant, so its angle and
    # distance sums are exact up to roundoff and there is no order to fit
    cases = [(make_catalog_curve(name), 2)
             for name in ("line", "circle", "ellipse", "parabola",
                          "polynomial")]
    cases.append((make_catalog_curve("cubic"), 3))
    cases.append((shifted_helix(), 3))
    for curve, dim in cases:
        span = curve.domain[1] - curve.domain[0]
        steps = [1e-2 * span, 5e-3 * span, 2.5e-3 * span]
        errors = []
        for step in steps:
            if dim == 2:
                problem = plane_data_from_curve(curve, order=1, step=step)
                trajectory = reconstruct_plane(problem)
            else:
                problem = space_data_from_curve(curve, order=1, step=step)
                trajectory = reconstruct_space(problem)
            errors.append(trajectory.max_error_vs(curve))
        if curve.name == "circle":
            assert max(errors) <= 1e-13, errors
            continue
        order = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert order >= 3.5, (curve.name, errors, order)


# -- presets and CSV -----------------------------------------------------------------

def test_presets_meet_their_tolerances():
    for name in ("circle", "helix", "ellipse-origin", "ellipse-focus"):
        trajectory, error, tolerance = run_preset(name, step=1e-3)
        assert error < tolerance, name


def test_angle_sums_do_not_drift():
    # the circle preset's 1e4 near-equal angle steps: a plain cumsum of
    # them drifts by 8e-13, the compensated sums stay at roundoff
    _, error, _ = run_preset("circle")
    assert error <= 1e-14


def test_trajectory_csv_round_trip(tmp_path):
    trajectory, _, _ = run_preset("circle", step=1e-2)
    path = tmp_path / "trajectory.csv"
    trajectory.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y"]
    assert len(rows) == len(trajectory.ts) + 1
    # full double precision round-trips through the text
    for k in (1, len(rows) // 2, len(rows) - 1):
        t, x, y = (float(cell) for cell in rows[k])
        assert t == trajectory.ts[k - 1]
        assert x == trajectory.points[k - 1][0]
        assert y == trajectory.points[k - 1][1]


# -- time-only data against the general (t, e) path -----------------------------------

def general(problem):
    """The same problem without its time-only data: the general path."""
    from dataclasses import replace
    return replace(problem, data=None)


def test_time_only_path_matches_general_path():
    # 600 steps: two fourth-order discretizations of the same motion, the
    # angle sums of the time-only path and RK4 on e' = omega J e; in the
    # plane the angle sums are the more accurate, in space neither is always
    # (Simpson's error on a projected angle can exceed RK4's phase error)
    curve = make_catalog_curve("ellipse")
    params = ell.EllipseParams(2.0, 1.0)
    plane = [plane_data_from_curve(curve, order=k, step=TWO_PI / 600)
             for k in (1, 2)]
    plane.append(plane_data_from_curve(curve, center=Vec2(0.3, -0.2),
                                       order=2, step=TWO_PI / 600))
    plane += [ell.origin_reconstruction_problem(params, step=TWO_PI / 600),
              ell.focus_reconstruction_problem(params, step=TWO_PI / 600)]
    space = [space_data_from_curve(shifted_helix(), order=k,
                                   step=math.pi / 600) for k in (1, 2)]
    cases = ([(p, reconstruct_plane, curve, 1e-7) for p in plane]
             + [(p, reconstruct_space, shifted_helix(), 1e-11) for p in space])
    for problem, run, reference, bound in cases:
        fast, slow = run(problem), run(general(problem))
        assert np.array_equal(fast.ts, slow.ts)
        assert fast.max_drift == 0.0
        fast_error, slow_error = (fast.max_error_vs(reference),
                                  slow.max_error_vs(reference))
        assert fast_error <= bound and slow_error <= bound
        if run is reconstruct_plane:
            assert fast_error <= slow_error


def test_time_only_path_in_negative_octant():
    # with y < 0 the triangulated direction flips sign on every row, and the
    # flip carries across blocks (1200 steps: two blocks)
    curve = make_catalog_curve("helix", {"cx": -2.0, "cy": -2.0, "cz": 1.0},
                               domain=(0.0, TWO_PI))
    problem = space_data_from_curve(curve, step=math.pi / 600)
    for path in (problem, general(problem)):
        assert reconstruct_space(path).max_error_vs(curve) <= 1e-9


def failure(run, problem):
    with pytest.raises(Exception) as info:
        run(problem)
    return type(info.value), str(info.value)


def test_step_too_large_same_step_on_both_paths():
    problem = PlaneReconstructionProblem(
        rhs_D=lambda t: -1.0, rhs_e=lambda t, e: np.zeros(2),
        D0=0.5, e0=np.array([1.0, 0.0]), domain=(0.0, 1.0), step=3e-3,
        data=lambda ts: (np.full(len(ts), -1.0), np.zeros((len(ts), 1))))
    kind, message = failure(reconstruct_plane, problem)
    assert kind is StepTooLarge
    assert "step 167 " in message
    assert failure(reconstruct_plane, general(problem)) == (kind, message)


def test_projection_collapse_same_step_on_both_paths():
    curve = make_catalog_curve("helix", domain=(0.3, 4.0))
    problem = space_data_from_curve(curve, step=4e-3)
    kind, message = failure(reconstruct_space, problem)
    assert kind is ProjectionCollapse
    assert " at t=" in message
    assert failure(reconstruct_space, general(problem)) == (kind, message)


def test_non_finite_data_raises():
    def data(ts):
        rates = np.where(ts > 0.5, np.nan, 0.0)
        return rates, np.zeros((len(ts), 1))

    problem = PlaneReconstructionProblem(
        rhs_D=lambda t: 0.0, rhs_e=lambda t, e: np.zeros(2), D0=1.0,
        e0=np.array([1.0, 0.0]), domain=(0.0, 1.0), step=1e-2, data=data)
    with pytest.raises(NonFiniteData, match="step 51 "):
        reconstruct_plane(problem)


def test_max_error_rejects_non_finite_points():
    trajectory, _, _ = run_preset("circle", step=1e-2)
    trajectory.points[3, 1] = np.nan
    with pytest.raises(NonFiniteData):
        trajectory.max_error_vs(make_catalog_curve("circle"))


def test_nan_directions_are_not_unit_vectors():
    with pytest.raises(BadParameters):
        PlaneReconstructionProblem(
            rhs_D=lambda t: 0.0, rhs_e=lambda t, e: np.zeros(2), D0=1.0,
            e0=np.array([np.nan, 0.0]), domain=(0.0, 1.0), step=1e-2)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, 1e-300])
def test_bad_step_rejected_at_construction(step):
    curve = make_catalog_curve("circle")
    with pytest.raises(BadParameters):
        plane_data_from_curve(curve, step=step)
    with pytest.raises(BadParameters):
        space_data_from_curve(shifted_helix(), step=step)


def test_start_on_coordinate_plane_raises():
    curve = make_catalog_curve("helix", {"cx": 2.0, "cy": 2.0})  # z(0) = 0
    with pytest.raises(ProjectionCollapse):
        space_data_from_curve(curve)


# -- round trips for random parameters --------------------------------------------

@settings(max_examples=6, deadline=None)
@given(a=st.floats(1.0, 3.0), ratio=st.floats(0.4, 0.95))
def test_ellipse_round_trip_property(a, ratio):
    params = ell.EllipseParams(a, a * ratio)
    curve = make_catalog_curve("ellipse", {"a": params.a, "b": params.b})
    problems = [plane_data_from_curve(curve),
                ell.origin_reconstruction_problem(params),
                ell.focus_reconstruction_problem(params)]
    for problem in problems:
        assert reconstruct_plane(problem).max_error_vs(curve) <= 1e-5


@settings(max_examples=6, deadline=None)
@given(radius=st.floats(0.5, 2.0), pitch=st.floats(0.2, 2.0),
       gap=st.floats(0.5, 3.0), cz=st.floats(0.5, 3.0))
def test_offset_helix_round_trip_property(radius, pitch, gap, cz):
    # the offset keeps every coordinate at least `gap` away from zero
    offset = radius + gap
    curve = make_catalog_curve(
        "helix", {"radius": radius, "pitch": pitch, "cx": offset,
                  "cy": offset, "cz": cz}, domain=(0.0, math.pi))
    trajectory = reconstruct_space(space_data_from_curve(curve))
    assert trajectory.max_error_vs(curve) <= 1e-5


ELLIPSE_RECORDS = st.builds(
    lambda a, ratio: {"kind": "ellipse", "params": {"a": a, "b": a * ratio}},
    st.floats(0.5, 1.0), st.floats(0.8, 0.95))
# helices shifted clear of the coordinate planes, by at least `gap`
HELIX_RECORDS = st.builds(
    lambda radius, pitch, gap, cz: {
        "kind": "helix", "domain": [0.0, math.pi],
        "params": {"radius": radius, "pitch": pitch, "cx": radius + gap,
                   "cy": radius + gap, "cz": cz}},
    st.floats(0.5, 2.0), st.floats(0.2, 2.0), st.floats(0.5, 3.0),
    st.floats(0.5, 3.0))


@settings(max_examples=5, deadline=None)  # the general path is slow
@given(record=st.one_of(ELLIPSE_RECORDS, HELIX_RECORDS),
       order=st.sampled_from([1, 2]), n_steps=st.integers(200, 2000))
def test_data_path_round_trip_property(record, order, n_steps):
    # the running angle sums rebuild the curve, agree with RK4 on
    # e' = omega J e (the general path), and keep every direction unit
    curve = curve_from_spec(record)
    builder, run = ((plane_data_from_curve, reconstruct_plane)
                    if curve.dim == 2
                    else (space_data_from_curve, reconstruct_space))
    span = curve.domain[1] - curve.domain[0]
    problem = builder(curve, order=order, step=span / n_steps)
    fast, slow = run(problem), run(general(problem))
    assert fast.max_error_vs(curve) <= 1e-6
    assert np.abs(fast.points - slow.points).max() <= 1e-7
    assert fast.max_drift == 0.0


# -- curve data from curve.sample ---------------------------------------------------

def scalar_twin(curve):
    """The same curve without closed forms: its samples are stacked scalar
    point/derivative calls."""
    return replace(curve, forms=None)


def scalar_start(curve, center, order):
    """D0, dD0 and the unit direction of r - center at the start of the
    domain, from scalar point/derivative calls."""
    t0 = curve.domain[0]
    rel = np.array(curve.point(t0).as_tuple()) - center
    rp = np.array(curve.derivative(t0, 1).as_tuple())
    d0 = float(np.linalg.norm(rel))
    return [d0, float(rel @ rp) / d0 if order == 2 else 0.0], rel / d0


def assert_data_close(got, want):
    """Within 1e-12 of the larger of each value and its column's scale."""
    for g, w in zip(got, want):
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        scale = np.abs(w).max(axis=0, keepdims=True)
        assert np.all(np.abs(g - w) <= 1e-12 * np.maximum(np.abs(w), scale))


coordinate = st.floats(-3.0, 3.0)
coefficients = st.lists(coordinate, min_size=2, max_size=4)
PLANE_PARAMS = {
    "circle": st.fixed_dictionaries({"radius": st.floats(0.5, 2.0),
                                     "cx": coordinate, "cy": coordinate}),
    "ellipse": st.floats(1.0, 3.0).flatmap(lambda a: st.fixed_dictionaries(
        {"a": st.just(a), "b": st.floats(0.2, 0.95).map(lambda r: a * r)})),
    "parabola": st.fixed_dictionaries({"a": coordinate, "x0": coordinate,
                                       "y0": coordinate}),
    "polynomial": st.fixed_dictionaries({"x_coeffs": coefficients,
                                         "y_coeffs": coefficients}),
}


@settings(max_examples=40, deadline=None)
@given(name_params=st.sampled_from(sorted(PLANE_PARAMS)).flatmap(
           lambda name: st.tuples(st.just(name), PLANE_PARAMS[name])),
       center=st.tuples(coordinate, coordinate), order=st.sampled_from([1, 2]))
def test_plane_data_equals_data_from_scalar_calls(name_params, center, order):
    name, params = name_params
    curve = make_catalog_curve(name, params)
    ts = np.linspace(*curve.domain, 65)
    r = curve.sample(ts, 0)[0] - np.array(center)
    assume(np.hypot(r[:, 0], r[:, 1]).min() > 0.1)
    fast, slow = (plane_data_from_curve(c, center=Vec2(*center), order=order)
                  for c in (curve, scalar_twin(curve)))
    assert_data_close(fast.data(ts), slow.data(ts))
    assert_data_close(([fast.D0, fast.dD0], fast.e0),
                      scalar_start(curve, center, order))


positive = st.floats(0.3, 2.0)


@settings(max_examples=30, deadline=None)
@given(curve=st.one_of(
           st.builds(lambda a, b, c: make_catalog_curve(
               "cubic", {"a": a, "b": b, "c": c}), positive, positive,
               positive),
           st.builds(lambda radius, pitch, gap, cz: make_catalog_curve(
               "helix", {"radius": radius, "pitch": pitch, "cx": radius + gap,
                         "cy": radius + gap, "cz": cz}),
               st.floats(0.5, 2.0), positive, positive, positive)),
       order=st.sampled_from([1, 2]))
def test_space_data_equals_data_from_scalar_calls(curve, order):
    ts = np.linspace(*curve.domain, 65)
    fast, slow = (space_data_from_curve(c, order=order)
                  for c in (curve, scalar_twin(curve)))
    assert_data_close(fast.data(ts), slow.data(ts))
    rates, e = scalar_start(curve, 0.0, order)
    projections = [e * np.array(keep) for keep in ((1, 1, 0), (1, 0, 1),
                                                   (0, 1, 1))]
    assert_data_close(
        ([fast.D0, fast.dD0], fast.eA0, fast.eB0, fast.eC0),
        [rates] + [p / np.linalg.norm(p) for p in projections])


@pytest.fixture
def curve_calls(monkeypatch):
    """Counts of scalar curve calls: "point", and the derivative orders."""
    calls = collections.Counter()
    point, derivative = _Curve.point, _Curve.derivative

    def counting_point(self, t):
        calls["point"] += 1
        return point(self, t)

    def counting_derivative(self, t, order):
        calls[order] += 1
        return derivative(self, t, order)

    monkeypatch.setattr(_Curve, "point", counting_point)
    monkeypatch.setattr(_Curve, "derivative", counting_derivative)
    return calls


def counting_arrays(curve, calls):
    """The expression curve `curve` with array functions that add the
    parameters they evaluate to `calls` under the keys of the scalar calls
    ("point" for r, the order for a derivative), counted on the first
    coordinate only, so a sampled parameter counts as one scalar call."""
    def counting(fn, key):
        def counted(ts):
            calls[key] += len(ts)
            return fn(ts)
        return counted
    return replace(curve, arrays=tuple(
        (counting(fns[0], order or "point"), *fns[1:])
        for order, fns in enumerate(curve.arrays)))


@pytest.mark.parametrize("expr, builder, run", [
    ({"x": "2 + cos(t)", "y": "1 + sin(t)"}, plane_data_from_curve,
     reconstruct_plane),
    ({"x": "2 + cos(t)", "y": "2 + sin(t)", "z": "1 + t"},
     space_data_from_curve, reconstruct_space),
])
def test_expression_record_makes_only_the_calls_it_needs(curve_calls, expr,
                                                         builder, run):
    curve = counting_arrays(curve_from_spec(
        {"kind": "expr", "expr": expr, "domain": [0.0, 1.0]}), curve_calls)
    trajectory = run(builder(curve, order=1, step=1e-2))
    # order 1: one point and one first derivative per abscissa, no r''
    assert set(curve_calls) == {"point", 1}
    assert curve_calls["point"] == curve_calls[1] > 2 * 100
    curve_calls.clear()
    trajectory.max_error_vs(curve)
    assert curve_calls == {"point": len(trajectory.ts)}
    curve_calls.clear()
    run(builder(curve, order=2, step=1e-2))
    # the start values need no r''
    assert curve_calls["point"] == curve_calls[1] == curve_calls[2] + 1


def test_each_abscissa_is_evaluated_once(curve_calls):
    # 300 steps in one block: its 301 grid points and 300 midpoints, plus
    # the start values; a step used to end on t_k + h, a last bit off the
    # grid point t0 + (k + 1) h the next starts from, so both were
    # evaluated (671 calls in blocks of 128)
    curve = counting_arrays(curve_from_spec(
        {"kind": "expr", "domain": [0.0, 3.0],
         "expr": {"x": "2 + cos(t)", "y": "1 + sin(t)"}}), curve_calls)
    reconstruct_plane(plane_data_from_curve(curve, order=1, step=1e-2))
    assert curve_calls["point"] == 2 * 300 + 1 + 1


@pytest.mark.parametrize("spec", [
    {"kind": "ellipse", "params": {"a": 2.5, "b": 1.5}},
    {"kind": "expr", "expr": {"x": "2 + cos(t)", "y": "2 + sin(t)",
                              "z": "1 + t"}, "domain": [0.0, 3.0]},
])
def test_max_error_is_the_largest_scalar_distance(spec):
    curve = curve_from_spec(spec)
    ts = np.linspace(*curve.domain, 2 * _BLOCK + 45)  # the last partial
    exact = [curve.point(t).as_tuple() for t in ts.tolist()]
    points = np.array(exact) + np.random.default_rng(11).normal(
        scale=1e-3, size=(len(ts), curve.dim))
    points[2 * _BLOCK + 10] += 0.01
    want = max(math.dist(p, q) for p, q in zip(points.tolist(), exact))
    got = Trajectory(ts=ts, points=points, max_drift=0.0).max_error_vs(curve)
    assert got == pytest.approx(want, rel=1e-12)
