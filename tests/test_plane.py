import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkin.curves import (curve_from_spec, make_catalog_curve,
                             reparametrize, transform_curve)
from rotorkin.errors import (CenterOnCurve, DegenerateChord, KinematicsError,
                             NonFiniteData, SingularPoint)
from rotorkin.numerics import extrapolate_to_zero, fd_derivative
from rotorkin.plane import (chord_kinematics, distance_kinematics,
                            distance_kinematics_array, local_limits,
                            local_limits_array, plane_congruent, uniform_grid)
from rotorkin.vec import Vec2

RNG = np.random.default_rng(522)
ORIGIN = Vec2(0.0, 0.0)

A = 2.0
B = 1.0
C = math.sqrt(A * A - B * B)


def ellipse():
    return make_catalog_curve("ellipse", {"a": A, "b": B})


# -- frames -----------------------------------------------------------------

def test_frame_unit_circle():
    kin = distance_kinematics(make_catalog_curve("circle"), ORIGIN, 0.0)
    assert kin.D == 1.0
    # the frame axis is e1 = (1, 0); the rotation is a quarter turn from it
    assert kin.rot_velocity == Vec2(0.0, 1.0)
    assert kin.rot_speed == 1.0


def test_frame_ellipse_distances():
    curve = ellipse()
    assert distance_kinematics(curve, ORIGIN, 0.0).D == A
    assert abs(distance_kinematics(curve, Vec2(C, 0.0), 0.0).D
               - (A - C)) <= 1e-15


def test_frame_orthonormal_invariants():
    # D is the distance to the center, and the rotational velocity is
    # perpendicular to the radial direction (the frame axis e1)
    curve = ellipse()
    center = Vec2(0.3, -0.2)
    for t in RNG.uniform(0, 2 * math.pi, size=200):
        kin = distance_kinematics(curve, center, float(t))
        rel = curve.point(float(t)) - center
        assert kin.D == rel.norm()
        e1 = rel / kin.D
        assert abs(e1.norm() - 1.0) <= 1e-12
        assert abs(kin.rot_velocity.dot(e1)) <= 1e-12 * kin.rot_speed + 1e-15


def test_frame_center_on_curve():
    line = make_catalog_curve("line", {"x0": 0.0, "y0": 0.0, "a": 1.0, "b": 1.0})
    with pytest.raises(CenterOnCurve):
        distance_kinematics(line, ORIGIN, 0.0)


# -- distance kinematics -------------------------------------------------------

def test_unit_circle_about_center():
    circle = make_catalog_curve("circle")
    for t in RNG.uniform(0, 2 * math.pi, size=50):
        kin = distance_kinematics(circle, ORIGIN, float(t))
        assert kin.D == pytest.approx(1.0, abs=1e-15)
        assert kin.dD == 0.0  # cos*(-sin) + sin*cos cancels bitwise
        assert kin.d2D == pytest.approx(0.0, abs=1e-14)
        assert kin.rot_speed == pytest.approx(1.0, abs=1e-14)


def test_ellipse_origin_frame_at_zero():
    # substituting theta = 0 into the closed forms: d2D = -c^2/a, speed = b/a
    kin = distance_kinematics(ellipse(), ORIGIN, 0.0)
    assert kin.D == A
    assert kin.dD == 0.0
    assert kin.d2D == pytest.approx(-C * C / A, abs=1e-14)
    assert kin.rot_speed == pytest.approx(B / A, abs=1e-15)


def test_ellipse_focus_frame_at_zero():
    kin = distance_kinematics(ellipse(), Vec2(C, 0.0), 0.0)
    assert kin.dD == 0.0
    assert kin.d2D == pytest.approx(C, abs=1e-12)


def test_rates_match_fd_on_catalog():
    for name in ("ellipse", "parabola", "polynomial"):
        curve = make_catalog_curve(name)
        center = Vec2(-1.0, 1.0)

        def dist(t):
            return (curve.point(t) - center).norm()

        def rate(t):
            return distance_kinematics(curve, center, t).dD

        for t in RNG.uniform(*curve.domain, size=100):
            t = float(np.clip(t, curve.domain[0] + 1e-2,
                              curve.domain[1] - 1e-2))
            kin = distance_kinematics(curve, center, t)
            fd_rate = fd_derivative(dist, t, 1, domain=curve.domain)
            assert abs(kin.dD - fd_rate) <= 1e-6 * max(abs(fd_rate), 1.0)
            # d2D is the derivative of dD
            fd_acc = fd_derivative(rate, t, 1, domain=curve.domain)
            assert abs(kin.d2D - fd_acc) <= 1e-5 * max(abs(fd_acc), 1.0)


def test_rot_velocity_structure():
    curve = ellipse()
    for t in RNG.uniform(0, 2 * math.pi, size=100):
        kin = distance_kinematics(curve, Vec2(0.2, 0.4), float(t))
        e1 = (curve.point(float(t)) - Vec2(0.2, 0.4)) / kin.D
        assert abs(kin.rot_velocity.norm() - kin.rot_speed) <= 1e-14
        assert abs(kin.rot_velocity.dot(e1)) <= 1e-10 * kin.rot_speed + 1e-15


# -- chord (local frame) kinematics ---------------------------------------------

def test_line_chord_rotation_zero():
    line = make_catalog_curve("line")
    # dyadic parameters evaluate without rounding, so the chord stays
    # exactly parallel to the direction and the cross term is bitwise zero
    for t, dt in ((-2.0, 0.5), (0.0, 0.25), (1.0, 1.0)):
        kin = chord_kinematics(line, t, dt)
        assert kin.rot_speed == 0.0
    # at generic parameters the chord picks up rounding residue only
    for t, dt in ((0.1, 1e-3), (1.7, 0.05)):
        kin = chord_kinematics(line, t, dt)
        assert kin.rot_speed <= 1e-8


def test_circle_chord_rotation_approaches_half():
    circle = make_catalog_curve("circle")
    kin = chord_kinematics(circle, 0.0, 1e-3)
    assert abs(kin.rot_speed - 0.5) <= 1e-3


def test_chord_direction_rate_vs_fd():
    curve = ellipse()
    t, dt = 0.3, 1e-4

    def chord_dir(s):
        f = curve.point(t + s) - curve.point(t)
        return f / f.norm()

    kin = chord_kinematics(curve, t, dt)
    h = 1e-6
    fd = (chord_dir(dt + h) - chord_dir(dt - h)) / (2.0 * h)
    assert abs(kin.rot_speed - fd.norm()) <= 1e-6 * max(fd.norm(), 1.0)
    assert (kin.rot_velocity - fd).norm() <= 1e-5 * max(fd.norm(), 1.0)


def test_chord_degenerate():
    circle = make_catalog_curve("circle")
    with pytest.raises(DegenerateChord):
        chord_kinematics(circle, 0.0, 2.0 * math.pi)  # closes onto itself


# -- local limits ------------------------------------------------------------------

def test_line_local_limits_exact_zero():
    line = make_catalog_curve("line")
    lim = local_limits(line, 0.7)
    assert lim.phi == 5.0  # sqrt(3^2 + 4^2)
    assert lim.phi_prime == 0.0
    assert lim.psi_speed == 0.0
    assert lim.psi.norm() == 0.0


def test_ellipse_local_psi_closed_form():
    curve = ellipse()
    for theta in RNG.uniform(0, 2 * math.pi, size=100):
        lim = local_limits(curve, float(theta))
        st, ct = math.sin(theta), math.cos(theta)
        expected = A * B / (2.0 * (A * A * st * st + B * B * ct * ct))
        assert abs(lim.psi_speed - expected) <= 1e-14 * max(expected, 1.0)
    assert local_limits(curve, 0.0).psi_speed == pytest.approx(1.0, abs=1e-15)


def test_psi_is_half_curvature_times_speed():
    for name in ("ellipse", "parabola", "polynomial", "circle"):
        curve = make_catalog_curve(name)
        for t in RNG.uniform(*curve.domain, size=100):
            t = float(t)
            lim = local_limits(curve, t)
            rp = curve.derivative(t, 1)
            rpp = curve.derivative(t, 2)
            kappa = abs(rp.cross(rpp)) / rp.norm() ** 3
            expected = 0.5 * kappa * lim.phi
            assert abs(lim.psi_speed - expected) <= 1e-8 * max(expected, 1.0)
            # psi is normal to the tangent
            assert abs(lim.psi.dot(rp)) <= 1e-10 * lim.psi_speed * rp.norm() + 1e-15


def test_phi_prime_is_derivative_of_phi():
    curve = ellipse()

    def phi(t):
        return local_limits(curve, t).phi

    for t in RNG.uniform(0.1, 6.1, size=50):
        lim = local_limits(curve, float(t))
        fd = fd_derivative(phi, float(t), 1, domain=curve.domain)
        assert abs(lim.phi_prime - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_singular_point_raises():
    from rotorkin.curves import PlaneCurve
    cusp = PlaneCurve(position=lambda t: Vec2(t * t, t * t * t),
                      domain=(-1.0, 1.0),
                      d1=lambda t: Vec2(2 * t, 3 * t * t),
                      d2=lambda t: Vec2(2.0, 6 * t),
                      d3=lambda t: Vec2(0.0, 6.0))
    with pytest.raises(SingularPoint):
        local_limits(cusp, 0.0)


def test_chord_limits_converge_to_local_limits():
    curve = ellipse()
    ladder = (1e-2, 1e-3, 1e-4, 1e-5)
    for t in (0.5, 2.0, 3.9):
        lim = local_limits(curve, t)
        dd = extrapolate_to_zero(
            ladder, [chord_kinematics(curve, t, dt).dD for dt in ladder])
        rot = extrapolate_to_zero(
            ladder, [chord_kinematics(curve, t, dt).rot_speed for dt in ladder])
        acc = extrapolate_to_zero(
            ladder, [chord_kinematics(curve, t, dt).d2D for dt in ladder])
        assert abs(dd - lim.phi) <= 1e-4
        assert abs(rot - lim.psi_speed) <= 1e-4
        assert abs(acc - lim.phi_prime) <= 1e-4


# -- reparametrization covariance ---------------------------------------------------

def test_rate_and_rotation_covariance():
    curve = ellipse()
    warped = reparametrize(curve, lambda h: h * h,
                           g_derivatives=(lambda h: 2.0 * h, lambda h: 2.0,
                                          lambda h: 0.0),
                           domain_h=(0.3, 1.4))
    center = Vec2(0.0, 0.0)
    for h in (0.4, 0.8, 1.3):
        kin_h = distance_kinematics(warped, center, h)
        kin_t = distance_kinematics(curve, center, h * h)
        g1 = 2.0 * h
        assert abs(kin_h.dD - g1 * kin_t.dD) <= 1e-8 * max(abs(kin_t.dD), 1.0)
        assert abs(kin_h.rot_speed - g1 * kin_t.rot_speed) <= \
            1e-8 * max(kin_t.rot_speed, 1.0)


# -- congruence ----------------------------------------------------------------------

def test_congruent_to_itself():
    curve = ellipse()
    grid = uniform_grid(curve.domain, 50)
    report = plane_congruent(curve, curve, grid)
    assert report.congruent
    assert report.max_deviation == 0.0


def test_congruent_to_rigid_motion():
    curve = ellipse()
    angle = 0.7
    rot = ((math.cos(angle), -math.sin(angle)),
           (math.sin(angle), math.cos(angle)))
    moved = transform_curve(curve, rot, Vec2(3.0, -1.0))
    report = plane_congruent(curve, moved, uniform_grid(curve.domain, 50))
    assert report.congruent
    assert report.max_deviation <= 1e-10


def test_not_congruent_when_axis_differs():
    report = plane_congruent(
        ellipse(), make_catalog_curve("ellipse", {"a": 2.0, "b": 1.1}),
        uniform_grid((0.0, 2.0 * math.pi), 50))
    assert not report.congruent
    assert report.quantity in ("phi", "psi_speed")


def test_mirror_images_compare_equal():
    # the criterion uses |psi|, so reflections are congruent by design
    curve = ellipse()
    mirrored = transform_curve(curve, ((1.0, 0.0), (0.0, -1.0)))
    report = plane_congruent(curve, mirrored, uniform_grid(curve.domain, 50))
    assert report.congruent


# -- properties ------------------------------------------------------------------------

PLANE_CURVES = ("ellipse", "parabola", "polynomial", "circle")


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(PLANE_CURVES), start=st.floats(0.0, 0.9),
       step=st.floats(1e-6, 0.99))
def test_chord_kinematics_is_the_frame_at_the_chord_start(name, start, step):
    curve = make_catalog_curve(name)
    t0, t1 = curve.domain
    t = t0 + start * (t1 - t0)
    dt = step * (t1 - t)
    # repr tells every float apart bit for bit, -0.0 from 0.0 included
    assert repr(chord_kinematics(curve, t, dt)) == \
        repr(distance_kinematics(curve, curve.point(t), t + dt))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(PLANE_CURVES), where=st.floats(0.0, 1.0),
       angle=st.floats(-math.pi, math.pi), dx=st.floats(-10.0, 10.0),
       dy=st.floats(-10.0, 10.0))
def test_local_limits_invariant_under_rigid_motion(name, where, angle, dx, dy):
    curve = make_catalog_curve(name)
    rot = ((math.cos(angle), -math.sin(angle)),
           (math.sin(angle), math.cos(angle)))
    moved = transform_curve(curve, rot, Vec2(dx, dy))
    t0, t1 = curve.domain
    t = t0 + where * (t1 - t0)
    before, after = local_limits(curve, t), local_limits(moved, t)
    for q in ("phi", "phi_prime", "psi_speed"):
        assert getattr(after, q) == pytest.approx(getattr(before, q),
                                                  rel=1e-12, abs=1e-12), q


# -- the array path against the scalar API ---------------------------------

coordinate = st.floats(-3.0, 3.0)
CATALOG_PARAMS = {
    "line": st.fixed_dictionaries({"x0": coordinate, "y0": coordinate,
                                   "a": st.floats(0.1, 4.0),
                                   "b": st.floats(-4.0, 4.0)}),
    "circle": st.fixed_dictionaries({"radius": st.floats(0.1, 5.0),
                                     "cx": coordinate, "cy": coordinate}),
    "ellipse": st.floats(0.5, 5.0).flatmap(lambda a: st.fixed_dictionaries(
        {"a": st.just(a), "b": st.floats(0.1, 0.95).map(lambda r: a * r)})),
    "parabola": st.fixed_dictionaries({"a": st.floats(-3.0, 3.0),
                                       "x0": coordinate, "y0": coordinate}),
    "polynomial": st.fixed_dictionaries({
        "x_coeffs": st.lists(coordinate, min_size=1, max_size=5),
        "y_coeffs": st.lists(coordinate, min_size=1, max_size=5)}),
}


def scalar_loop(fn, ts):
    """The scalar API over ts as columns, or the (class, t) of the first
    sample it fails on."""
    rows = []
    for t in ts.tolist():
        try:
            rows.append(fn(t))
        except KinematicsError as exc:
            return None, (type(exc), t)
    return rows, None


def array_call(fn, ts):
    try:
        return fn(ts), None
    except KinematicsError as exc:
        return None, (type(exc), exc.t)


def assert_columns_match(array, rows, names):
    """Each named field within 1e-12 of the scalar rows, relative to the
    larger of the value and the column's scale."""
    for name in names:
        want = np.array([getattr(r, name).as_tuple()
                         if isinstance(getattr(r, name), Vec2)
                         else getattr(r, name) for r in rows])
        bound = 1e-12 * np.maximum(np.abs(want), max(1.0, np.abs(want).max()))
        assert np.all(np.abs(getattr(array, name) - want) <= bound), name


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CATALOG_PARAMS)), data=st.data(),
       frame=st.sampled_from(("origin", "point", "local")),
       cx=coordinate, cy=coordinate)
def test_array_path_equals_scalar_api(name, data, frame, cx, cy):
    curve = make_catalog_curve(name, data.draw(CATALOG_PARAMS[name]))
    t0, t1 = curve.domain
    ts = t0 + (t1 - t0) * np.arange(41) / 40
    if frame == "local":
        def array(ts):
            return local_limits_array(curve, ts)

        def scalar(t):
            return local_limits(curve, t)
        names = ("phi", "phi_prime", "psi", "psi_speed")
    else:
        center = ORIGIN if frame == "origin" else Vec2(cx, cy)

        def array(ts):
            return distance_kinematics_array(curve, center, ts)

        def scalar(t):
            return distance_kinematics(curve, center, t)
        names = ("D", "dD", "d2D", "rot_velocity", "rot_speed")
    rows, scalar_error = scalar_loop(scalar, ts)
    result, array_error = array_call(array, ts)
    assert array_error == scalar_error
    if rows is not None:
        assert_columns_match(result, rows, names)


def test_circle_through_the_center_fails_at_the_same_first_t():
    circle = make_catalog_curve("circle", {"radius": 1.0, "cx": 1.0})
    ts = 2.0 * math.pi * np.arange(9) / 8  # t = pi is on the grid
    fn = lambda t: distance_kinematics(circle, ORIGIN, t)  # noqa: E731
    assert scalar_loop(fn, ts)[1] == (CenterOnCurve, math.pi)
    with pytest.raises(CenterOnCurve) as exc:
        distance_kinematics_array(circle, ORIGIN, ts)
    assert exc.value.t == math.pi
    with pytest.raises(CenterOnCurve) as scalar_exc:
        fn(math.pi)
    assert str(exc.value) == str(scalar_exc.value)


def test_point_center_on_the_curve_fails_at_the_same_first_t():
    curve = ellipse()
    ts = np.linspace(0.0, 2.0 * math.pi, 5)
    center = Vec2(0.0, -B)  # the curve point at t = 3 pi / 2
    fn = lambda t: distance_kinematics(curve, center, t)  # noqa: E731
    error = scalar_loop(fn, ts)[1]
    assert error[0] is CenterOnCurve
    assert array_call(lambda ts: distance_kinematics_array(curve, center, ts),
                      ts)[1] == error


def test_singular_point_fails_at_the_same_first_t():
    # x = t^3 - t^2 + 1, y = t^2: r' = (3t^2 - 2t, 2t) vanishes at t = 0
    curve = make_catalog_curve("polynomial",
                               {"x_coeffs": (1.0, 0.0, -1.0, 1.0),
                                "y_coeffs": (0.0, 0.0, 1.0)})
    ts = np.linspace(-1.0, 1.0, 5)
    error = scalar_loop(lambda t: local_limits(curve, t), ts)[1]
    assert error == (SingularPoint, 0.0)
    assert array_call(lambda ts: local_limits_array(curve, ts), ts)[1] == error


def test_expr_curve_frame_error_wins_over_a_later_evaluation_error():
    # the curve meets the origin at t = 0.25; sqrt(0.5 - t) fails past 0.5
    curve = curve_from_spec({"kind": "expr", "domain": [0.0, 1.0],
                             "expr": {"x": "t - 0.25",
                                      "y": "sqrt(0.5 - t) - 0.5"}})
    ts = np.linspace(0.0, 1.0, 5)
    fn = lambda t: distance_kinematics(curve, ORIGIN, t)  # noqa: E731
    assert scalar_loop(fn, ts)[1] == (CenterOnCurve, 0.25)
    assert array_call(lambda ts: distance_kinematics_array(curve, ORIGIN, ts),
                      ts)[1] == (CenterOnCurve, 0.25)


def test_expr_curve_array_path_equals_scalar_api():
    curve = curve_from_spec({"kind": "expr", "domain": [0.0, 6.0],
                             "expr": {"x": "2 + cos(t)", "y": "sin(2*t)"}})
    ts = np.linspace(0.0, 6.0, 25)
    rows, _ = scalar_loop(lambda t: distance_kinematics(curve, ORIGIN, t), ts)
    assert_columns_match(distance_kinematics_array(curve, ORIGIN, ts), rows,
                         ("D", "dD", "d2D", "rot_velocity", "rot_speed"))


def test_overflowing_kinematics_raise_instead_of_leaking_inf():
    curve = make_catalog_curve("ellipse", {"a": 1e300, "b": 1e299})
    with pytest.raises(NonFiniteData) as exc:
        distance_kinematics_array(curve, ORIGIN, np.linspace(0.0, 1.0, 3))
    assert exc.value.t == 0.0
