import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkin.curves import SpaceCurve, make_catalog_curve, reparametrize, \
    transform_curve
from rotorkin.curves import curve_from_spec
from rotorkin.errors import (AxisProjectionDegenerate, CenterOnCurve,
                             CurvesIntersect, DegenerateFrame, KinematicsError,
                             NonFiniteData)
from rotorkin.numerics import extrapolate_to_zero, fd_derivative
from rotorkin.plane import uniform_grid
from rotorkin.space import (derivative_plane_limits,
                            derivative_plane_speeds, invariants,
                            pair_kinematics, space_congruent,
                            space_distance_kinematics,
                            space_distance_kinematics_array,
                            verify_invariant_chain)
from rotorkin.vec import Vec3

RNG = np.random.default_rng(733)

LADDER_WIDE = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


# -- general frame --------------------------------------------------------------

def test_helix_speed_a_at_zero():
    curve = make_catalog_curve("helix", {"cz": 1.0}, domain=(-0.1, 2.0))
    kin = space_distance_kinematics(curve, 0.0)
    # x=1, y=0, x'=0, y'=1 -> |x y' - x' y| / (x^2 + y^2) = 1
    assert kin.speed_a == pytest.approx(1.0, abs=1e-15)


def test_frozen_projection_has_zero_speed():
    curve = SpaceCurve(position=lambda t: Vec3(t + 2.0, 1.0, 1.0),
                       domain=(0.0, 1.0),
                       d1=lambda t: Vec3(1.0, 0.0, 0.0),
                       d2=lambda t: Vec3(0.0, 0.0, 0.0),
                       d3=lambda t: Vec3(0.0, 0.0, 0.0))
    kin = space_distance_kinematics(curve, 0.5)
    assert kin.speed_c == 0.0  # the yOz projection never moves


def test_distance_rate_vs_fd():
    curve = make_catalog_curve("helix", {"cz": 1.0}, domain=(0.5, 2.0))

    def dist(t):
        return curve.point(t).norm()

    for t in RNG.uniform(0.6, 1.9, size=100):
        kin = space_distance_kinematics(curve, float(t))
        fd = fd_derivative(dist, float(t), 1, domain=curve.domain)
        assert abs(kin.dD - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_origin_and_axis_errors():
    through_origin = SpaceCurve(position=lambda t: Vec3(t, t, t),
                                domain=(-1.0, 1.0))
    with pytest.raises(CenterOnCurve):
        space_distance_kinematics(through_origin, 0.0)
    on_axis = SpaceCurve(position=lambda t: Vec3(0.0, 0.0, t + 1.0),
                         domain=(0.0, 1.0),
                         d1=lambda t: Vec3(0.0, 0.0, 1.0),
                         d2=lambda t: Vec3(0.0, 0.0, 0.0),
                         d3=lambda t: Vec3(0.0, 0.0, 0.0))
    with pytest.raises(AxisProjectionDegenerate):
        space_distance_kinematics(on_axis, 0.5)


def test_planar_curve_has_degenerate_frame():
    flat_circle = SpaceCurve(
        position=lambda t: Vec3(math.cos(t), math.sin(t), 0.0),
        domain=(0.0, 2.0 * math.pi),
        d1=lambda t: Vec3(-math.sin(t), math.cos(t), 0.0),
        d2=lambda t: Vec3(-math.cos(t), -math.sin(t), 0.0),
        d3=lambda t: Vec3(math.sin(t), -math.cos(t), 0.0))
    with pytest.raises(DegenerateFrame):
        derivative_plane_limits(flat_circle, 1.0)
    with pytest.raises(DegenerateFrame):
        derivative_plane_speeds(flat_circle, 1.0, 1e-3)


# -- finite-step speeds and their limits ----------------------------------------------

def test_cubic_speeds_vs_fd_of_projected_direction():
    curve = make_catalog_curve("cubic")
    t, dt = 0.5, 1e-3
    speeds = derivative_plane_speeds(curve, t, dt)
    m = np.array([curve.derivative(t, k).as_tuple() for k in (1, 2, 3)]).T

    for idx, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        def unit_proj(s):
            delta = curve.point(t + s) - curve.point(t)
            g = np.linalg.solve(m, np.array(delta.as_tuple()))
            vec = g[i] * np.array(curve.derivative(t, i + 1).as_tuple()) + \
                g[j] * np.array(curve.derivative(t, j + 1).as_tuple())
            return vec / np.linalg.norm(vec)

        h = 1e-6
        fd = np.linalg.norm((unit_proj(dt + h) - unit_proj(dt - h)) / (2 * h))
        assert abs(speeds[idx] - fd) <= 1e-4 * max(fd, 1.0), (idx, speeds[idx], fd)


def test_speed_12_matches_expanded_gram_form():
    # the implementation computes |(u.W)u - |u|^2 W| / |u|^3; the expanded
    # eight-term form in Gram data (dot products of r', r'') is the same
    # expression distributed over the basis -- transcribe it literally
    curve = make_catalog_curve("cubic")
    t = 0.7
    r1 = curve.derivative(t, 1)
    r2 = curve.derivative(t, 2)
    r3 = curve.derivative(t, 3)
    m = np.array([r1.as_tuple(), r2.as_tuple(), r3.as_tuple()]).T
    r1r1, r1r2, r2r2 = r1.dot(r1), r1.dot(r2), r2.dot(r2)
    for dt in (1e-2, 1e-3):
        g = np.linalg.solve(m, np.array(
            (curve.point(t + dt) - curve.point(t)).as_tuple()))
        gp = np.linalg.solve(m, np.array(
            curve.derivative(t + dt, 1).as_tuple()))
        g1, g2 = g[0], g[1]
        g1p, g2p = gp[0], gp[1]
        coeff_r1 = (g1 * g1 * g2p * r1r2 + g2 * g2p * g1 * r2r2
                    - g1 * g2 * g1p * r1r2 - g2 * g2 * g1p * r2r2)
        coeff_r2 = (g1 * g1p * g2 * r1r1 + g2 * g2 * g1p * r1r2
                    - g1 * g1 * g2p * r1r1 - g1 * g2 * g2p * r1r2)
        norm_sq = g1 * g1 * r1r1 + 2.0 * g1 * g2 * r1r2 + g2 * g2 * r2r2
        numerator = math.sqrt(coeff_r1 ** 2 * r1r1
                              + 2.0 * coeff_r1 * coeff_r2 * r1r2
                              + coeff_r2 ** 2 * r2r2)
        expanded = numerator / norm_sq ** 1.5
        compact = derivative_plane_speeds(curve, t, dt)[0]
        assert abs(expanded - compact) <= 1e-12 * max(abs(expanded), 1.0)


def test_speed_13_vanishes_in_the_limit():
    curve = make_catalog_curve("helix")
    t = 2.0
    values = [derivative_plane_speeds(curve, t, dt)[1] for dt in LADDER_WIDE]
    assert values == sorted(values, reverse=True)  # decreasing along the ladder
    assert abs(extrapolate_to_zero(LADDER_WIDE, values)) <= 1e-3


def test_speeds_converge_to_closed_forms():
    for name, t in (("helix", 0.8), ("cubic", 0.6)):
        curve = make_catalog_curve(name)
        lim = derivative_plane_limits(curve, t)
        s12 = extrapolate_to_zero(
            LADDER_WIDE,
            [derivative_plane_speeds(curve, t, dt)[0] for dt in LADDER_WIDE])
        s23 = extrapolate_to_zero(
            LADDER_WIDE,
            [derivative_plane_speeds(curve, t, dt)[2] for dt in LADDER_WIDE])
        assert abs(s12 - lim.psi12.norm()) <= 1e-4
        assert abs(s23 - lim.psi23.norm()) <= 1e-4


def test_helix_limit_values():
    # substituting r', r'', r''' of the unit helix into the closed forms
    # gives phi = sqrt(2), |psi12| = sqrt(2)/4, |psi23| = 1/3, and the
    # derivative triple product is +1
    curve = make_catalog_curve("helix")
    for t in (0.3, 1.7, 5.1):
        lim = derivative_plane_limits(curve, t)
        assert lim.phi == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert lim.psi12.norm() == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-14)
        assert lim.psi23.norm() == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert lim.psi13.norm() == 0.0
        assert lim.epsilon == 1


def test_epsilon_invariant_under_positive_reparametrization():
    curve = make_catalog_curve("cubic")
    warped = reparametrize(curve, lambda h: 0.2 + h * h,
                           g_derivatives=(lambda h: 2.0 * h, lambda h: 2.0,
                                          lambda h: 0.0),
                           domain_h=(0.2, 1.1))
    for h in (0.3, 0.6, 1.0):
        eps_h = invariants(warped, h).epsilon
        eps_t = invariants(curve, 0.2 + h * h).epsilon
        assert eps_h == eps_t


# -- congruence ---------------------------------------------------------------------

def random_rotation3(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return ((1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
            (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
            (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)))


def test_congruent_under_rigid_motion():
    curve = make_catalog_curve("cubic")
    grid = uniform_grid(curve.domain, 25, shrink=0.05)
    moved = transform_curve(curve, random_rotation3(RNG), Vec3(1.0, -2.0, 0.5))
    report = space_congruent(curve, moved, grid)
    assert report.congruent
    assert report.max_deviation <= 1e-9


def test_not_congruent_when_pitch_differs():
    helix = make_catalog_curve("helix")
    other = make_catalog_curve("helix", {"pitch": 1.05})
    report = space_congruent(helix, other,
                             uniform_grid(helix.domain, 20, shrink=0.05))
    assert not report.congruent


def test_mirror_image_flips_epsilon():
    helix = make_catalog_curve("helix")
    mirrored = transform_curve(
        helix, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)))
    report = space_congruent(helix, mirrored,
                             uniform_grid(helix.domain, 20, shrink=0.05))
    assert not report.congruent
    assert report.quantity == "epsilon"


def test_invariant_chain_recovers_gram_data():
    for name, ts in (("helix", (1.0, 3.5)), ("cubic", (0.5, 1.0))):
        curve = make_catalog_curve(name)
        for t in ts:
            assert verify_invariant_chain(curve, t) <= 1e-8


def test_curvature_torsion_from_invariant_chain():
    from rotorkin.space import _chain_direct, _chain_from_invariants
    for name, t in (("helix", 2.0), ("cubic", 0.7)):
        curve = make_catalog_curve(name)
        recon = _chain_from_invariants(curve, t, 1e-3)
        direct = _chain_direct(curve, t)
        eps = invariants(curve, t).epsilon

        def kappa_tau(chain):
            p2, d12, r2sq, d23, r3sq, d13, cross, trip_sq = chain
            kappa = cross / p2 ** 1.5
            tau = eps * math.sqrt(max(trip_sq, 0.0)) / cross ** 2
            return kappa, tau

        k1, t1 = kappa_tau(recon)
        k2, t2 = kappa_tau(direct)
        assert abs(k1 - k2) <= 1e-8 * max(abs(k2), 1.0)
        assert abs(t1 - t2) <= 1e-8 * max(abs(t2), 1.0)


# -- two curves ----------------------------------------------------------------------

def test_pair_constant_offset():
    curve = make_catalog_curve("cubic")
    offset = transform_curve(
        curve, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        Vec3(1.0, 1.0, 1.0))
    for t in (0.4, 0.9, 1.3):
        kin = pair_kinematics(curve, offset, t)
        assert kin.dD == pytest.approx(0.0, abs=1e-15)
        assert kin.speed_a == pytest.approx(0.0, abs=1e-15)
        assert kin.speed_b == pytest.approx(0.0, abs=1e-15)
        assert kin.speed_c == pytest.approx(0.0, abs=1e-15)


def test_pair_rate_vs_fd():
    first = make_catalog_curve("helix", {"cx": 2.0, "cy": 2.0, "cz": 1.0})
    second = transform_curve(
        reparametrize(first, lambda h: h, (lambda h: 1.0, lambda h: 0.0,
                                           lambda h: 0.0),
                      domain_h=first.domain),
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        Vec3(0.5, -0.5, 3.0))

    def dist(t):
        return (second.point(t) - first.point(t)).norm()

    for t in RNG.uniform(0.5, 5.5, size=50):
        kin = pair_kinematics(first, second, float(t))
        fd = fd_derivative(dist, float(t), 1, domain=first.domain)
        assert abs(kin.dD - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_pair_phase_shifted_helices():
    base = make_catalog_curve("helix", {"cz": 1.0}, domain=(0.2, 3.0))
    shifted = SpaceCurve(
        position=lambda t: base.position(t + math.pi),
        domain=base.domain,
        d1=lambda t: base.d1(t + math.pi),
        d2=lambda t: base.d2(t + math.pi),
        d3=lambda t: base.d3(t + math.pi))

    def dist(t):
        return (shifted.point(t) - base.point(t)).norm()

    for t in (0.5, 1.2, 2.4):
        kin = pair_kinematics(base, shifted, t)
        fd = fd_derivative(dist, t, 1, domain=base.domain)
        assert abs(kin.dD - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_pair_same_curve_raises():
    curve = make_catalog_curve("cubic")
    with pytest.raises(CurvesIntersect):
        pair_kinematics(curve, curve, 0.5)


# -- properties ------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(radius=st.floats(0.5, 2.0), pitch=st.floats(-2.0, 2.0),
       offset=st.tuples(*[st.floats(5.0, 8.0)] * 3), t=st.floats(0.2, 1.5))
def test_pair_kinematics_is_the_difference_curve_frame(radius, pitch, offset, t):
    # the offset keeps every component of the connecting vector positive
    cx, cy, cz = offset
    a = make_catalog_curve("cubic")
    b = make_catalog_curve("helix", {"radius": radius, "pitch": pitch,
                                     "cx": cx, "cy": cy, "cz": cz})
    difference = SpaceCurve(
        position=lambda s: b.point(s) - a.point(s), domain=a.domain,
        d1=lambda s: b.derivative(s, 1) - a.derivative(s, 1),
        d2=lambda s: b.derivative(s, 2) - a.derivative(s, 2))
    assert repr(pair_kinematics(a, b, t)) == \
        repr(space_distance_kinematics(difference, t))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(("helix", "cubic")), where=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1),
       offset=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
def test_invariants_unchanged_under_rigid_motion(name, where, seed, offset):
    curve = make_catalog_curve(name)
    moved = transform_curve(curve, random_rotation3(np.random.default_rng(seed)),
                            Vec3(*offset))
    t0, t1 = curve.domain
    t = t0 + where * (t1 - t0)
    before, after = invariants(curve, t), invariants(moved, t)
    assert after.epsilon == before.epsilon
    for q in ("phi", "s12", "s13", "s23"):
        assert getattr(after, q) == pytest.approx(getattr(before, q),
                                                  rel=1e-12, abs=1e-12), q


# -- the array path against the scalar API ---------------------------------

def scalar_columns(curve, ts):
    """space_distance_kinematics over ts as an (n, 6) array, or the
    (class, t) of the first sample it fails on."""
    rows = []
    for t in ts.tolist():
        try:
            rows.append(astuple(space_distance_kinematics(curve, t)))
        except KinematicsError as exc:
            return None, (type(exc), t)
    return np.array(rows), None


def array_columns(curve, ts):
    try:
        return np.column_stack(astuple(
            space_distance_kinematics_array(curve, ts))), None
    except KinematicsError as exc:
        return None, (type(exc), exc.t)


coordinate = st.floats(-3.0, 3.0)
SPACE_PARAMS = {
    "cubic": st.fixed_dictionaries({"a": coordinate, "b": coordinate,
                                    "c": coordinate}),
    "helix": st.fixed_dictionaries({
        "radius": st.floats(0.1, 5.0), "pitch": coordinate,
        "cx": coordinate, "cy": coordinate, "cz": coordinate}),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SPACE_PARAMS)), data=st.data())
def test_array_path_equals_scalar_api(name, data):
    # within 1e-12 of the larger of the value and the column's scale, or
    # the same error class at the same first t
    curve = make_catalog_curve(name, data.draw(SPACE_PARAMS[name]))
    t0, t1 = curve.domain
    ts = t0 + (t1 - t0) * np.arange(41) / 40
    want, scalar_error = scalar_columns(curve, ts)
    got, array_error = array_columns(curve, ts)
    assert array_error == scalar_error
    if want is not None:
        scale = np.maximum(np.abs(want).max(axis=0), 1.0)
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.maximum(np.abs(want), scale))


def test_default_helix_fails_at_the_first_sample():
    # the yOz projection of (cos t, sin t, t) vanishes at t = 0
    helix = make_catalog_curve("helix")
    ts = np.linspace(0.0, 1.0, 5)
    with pytest.raises(AxisProjectionDegenerate) as exc:
        space_distance_kinematics_array(helix, ts)
    assert exc.value.t == 0.0
    assert str(exc.value) == "yOz-plane projection vanishes at t=0"


def test_overflowing_space_kinematics_raise_instead_of_leaking_inf():
    # |r|^2 overflows, which the scalar loop used to print as inf and nan
    cubic = make_catalog_curve("cubic", {"a": 1e200})
    with pytest.raises(NonFiniteData) as exc:
        space_distance_kinematics_array(cubic, np.linspace(0.2, 1.5, 4))
    assert exc.value.t == 0.2


def test_curves_without_closed_forms_run_the_scalar_api_per_sample(
        monkeypatch):
    from rotorkin import space
    expr_curve = curve_from_spec({
        "kind": "expr", "domain": [0.1, 1.0],
        "expr": {"x": "1 + cos(t)", "y": "2 + sin(t)", "z": "t"}})
    moved = transform_curve(make_catalog_curve("cubic"),
                            ((1, 0, 0), (0, 1, 0), (0, 0, 1)), Vec3(1, 1, 1))
    scalar = space.space_distance_kinematics
    for curve in (expr_curve, moved):
        ts = np.linspace(*curve.domain, 7)
        calls = []
        monkeypatch.setattr(space, "space_distance_kinematics",
                            lambda c, t: calls.append(t) or scalar(c, t))
        got, _ = array_columns(curve, ts)
        monkeypatch.undo()
        assert calls == ts.tolist()
        assert got.tolist() == scalar_columns(curve, ts)[0].tolist()
