import math

import numpy as np
import pytest

from rotorkin import cli
from rotorkin import ellipse as ell
from rotorkin.curves import make_catalog_curve
from rotorkin.errors import BadParameters, RootCountMismatch
from rotorkin.numerics import adaptive_simpson, fd_derivative
from rotorkin.plane import distance_kinematics, local_limits
from rotorkin.vec import Vec2

RNG = np.random.default_rng(1444)
TWO_PI = 2.0 * math.pi

PARAMS = ell.EllipseParams(2.0, 1.0)
A, B, C = PARAMS.a, PARAMS.b, PARAMS.c


def test_params_invariants():
    assert abs(PARAMS.c ** 2 + PARAMS.b ** 2 - PARAMS.a ** 2) <= 1e-12
    with pytest.raises(BadParameters):
        ell.EllipseParams(1.0, 2.0)
    with pytest.raises(BadParameters):
        ell.EllipseParams(1.0, 1.0)
    circle = ell.EllipseParams(1.0, 1.0, allow_circle=True)
    assert circle.c == 0.0


# -- origin frame ----------------------------------------------------------------

def test_origin_profile_at_zero():
    kin = ell.origin_frame_profile(PARAMS, 0.0)
    assert kin.D == A
    assert kin.dD == 0.0


def test_circle_limit_constant_speed():
    circle = ell.EllipseParams(1.5, 1.5, allow_circle=True)
    for theta in (0.0, 1.0, 3.0, 5.5):
        kin = ell.origin_frame_profile(circle, theta)
        assert kin.rot_speed == pytest.approx(1.0, abs=1e-15)
        assert kin.dD == pytest.approx(0.0, abs=1e-15)


def test_acceleration_vanishes_at_arctan_root():
    theta = math.atan(math.sqrt(A / B))
    assert abs(ell.origin_frame_profile(PARAMS, theta).d2D) <= 1e-12


def test_origin_profile_matches_generic_kinematics():
    curve = make_catalog_curve("ellipse", {"a": A, "b": B})
    for theta in RNG.uniform(0.0, TWO_PI, size=300):
        closed = ell.origin_frame_profile(PARAMS, float(theta))
        generic = distance_kinematics(curve, Vec2(0.0, 0.0), float(theta))
        for x, y in ((closed.D, generic.D), (closed.dD, generic.dD),
                     (closed.d2D, generic.d2D),
                     (closed.rot_speed, generic.rot_speed)):
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1.0)


# -- focus frame ------------------------------------------------------------------

def test_focal_table_endpoint_columns():
    for theta, xi1, d1, d2 in ((0.0, A - C, 0.0, C),
                               (0.5 * math.pi, A, C, 0.0),
                               (math.pi, A + C, 0.0, -C)):
        sample = ell.focus_frame_profile(PARAMS, theta)
        assert abs(sample.xi1 - xi1) <= 1e-12
        assert abs(sample.d1 - d1) <= 1e-12
        assert abs(sample.d2 - d2) <= 1e-12


def test_focus_profile_matches_generic_kinematics():
    curve = make_catalog_curve("ellipse", {"a": A, "b": B})
    focus = Vec2(C, 0.0)
    for theta in RNG.uniform(0.0, TWO_PI, size=300):
        closed = ell.focus_frame_profile(PARAMS, float(theta)).kinematics
        generic = distance_kinematics(curve, focus, float(theta))
        for x, y in ((closed.D, generic.D), (closed.dD, generic.dD),
                     (closed.d2D, generic.d2D),
                     (closed.rot_speed, generic.rot_speed)):
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1.0)


def test_focus_derivatives_match_fd_chain():
    profile = ell.focus_profile(PARAMS)
    domain = (0.0, TWO_PI)
    for theta in RNG.uniform(0.1, TWO_PI - 0.1, size=200):
        theta = float(theta)
        fd1 = fd_derivative(profile.xi1, theta, 1, domain=domain)
        assert abs(profile.d1(theta) - fd1) <= 1e-6 * max(abs(fd1), 1.0)
        fd2 = fd_derivative(profile.d1, theta, 1, domain=domain)
        assert abs(profile.d2(theta) - fd2) <= 1e-6 * max(abs(fd2), 1.0)


def test_d3_transcription_matches_fd_of_d2():
    # validates the third-derivative formula transcription on a dense grid
    profile = ell.focus_profile(PARAMS)
    domain = (0.0, TWO_PI)
    for theta in RNG.uniform(0.05, TWO_PI - 0.05, size=1000):
        theta = float(theta)
        fd3 = fd_derivative(profile.d2, theta, 1, domain=domain)
        assert abs(profile.d3(theta) - fd3) <= 1e-5 * max(abs(fd3), 1.0)


@pytest.mark.parametrize("a", [2.0, 1.01, 10.0])
def test_focal_table_no_violations(a):
    report = ell.verify_focal_table(ell.EllipseParams(a, 1.0), grid_size=10000)
    assert report.ok
    assert report.violations == []
    assert report.endpoint_max_err <= 1e-12


@pytest.mark.parametrize("name, k", [(name, k) for name, intervals
                                     in ell._SIGN_PATTERN.items()
                                     for k in range(len(intervals))])
def test_focal_table_reports_a_flipped_sign(monkeypatch, name, k):
    pattern = dict(ell._SIGN_PATTERN)
    intervals = list(pattern[name])
    (lo_q, hi_q), sign = intervals[k]
    intervals[k] = ((lo_q, hi_q), -sign)
    pattern[name] = tuple(intervals)
    monkeypatch.setattr(ell, "_SIGN_PATTERN", pattern)
    report = ell.verify_focal_table(PARAMS, grid_size=10000)
    assert not report.ok
    assert report.violations
    lo, hi = lo_q * 0.5 * math.pi, hi_q * 0.5 * math.pi
    for vname, theta, value in report.violations:
        assert vname == name
        assert lo < theta < hi
        assert value * sign > 0.0


def test_focal_table_grid_minimum():
    with pytest.raises(BadParameters):
        ell.verify_focal_table(PARAMS, grid_size=10)


# -- averages and zeros --------------------------------------------------------------

def test_origin_average_speed_per_quadrant():
    half = 0.5 * math.pi
    for k in range(4):
        avg = ell.average_rotational_speed(PARAMS, "origin",
                                           (k * half, (k + 1) * half))
        assert abs(avg - 1.0) <= 1e-8


def test_focus_average_speed_per_half_period():
    for k in range(2):
        avg = ell.average_rotational_speed(PARAMS, "focus",
                                           (k * math.pi, (k + 1) * math.pi))
        assert abs(avg - 1.0) <= 1e-8


def test_full_period_average_is_one():
    avg = ell.average_rotational_speed(PARAMS, "origin", (0.0, TWO_PI))
    assert abs(avg - 1.0) <= 1e-8


def test_radial_acceleration_integrates_to_zero():
    # immediate from periodicity of the distance rate, in both frames
    for profile in (lambda th: ell.origin_frame_profile(PARAMS, th).d2D,
                    lambda th: ell.focus_frame_profile(PARAMS, th).d2):
        integral = adaptive_simpson(profile, 0.0, TWO_PI, tol=1e-10)
        assert abs(integral) <= 1e-8


def test_origin_zero_locations():
    roots = ell.accel_zero_locations(PARAMS, "origin")
    expected = ell.origin_zero_closed_form(PARAMS)
    assert len(roots) == 4
    for root, closed in zip(roots, expected):
        assert abs(root - closed) <= 1e-10


def test_focus_zero_locations():
    roots = ell.accel_zero_locations(PARAMS, "focus")
    assert len(roots) == 2
    assert abs(roots[0] - 0.5 * math.pi) <= 1e-10
    assert abs(roots[1] - 1.5 * math.pi) <= 1e-10


def test_near_circle_roots_approach_quarter_pi():
    params = ell.EllipseParams(1.001, 1.0)
    roots = ell.accel_zero_locations(params, "origin")
    base = math.atan(math.sqrt(params.a / params.b))
    assert abs(base - 0.25 * math.pi) <= 1e-3
    for root, closed in zip(roots, ell.origin_zero_closed_form(params)):
        assert abs(root - closed) <= 1e-10


def test_root_count_mismatch_detected():
    with pytest.raises(RootCountMismatch):
        from rotorkin.numerics import find_roots
        find_roots(math.sin, 0.1, TWO_PI - 0.1, expected=5)


# -- local rotating frame values -------------------------------------------------------

def test_remark_values_match_local_limits():
    curve = make_catalog_curve("ellipse", {"a": A, "b": B})
    for theta in RNG.uniform(0.0, TWO_PI, size=300):
        theta = float(theta)
        lim = local_limits(curve, theta)
        pp = ell.local_phi_prime(PARAMS, theta)
        ps = ell.local_psi_speed(PARAMS, theta)
        assert abs(lim.phi_prime - pp) <= 1e-12 * max(abs(pp), 1.0)
        assert abs(lim.psi_speed - ps) <= 1e-12 * max(abs(ps), 1.0)


def test_local_psi_speed_at_zero():
    assert ell.local_psi_speed(PARAMS, 0.0) == pytest.approx(1.0, abs=1e-15)


# -- CSV export ------------------------------------------------------------------------

def test_profile_csv(tmp_path):
    path = tmp_path / "profile.csv"
    assert cli.main(["ellipse", "--a", repr(A), "--b", repr(B),
                     "--samples", "11", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,xi1,d1,d2,d3,rot_speed_origin,rot_speed_focus"
    assert len(lines) == 12
    first = [float(cell) for cell in lines[1].split(",")]
    assert first[0] == 0.0
    assert abs(first[1] - (A - C)) <= 1e-15


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (2.3, 1.4), (5.0, 0.3)])
def test_profile_columns_equal_the_scalar_profiles(a, b):
    params = ell.EllipseParams(a, b)
    columns = ell.profile_columns(params, 401)
    assert len(columns) == len(ell.PROFILE_HEADER.split(","))
    assert all(column.shape == (401,) for column in columns)
    for row in zip(*(column.tolist() for column in columns)):
        theta = row[0]
        focus = ell.focus_frame_profile(params, theta)
        want = (theta, focus.xi1, focus.d1, focus.d2, focus.d3,
                ell.origin_frame_profile(params, theta).rot_speed,
                focus.kinematics.rot_speed)
        assert row[0] == theta
        for got, expected in zip(row[1:], want[1:]):
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * a)


@pytest.mark.parametrize("builder, profile", [
    (ell.origin_reconstruction_problem,
     lambda p, th: (ell.origin_frame_profile(p, th).d2D,
                    ell.origin_frame_profile(p, th).rot_speed)),
    (ell.focus_reconstruction_problem,
     lambda p, th: (ell.focus_frame_profile(p, th).d2,
                    ell.focus_frame_profile(p, th).kinematics.rot_speed)),
])
def test_reconstruction_data_is_the_scalar_closed_form(builder, profile):
    # the ellipse turns counterclockwise about both centers, so its signed
    # angular speed is the (unsigned) rotational speed of the profile
    params = ell.EllipseParams(2.3, 1.4)
    thetas = np.linspace(0.0, TWO_PI, 97)
    d2, omega = builder(params).data(thetas)
    assert omega.shape == (97, 1)
    for k, theta in enumerate(thetas.tolist()):
        d2_scalar, speed = profile(params, theta)
        assert d2[k] == pytest.approx(d2_scalar, rel=1e-12, abs=1e-12)
        assert omega[k, 0] == pytest.approx(speed, rel=1e-12, abs=1e-12)


def test_oversized_axes_are_bad_parameters():
    for a, b in ((math.inf, 1.0), (1e200, 1e100)):
        with pytest.raises(BadParameters):
            ell.EllipseParams(a, b)
