import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def focus_form(k):
    """The k-th value of the focus-frame closed forms as a callable of
    theta (0: xi1, 1-3: its derivatives)."""
    return lambda theta: ell._focus_forms(PARAMS, theta)[k]


def test_params_invariants():
    assert abs(PARAMS.c ** 2 + PARAMS.b ** 2 - PARAMS.a ** 2) <= 1e-12
    with pytest.raises(BadParameters):
        ell.EllipseParams(1.0, 2.0)
    with pytest.raises(BadParameters):
        ell.EllipseParams(1.0, 1.0)


# -- origin frame ----------------------------------------------------------------

def test_origin_profile_at_zero():
    d, dD, *_ = ell._origin_forms(PARAMS, 0.0)
    assert d == A
    assert dD == 0.0


def test_circle_limit_constant_speed():
    # EllipseParams holds a > b; the closed forms read only a, b and c
    circle = SimpleNamespace(a=1.5, b=1.5, c=0.0)
    for theta in (0.0, 1.0, 3.0, 5.5):
        _, dD, _, speed = ell._origin_forms(circle, theta)
        assert speed == pytest.approx(1.0, abs=1e-15)
        assert dD == pytest.approx(0.0, abs=1e-15)


def test_acceleration_vanishes_at_arctan_root():
    theta = math.atan(math.sqrt(A / B))
    assert abs(ell._origin_forms(PARAMS, theta)[2]) <= 1e-12


def test_origin_profile_matches_generic_kinematics():
    curve = make_catalog_curve("ellipse", {"a": A, "b": B})
    for theta in RNG.uniform(0.0, TWO_PI, size=300):
        d, dD, d2D, speed = ell._origin_forms(PARAMS, float(theta))
        generic = distance_kinematics(curve, Vec2(0.0, 0.0), float(theta))
        for x, y in ((d, generic.D), (dD, generic.dD), (d2D, generic.d2D),
                     (speed, generic.rot_speed)):
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1.0)


# -- focus frame ------------------------------------------------------------------

def test_focal_table_endpoint_columns():
    for theta, xi1, d1, d2 in ((0.0, A - C, 0.0, C),
                               (0.5 * math.pi, A, C, 0.0),
                               (math.pi, A + C, 0.0, -C)):
        got = ell._focus_forms(PARAMS, theta)
        assert abs(got[0] - xi1) <= 1e-12
        assert abs(got[1] - d1) <= 1e-12
        assert abs(got[2] - d2) <= 1e-12


def test_focus_profile_matches_generic_kinematics():
    curve = make_catalog_curve("ellipse", {"a": A, "b": B})
    focus = Vec2(C, 0.0)
    for theta in RNG.uniform(0.0, TWO_PI, size=300):
        xi1, d1, d2, _, speed = ell._focus_forms(PARAMS, float(theta))
        generic = distance_kinematics(curve, focus, float(theta))
        for x, y in ((xi1, generic.D), (d1, generic.dD), (d2, generic.d2D),
                     (speed, generic.rot_speed)):
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1.0)


def test_focus_derivatives_match_fd_chain():
    xi1, d1, d2 = (focus_form(k) for k in range(3))
    domain = (0.0, TWO_PI)
    for theta in RNG.uniform(0.1, TWO_PI - 0.1, size=200):
        theta = float(theta)
        fd1 = fd_derivative(xi1, theta, 1, domain=domain)
        assert abs(d1(theta) - fd1) <= 1e-6 * max(abs(fd1), 1.0)
        fd2 = fd_derivative(d1, theta, 1, domain=domain)
        assert abs(d2(theta) - fd2) <= 1e-6 * max(abs(fd2), 1.0)


def test_d3_transcription_matches_fd_of_d2():
    # validates the third-derivative formula transcription on a dense grid
    d2, d3 = focus_form(2), focus_form(3)
    domain = (0.0, TWO_PI)
    for theta in RNG.uniform(0.05, TWO_PI - 0.05, size=1000):
        theta = float(theta)
        fd3 = fd_derivative(d2, theta, 1, domain=domain)
        assert abs(d3(theta) - fd3) <= 1e-5 * max(abs(fd3), 1.0)


@pytest.mark.parametrize("a", [2.0, 1.01, 10.0])
def test_focal_table_no_violations(a):
    report = ell.verify_focal_table(ell.EllipseParams(a, 1.0))
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
    report = ell.verify_focal_table(PARAMS)
    assert not report.ok
    assert report.violations
    lo, hi = lo_q * 0.5 * math.pi, hi_q * 0.5 * math.pi
    for vname, theta, value in report.violations:
        assert vname == name
        assert lo < theta < hi
        assert value * sign > 0.0


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
    for forms in (ell._origin_forms, ell._focus_forms):
        integral = adaptive_simpson(lambda th: forms(PARAMS, th)[2],
                                    0.0, TWO_PI)
        assert abs(integral) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(a=st.floats(1.05, 10.0, exclude_min=True, exclude_max=True))
def test_average_speeds_and_zeros_property(a):
    # about either center the ellipse sweeps a quarter (origin) or half
    # (focus) turn between zeros of the radial acceleration
    params = ell.EllipseParams(a, 1.0)
    closed = {"origin": ell.origin_zero_closed_form(params),
              "focus": [0.5 * math.pi, 1.5 * math.pi]}
    for frame, zeros in closed.items():
        width = TWO_PI / len(zeros)
        for k in range(len(zeros)):
            avg = ell.average_rotational_speed(
                params, frame, (k * width, (k + 1) * width))
            assert abs(avg - 1.0) <= 1e-8
        roots = ell.accel_zero_locations(params, frame)
        assert len(roots) == len(zeros)
        for root, closed_root in zip(roots, zeros):
            assert abs(root - closed_root) <= 1e-10


@pytest.mark.parametrize("frame", ["center", "Origin", None, ["focus"]])
def test_unknown_frame_is_bad_parameters(frame):
    with pytest.raises(BadParameters):
        ell.average_rotational_speed(PARAMS, frame, (0.0, 1.0))
    with pytest.raises(BadParameters):
        ell.accel_zero_locations(PARAMS, frame)
    with pytest.raises(BadParameters):
        ell.reconstruction_problem(PARAMS, frame)


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

def local_phi_prime(params, theta):
    """The ellipse's chord-limit phi', in closed form: the oracle of
    local_limits."""
    a, b, c = params.a, params.b, params.c
    st, ct = math.sin(theta), math.cos(theta)
    return c * c * st * ct / math.sqrt(a * a * st * st + b * b * ct * ct)


def local_psi_speed(params, theta):
    """The ellipse's local rotational speed, in closed form."""
    a, b = params.a, params.b
    st, ct = math.sin(theta), math.cos(theta)
    return a * b / (2.0 * (a * a * st * st + b * b * ct * ct))


def test_remark_values_match_local_limits():
    curve = make_catalog_curve("ellipse", {"a": A, "b": B})
    for theta in RNG.uniform(0.0, TWO_PI, size=300):
        theta = float(theta)
        lim = local_limits(curve, theta)
        pp = local_phi_prime(PARAMS, theta)
        ps = local_psi_speed(PARAMS, theta)
        assert abs(lim.phi_prime - pp) <= 1e-12 * max(abs(pp), 1.0)
        assert abs(lim.psi_speed - ps) <= 1e-12 * max(abs(ps), 1.0)


def test_local_psi_speed_at_zero():
    assert local_psi_speed(PARAMS, 0.0) == pytest.approx(1.0, abs=1e-15)


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
        xi1, d1, d2, d3, speed_focus = ell._focus_forms(params, theta)
        want = (theta, xi1, d1, d2, d3, ell._origin_forms(params, theta)[3],
                speed_focus)
        assert row[0] == theta
        for got, expected in zip(row[1:], want[1:]):
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * a)


@pytest.mark.parametrize("frame, forms", [("origin", ell._origin_forms),
                                         ("focus", ell._focus_forms)])
def test_reconstruction_data_is_the_scalar_closed_form(frame, forms):
    # the ellipse turns counterclockwise about both centers, so its signed
    # angular speed is the (unsigned) rotational speed of the profile
    params = ell.EllipseParams(2.3, 1.4)
    thetas = np.linspace(0.0, TWO_PI, 97)
    d2, omega = ell.reconstruction_problem(params, frame).data(thetas)
    assert omega.shape == (97, 1)
    for k, theta in enumerate(thetas.tolist()):
        values = forms(params, theta)
        d2_scalar, speed = values[2], values[-1]
        assert d2[k] == pytest.approx(d2_scalar, rel=1e-12, abs=1e-12)
        assert omega[k, 0] == pytest.approx(speed, rel=1e-12, abs=1e-12)


def test_oversized_axes_are_bad_parameters():
    for a, b in ((math.inf, 1.0), (1e200, 1e100)):
        with pytest.raises(BadParameters):
            ell.EllipseParams(a, b)
