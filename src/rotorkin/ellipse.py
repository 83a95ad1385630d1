"""Focal and origin-frame kinematics of the ellipse (a cos t, b sin t).

Closed forms for the distance profile and rotational speed about the
center and about the focus (c, 0), the sign table of the focal distance
derivatives, average-speed integrals, zero locations of the radial
acceleration, and reconstruction data sets that regenerate the ellipse
from either frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .curves import _finite_real
from .errors import BadParameters, NonFiniteData
from .numerics import adaptive_simpson, find_roots
from .plane import PlaneKinematics
from .reconstruct import PlaneReconstructionProblem, _pointwise
from .vec import Vec2


@dataclass(frozen=True)
class EllipseParams:
    a: float
    b: float
    allow_circle: bool = False
    c: float = field(init=False)

    def __post_init__(self):
        for name in ("a", "b"):
            _finite_real(getattr(self, name), f"ellipse {name}")
        if self.allow_circle:
            ok = self.a >= self.b > 0
        else:
            ok = self.a > self.b > 0
        if not ok:
            raise BadParameters(
                f"ellipse needs a > b > 0, got a={self.a}, b={self.b}")
        try:
            c = math.sqrt(self.a ** 2 - self.b ** 2)
        except OverflowError:
            raise BadParameters(
                f"ellipse axis a={self.a} is too large") from None
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class FocusProfile:
    """Focal distance and its first three derivatives as callables of the
    eccentric-angle parameter."""
    xi1: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    d3: Callable[[float], float]


@dataclass(frozen=True)
class FocusFrameSample:
    kinematics: PlaneKinematics
    xi1: float
    d1: float
    d2: float
    d3: float


@dataclass(frozen=True)
class FocalTableReport:
    violations: list
    endpoint_max_err: float
    ok: bool


def _origin_forms(params: EllipseParams, theta, m=math):
    """D, dD, d2D, the rotational velocity (x, y) and the rotational speed
    about the center, at a float theta (m = math) or an array (m = numpy)."""
    a, b, c = params.a, params.b, params.c
    ct, st = m.cos(theta), m.sin(theta)
    q = a * a * ct * ct + b * b * st * st
    d = m.sqrt(q)
    s = a * b / q ** 1.5
    return (d, -c * c * st * ct / d,
            c * c * (-a * a * ct ** 4 + b * b * st ** 4) / q ** 1.5,
            (-b * st * s, a * ct * s), a * b / q)


def _focus_forms(params: EllipseParams, theta, m=math):
    """The focal distance xi1, its derivatives d1-d3 (each in the quotient
    form whose signs the table tracks, not pre-simplified), the rotational
    velocity (x, y) and the rotational speed about the focus (c, 0), at a
    float theta (m = math) or an array (m = numpy)."""
    a, b, c = params.a, params.b, params.c
    ct, st = m.cos(theta), m.sin(theta)
    q = (a * ct - c) ** 2 + b * b * st * st
    xi1 = m.sqrt(q)
    num1 = a * c * st - c * c * st * ct
    num2 = a * c * ct - c * c * m.cos(2.0 * theta)
    d2 = -num1 ** 2 / q ** 1.5 + num2 / xi1
    d3 = (3.0 * num1 ** 3 / q ** 2.5
          - 3.0 * num1 * num2 / q ** 1.5
          + (2.0 * c * c * m.sin(2.0 * theta) - a * c * st) / xi1)
    speed_num = b * (a - c * ct)
    s = speed_num / q ** 1.5
    return (xi1, num1 / xi1, d2, d3, (-b * st * s, (a * ct - c) * s),
            speed_num / xi1 ** 2)


def origin_frame_profile(params: EllipseParams, theta: float) -> PlaneKinematics:
    """Closed-form kinematics about the ellipse center."""
    d, dD, d2D, vel, speed = _origin_forms(params, theta)
    return PlaneKinematics(D=d, dD=dD, d2D=d2D, rot_velocity=Vec2(*vel),
                           rot_speed=speed)


def focus_profile(params: EllipseParams) -> FocusProfile:
    """xi1 and its derivatives as callables of theta."""
    def form(k):
        return lambda theta: _focus_forms(params, theta)[k]
    return FocusProfile(xi1=form(0), d1=form(1), d2=form(2), d3=form(3))


def focus_frame_profile(params: EllipseParams, theta: float) -> FocusFrameSample:
    """Kinematics about the focus (c, 0) plus the distance-profile values."""
    xi1, d1, d2, d3, vel, speed = _focus_forms(params, theta)
    kin = PlaneKinematics(D=xi1, dD=d1, d2D=d2, rot_velocity=Vec2(*vel),
                          rot_speed=speed)
    return FocusFrameSample(kinematics=kin, xi1=xi1, d1=d1, d2=d2, d3=d3)


# -- local rotating-frame values (chord-limit forms) ---------------------------

def local_phi_prime(params: EllipseParams, theta: float) -> float:
    a, b, c = params.a, params.b, params.c
    st, ct = math.sin(theta), math.cos(theta)
    return c * c * st * ct / math.sqrt(a * a * st * st + b * b * ct * ct)


def local_psi_speed(params: EllipseParams, theta: float) -> float:
    a, b = params.a, params.b
    st, ct = math.sin(theta), math.cos(theta)
    return a * b / (2.0 * (a * a * st * st + b * b * ct * ct))


# -- focal-profile endpoint values and sign table ------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi

# (theta, xi1, d1, d2); d3 has no tabulated endpoint values
_ENDPOINTS = (
    (0.0, lambda p: p.a - p.c, lambda p: 0.0, lambda p: p.c),
    (0.5 * math.pi, lambda p: p.a, lambda p: p.c, lambda p: 0.0),
    (math.pi, lambda p: p.a + p.c, lambda p: 0.0, lambda p: -p.c),
    (1.5 * math.pi, lambda p: p.a, lambda p: -p.c, lambda p: 0.0),
    (_TWO_PI, lambda p: p.a - p.c, lambda p: 0.0, lambda p: p.c),
)

# open intervals (in units of pi/2) and the required sign on each
_SIGN_PATTERN = {
    "d1": (((0.0, 2.0), +1), ((2.0, 4.0), -1)),
    "d2": (((0.0, 1.0), +1), ((1.0, 2.0), -1), ((2.0, 3.0), -1),
           ((3.0, 4.0), +1)),
    "d3": (((0.0, 2.0), -1), ((2.0, 4.0), +1)),
}


def verify_focal_table(params: EllipseParams, grid_size: int = 10000,
                       endpoint_tol: float = 1e-12) -> FocalTableReport:
    """Check the endpoint values and monotonicity/sign table of the focal
    distance derivatives on a dense grid; returns every violating theta."""
    if grid_size < 1000:
        raise BadParameters("grid_size must be at least 1000")
    profile = focus_profile(params)
    violations = []

    endpoint_err = 0.0
    for theta, *values in _ENDPOINTS:
        for name, fn, expected in zip(("xi1", "d1", "d2"),
                                      (profile.xi1, profile.d1, profile.d2),
                                      values):
            err = abs(fn(theta) - expected(params))
            endpoint_err = max(endpoint_err, err)
            if err > endpoint_tol:
                violations.append((f"{name}@{theta:.6g}", theta, err))

    fns = {"d1": profile.d1, "d2": profile.d2, "d3": profile.d3}
    quarter = 0.5 * math.pi
    for name, intervals in _SIGN_PATTERN.items():
        fn = fns[name]
        for (lo_q, hi_q), sign in intervals:
            lo, hi = lo_q * quarter, hi_q * quarter
            n = max(2, int(grid_size * (hi - lo) / _TWO_PI))
            for k in range(n):
                theta = lo + (hi - lo) * (k + 0.5) / n  # stay inside the open interval
                value = fn(theta)
                if value * sign <= 0.0:
                    violations.append((name, theta, value))
    violations.sort(key=lambda item: item[1])
    return FocalTableReport(violations=violations,
                         endpoint_max_err=endpoint_err,
                         ok=not violations)


def average_rotational_speed(params: EllipseParams, frame: str,
                             interval: tuple[float, float],
                             tol: float = 1e-10) -> float:
    """Mean rotational speed over the interval by adaptive Simpson."""
    lo, hi = interval
    if not (0.0 <= lo < hi <= _TWO_PI + 1e-12):
        raise BadParameters("interval must lie within [0, 2*pi]")
    if frame == "origin":
        fn = lambda th: origin_frame_profile(params, th).rot_speed
    elif frame == "focus":
        fn = lambda th: focus_frame_profile(params, th).kinematics.rot_speed
    else:
        raise BadParameters(f"frame must be 'origin' or 'focus', got {frame!r}")
    return adaptive_simpson(fn, lo, hi, tol=tol) / (hi - lo)


def accel_zero_locations(params: EllipseParams,
                         frame: str = "origin") -> list[float]:
    """Zeros of the radial acceleration profile on [0, 2*pi].

    The origin frame has four (at arctan sqrt(a/b) and its reflections),
    the focus frame two (at pi/2 and 3*pi/2); a different count raises.
    """
    if frame == "origin":
        fn = lambda th: origin_frame_profile(params, th).d2D
        expected = 4
    elif frame == "focus":
        fn = lambda th: focus_frame_profile(params, th).d2
        expected = 2
    else:
        raise BadParameters(f"frame must be 'origin' or 'focus', got {frame!r}")
    return find_roots(fn, 0.0, _TWO_PI, n_scan=8192, tol=1e-12,
                      expected=expected)


def origin_zero_closed_form(params: EllipseParams) -> list[float]:
    base = math.atan(math.sqrt(params.a / params.b))
    return [base, math.pi - base, math.pi + base, _TWO_PI - base]


# -- reconstruction data (origin and focus frames) -------------------------------

def origin_reconstruction_problem(params: EllipseParams,
                                  step: float | None = None
                                  ) -> PlaneReconstructionProblem:
    """Second-order distance data about the center plus the rotational
    velocity field of the center-to-point direction; integrating it
    regenerates the ellipse."""
    a = params.a

    def data(theta):
        _, _, d2D, rate, _ = _origin_forms(params, theta, np)
        return d2D, np.stack(rate, axis=1)[:, None, :]

    rhs_D, (rhs_e,) = _pointwise(data, 1)
    return PlaneReconstructionProblem(
        rhs_D=rhs_D, rhs_e=rhs_e, D0=a, e0=np.array([1.0, 0.0]),
        domain=(0.0, _TWO_PI),
        step=step if step is not None else _TWO_PI / 1e4,
        order=2, dD0=0.0, data=data)


def focus_reconstruction_problem(params: EllipseParams,
                                 step: float | None = None
                                 ) -> PlaneReconstructionProblem:
    """Same as origin_reconstruction_problem but about the focus (c, 0)."""
    a, c = params.a, params.c

    def data(theta):
        _, _, d2, _, rate, _ = _focus_forms(params, theta, np)
        return d2, np.stack(rate, axis=1)[:, None, :]

    rhs_D, (rhs_e,) = _pointwise(data, 1)
    return PlaneReconstructionProblem(
        rhs_D=rhs_D, rhs_e=rhs_e, D0=a - c, e0=np.array([1.0, 0.0]),
        domain=(0.0, _TWO_PI),
        step=step if step is not None else _TWO_PI / 1e4,
        order=2, dD0=0.0, center=np.array([c, 0.0]), data=data)


# -- CSV export -------------------------------------------------------------------

PROFILE_HEADER = "theta,xi1,d1,d2,d3,rot_speed_origin,rot_speed_focus"


def profile_rows(params: EllipseParams, n_samples: int) -> list[tuple]:
    """The PROFILE_HEADER columns at n_samples angles evenly spaced over
    [0, 2 pi], computed as whole columns and returned as rows.  A row with
    a non-finite cell raises NonFiniteData, its `t` the first such theta."""
    theta = (_TWO_PI * np.arange(n_samples) / (n_samples - 1)
             if n_samples > 1 else np.zeros(n_samples))
    with np.errstate(all="ignore"):  # non-finite rows raise below
        xi1, d1, d2, d3, _, speed_focus = _focus_forms(params, theta, np)
        speed_origin = _origin_forms(params, theta, np)[4]
    columns = (theta, xi1, d1, d2, d3, speed_origin, speed_focus)
    finite = np.isfinite(columns).all(axis=0)
    if not finite.all():
        exc = NonFiniteData(f"ellipse profile of a={params.a}, b={params.b} "
                            "is not finite")
        exc.t = float(theta[np.argmin(finite)])
        raise exc
    return list(zip(*(column.tolist() for column in columns)))
