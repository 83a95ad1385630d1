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

import numpy as np

from .csvout import _BLOCK
from .curves import _finite_real
from .errors import BadParameters, NonFiniteData
from .plane import _finite_rows, _grid_rows


@dataclass(frozen=True)
class EllipseParams:
    """The semi-axes a > b > 0 of an ellipse and its focal distance c."""
    a: float
    b: float
    c: float = field(init=False)

    def __post_init__(self):
        for name in ("a", "b"):
            _finite_real(getattr(self, name), f"ellipse {name}")
        if not self.a > self.b > 0:
            raise BadParameters(
                f"ellipse needs a > b > 0, got a={self.a}, b={self.b}")
        try:
            c = math.sqrt(self.a ** 2 - self.b ** 2)
        except OverflowError:
            raise BadParameters(
                f"ellipse axis a={self.a} is too large") from None
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class FocalTableReport:
    """The violations and endpoint error of verify_focal_table."""
    violations: list
    endpoint_max_err: float
    ok: bool


def _origin_forms(params: EllipseParams, theta, m=math):
    """D, dD, d2D and the rotational speed about the center (also the
    signed angular speed: the ellipse turns counterclockwise), at a float
    theta (m = math) or an array (m = numpy)."""
    a, b, c = params.a, params.b, params.c
    ct, st = m.cos(theta), m.sin(theta)
    q = a * a * ct * ct + b * b * st * st
    d = m.sqrt(q)
    return (d, -c * c * st * ct / d,
            c * c * (-a * a * ct ** 4 + b * b * st ** 4) / q ** 1.5, a * b / q)


def _focus_forms(params: EllipseParams, theta, m=math):
    """The focal distance xi1, its derivatives d1-d3 (each in the quotient
    form whose signs the table tracks, not pre-simplified) and the
    rotational speed about the focus (c, 0), which is also the signed
    angular speed, at a float theta (m = math) or an array (m = numpy)."""
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
    return xi1, num1 / xi1, d2, d3, b * (a - c * ct) / xi1 ** 2


# frame name -> (closed forms, center, zeros of the radial acceleration on
# [0, 2 pi]); every form puts the distance second derivative at index 2 and
# the rotational speed last
_FRAMES = {
    "origin": (_origin_forms, lambda params: (0.0, 0.0), 4),
    "focus": (_focus_forms, lambda params: (params.c, 0.0), 2),
}


def _frame(frame: str):
    try:
        return _FRAMES[frame]
    except (KeyError, TypeError):
        raise BadParameters(
            f"frame must be 'origin' or 'focus', got {frame!r}") from None


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
# where each derivative sits among the values of _focus_forms
_FORM_INDEX = {"d1": 1, "d2": 2, "d3": 3}
_GRID_SIZE = 10000  # sign-table points per full turn
_ENDPOINT_TOL = 1e-12


def verify_focal_table(params: EllipseParams) -> FocalTableReport:
    """Check the endpoint values and monotonicity/sign table of the focal
    distance derivatives on a dense grid; returns every violating theta."""
    violations = []
    endpoint_err = 0.0
    for theta, *values in _ENDPOINTS:
        for name, got, expected in zip(("xi1", "d1", "d2"),
                                       _focus_forms(params, theta), values):
            err = abs(got - expected(params))
            endpoint_err = max(endpoint_err, err)
            if err > _ENDPOINT_TOL:
                violations.append((f"{name}@{theta:.6g}", theta, err))

    quarter = 0.5 * math.pi
    for name, intervals in _SIGN_PATTERN.items():
        for (lo_q, hi_q), sign in intervals:
            lo, hi = lo_q * quarter, hi_q * quarter
            n = max(2, int(_GRID_SIZE * (hi - lo) / _TWO_PI))
            # midpoints: stay inside the open interval
            theta = lo + (hi - lo) * (np.arange(n) + 0.5) / n
            value = _focus_forms(params, theta, np)[_FORM_INDEX[name]]
            bad = value * sign <= 0.0
            violations.extend((name, th, v) for th, v in
                              zip(theta[bad].tolist(), value[bad].tolist()))
    violations.sort(key=lambda item: item[1])
    return FocalTableReport(violations=violations,
                            endpoint_max_err=endpoint_err, ok=not violations)


def average_rotational_speed(params: EllipseParams, frame: str,
                             interval: tuple[float, float]) -> float:
    """Mean rotational speed about the frame's center over the interval by
    adaptive Simpson."""
    from .numerics import adaptive_simpson
    lo, hi = interval
    if not (0.0 <= lo < hi <= _TWO_PI + 1e-12):
        raise BadParameters("interval must lie within [0, 2*pi]")
    forms = _frame(frame)[0]
    return adaptive_simpson(lambda th: forms(params, th)[-1], lo,
                            hi) / (hi - lo)


def accel_zero_locations(params: EllipseParams,
                         frame: str = "origin") -> list[float]:
    """Zeros of the radial acceleration profile on [0, 2*pi].

    The origin frame has four (at arctan sqrt(a/b) and its reflections),
    the focus frame two (at pi/2 and 3*pi/2); a different count raises.
    """
    from .numerics import find_roots
    forms, _, zeros = _frame(frame)
    return find_roots(lambda th: forms(params, th)[2], 0.0, _TWO_PI,
                      expected=zeros)


def origin_zero_closed_form(params: EllipseParams) -> list[float]:
    base = math.atan(math.sqrt(params.a / params.b))
    return [base, math.pi - base, math.pi + base, _TWO_PI - base]


# -- reconstruction data ------------------------------------------------------

def reconstruction_problem(params: EllipseParams, frame: str,
                           step: float | None = None,
                           domain: tuple[float, float] = (0.0, _TWO_PI)):
    """The PlaneReconstructionProblem of second-order distance data about
    the frame's center plus the signed angular speed of the center-to-point
    direction on `domain`, started from the frame's closed forms at its
    first angle; integrating it regenerates the ellipse."""
    from .reconstruct import PlaneReconstructionProblem
    forms, center, _ = _frame(frame)
    c = np.array(center(params))
    theta0 = domain[0]
    try:
        d0, dd0 = forms(params, theta0)[:2]
    except ValueError:  # math.cos of an infinite 2 theta0
        d0 = dd0 = math.inf
    if not (math.isfinite(d0) and math.isfinite(dd0)):
        raise NonFiniteData(f"start values are not finite at t={theta0:g}")
    point = np.array([params.a * math.cos(theta0),
                      params.b * math.sin(theta0)])

    def data(theta):
        values = forms(params, theta, np)
        return values[2], values[-1][:, None]

    return PlaneReconstructionProblem(
        D0=d0, e0=(point - c) / d0, domain=domain, step=step, order=2,
        dD0=dd0, center=c, data=data)


# -- CSV export -------------------------------------------------------------------

PROFILE_HEADER = "theta,xi1,d1,d2,d3,rot_speed_origin,rot_speed_focus"


def profile_columns(params: EllipseParams,
                    n_samples: int) -> tuple[np.ndarray, ...]:
    """The PROFILE_HEADER columns at n_samples angles evenly spaced over
    [0, 2 pi], computed one block of angles at a time (`_profile_block`).
    A row with a non-finite cell raises NonFiniteData, its `t` the first
    such theta."""
    columns = tuple(np.empty(n_samples) for _ in range(7))
    for k in range(-(-n_samples // _BLOCK)):
        for column, value in zip(columns,
                                 _profile_block(params, n_samples, k)):
            column[k * _BLOCK:(k + 1) * _BLOCK] = value
    return columns


def _profile_block(params: EllipseParams, n_samples: int, k: int) -> tuple:
    """The PROFILE_HEADER columns of rows k * _BLOCK to (k + 1) * _BLOCK
    of profile_columns(params, n_samples), with their bits: block k of its
    block source (`csvout`).  A row with a non-finite cell raises
    NonFiniteData, its `t` the first such theta."""
    rows = np.arange(k * _BLOCK, min(n_samples, (k + 1) * _BLOCK))
    theta = (_grid_rows((0.0, _TWO_PI), n_samples, rows) if n_samples > 1
             else np.zeros(len(rows)))
    with np.errstate(all="ignore"):  # non-finite rows raise below
        *focus, speed_focus = _focus_forms(params, theta, np)
        speed_origin = _origin_forms(params, theta, np)[-1]
    columns = (theta, *focus, speed_origin, speed_focus)
    finite = _finite_rows(*columns)
    if not finite.all():
        exc = NonFiniteData(f"ellipse profile of a={params.a}, "
                            f"b={params.b} is not finite")
        exc.t = float(theta[np.argmin(finite)])
        raise exc
    return columns
