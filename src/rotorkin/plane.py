"""Rotating-frame kinematics of plane curves.

A rotating frame sits at a fixed center (the origin or an arbitrary point)
with its first axis tracking the direction to the moving point; the motion
decomposes into a distance rate along that axis plus a rotation of the axis.
A *local* frame sits on the curve itself and tracks the chord to a nearby
point; its one-sided limits give the local first derivative, its derivative,
and the local rotational velocity, which together classify plane curves up
to position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .errors import (CenterOnCurve, DegenerateChord, KinematicsError,
                     NonFiniteData, OutOfDomain, SingularPoint)
from .vec import EPS_NORM, Vec2

@dataclass(frozen=True)
class PlaneKinematics:
    D: float
    dD: float
    d2D: float
    rot_velocity: Vec2
    rot_speed: float


@dataclass(frozen=True)
class LocalLimits2:
    phi: float
    phi_prime: float
    psi: Vec2
    psi_speed: float


@dataclass(frozen=True)
class CongruenceReport:
    congruent: bool
    max_deviation: float
    argmax_t: float
    quantity: str


def _radial_rates(d, radial, speed_sq, accel_dot):
    """dD and d2D of the distance D = |rel| = d, from the dot products
    rel.rel' (`radial`), rel'.rel' (`speed_sq`) and rel.rel'' (`accel_dot`).

    Plain arithmetic, so it takes floats or numpy rows alike.
    """
    return (radial / d,
            -radial * radial / d ** 3 + (speed_sq + accel_dot) / d)


def _frame_terms(rel, rp, rpp, d):
    """dD, d2D, the rotational velocity (x, y) and the signed angular speed
    (rel x r') / |rel|^2 (the rotational speed is its absolute value) of the
    frame tracking rel = r - center, from the components (x, y) of rel, r'
    and r'' and from d = |rel|; floats or numpy rows alike."""
    (x, y), (xp, yp), (xpp, ypp) = rel, rp, rpp
    dD, d2D = _radial_rates(d, x * xp + y * yp, xp * xp + yp * yp,
                            x * xpp + y * ypp)
    w = x * yp - y * xp  # x y' - x' y with the center subtracted
    s = w / d ** 3
    velocity = (-y * s, x * s)
    del s  # on numpy rows: one column fewer held while the next is made
    return dD, d2D, velocity, w / (d * d)


def _local_terms(rp, rpp, phi):
    """phi', psi (x, y) and |psi| of the local frame, from the components
    of r' and r'' and from phi = |r'|; floats or numpy rows alike."""
    (xp, yp), (xpp, ypp) = rp, rpp
    cross = xp * ypp - yp * xpp
    s = cross / (2.0 * phi ** 3)
    return ((xp * xpp + yp * ypp) / phi, (-yp * s, xp * s),
            abs(cross) / (2.0 * phi * phi))


def _plane_kinematics(curve, center: Vec2, t: float,
                      coincident) -> PlaneKinematics:
    """The rotating frame at `center` tracking the curve point at t; raises
    `coincident` when that point is the center."""
    rel = curve.point(t) - center
    d = rel.norm()
    if d <= EPS_NORM:
        raise coincident(f"the curve meets the frame center at t={t:g}")
    dD, d2D, velocity, omega = _frame_terms(
        rel.as_tuple(), curve.derivative(t, 1).as_tuple(),
        curve.derivative(t, 2).as_tuple(), d)
    return PlaneKinematics(D=d, dD=dD, d2D=d2D,
                           rot_velocity=Vec2(*velocity), rot_speed=abs(omega))


def distance_kinematics(curve, center: Vec2, t: float) -> PlaneKinematics:
    """Distance rate, its derivative, and the rotational velocity of the
    center-to-point direction, all with respect to the curve parameter."""
    return _plane_kinematics(curve, center, t, CenterOnCurve)


def chord_kinematics(curve, t: float, dt: float) -> PlaneKinematics:
    """Finite-chord rates of the local rotating frame at P(t) tracking
    Q(t + dt), dt > 0: the frame at center P(t) evaluated at t + dt.  As
    dt -> 0+ these converge to local_limits."""
    if dt <= 0.0:
        raise OutOfDomain("chord step dt must be positive")
    return _plane_kinematics(curve, curve.point(t), t + dt, DegenerateChord)


def local_limits(curve, t: float) -> LocalLimits2:
    """Closed forms of the dt -> 0+ limits of the local rotating frame:
    phi (chord-rate limit), phi' (its derivative), and the local rotational
    velocity psi, which is half the curvature times the speed in magnitude
    and normal to the tangent."""
    rp = curve.derivative(t, 1)
    phi = rp.norm()
    if phi <= EPS_NORM:
        raise SingularPoint(f"curve is singular at t={t:g}")
    phi_prime, psi, psi_speed = _local_terms(
        rp.as_tuple(), curve.derivative(t, 2).as_tuple(), phi)
    return LocalLimits2(phi=phi, phi_prime=phi_prime, psi=Vec2(*psi),
                        psi_speed=psi_speed)


# -- the same frames over arrays of parameters ----------------------------

# rows the scalar API redoes before they are written to the result arrays;
# bounds the Python rows held at once
_REDO_BLOCK = 1024


def _over_samples(curve, ts, kernel, scalar, sample=True):
    """`kernel(r, r', r'')` over the curve's samples at ts; it returns the
    result dataclass with array fields and the mask of its good rows.

    Every other row is redone by `scalar(t)` in the order of ts, so the
    first failing one raises the scalar API's typed error, with its `t`
    set; when sampling fails, or `sample` is false, every row is.  A row
    that stays non-finite raises NonFiniteData, so no NaN or Inf leaves
    the array path.
    """
    ts = np.asarray(ts, dtype=float)
    samples = None
    if sample:
        try:
            samples = curve.sample(ts)
        except KinematicsError:
            pass
    if samples is None:
        samples = np.full((3, len(ts), curve.dim), np.nan)
    with np.errstate(all="ignore"):
        out, good = kernel(*samples)
    names = [f.name for f in fields(out)]
    redo = np.flatnonzero(~good)
    for start in range(0, len(redo), _REDO_BLOCK):
        block = redo[start:start + _REDO_BLOCK]
        rows = []
        for t in ts[block].tolist():
            try:
                rows.append(_finite_row(scalar, t, names))
            except KinematicsError as exc:
                exc.t = t
                raise
        for name, column in zip(names, zip(*rows)):
            getattr(out, name)[block] = column
    return out


def _finite_row(scalar, t, names):
    """The fields `names` of scalar(t), vectors as component tuples; each
    must be finite (a vector is, by construction)."""
    try:
        result = scalar(t)
    except OverflowError as exc:
        raise NonFiniteData(f"kinematics overflow at t={t:g}") from exc
    row = [getattr(result, name) for name in names]
    for k, value in enumerate(row):
        if isinstance(value, Vec2):
            row[k] = value.as_tuple()
        elif not math.isfinite(value):
            raise NonFiniteData(f"non-finite kinematics at t={t:g}")
    return row


def _finite_rows(*columns):
    return np.isfinite(np.column_stack(columns)).all(axis=1)


def distance_kinematics_array(curve, center: Vec2, ts) -> PlaneKinematics:
    """distance_kinematics at every parameter of `ts`, as one
    PlaneKinematics of arrays (rot_velocity of shape (n, 2)).  Degenerate
    samples raise what distance_kinematics raises at the first of them."""
    c = np.array(center.as_tuple())

    def kernel(r, rp, rpp):
        rel = r - c
        d = np.hypot(rel[:, 0], rel[:, 1])
        dD, d2D, velocity, omega = _frame_terms(rel.T, rp.T, rpp.T, d)
        speed = np.abs(omega)
        out = PlaneKinematics(D=d, dD=dD, d2D=d2D,
                              rot_velocity=np.column_stack(velocity),
                              rot_speed=speed)
        return out, (d > EPS_NORM) & _finite_rows(d, dD, d2D, *velocity, speed)

    return _over_samples(curve, ts, kernel,
                         lambda t: distance_kinematics(curve, center, t))


def local_limits_array(curve, ts) -> LocalLimits2:
    """local_limits at every parameter of `ts`, as one LocalLimits2 of
    arrays (psi of shape (n, 2)).  Singular samples raise what
    local_limits raises at the first of them."""
    def kernel(r, rp, rpp):
        phi = np.hypot(rp[:, 0], rp[:, 1])
        phi_prime, psi, psi_speed = _local_terms(rp.T, rpp.T, phi)
        out = LocalLimits2(phi=phi, phi_prime=phi_prime,
                           psi=np.column_stack(psi), psi_speed=psi_speed)
        return out, ((phi > EPS_NORM)
                     & _finite_rows(phi, phi_prime, *psi, psi_speed))

    return _over_samples(curve, ts, kernel,
                         lambda t: local_limits(curve, t))


def plane_congruent(curve_a, curve_b, grid: Iterable[float],
                    tol_abs: float = 1e-9,
                    tol_rel: float = 1e-9) -> CongruenceReport:
    """Pointwise comparison of (phi, |psi|) over a shared parameter grid.

    Equality of the two local invariants forces equal curvature, hence
    coincidence up to position in the plane.  |psi| is unsigned, so mirror
    images compare equal by design.
    """
    worst = 0.0
    worst_t = float("nan")
    worst_q = ""
    congruent = True
    for t in grid:
        la = local_limits(curve_a, t)
        lb = local_limits(curve_b, t)
        for q, va, vb in (("phi", la.phi, lb.phi),
                          ("psi_speed", la.psi_speed, lb.psi_speed)):
            dev = abs(va - vb)
            if dev > worst:
                worst, worst_t, worst_q = dev, t, q
            if dev > tol_abs + tol_rel * max(abs(va), abs(vb)):
                congruent = False
    return CongruenceReport(congruent=congruent, max_deviation=worst,
                            argmax_t=worst_t, quantity=worst_q)


def uniform_grid(domain: tuple[float, float], n: int,
                 shrink: float = 0.0) -> list[float]:
    """n evenly spaced parameters over the domain, optionally pulled in
    from both ends by a fraction `shrink` of the span."""
    t0, t1 = domain
    pad = shrink * (t1 - t0)
    t0, t1 = t0 + pad, t1 - pad
    if n == 1:
        return [0.5 * (t0 + t1)]
    return [t0 + (t1 - t0) * i / (n - 1) for i in range(n)]
