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
from functools import partial, reduce
from typing import Iterable

import numpy as np

from .csvout import _BLOCK
from .errors import (CenterOnCurve, DegenerateChord, KinematicsError,
                     NonFiniteData, OutOfDomain, SingularPoint)
from .vec import EPS_NORM, Vec2, _sub

@dataclass(frozen=True)
class PlaneKinematics:
    """Distance rates and rotation of the frame at a fixed center."""
    D: float
    dD: float
    d2D: float
    rot_velocity: Vec2
    rot_speed: float


@dataclass(frozen=True)
class LocalLimits2:
    """The dt -> 0+ limits of a plane curve's local rotating frame."""
    phi: float
    phi_prime: float
    psi: Vec2
    psi_speed: float


@dataclass(frozen=True)
class CongruenceReport:
    """The verdict and largest deviation of plane_congruent."""
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


def _plane_kinematics(curve, center: tuple, t: float,
                      coincident) -> PlaneKinematics:
    """The rotating frame at `center` (x, y) tracking the curve point at t;
    raises `coincident` when that point is the center."""
    rel = _sub(curve._at(t, 0), center)
    d = math.hypot(*rel)
    if d <= EPS_NORM:
        raise coincident(f"the curve meets the frame center at t={t:g}")
    dD, d2D, velocity, omega = _frame_terms(rel, curve._at(t, 1),
                                            curve._at(t, 2), d)
    return PlaneKinematics(D=d, dD=dD, d2D=d2D,
                           rot_velocity=Vec2(*velocity), rot_speed=abs(omega))


def _overflow(t: float) -> NonFiniteData:
    """The error of a float ** past the largest float at t, `t` set."""
    exc = NonFiniteData(f"kinematics overflow at t={t:g}")
    exc.t = t
    return exc


def distance_kinematics(curve, center: Vec2, t: float) -> PlaneKinematics:
    """Distance rate, its derivative, and the rotational velocity of the
    center-to-point direction, all with respect to the curve parameter."""
    try:
        return _plane_kinematics(curve, center.as_tuple(), t, CenterOnCurve)
    except OverflowError as exc:
        raise _overflow(t) from exc


def chord_kinematics(curve, t: float, dt: float) -> PlaneKinematics:
    """Finite-chord rates of the local rotating frame at P(t) tracking
    Q(t + dt), dt > 0: the frame at center P(t) evaluated at t + dt.  As
    dt -> 0+ these converge to local_limits."""
    if dt <= 0.0:
        raise OutOfDomain("chord step dt must be positive")
    try:
        return _plane_kinematics(curve, curve._at(t, 0), t + dt,
                                 DegenerateChord)
    except OverflowError as exc:
        raise _overflow(t) from exc


def local_limits(curve, t: float) -> LocalLimits2:
    """Closed forms of the dt -> 0+ limits of the local rotating frame:
    phi (chord-rate limit), phi' (its derivative), and the local rotational
    velocity psi, which is half the curvature times the speed in magnitude
    and normal to the tangent."""
    try:
        rp = curve._at(t, 1)
        phi = math.hypot(*rp)
        if phi <= EPS_NORM:
            raise SingularPoint(f"curve is singular at t={t:g}")
        phi_prime, psi, psi_speed = _local_terms(rp, curve._at(t, 2), phi)
    except OverflowError as exc:
        raise _overflow(t) from exc
    return LocalLimits2(phi=phi, phi_prime=phi_prime, psi=Vec2(*psi),
                        psi_speed=psi_speed)


# -- the same frames over arrays of parameters ----------------------------

class _Unsampled(KinematicsError):
    """Sampling a block raised: every row takes the scalar API."""


def _block_fields(curve, ts, kernel, scalar, names, sample):
    """The fields `names` at the parameters ts of one block, as arrays: the
    kernel's over the curve's samples, each row that it marks bad redone by
    scalar(t) in the order of ts (`_scalar_rows`); with `sample` false,
    every row scalar(t)'s.  Sampling that raises raises _Unsampled."""
    if not sample:
        return [np.array(column, dtype=float)
                for column in zip(*_scalar_rows(scalar, ts.tolist(), names))]
    with np.errstate(all="ignore"):  # bad rows are redone
        try:
            samples = curve.sample(ts)
        except KinematicsError as exc:
            raise _Unsampled(str(exc)) from exc
        out, good = kernel(*samples)
    columns = [getattr(out, name) for name in names]
    bad = np.flatnonzero(~good)
    for i, row in zip(bad, _scalar_rows(scalar, ts[bad].tolist(), names)):
        for column, value in zip(columns, row):
            column[i] = value
    return columns


def _settled(emit, curve, n, ts_of, kernel, scalar, names, sample):
    """emit((n, block)), the block source (`csvout`) of n rows whose block(k)
    is ts_of(k) and the fields `names` there (`_block_fields`), under the
    rule of every array path: when sampling any block raises, every row is
    scalar(t)'s.  So emit runs again on the scalar rows when a block is
    _Unsampled, or raises another KinematicsError while a pass that only
    samples finds a block that does not sample; else the error propagates,
    the first failing row's when emit takes the blocks in order."""
    def block(sample, k):
        ts = ts_of(k)
        return (ts, *_block_fields(curve, ts, kernel, scalar, names, sample))

    try:
        return emit((n, partial(block, sample)))
    except _Unsampled:
        pass
    except KinematicsError:
        try:
            with np.errstate(all="ignore"):
                for k in range(-(-n // _BLOCK) if sample else 0):
                    curve.sample(ts_of(k))
        except KinematicsError:
            pass
        else:  # every block samples: the error stands
            raise
    return emit((n, partial(block, False)))


def _over_samples(curve, ts, kernel, scalar, sample=True):
    """`kernel(r, r', r'')` over the curve's samples at ts under the rule
    of `_settled`, one block at a time into columns of the full length:
    the result dataclass with array fields.  A bad row raises the scalar
    API's typed error, with its `t` set, and a row that stays non-finite
    raises NonFiniteData, so no NaN or Inf leaves the array path."""
    ts = np.asarray(ts, dtype=float)
    with np.errstate(all="ignore"):  # one NaN row gives the field shapes
        like, _ = kernel(*np.full((3, 1, curve.dim), np.nan))
    names = [f.name for f in fields(like)]
    columns = [np.empty(ts.shape + getattr(like, name).shape[1:])
               for name in names]

    def fill(rows):
        for k in range(-(-len(ts) // _BLOCK)):
            for column, values in zip(columns, rows[1](k)[1:]):
                column[k * _BLOCK:(k + 1) * _BLOCK] = values

    _settled(fill, curve, len(ts), lambda k: ts[k * _BLOCK:(k + 1) * _BLOCK],
             kernel, scalar, names, sample)
    return type(like)(*columns)


def _grid_blocks(emit, curve, n, names, kernel, scalar, sample=True):
    """`_settled` over uniform_grid(curve.domain, n), with its bits: block k
    holds the grid's rows k * _BLOCK to (k + 1) * _BLOCK."""
    _settled(emit, curve, n,
             lambda k: _grid_rows(curve.domain, n, np.arange(
                 k * _BLOCK, min(n, (k + 1) * _BLOCK))),
             kernel, scalar, names, sample)


def _scalar_rows(scalar, ts, names):
    """The fields `names` of scalar(t), one row per float t of ts, vectors
    as component tuples.  A non-finite field (a vector is finite) raises
    NonFiniteData; any error's `t` is the failing t."""
    rows = []
    for t in ts:
        try:
            result = scalar(t)
            row = [getattr(result, name) for name in names]
            for k, value in enumerate(row):
                if isinstance(value, Vec2):
                    row[k] = value.as_tuple()
                elif not math.isfinite(value):
                    raise NonFiniteData(f"non-finite kinematics at t={t:g}")
        except KinematicsError as exc:
            exc.t = t
            raise
        rows.append(row)
    return rows


def _finite_rows(*columns):
    """The mask of the rows where every column is finite; stacks none."""
    return reduce(np.logical_and, map(np.isfinite, columns))


def _distance_frame(curve, center: Vec2):
    """distance_kinematics about `center` as `_over_samples` takes it: the
    kernel over rows of samples, the scalar API, and True (sampled)."""
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

    return kernel, lambda t: distance_kinematics(curve, center, t), True


def distance_kinematics_array(curve, center: Vec2, ts) -> PlaneKinematics:
    """distance_kinematics at every parameter of `ts`, as one
    PlaneKinematics of arrays (rot_velocity of shape (n, 2)).  Degenerate
    samples raise what distance_kinematics raises at the first of them."""
    return _over_samples(curve, ts, *_distance_frame(curve, center))


def _local_kernel(r, rp, rpp):
    """local_limits over rows of samples, and the mask of its good rows."""
    phi = np.hypot(rp[:, 0], rp[:, 1])
    phi_prime, psi, psi_speed = _local_terms(rp.T, rpp.T, phi)
    out = LocalLimits2(phi=phi, phi_prime=phi_prime,
                       psi=np.column_stack(psi), psi_speed=psi_speed)
    return out, ((phi > EPS_NORM)
                 & _finite_rows(phi, phi_prime, *psi, psi_speed))


def _local_frame(curve):
    """local_limits as `_over_samples` takes it (see `_distance_frame`)."""
    return _local_kernel, lambda t: local_limits(curve, t), True


def local_limits_array(curve, ts) -> LocalLimits2:
    """local_limits at every parameter of `ts`, as one LocalLimits2 of
    arrays (psi of shape (n, 2)).  Singular samples raise what
    local_limits raises at the first of them."""
    return _over_samples(curve, ts, *_local_frame(curve))


# plane_congruent and space_congruent fail a sample whose deviation exceeds
# _CONGRUENT_TOL plus _CONGRUENT_TOL times the larger of the two values
_CONGRUENT_TOL = 1e-9


def plane_congruent(curve_a, curve_b,
                    grid: Iterable[float]) -> CongruenceReport:
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
            if dev > _CONGRUENT_TOL + _CONGRUENT_TOL * max(abs(va), abs(vb)):
                congruent = False
    return CongruenceReport(congruent=congruent, max_deviation=worst,
                            argmax_t=worst_t, quantity=worst_q)


def uniform_grid(domain: tuple[float, float], n: int,
                 shrink: float = 0.0) -> np.ndarray:
    """n evenly spaced parameters over the domain (n = 1: its midpoint),
    optionally pulled in from both ends by a fraction `shrink` of the span;
    a row whose product with the span overflows takes its fraction first."""
    return _grid_rows(domain, n, np.arange(n), shrink)


def _grid_rows(domain, n, k, shrink=0.0) -> np.ndarray:
    """Rows k (an int array) of uniform_grid(domain, n, shrink), with its
    bits."""
    t0, t1 = domain
    pad = shrink * (t1 - t0)
    t0, t1 = t0 + pad, t1 - pad
    if n == 1:
        return np.full(len(k), 0.5 * (t0 + t1))
    with np.errstate(over="ignore"):  # (t1 - t0) * k can pass the largest float
        ts = t0 + (t1 - t0) * k / (n - 1)
    over = np.isinf(ts)
    ts[over] = t0 + (t1 - t0) * (k[over] / (n - 1))
    return ts
