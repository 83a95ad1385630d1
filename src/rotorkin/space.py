"""Rotating-frame kinematics of space curves.

The general frame at the origin yields a distance rate plus three
rotational speeds, one per coordinate-plane projection.  The local frame at
a point P uses {r', r'', r'''} as a (generally oblique) basis; expressing
the chord to a nearby point in that basis gives finite-step rotational
speeds in the three derivative planes, whose one-sided limits -- together
with the sign of the derivative triple product -- classify space curves up
to position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Iterable

import numpy as np

from .curves import CATALOG
from .errors import (AxisProjectionDegenerate, CenterOnCurve, CurvesIntersect,
                     DegenerateFrame, DegenerateProjection, OutOfDomain,
                     SingularPoint)
from .numerics import fd1_wide
from .plane import (_CONGRUENT_TOL, _finite_rows, _over_samples, _overflow,
                    _radial_rates)
from .vec import (_PLANES, EPS_NORM, Vec3, _checked, _norm, _sub,
                  triple_product)


@dataclass(frozen=True)
class SpaceKinematics:
    """Distance rates about the origin and projected rotational speeds."""
    D: float
    dD: float
    d2D: float
    speed_a: float  # xOy-plane projection
    speed_b: float  # xOz
    speed_c: float  # yOz


@dataclass(frozen=True)
class DerivativePlaneLimits:
    """The dt -> 0+ limits of the derivative-plane rotations."""
    phi: float
    psi12: Vec3
    psi13: Vec3  # the limit is the zero vector; stored for symmetry
    psi23: Vec3
    epsilon: int


@dataclass(frozen=True)
class InvariantTuple:
    """The five classification quantities: |r'|, the three derivative-plane
    rotational speed limits (the 1-3 one is identically zero), and the sign
    of r' wedge r'' . r'''."""
    phi: float
    s12: float
    s13: float
    s23: float
    epsilon: int


@dataclass(frozen=True)
class SpaceCongruenceReport:
    """The verdict, deviation and Gram chain error of space_congruent."""
    congruent: bool
    max_deviation: float
    argmax_t: float
    quantity: str
    chain_max_rel_err: float


def _pair_terms(u, v, du, dv):
    """u v' - u' v and u^2 + v^2 of the projection (u, v) with derivative
    (du, dv): its rotational speed is the first over the second.  Plain
    arithmetic, so it takes floats or numpy rows alike."""
    return u * dv - du * v, u * u + v * v


def _pair_speed(u: float, v: float, du: float, dv: float, label: str,
                t: float, error) -> float:
    cross, denom = _pair_terms(u, v, du, dv)
    if denom <= EPS_NORM ** 2:
        raise error(f"{label}-plane projection vanishes at t={t:g}")
    return abs(cross) / denom


def _dot(p: tuple, q: tuple) -> float:
    """p . q of component triples, as Vec3.dot takes it."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _cross(p: tuple, q: tuple) -> tuple:
    """p x q of component triples, with the finite check of Vec3.cross."""
    return _checked((p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
                     p[0] * q[1] - p[1] * q[0]))


def _space_kinematics(at, t: float, coincident,
                      projection) -> SpaceKinematics:
    """Distance rates and coordinate-plane projected rotational speeds of
    the vector rel = at(t, 0) with derivatives at(t, 1), at(t, 2) (component
    triples); raises `coincident` when rel vanishes, `projection` when one
    of its projections does, and NonFiniteData at t on an overflow."""
    try:
        rel, rp, rpp = at(t, 0), at(t, 1), at(t, 2)
        d = _norm(rel)
        if d <= EPS_NORM:
            raise coincident(f"distance vanishes at t={t:g}")
        dD, d2D = _radial_rates(d, _dot(rel, rp), _dot(rp, rp),
                                _dot(rel, rpp))
    except OverflowError as exc:
        raise _overflow(t) from exc
    (x, y, z), (xp, yp, zp) = rel, rp
    return SpaceKinematics(
        D=d, dD=dD, d2D=d2D,
        speed_a=_pair_speed(x, y, xp, yp, "xOy", t, projection),
        speed_b=_pair_speed(x, z, xp, zp, "xOz", t, projection),
        speed_c=_pair_speed(y, z, yp, zp, "yOz", t, projection),
    )


def space_distance_kinematics(curve, t: float) -> SpaceKinematics:
    """Distance rate/second derivative about the origin and the three
    coordinate-plane projected rotational speeds."""
    return _space_kinematics(curve._at, t, CenterOnCurve,
                             AxisProjectionDegenerate)


def _distance_rates(r, rp, rpp):
    """D = |r|, dD and d2D over rows of r, r' and r'' (arrays (n, 3)),
    with the operations of the scalar API."""
    (x, y, z), (xp, yp, zp), (xpp, ypp, zpp) = r.T, rp.T, rpp.T
    d = np.sqrt(x * x + y * y + z * z)
    return (d, *_radial_rates(d, x * xp + y * yp + z * zp,
                              xp * xp + yp * yp + zp * zp,
                              x * xpp + y * ypp + z * zpp))


def _space_kernel(r, rp, rpp):
    """space_distance_kinematics over rows of samples, and the mask of its
    good rows."""
    d, dD, d2D = _distance_rates(r, rp, rpp)
    good = d > EPS_NORM
    speeds = []
    for i, j in _PLANES:
        cross, denom = _pair_terms(r[:, i], r[:, j], rp[:, i], rp[:, j])
        good &= denom > EPS_NORM ** 2
        speeds.append(np.abs(cross) / denom)
    out = SpaceKinematics(d, dD, d2D, *speeds)
    return out, good & _finite_rows(d, dD, d2D, *speeds)


def _origin_frame(curve):
    """space_distance_kinematics as `plane._over_samples` takes it: the
    kernel, the scalar API, and whether the curve is sampled on arrays
    (see space_distance_kinematics_array)."""
    return (_space_kernel, lambda t: space_distance_kinematics(curve, t),
            curve.name in CATALOG)


def space_distance_kinematics_array(curve, ts) -> SpaceKinematics:
    """space_distance_kinematics at every parameter of `ts`, as one
    SpaceKinematics of arrays.  Degenerate samples raise what
    space_distance_kinematics raises at the first of them.

    Only catalog curves are sampled on arrays; any other curve runs
    space_distance_kinematics once per sample (`plane._block_fields`).
    Expression and moved curves could be sampled on arrays too, but
    `perfbench/tests` pins 400 `space.space_distance_kinematics` spans on
    a 400-sample (one-block) `kin_expr_space` job until ROADMAP item 1
    re-bases that pin.
    """
    return _over_samples(curve, ts, *_origin_frame(curve))


def pair_kinematics(curve_a, curve_b, t: float) -> SpaceKinematics:
    """Kinematics of the connecting vector from curve_a to curve_b at a
    shared parameter value."""
    return _space_kinematics(
        lambda s, k: _sub(curve_b._at(s, k), curve_a._at(s, k)), t,
        CurvesIntersect, DegenerateProjection)


# -- derivative-plane (local) machinery ----------------------------------------

def _chord_plane_speeds(basis: tuple[Vec3, Vec3, Vec3], chord: Vec3,
                        velocity: Vec3, labels: tuple[str, str, str],
                        t: float) -> tuple[float, float, float]:
    """Rotational speeds of the chord components in the three planes of a
    (generally oblique) basis, 1-2, 1-3 and 2-3, given the chord's
    derivative `velocity` with respect to the step.

    The chord and its velocity are decomposed in the basis and each plane
    keeps its two coordinates (a parallel projection along the remaining
    basis vector); the component u with derivative w turns at
    |(u.w) u - |u|^2 w| / |u|^3.
    """
    m = np.array([b.as_tuple() for b in basis])
    g, gp = np.linalg.solve(
        m.T, np.array([chord.as_tuple(), velocity.as_tuple()]).T).T
    speeds = []
    for label, (i, j) in zip(labels, _PLANES):
        u = g[i] * m[i] + g[j] * m[j]
        w = gp[i] * m[i] + gp[j] * m[j]
        norm_u = float(np.linalg.norm(u))
        if norm_u <= EPS_NORM:
            raise DegenerateProjection(
                f"{label} chord component vanishes at t={t:g}")
        speeds.append(float(np.linalg.norm((u @ w) * u - norm_u ** 2 * w))
                      / norm_u ** 3)
    return tuple(speeds)


def derivative_plane_speeds(curve, t: float, dt: float) -> tuple[float, float, float]:
    """Finite-step rotational speeds of the chord components in the three
    derivative planes (1-2, 1-3, 2-3) of the basis {r', r'', r'''} at
    chord step dt > 0."""
    if dt <= 0.0:
        raise OutOfDomain("chord step dt must be positive")
    r1 = curve.derivative(t, 1)
    r2 = curve.derivative(t, 2)
    r3 = curve.derivative(t, 3)
    scale = r1.norm() * r2.norm() * r3.norm()
    if abs(triple_product(r1, r2, r3)) <= EPS_NORM * max(scale, 1.0):
        raise DegenerateFrame(
            f"r', r'', r''' fail to span 3-space at t={t:g}")
    # d(chord)/d(dt) is the curve velocity at t+dt
    return _chord_plane_speeds(
        (r1, r2, r3), curve.point(t + dt) - curve.point(t),
        curve.derivative(t + dt, 1), ("plane 1-2", "plane 1-3", "plane 2-3"),
        t)


def _turn(a: tuple, b: tuple, norm_a: float, k: float) -> tuple:
    """(b |a|^2 - a (a . b)) / (k |a|^3) of component triples, with the
    finite check of each vector it forms."""
    s = norm_a * norm_a
    scaled = _checked((b[0] * s, b[1] * s, b[2] * s))
    s = _dot(a, b)
    rejection = _sub(scaled, _checked((a[0] * s, a[1] * s, a[2] * s)))
    s = 1.0 / (k * norm_a ** 3)
    return _checked((rejection[0] * s, rejection[1] * s, rejection[2] * s))


def _limit_terms(curve, t: float) -> tuple:
    """phi, psi12 and psi23 (component triples) and epsilon of
    derivative_plane_limits, raising what it raises."""
    r1, r2, r3 = curve._at(t, 1), curve._at(t, 2), curve._at(t, 3)
    n1 = _norm(r1)
    n2 = _norm(r2)
    if n1 <= EPS_NORM:
        raise SingularPoint(f"r' vanishes at t={t:g}")
    if n2 <= EPS_NORM:
        raise SingularPoint(f"r'' vanishes at t={t:g}")
    trip = _dot(_cross(r1, r2), r3)
    scale = n1 * n2 * _norm(r3)
    if abs(trip) <= EPS_NORM * max(scale, 1.0):
        raise DegenerateFrame(
            f"r' wedge r'' . r''' vanishes at t={t:g}")
    return (n1, _turn(r1, r2, n1, 2.0), _turn(r2, r3, n2, 3.0),
            1 if trip > 0 else -1)


def derivative_plane_limits(curve, t: float) -> DerivativePlaneLimits:
    """Closed-form dt -> 0+ limits of the derivative-plane rotational
    velocities, plus the orientation sign of r' wedge r'' . r'''."""
    phi, psi12, psi23, epsilon = _limit_terms(curve, t)
    return DerivativePlaneLimits(
        phi=phi,
        psi12=Vec3(*psi12),
        psi13=Vec3(0.0, 0.0, 0.0),
        psi23=Vec3(*psi23),
        epsilon=epsilon,
    )


def invariants(curve, t: float) -> InvariantTuple:
    phi, psi12, psi23, epsilon = _limit_terms(curve, t)
    return InvariantTuple(phi=phi, s12=_norm(psi12), s13=0.0,
                          s23=_norm(psi23), epsilon=epsilon)


# -- congruence ------------------------------------------------------------------

_CHAIN_POINTS = 5  # interior points where space_congruent checks the Gram
_CHAIN_TOL = 1e-8  # chain of each curve, and its largest relative error


def _chain_from_invariants(curve, t: float) -> tuple[float, ...]:
    """Gram data reconstructed from the invariant functions alone, using
    wide-stencil derivatives of phi^2 and |r''|^2 along the parameter.

    The nested stencils meet at the same parameters again, so the
    invariants and phi^2 differences are kept by parameter for the call.
    """
    invariants_at = cache(partial(invariants, curve))

    def phi2(s):
        return invariants_at(s).phi ** 2

    @cache
    def dot12(s):
        return 0.5 * fd1_wide(phi2, s)

    def norm2sq(s):
        inv = invariants_at(s)
        return 4.0 * inv.s12 ** 2 * inv.phi ** 2 + dot12(s) ** 2 / inv.phi ** 2

    inv = invariants_at(t)
    p2 = inv.phi ** 2
    d12 = dot12(t)
    r2sq = norm2sq(t)
    d23 = 0.5 * fd1_wide(norm2sq, t)
    r3sq = 9.0 * inv.s23 ** 2 * r2sq + d23 ** 2 / r2sq
    d13 = fd1_wide(dot12, t) - r2sq
    cross_sq = p2 * r2sq - d12 ** 2
    trip_sq = (cross_sq * r3sq
               - (d13 ** 2 * r2sq - 2.0 * d13 * d23 * d12 + d23 ** 2 * p2))
    return (p2, d12, r2sq, d23, r3sq, d13, math.sqrt(max(cross_sq, 0.0)),
            trip_sq)


def _chain_direct(curve, t: float) -> tuple[float, ...]:
    r1, r2, r3 = curve._at(t, 1), curve._at(t, 2), curve._at(t, 3)
    cross = _cross(r1, r2)
    return (_dot(r1, r1), _dot(r1, r2), _dot(r2, r2), _dot(r2, r3),
            _dot(r3, r3), _dot(r1, r3), _norm(cross), _dot(cross, r3) ** 2)


def verify_invariant_chain(curve, t: float) -> float:
    """Max relative error between the Gram chain reconstructed from the
    invariants and direct evaluation; exercises the derived relations that
    force equal curvature and torsion.

    Entries that vanish identically (e.g. r'.r'' on constant-speed curves)
    are measured against the chain's overall scale, not against zero.
    """
    recon = _chain_from_invariants(curve, t)
    direct = _chain_direct(curve, t)
    scale = max(abs(value) for value in direct)
    worst = 0.0
    for a, b in zip(recon, direct):
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), scale))
    return worst


def space_congruent(curve_a, curve_b,
                    grid: Iterable[float]) -> SpaceCongruenceReport:
    """Pointwise comparison of the five invariants over a shared grid.

    A sign mismatch is an immediate failure regardless of magnitudes.  The
    derived Gram chain is additionally validated on each curve at a few
    interior points as a self-consistency guard.
    """
    grid = list(grid)
    worst = 0.0
    worst_t = float("nan")
    worst_q = ""
    congruent = True
    for t in grid:
        ia = invariants(curve_a, t)
        ib = invariants(curve_b, t)
        if ia.epsilon != ib.epsilon:
            return SpaceCongruenceReport(False, float("inf"), t, "epsilon",
                                         float("nan"))
        for q, va, vb in (("phi", ia.phi, ib.phi),
                          ("s12", ia.s12, ib.s12),
                          ("s23", ia.s23, ib.s23)):
            dev = abs(va - vb)
            if dev > worst:
                worst, worst_t, worst_q = dev, t, q
            if dev > _CONGRUENT_TOL + _CONGRUENT_TOL * max(abs(va), abs(vb)):
                congruent = False
    chain_err = 0.0
    lo, hi = min(grid), max(grid)
    pad = 0.05 * (hi - lo) if hi > lo else 0.0
    for k in range(_CHAIN_POINTS):
        t = lo + pad + (hi - lo - 2 * pad) * (k + 0.5) / _CHAIN_POINTS
        for curve in (curve_a, curve_b):
            chain_err = max(chain_err, verify_invariant_chain(curve, t))
    if chain_err > _CHAIN_TOL:
        congruent = False
    return SpaceCongruenceReport(congruent=congruent, max_deviation=worst,
                                 argmax_t=worst_t, quantity=worst_q,
                                 chain_max_rel_err=chain_err)
