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
from typing import Iterable

import numpy as np

from .errors import (AxisProjectionDegenerate, CenterOnCurve, CurvesIntersect,
                     DegenerateFrame, DegenerateProjection, OutOfDomain,
                     SingularPoint)
from .numerics import fd1_wide
from .plane import _finite_rows, _over_samples, _radial_rates
from .vec import EPS_NORM, Vec3, triple_product

# coordinate planes of the projected speeds A, B, C (xOy, xOz, yOz), and
# the basis planes 1-2, 1-3, 2-3 of the chord speeds
_PLANES = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class SpaceKinematics:
    D: float
    dD: float
    d2D: float
    speed_a: float  # xOy-plane projection
    speed_b: float  # xOz
    speed_c: float  # yOz


@dataclass(frozen=True)
class DerivativePlaneLimits:
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


def _space_kinematics(rel: Vec3, rp: Vec3, rpp: Vec3, t: float, coincident,
                      projection) -> SpaceKinematics:
    """Distance rates and coordinate-plane projected rotational speeds of
    the vector `rel` with derivatives rp, rpp; raises `coincident` when rel
    vanishes and `projection` when one of its projections does."""
    d = rel.norm()
    if d <= EPS_NORM:
        raise coincident(f"distance vanishes at t={t:g}")
    dD, d2D = _radial_rates(d, rel.dot(rp), rp.dot(rp), rel.dot(rpp))
    return SpaceKinematics(
        D=d, dD=dD, d2D=d2D,
        speed_a=_pair_speed(rel.x, rel.y, rp.x, rp.y, "xOy", t, projection),
        speed_b=_pair_speed(rel.x, rel.z, rp.x, rp.z, "xOz", t, projection),
        speed_c=_pair_speed(rel.y, rel.z, rp.y, rp.z, "yOz", t, projection),
    )


def space_distance_kinematics(curve, t: float) -> SpaceKinematics:
    """Distance rate/second derivative about the origin and the three
    coordinate-plane projected rotational speeds."""
    return _space_kinematics(curve.point(t), curve.derivative(t, 1),
                             curve.derivative(t, 2), t, CenterOnCurve,
                             AxisProjectionDegenerate)


def _distance_rates(r, rp, rpp):
    """D = |r|, dD and d2D over rows of r, r' and r'' (arrays (n, 3)),
    with the operations of the scalar API."""
    (x, y, z), (xp, yp, zp), (xpp, ypp, zpp) = r.T, rp.T, rpp.T
    d = np.sqrt(x * x + y * y + z * z)
    return (d, *_radial_rates(d, x * xp + y * yp + z * zp,
                              xp * xp + yp * yp + zp * zp,
                              x * xpp + y * ypp + z * zpp))


def space_distance_kinematics_array(curve, ts) -> SpaceKinematics:
    """space_distance_kinematics at every parameter of `ts`, as one
    SpaceKinematics of arrays.  Degenerate samples raise what
    space_distance_kinematics raises at the first of them.

    Only closed-form curves are sampled on arrays; any other curve runs
    space_distance_kinematics once per sample.  Expression curves could
    be sampled on arrays too, but `perfbench/tests` pins 400
    `space.space_distance_kinematics` spans on a 400-sample
    `kin_expr_space` job, so they stay per sample until that pin is
    re-based (ROADMAP item 1, step 1).
    """
    def kernel(r, rp, rpp):
        d, dD, d2D = _distance_rates(r, rp, rpp)
        good = d > EPS_NORM
        speeds = []
        for i, j in _PLANES:
            cross, denom = _pair_terms(r[:, i], r[:, j], rp[:, i], rp[:, j])
            good &= denom > EPS_NORM ** 2
            speeds.append(np.abs(cross) / denom)
        out = SpaceKinematics(d, dD, d2D, *speeds)
        return out, good & _finite_rows(d, dD, d2D, *speeds)

    return _over_samples(curve, ts, kernel,
                         lambda t: space_distance_kinematics(curve, t),
                         sample=curve.forms is not None)


def pair_kinematics(curve_a, curve_b, t: float) -> SpaceKinematics:
    """Kinematics of the connecting vector from curve_a to curve_b at a
    shared parameter value."""
    return _space_kinematics(
        curve_b.point(t) - curve_a.point(t),
        curve_b.derivative(t, 1) - curve_a.derivative(t, 1),
        curve_b.derivative(t, 2) - curve_a.derivative(t, 2),
        t, CurvesIntersect, DegenerateProjection)


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


def derivative_plane_limits(curve, t: float) -> DerivativePlaneLimits:
    """Closed-form dt -> 0+ limits of the derivative-plane rotational
    velocities, plus the orientation sign of r' wedge r'' . r'''."""
    r1 = curve.derivative(t, 1)
    r2 = curve.derivative(t, 2)
    r3 = curve.derivative(t, 3)
    n1 = r1.norm()
    n2 = r2.norm()
    if n1 <= EPS_NORM:
        raise SingularPoint(f"r' vanishes at t={t:g}")
    if n2 <= EPS_NORM:
        raise SingularPoint(f"r'' vanishes at t={t:g}")
    trip = triple_product(r1, r2, r3)
    scale = n1 * n2 * r3.norm()
    if abs(trip) <= EPS_NORM * max(scale, 1.0):
        raise DegenerateFrame(
            f"r' wedge r'' . r''' vanishes at t={t:g}")
    psi12 = (r2 * (n1 * n1) - r1 * r1.dot(r2)) * (1.0 / (2.0 * n1 ** 3))
    psi23 = (r3 * (n2 * n2) - r2 * r2.dot(r3)) * (1.0 / (3.0 * n2 ** 3))
    return DerivativePlaneLimits(
        phi=n1,
        psi12=psi12,
        psi13=Vec3(0.0, 0.0, 0.0),
        psi23=psi23,
        epsilon=1 if trip > 0 else -1,
    )


def invariants(curve, t: float) -> InvariantTuple:
    lim = derivative_plane_limits(curve, t)
    return InvariantTuple(phi=lim.phi, s12=lim.psi12.norm(), s13=0.0,
                          s23=lim.psi23.norm(), epsilon=lim.epsilon)


# -- congruence ------------------------------------------------------------------

_CHAIN_NAMES = ("|r'|^2", "r'.r''", "|r''|^2", "r''.r'''", "|r'''|^2",
                "r'.r'''", "|r' x r''|", "(r' x r'' . r''')^2")


def _chain_from_invariants(curve, t: float, h: float) -> tuple[float, ...]:
    """Gram data reconstructed from the invariant functions alone, using
    wide-stencil derivatives of phi^2 and |r''|^2 along the parameter."""

    def phi2(s):
        return invariants(curve, s).phi ** 2

    def dot12(s):
        return 0.5 * fd1_wide(phi2, s, h)

    def norm2sq(s):
        inv = invariants(curve, s)
        return 4.0 * inv.s12 ** 2 * inv.phi ** 2 + dot12(s) ** 2 / inv.phi ** 2

    inv = invariants(curve, t)
    p2 = inv.phi ** 2
    d12 = dot12(t)
    r2sq = norm2sq(t)
    d23 = 0.5 * fd1_wide(norm2sq, t, h)
    r3sq = 9.0 * inv.s23 ** 2 * r2sq + d23 ** 2 / r2sq
    d13 = fd1_wide(dot12, t, h) - r2sq
    cross_sq = p2 * r2sq - d12 ** 2
    trip_sq = (cross_sq * r3sq
               - (d13 ** 2 * r2sq - 2.0 * d13 * d23 * d12 + d23 ** 2 * p2))
    return (p2, d12, r2sq, d23, r3sq, d13, math.sqrt(max(cross_sq, 0.0)),
            trip_sq)


def _chain_direct(curve, t: float) -> tuple[float, ...]:
    r1 = curve.derivative(t, 1)
    r2 = curve.derivative(t, 2)
    r3 = curve.derivative(t, 3)
    cross = r1.cross(r2)
    return (r1.dot(r1), r1.dot(r2), r2.dot(r2), r2.dot(r3), r3.dot(r3),
            r1.dot(r3), cross.norm(), cross.dot(r3) ** 2)


def verify_invariant_chain(curve, t: float, h: float = 1e-3) -> float:
    """Max relative error between the Gram chain reconstructed from the
    invariants and direct evaluation; exercises the derived relations that
    force equal curvature and torsion.

    Entries that vanish identically (e.g. r'.r'' on constant-speed curves)
    are measured against the chain's overall scale, not against zero.
    """
    recon = _chain_from_invariants(curve, t, h)
    direct = _chain_direct(curve, t)
    scale = max(abs(value) for value in direct)
    worst = 0.0
    for a, b in zip(recon, direct):
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), scale))
    return worst


def space_congruent(curve_a, curve_b, grid: Iterable[float],
                    tol_abs: float = 1e-9, tol_rel: float = 1e-9,
                    chain_tol: float = 1e-8,
                    chain_points: int = 5) -> SpaceCongruenceReport:
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
            if dev > tol_abs + tol_rel * max(abs(va), abs(vb)):
                congruent = False
    chain_err = 0.0
    lo, hi = min(grid), max(grid)
    pad = 0.05 * (hi - lo) if hi > lo else 0.0
    for k in range(chain_points):
        t = lo + pad + (hi - lo - 2 * pad) * (k + 0.5) / chain_points
        for curve in (curve_a, curve_b):
            chain_err = max(chain_err, verify_invariant_chain(curve, t))
    if chain_err > chain_tol:
        congruent = False
    return SpaceCongruenceReport(congruent=congruent, max_deviation=worst,
                                 argmax_t=worst_t, quantity=worst_q,
                                 chain_max_rel_err=chain_err)
