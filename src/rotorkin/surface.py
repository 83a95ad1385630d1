"""Kinematics of curves lying on parametric surfaces.

A chart curve is a plane curve x = u(t), y = v(t) in chart coordinates;
composed with a surface chart it is a space curve;
its first three t-derivatives expand over the natural frame {r_1, r_2, n}
through the metric, the second fundamental form, and the Christoffel
symbols.  The local rotating frame of the composed curve then yields
rotational speed limits in the tangent plane and in the two mixed planes
(r_1, n) and (r_2, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .curves import PlaneCurve, SpaceCurve, _finite_real, _widened
from .errors import (BadParameters, DegenerateProjection, IrregularNet,
                     OutOfDomain, SingularPoint)
from .space import (SpaceKinematics, _chord_plane_speeds,
                    space_distance_kinematics)
from .vec import EPS_NORM, Vec2, Vec3, unit_vector


@dataclass(frozen=True)
class Surface:
    """Chart r(u, v) with analytic partial derivatives to order 3.

    Partials are stored as callables (u, v) -> Vec3 keyed by multi-index
    strings 'u', 'v', 'uu', 'uv', 'vv', 'uuu', 'uuv', 'uvv', 'vvv'.
    """
    chart: Callable[[float, float], Vec3]
    partials: dict
    domain: tuple[tuple[float, float], tuple[float, float]]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_bounds", tuple(map(_widened, self.domain)))

    def point(self, u: float, v: float) -> Vec3:
        (u0, u1), (v0, v1) = self._bounds
        if not (u0 <= u <= u1 and v0 <= v <= v1):
            raise OutOfDomain(f"(u, v)=({u:g}, {v:g}) outside the chart domain")
        return self.chart(u, v)


def chart_curve(u: Callable[[float], float], v: Callable[[float], float],
                domain: tuple[float, float],
                u_derivs: Optional[tuple] = None,
                v_derivs: Optional[tuple] = None,
                name: str = "") -> PlaneCurve:
    """The chart curve (u(t), v(t)) as a plane curve x = u, y = v.  Its
    derivatives are analytic when both (d1, d2, d3) tuples are given, and
    finite differences of the position otherwise."""
    def pair(fu, fv):
        return lambda t: Vec2(fu(t), fv(t))
    derivs = (tuple(map(pair, u_derivs, v_derivs)) if u_derivs and v_derivs
              else (None, None, None))
    return PlaneCurve(pair(u, v), domain, *derivs, name=name)


@dataclass(frozen=True)
class SurfaceGeometry:
    """First/second fundamental forms, Christoffel symbols, their partials,
    and the unit normal at one chart point."""
    g: np.ndarray          # (2, 2)
    g_inv: np.ndarray      # (2, 2)
    L: np.ndarray          # (2, 2)
    Gamma: np.ndarray      # (2, 2, 2), [k, i, j]
    Gamma_partials: np.ndarray  # (2, 2, 2, 2), [l, k, i, j] = d_l Gamma^k_ij
    L_partials: np.ndarray      # (2, 2, 2), [k, i, j] = d_k L_ij
    n: Vec3
    r1: Vec3
    r2: Vec3


# (u, v) multi-indices (a, b) of the partials, by order; key "u" * a + "v" * b
_ORDERS = tuple(tuple((n - b, b) for b in range(n + 1)) for n in range(4))
# for order n, the index array [i, j, ...] -> b, the number of v's among the
# derivative indices (0 is u, 1 is v): the partials are symmetric
_V_COUNTS = tuple(np.indices((2,) * n).sum(axis=0) for n in range(4))


def _partial_array(surface: Surface, u: float, v: float, n: int) -> np.ndarray:
    """The order-n partials at (u, v) as an array [i, j, ..., xyz]."""
    rows = np.array([surface.partials["u" * a + "v" * b](u, v).as_tuple()
                     for a, b in _ORDERS[n]])
    return rows[_V_COUNTS[n]]


def surface_geometry(surface: Surface, u: float, v: float) -> SurfaceGeometry:
    """All natural-frame data at (u, v); raises IrregularNet when r_u, r_v
    fail to span the tangent plane."""
    r1v = surface.partials["u"](u, v)
    r2v = surface.partials["v"](u, v)
    # first[i] = r_i, second[i, j] = r_ij, third[i, j, k] = r_ijk
    first = np.array((r1v.as_tuple(), r2v.as_tuple()))
    second = _partial_array(surface, u, v, 2)
    third = _partial_array(surface, u, v, 3)

    cross = r1v.cross(r2v)
    if cross.norm() <= EPS_NORM * max(r1v.norm() * r2v.norm(), 1.0):
        raise IrregularNet(f"coordinate net degenerate at (u, v)=({u:g}, {v:g})")
    n = unit_vector(cross)
    n_arr = np.array(n.as_tuple())

    g = np.einsum("id,jd->ij", first, first)
    g_inv = np.linalg.inv(g)
    L = second @ n_arr
    # dg[l, i, j] = d_l g_ij = r_il . r_j + r_i . r_jl
    half = np.einsum("ild,jd->lij", second, first)
    dg = half + half.transpose(0, 2, 1)
    # ddg[l, m, i, j] = d_l d_m g_ij
    half = (np.einsum("imld,jd->lmij", third, first)
            + np.einsum("imd,jld->lmij", second, second))
    ddg = half + half.transpose(0, 1, 3, 2)

    # A[m, i, j] = d_i g_mj + d_j g_mi - d_m g_ij, and its partials dA
    A = np.einsum("imj->mij", dg) + np.einsum("jmi->mij", dg) - dg
    dA = (np.einsum("limj->lmij", ddg) + np.einsum("ljmi->lmij", ddg)
          - ddg)
    Gamma = 0.5 * np.einsum("km,mij->kij", g_inv, A)
    dg_inv = -g_inv @ dg @ g_inv
    Gamma_partials = 0.5 * (np.einsum("lkm,mij->lkij", dg_inv, A)
                            + np.einsum("km,lmij->lkij", g_inv, dA))

    # Weingarten: n_k = -sum_{l,m} L_kl g^{lm} r_m
    n_partial = -np.einsum("kl,lm,md->kd", L, g_inv, first)
    L_partials = (np.einsum("ijkd,d->kij", third, n_arr)
                  + np.einsum("ijd,kd->kij", second, n_partial))

    return SurfaceGeometry(g=g, g_inv=g_inv, L=L, Gamma=Gamma,
                           Gamma_partials=Gamma_partials,
                           L_partials=L_partials, n=n, r1=r1v, r2=r2v)


def _jet(curve: PlaneCurve, t: float, order: int) -> list:
    """(u, v) and its first `order` derivatives at t, as float pairs."""
    w = curve.point(t)
    pairs = [(w.x, w.y)]
    for k in range(1, order + 1):
        w = curve.derivative(t, k)
        pairs.append((w.x, w.y))
    return pairs


def chart_curve_derivatives(surface: Surface, curve: PlaneCurve,
                            t: float) -> tuple[Vec3, Vec3, Vec3, Vec3]:
    """Position and derivatives to order 3 of the composed curve, expanded
    over {r_1, r_2, n} via the natural-frame equations (the order-3
    expansion includes Christoffel partials, Gamma*Gamma, L*L*g^-1, and
    L-partial contractions)."""
    (u, v), *rest = _jet(curve, t, 3)
    du, ddu, dddu = map(np.array, rest)
    geo = surface_geometry(surface, u, v)
    basis = np.stack([np.array(geo.r1.as_tuple()), np.array(geo.r2.as_tuple())])
    n_arr = np.array(geo.n.as_tuple())
    G, L, dG, dL = geo.Gamma, geo.L, geo.Gamma_partials, geo.L_partials

    pos = surface.point(u, v)
    d1 = du @ basis

    gam_dudu = np.einsum("kij,i,j->k", G, du, du)
    ii_dudu = float(np.einsum("ij,i,j->", L, du, du))
    d2 = (gam_dudu + ddu) @ basis + ii_dudu * n_arr

    tangential = (np.einsum("lkij,i,j,l->k", dG, du, du, du)
                  + 2.0 * np.einsum("kij,i,j->k", G, ddu, du)
                  + np.einsum("kij,i,j->k", G, du, ddu)
                  + np.einsum("mij,kml,i,j,l->k", G, G, du, du, du)
                  - np.einsum("ij,lm,mk,i,j,l->k", L, L, geo.g_inv, du, du, du)
                  + dddu)
    normal = (float(np.einsum("kij,kl,i,j,l->", G, L, du, du, du))
              + float(np.einsum("ijk,i,j,k->", dL.transpose(1, 2, 0), du, du, du))
              + 2.0 * float(np.einsum("ij,i,j->", L, ddu, du))
              + float(np.einsum("ij,i,j->", L, du, ddu)))
    d3 = tangential @ basis + normal * n_arr

    def vec(arr):
        return Vec3(float(arr[0]), float(arr[1]), float(arr[2]))

    return (pos, vec(d1), vec(d2), vec(d3))


def composed_space_curve(surface: Surface, curve: PlaneCurve) -> SpaceCurve:
    """The composed curve t -> r(u(t), v(t)) as a SpaceCurve whose analytic
    derivatives come from the direct chain rule on chart partials -- an
    independent route from chart_curve_derivatives."""
    p = surface.partials

    def pos(t):
        return surface.point(*curve.point(t).as_tuple())

    def d1(t):
        (u, v), (up, vp) = _jet(curve, t, 1)
        return p["u"](u, v) * up + p["v"](u, v) * vp

    def d2(t):
        (u, v), (up, vp), (upp, vpp) = _jet(curve, t, 2)
        return (p["uu"](u, v) * (up * up) + p["uv"](u, v) * (2.0 * up * vp)
                + p["vv"](u, v) * (vp * vp)
                + p["u"](u, v) * upp + p["v"](u, v) * vpp)

    def d3(t):
        (u, v), (up, vp), (upp, vpp), (uppp, vppp) = _jet(curve, t, 3)
        return (p["uuu"](u, v) * up ** 3
                + p["uuv"](u, v) * (3.0 * up * up * vp)
                + p["uvv"](u, v) * (3.0 * up * vp * vp)
                + p["vvv"](u, v) * vp ** 3
                + p["uu"](u, v) * (3.0 * up * upp)
                + p["uv"](u, v) * (3.0 * (upp * vp + up * vpp))
                + p["vv"](u, v) * (3.0 * vp * vpp)
                + p["u"](u, v) * uppp + p["v"](u, v) * vppp)

    return SpaceCurve(position=pos, domain=curve.domain,
                      d1=d1, d2=d2, d3=d3,
                      name=f"{surface.name}+{curve.name}")


def surface_distance_kinematics(surface: Surface, curve: PlaneCurve,
                                t: float) -> SpaceKinematics:
    """Distance rate about the origin and coordinate-plane projected
    rotational speeds of the composed curve: its space kinematics."""
    return space_distance_kinematics(composed_space_curve(surface, curve), t)


def surface_local_first_derivative(surface: Surface, curve: PlaneCurve,
                                   t: float) -> float:
    """|r_u u' + r_v v'|; its square is the first fundamental form applied
    to (u', v')."""
    return composed_space_curve(surface, curve).derivative(t, 1).norm()


def surface_chord_speeds(surface: Surface, curve: PlaneCurve, t: float,
                         dt: float) -> tuple[float, float, float]:
    """Finite-step rotational speeds of the chord components in the three
    natural-frame planes (r1-r2, r1-n, r2-n) at chord step dt > 0."""
    if dt <= 0.0:
        raise OutOfDomain("chord step dt must be positive")
    geo = surface_geometry(surface, *curve.point(t).as_tuple())
    composed = composed_space_curve(surface, curve)
    return _chord_plane_speeds(
        (geo.r1, geo.r2, geo.n), composed.point(t + dt) - composed.point(t),
        composed.derivative(t + dt, 1), ("r1-r2", "r1-n", "r2-n"), t)


def surface_plane_rot_limits(surface: Surface, curve: PlaneCurve, t: float,
                             components: str = "abc"
                             ) -> tuple[float | None, float | None, float | None]:
    """dt -> 0+ rotational speed limits of the chord components:

    - tangent plane ('a'): a metric contraction of the geodesic-equation
      residual (vanishes exactly on geodesics),
    - r1-n and r2-n planes ('b', 'c'): second fundamental form contracted
      with the chart velocity, over 2 |u^i' r_i|.

    The mixed-plane limits each require their chart velocity component to
    be nonzero; `components` selects which are computed (the rest are
    returned as None), so a degenerate unrequested component does not raise.
    """
    (u, v), *rest = _jet(curve, t, 2)
    up, upp = map(np.array, rest)
    geo = surface_geometry(surface, u, v)

    psi_a = psi_b = psi_c = None
    ii = float(np.einsum("ij,i,j->", geo.L, up, up))
    if "a" in components:
        speed_sq = float(np.einsum("ij,i,j->", geo.g, up, up))
        if speed_sq <= EPS_NORM ** 2:
            raise SingularPoint(f"composed curve singular at t={t:g}")
        phi = math.sqrt(speed_sq)
        # geodesic-equation residual a^k = u''^k + Gamma^k_ij u'^i u'^j
        a = upp + np.einsum("kij,i,j->k", geo.Gamma, up, up)
        inner_ua = float(np.einsum("ij,i,j->", geo.g, up, a))
        c = inner_ua * up - speed_sq * a
        psi_a = 0.5 / phi ** 3 * math.sqrt(
            max(float(np.einsum("ij,i,j->", geo.g, c, c)), 0.0))
    if "b" in components:
        denom = abs(up[0]) * geo.r1.norm()
        if denom <= EPS_NORM:
            raise DegenerateProjection(
                f"chart velocity u' vanishes at t={t:g}")
        psi_b = 0.5 * abs(ii) / denom
    if "c" in components:
        denom = abs(up[1]) * geo.r2.norm()
        if denom <= EPS_NORM:
            raise DegenerateProjection(
                f"chart velocity v' vanishes at t={t:g}")
        psi_c = 0.5 * abs(ii) / denom
    return (psi_a, psi_b, psi_c)


# -- surface catalog -------------------------------------------------------------

def _partials(make: Callable[[int, int], Callable]) -> dict:
    """The nine partials make(a, b) = d^a_u d^b_v r, keyed "u"*a + "v"*b."""
    return {"u" * a + "v" * b: make(a, b)
            for n in (1, 2, 3) for a, b in _ORDERS[n]}


# cos and its derivatives as (function, sign): cos, -sin, -cos, sin; sin is
# the same cycle three steps on
_CYCLE = ((math.cos, 1.0), (math.sin, -1.0), (math.cos, -1.0), (math.sin, 1.0))


def _cos_derivatives(scale: float, shift: int = 0) -> tuple:
    """f, f', f'', f''' of f = scale * cos (shift 0) or scale * sin (3)."""
    return tuple(lambda v, fn=fn, c=scale * sign: c * fn(v)
                 for fn, sign in (_CYCLE[(shift + k) % 4] for k in range(4)))


def _revolution(name, profile, v_range, **params) -> Surface:
    """The surface of revolution c + (rho(v) cos u, rho(v) sin u, h(v)) over
    u in [0, 2 pi], v in v_range (do Carmo 1976, 2-3).  Every parameter must
    be a finite number; the center is (cx, cy, cz) and profile(**rest)
    returns the derivatives (rho, rho', rho'', rho''') and (h, ..., h''')."""
    params = {key: _finite_real(value, f"{name}: {key}")
              for key, value in params.items()}
    cx, cy, cz = (params.pop(key, 0.0) for key in ("cx", "cy", "cz"))
    rho, height = profile(**params)
    cos, sin, rho0, h0 = math.cos, math.sin, rho[0], height[0]

    def chart(u, v):
        q = rho0(v)
        return Vec3(cx + q * cos(u), cy + q * sin(u), cz + h0(v))

    def make_partial(a, b):
        # d^a_u (cos u, sin u) taken from the cycle once, here
        (fx, sx), (fy, sy) = _CYCLE[a], _CYCLE[(a + 3) % 4]
        p, h = rho[b], height[b] if a == 0 else (lambda v: 0.0)

        def r_ab(u, v):
            q = p(v)
            return Vec3(sx * q * fx(u), sy * q * fy(u), h(v))
        return r_ab

    return Surface(chart=chart, partials=_partials(make_partial),
                   domain=((0.0, 2.0 * math.pi), v_range), name=name)


def _sphere_profile(radius=1.0):
    if radius <= 0:
        raise BadParameters("sphere needs radius > 0")
    return _cos_derivatives(radius), _cos_derivatives(radius, 3)


def _torus_profile(R=2.0, r=0.5):
    if not (R > r > 0):
        raise BadParameters("torus needs R > r > 0")
    rho = (lambda v: R + r * math.cos(v),) + _cos_derivatives(r)[1:]
    return rho, _cos_derivatives(r, 3)


def _cylinder_profile(radius=1.0):
    if radius <= 0:
        raise BadParameters("cylinder needs radius > 0")
    zero = lambda v: 0.0  # noqa: E731
    return ((lambda v: radius, zero, zero, zero),
            (lambda v: v, lambda v: 1.0, zero, zero))


def _poly2_partial(coeffs: dict, au: int, av: int):
    """Partial d^au_u d^av_v of f(u, v) = sum c_ij u^i v^j, where coeffs
    maps (i, j) to c_ij."""
    terms = [(c * math.perm(i, au) * math.perm(j, av), i - au, j - av)
             for (i, j), c in coeffs.items() if i >= au and j >= av]
    return lambda u, v: sum(fac * u ** i * v ** j for fac, i, j in terms)


def _graph(coeffs=None, **inline):
    if not isinstance(coeffs, (dict, type(None))):
        raise BadParameters(f"graph: coeffs must be an object, got {coeffs!r}")
    c = {}
    for key, value in {**(coeffs or {}), **inline}.items():
        if (len(key) != 3 or key[0] != "c" or not key[1:].isdecimal()
                or int(key[1]) + int(key[2]) > 3):
            raise BadParameters(
                f"graph coefficient {key!r}: expected cIJ with I+J <= 3")
        c[int(key[1]), int(key[2])] = _finite_real(value, f"graph: {key}")
    c = c or {(0, 0): 0.0}

    def make_partial(a, b):
        # r = (u, v, f(u, v))
        x, y = float((a, b) == (1, 0)), float((a, b) == (0, 1))
        fz = _poly2_partial(c, a, b)
        return lambda u, v: Vec3(x, y, fz(u, v))

    f0 = _poly2_partial(c, 0, 0)
    return Surface(chart=lambda u, v: Vec3(u, v, f0(u, v)),
                   partials=_partials(make_partial),
                   domain=((-2.0, 2.0), (-2.0, 2.0)), name="graph")


_SURFACES = {
    "sphere": partial(_revolution, "sphere", _sphere_profile, (-1.2, 1.2)),
    "torus": partial(_revolution, "torus", _torus_profile,
                     (0.0, 2.0 * math.pi)),
    "cylinder": partial(_revolution, "cylinder", _cylinder_profile,
                        (-2.0, 2.0)),
    "graph": _graph,
    "plane": _graph,
}


def make_surface(kind: str, params: dict | None = None) -> Surface:
    builder = _SURFACES.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise BadParameters(f"no surface catalog entry named {kind!r}")
    try:
        return builder(**(params or {}))
    except TypeError as exc:
        raise BadParameters(f"{kind}: {exc}") from exc


def surface_from_spec(record: dict) -> Surface:
    if not isinstance(record, dict) or "kind" not in record:
        raise BadParameters("surface record needs a 'kind' field")
    return make_surface(record["kind"], record.get("params"))
