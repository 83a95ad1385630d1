"""Kinematics of curves lying on parametric surfaces.

A chart curve (u(t), v(t)) composed with a surface chart is a space curve;
its first three t-derivatives expand over the natural frame {r_1, r_2, n}
through the metric, the second fundamental form, and the Christoffel
symbols.  The local rotating frame of the composed curve then yields
rotational speed limits in the tangent plane and in the two mixed planes
(r_1, n) and (r_2, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .curves import SpaceCurve
from .errors import (BadParameters, DegenerateProjection, IrregularNet,
                     OutOfDomain, SingularPoint)
from .numerics import default_step, fd_derivative
from .space import (SpaceKinematics, _chord_plane_speeds,
                    space_distance_kinematics)
from .vec import EPS_NORM, Vec3, unit_vector


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

    def contains(self, u: float, v: float) -> bool:
        (u0, u1), (v0, v1) = self.domain
        slack_u = 1e-12 * max(1.0, abs(u0), abs(u1))
        slack_v = 1e-12 * max(1.0, abs(v0), abs(v1))
        return (u0 - slack_u <= u <= u1 + slack_u
                and v0 - slack_v <= v <= v1 + slack_v)

    def point(self, u: float, v: float) -> Vec3:
        if not self.contains(u, v):
            raise OutOfDomain(f"(u, v)=({u:g}, {v:g}) outside the chart domain")
        return self.chart(u, v)

    def partial(self, key: str, u: float, v: float) -> Vec3:
        return self.partials[key](u, v)


@dataclass(frozen=True)
class ChartCurve:
    """Curve in chart coordinates with derivatives to order 3.

    u_fns / v_fns hold (value, d1, d2, d3); missing derivative slots fall
    back to finite differences of the value callable.
    """
    u_fns: tuple
    v_fns: tuple
    domain: tuple[float, float]
    name: str = ""

    def _eval(self, fns, t: float, order: int) -> float:
        fn = fns[order] if order < len(fns) else None
        if fn is not None:
            return fn(t)
        return fd_derivative(fns[0], t, order, h=default_step(order),
                             domain=self.domain)

    def uv(self, t: float) -> tuple[float, float]:
        if not (self.domain[0] <= t <= self.domain[1]):
            raise OutOfDomain(f"t={t:g} outside chart-curve domain")
        return self.u_fns[0](t), self.v_fns[0](t)

    def duv(self, t: float, order: int) -> tuple[float, float]:
        return self._eval(self.u_fns, t, order), self._eval(self.v_fns, t, order)


def chart_curve(u: Callable[[float], float], v: Callable[[float], float],
                domain: tuple[float, float],
                u_derivs: Optional[tuple] = None,
                v_derivs: Optional[tuple] = None,
                name: str = "") -> ChartCurve:
    u_derivs = tuple(u_derivs) if u_derivs else (None, None, None)
    v_derivs = tuple(v_derivs) if v_derivs else (None, None, None)
    return ChartCurve(u_fns=(u,) + u_derivs, v_fns=(v,) + v_derivs,
                      domain=domain, name=name)


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


def surface_geometry(surface: Surface, u: float, v: float) -> SurfaceGeometry:
    """All natural-frame data at (u, v); raises IrregularNet when r_u, r_v
    fail to span the tangent plane."""
    p = surface.partials
    r1v = p["u"](u, v)
    r2v = p["v"](u, v)
    first = [np.array(r1v.as_tuple()), np.array(r2v.as_tuple())]
    keys2 = (("uu", "uv"), ("uv", "vv"))
    second = [[np.array(p[keys2[i][j]](u, v).as_tuple()) for j in range(2)]
              for i in range(2)]
    key3 = {(0, 0, 0): "uuu", (0, 0, 1): "uuv", (0, 1, 1): "uvv",
            (1, 1, 1): "vvv"}
    third = np.empty((2, 2, 2, 3))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                idx = tuple(sorted((i, j, k)))
                third[i, j, k] = np.array(p[key3[idx]](u, v).as_tuple())

    cross = r1v.cross(r2v)
    if cross.norm() <= EPS_NORM * max(r1v.norm() * r2v.norm(), 1.0):
        raise IrregularNet(f"coordinate net degenerate at (u, v)=({u:g}, {v:g})")
    n = unit_vector(cross)
    n_arr = np.array(n.as_tuple())

    g = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            g[i, j] = first[i] @ first[j]
    g_inv = np.linalg.inv(g)

    L = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            L[i, j] = second[i][j] @ n_arr

    # dg[l, i, j] = d_l g_ij
    dg = np.empty((2, 2, 2))
    for l in range(2):
        for i in range(2):
            for j in range(2):
                dg[l, i, j] = second[i][l] @ first[j] + first[i] @ second[j][l]

    # ddg[l, m, i, j] = d_l d_m g_ij
    ddg = np.empty((2, 2, 2, 2))
    for l in range(2):
        for m in range(2):
            for i in range(2):
                for j in range(2):
                    ddg[l, m, i, j] = (third[i, m, l] @ first[j]
                                       + second[i][m] @ second[j][l]
                                       + second[i][l] @ second[j][m]
                                       + first[i] @ third[j, m, l])

    # A[m, i, j] = d_i g_mj + d_j g_mi - d_m g_ij
    A = np.empty((2, 2, 2))
    for m in range(2):
        for i in range(2):
            for j in range(2):
                A[m, i, j] = dg[i, m, j] + dg[j, m, i] - dg[m, i, j]
    Gamma = 0.5 * np.einsum("km,mij->kij", g_inv, A)

    dA = np.empty((2, 2, 2, 2))
    for l in range(2):
        for m in range(2):
            for i in range(2):
                for j in range(2):
                    dA[l, m, i, j] = (ddg[l, i, m, j] + ddg[l, j, m, i]
                                      - ddg[l, m, i, j])
    dg_inv = np.empty((2, 2, 2))
    for l in range(2):
        dg_inv[l] = -g_inv @ dg[l] @ g_inv
    Gamma_partials = 0.5 * (np.einsum("lkm,mij->lkij", dg_inv, A)
                            + np.einsum("km,lmij->lkij", g_inv, dA))

    # Weingarten: n_k = -sum_{l,m} L_kl g^{lm} r_m
    n_partial = -np.einsum("kl,lm,md->kd", L, g_inv,
                           np.stack(first))
    L_partials = np.empty((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                L_partials[k, i, j] = (third[i, j, k] @ n_arr
                                       + second[i][j] @ n_partial[k])

    return SurfaceGeometry(g=g, g_inv=g_inv, L=L, Gamma=Gamma,
                           Gamma_partials=Gamma_partials,
                           L_partials=L_partials, n=n, r1=r1v, r2=r2v)


def _curve_data(curve: ChartCurve, t: float):
    uv = curve.uv(t)
    du = np.array(curve.duv(t, 1))
    ddu = np.array(curve.duv(t, 2))
    dddu = np.array(curve.duv(t, 3))
    return uv, du, ddu, dddu


def chart_curve_derivatives(surface: Surface, curve: ChartCurve,
                            t: float) -> tuple[Vec3, Vec3, Vec3, Vec3]:
    """Position and derivatives to order 3 of the composed curve, expanded
    over {r_1, r_2, n} via the natural-frame equations (the order-3
    expansion includes Christoffel partials, Gamma*Gamma, L*L*g^-1, and
    L-partial contractions)."""
    (u, v), du, ddu, dddu = _curve_data(curve, t)
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


def composed_space_curve(surface: Surface, curve: ChartCurve) -> SpaceCurve:
    """The composed curve t -> r(u(t), v(t)) as a SpaceCurve whose analytic
    derivatives come from the direct chain rule on chart partials -- an
    independent route from chart_curve_derivatives."""
    p = surface.partials

    def pos(t):
        return surface.point(*curve.uv(t))

    def d1(t):
        (u, v) = curve.uv(t)
        up, vp = curve.duv(t, 1)
        return p["u"](u, v) * up + p["v"](u, v) * vp

    def d2(t):
        (u, v) = curve.uv(t)
        up, vp = curve.duv(t, 1)
        upp, vpp = curve.duv(t, 2)
        return (p["uu"](u, v) * (up * up) + p["uv"](u, v) * (2.0 * up * vp)
                + p["vv"](u, v) * (vp * vp)
                + p["u"](u, v) * upp + p["v"](u, v) * vpp)

    def d3(t):
        (u, v) = curve.uv(t)
        up, vp = curve.duv(t, 1)
        upp, vpp = curve.duv(t, 2)
        uppp, vppp = curve.duv(t, 3)
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


def surface_distance_kinematics(surface: Surface, curve: ChartCurve,
                                t: float) -> SpaceKinematics:
    """Distance rate about the origin and coordinate-plane projected
    rotational speeds of the composed curve: its space kinematics."""
    return space_distance_kinematics(composed_space_curve(surface, curve), t)


def surface_local_first_derivative(surface: Surface, curve: ChartCurve,
                                   t: float) -> float:
    """|r_u u' + r_v v'|; its square is the first fundamental form applied
    to (u', v')."""
    (u, v) = curve.uv(t)
    up, vp = curve.duv(t, 1)
    return (surface.partial("u", u, v) * up
            + surface.partial("v", u, v) * vp).norm()


def surface_chord_speeds(surface: Surface, curve: ChartCurve, t: float,
                         dt: float) -> tuple[float, float, float]:
    """Finite-step rotational speeds of the chord components in the three
    natural-frame planes (r1-r2, r1-n, r2-n) at chord step dt > 0."""
    if dt <= 0.0:
        raise OutOfDomain("chord step dt must be positive")
    geo = surface_geometry(surface, *curve.uv(t))
    composed = composed_space_curve(surface, curve)
    return _chord_plane_speeds(
        (geo.r1, geo.r2, geo.n), composed.point(t + dt) - composed.point(t),
        composed.derivative(t + dt, 1), ("r1-r2", "r1-n", "r2-n"), t)


def surface_plane_rot_limits(surface: Surface, curve: ChartCurve, t: float,
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
    (u, v) = curve.uv(t)
    up = np.array(curve.duv(t, 1))
    upp = np.array(curve.duv(t, 2))
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

def _sphere(radius=1.0, cx=0.0, cy=0.0, cz=0.0):
    if radius <= 0:
        raise BadParameters("sphere needs radius > 0")
    R = radius

    def mk(fx, fy, fz):
        return lambda u, v: Vec3(fx(u, v), fy(u, v), fz(u, v))

    cos, sin = math.cos, math.sin
    chart = mk(lambda u, v: cx + R * cos(v) * cos(u),
               lambda u, v: cy + R * cos(v) * sin(u),
               lambda u, v: cz + R * sin(v))
    partials = {
        "u": mk(lambda u, v: -R * cos(v) * sin(u),
                lambda u, v: R * cos(v) * cos(u),
                lambda u, v: 0.0),
        "v": mk(lambda u, v: -R * sin(v) * cos(u),
                lambda u, v: -R * sin(v) * sin(u),
                lambda u, v: R * cos(v)),
        "uu": mk(lambda u, v: -R * cos(v) * cos(u),
                 lambda u, v: -R * cos(v) * sin(u),
                 lambda u, v: 0.0),
        "uv": mk(lambda u, v: R * sin(v) * sin(u),
                 lambda u, v: -R * sin(v) * cos(u),
                 lambda u, v: 0.0),
        "vv": mk(lambda u, v: -R * cos(v) * cos(u),
                 lambda u, v: -R * cos(v) * sin(u),
                 lambda u, v: -R * sin(v)),
        "uuu": mk(lambda u, v: R * cos(v) * sin(u),
                  lambda u, v: -R * cos(v) * cos(u),
                  lambda u, v: 0.0),
        "uuv": mk(lambda u, v: R * sin(v) * cos(u),
                  lambda u, v: R * sin(v) * sin(u),
                  lambda u, v: 0.0),
        "uvv": mk(lambda u, v: R * cos(v) * sin(u),
                  lambda u, v: -R * cos(v) * cos(u),
                  lambda u, v: 0.0),
        "vvv": mk(lambda u, v: R * sin(v) * cos(u),
                  lambda u, v: R * sin(v) * sin(u),
                  lambda u, v: -R * cos(v)),
    }
    return Surface(chart=chart, partials=partials,
                   domain=((0.0, 2.0 * math.pi), (-1.2, 1.2)), name="sphere")


def _torus(R=2.0, r=0.5, cx=0.0, cy=0.0, cz=0.0):
    if not (R > r > 0):
        raise BadParameters("torus needs R > r > 0")
    cos, sin = math.cos, math.sin

    def w(v):
        return R + r * cos(v)

    def mk(fx, fy, fz):
        return lambda u, v: Vec3(fx(u, v), fy(u, v), fz(u, v))

    chart = mk(lambda u, v: cx + w(v) * cos(u),
               lambda u, v: cy + w(v) * sin(u),
               lambda u, v: cz + r * sin(v))
    partials = {
        "u": mk(lambda u, v: -w(v) * sin(u), lambda u, v: w(v) * cos(u),
                lambda u, v: 0.0),
        "v": mk(lambda u, v: -r * sin(v) * cos(u),
                lambda u, v: -r * sin(v) * sin(u),
                lambda u, v: r * cos(v)),
        "uu": mk(lambda u, v: -w(v) * cos(u), lambda u, v: -w(v) * sin(u),
                 lambda u, v: 0.0),
        "uv": mk(lambda u, v: r * sin(v) * sin(u),
                 lambda u, v: -r * sin(v) * cos(u),
                 lambda u, v: 0.0),
        "vv": mk(lambda u, v: -r * cos(v) * cos(u),
                 lambda u, v: -r * cos(v) * sin(u),
                 lambda u, v: -r * sin(v)),
        "uuu": mk(lambda u, v: w(v) * sin(u), lambda u, v: -w(v) * cos(u),
                  lambda u, v: 0.0),
        "uuv": mk(lambda u, v: r * sin(v) * cos(u),
                  lambda u, v: r * sin(v) * sin(u),
                  lambda u, v: 0.0),
        "uvv": mk(lambda u, v: r * cos(v) * sin(u),
                  lambda u, v: -r * cos(v) * cos(u),
                  lambda u, v: 0.0),
        "vvv": mk(lambda u, v: r * sin(v) * cos(u),
                  lambda u, v: r * sin(v) * sin(u),
                  lambda u, v: -r * cos(v)),
    }
    return Surface(chart=chart, partials=partials,
                   domain=((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
                   name="torus")


def _cylinder(radius=1.0, cx=0.0, cy=0.0, cz=0.0):
    if radius <= 0:
        raise BadParameters("cylinder needs radius > 0")
    R = radius
    cos, sin = math.cos, math.sin
    zero = lambda u, v: Vec3(0.0, 0.0, 0.0)
    partials = {
        "u": lambda u, v: Vec3(-R * sin(u), R * cos(u), 0.0),
        "v": lambda u, v: Vec3(0.0, 0.0, 1.0),
        "uu": lambda u, v: Vec3(-R * cos(u), -R * sin(u), 0.0),
        "uv": zero, "vv": zero,
        "uuu": lambda u, v: Vec3(R * sin(u), -R * cos(u), 0.0),
        "uuv": zero, "uvv": zero, "vvv": zero,
    }
    return Surface(
        chart=lambda u, v: Vec3(cx + R * cos(u), cy + R * sin(u), cz + v),
        partials=partials,
        domain=((0.0, 2.0 * math.pi), (-2.0, 2.0)), name="cylinder")


def _poly2_partial(coeffs: dict, au: int, av: int):
    """Partial d^au_u d^av_v of f(u, v) = sum c_ij u^i v^j (i + j <= 3)."""
    terms = []
    for key, c in coeffs.items():
        i, j = int(key[1]), int(key[2])
        if i < au or j < av:
            continue
        fac = float(c)
        for k in range(i, i - au, -1):
            fac *= k
        for k in range(j, j - av, -1):
            fac *= k
        terms.append((fac, i - au, j - av))

    def f(u, v):
        return sum(fac * u ** i * v ** j for fac, i, j in terms)
    return f


def _graph(coeffs=None, **inline):
    coeffs = dict(coeffs or {})
    coeffs.update(inline)
    if not coeffs:
        coeffs = {"c00": 0.0}
    for key, value in coeffs.items():
        if (len(key) != 3 or key[0] != "c" or not key[1:].isdigit()
                or int(key[1]) + int(key[2]) > 3):
            raise BadParameters(
                f"graph coefficient {key!r}: expected cIJ with I+J <= 3")
        coeffs[key] = float(value)

    def partial_vec(au, av):
        fz = _poly2_partial(coeffs, au, av)
        if (au, av) == (1, 0):
            return lambda u, v: Vec3(1.0, 0.0, fz(u, v))
        if (au, av) == (0, 1):
            return lambda u, v: Vec3(0.0, 1.0, fz(u, v))
        return lambda u, v: Vec3(0.0, 0.0, fz(u, v))

    f0 = _poly2_partial(coeffs, 0, 0)
    partials = {
        "u": partial_vec(1, 0), "v": partial_vec(0, 1),
        "uu": partial_vec(2, 0), "uv": partial_vec(1, 1),
        "vv": partial_vec(0, 2),
        "uuu": partial_vec(3, 0), "uuv": partial_vec(2, 1),
        "uvv": partial_vec(1, 2), "vvv": partial_vec(0, 3),
    }
    return Surface(chart=lambda u, v: Vec3(u, v, f0(u, v)),
                   partials=partials,
                   domain=((-2.0, 2.0), (-2.0, 2.0)), name="graph")


_SURFACES = {
    "sphere": _sphere,
    "torus": _torus,
    "cylinder": _cylinder,
    "graph": _graph,
    "plane": lambda **params: _graph(**params) if params else _graph(c00=0.0),
}


def make_surface(kind: str, params: dict | None = None) -> Surface:
    builder = _SURFACES.get(kind)
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
