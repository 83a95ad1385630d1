"""Parametric curve model: analytic or finite-difference derivatives to
order 3, a built-in catalog, reparametrization, and rigid transforms.

Curves are immutable after construction; evaluations are reentrant as long
as user-supplied callables are.  The domain is treated as uniformly smooth;
injectivity ("simple curve") is assumed, not checked, because it never
enters any computed formula.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as expr_mod
from .errors import (BadParameters, KinematicsError, NonMonotonic,
                     OrderUnsupported, OutOfDomain, UnknownCurve)
from .numerics import default_step, fd_derivative
from .vec import Vec2, Vec3


def _widened(domain: tuple[float, float]) -> tuple[float, float]:
    """The interval [t0, t1] widened by a slack that absorbs roundoff at
    the ends: what every curve and chart domain check accepts."""
    t0, t1 = domain
    slack = 1e-12 * max(1.0, abs(t0), abs(t1))
    return t0 - slack, t1 + slack


@dataclass(frozen=True)
class _Curve:
    position: Callable[[float], object]
    domain: tuple[float, float]
    d1: Optional[Callable[[float], object]] = None
    d2: Optional[Callable[[float], object]] = None
    d3: Optional[Callable[[float], object]] = None
    name: str = ""
    # closed forms of r and its first three derivatives: forms[k](t, m)
    # gives the components, floats for m = math and arrays for m = numpy
    forms: Optional[tuple] = None
    # expression curves: the array functions (expr.compile_tree) of the
    # components of r and of its first three derivatives, one tuple per order
    arrays: Optional[tuple] = None

    def __post_init__(self):
        t0, t1 = self.domain
        if not (t0 < t1 and math.isfinite(t1 - t0)):  # also NaN, inf ends
            raise BadParameters(f"bad domain ({t0}, {t1})")
        # once per curve (`replace` builds a new one); a cached_property
        # would take a lock on first use
        object.__setattr__(self, "_bounds", _widened(self.domain))

    @property
    def analytic(self) -> bool:
        return self.d1 is not None and self.d2 is not None and self.d3 is not None

    def contains(self, t):
        """Whether t (a float, or elementwise an array) lies in the domain."""
        lo, hi = self._bounds
        return (lo <= t) & (t <= hi)

    def _outside(self, t: float) -> OutOfDomain:
        return OutOfDomain(
            f"t={t:g} outside domain [{self.domain[0]:g}, {self.domain[1]:g}]")

    def point(self, t: float):
        if not self.contains(t):
            raise self._outside(t)
        return self.position(t)

    def derivative(self, t: float, order: int):
        """Order 1-3 derivative: analytic callable if present, else a
        central finite difference (one-sided near the endpoints)."""
        if order not in (1, 2, 3):
            raise OrderUnsupported(f"order {order} not supported")
        if not self.contains(t):
            raise self._outside(t)
        analytic = (self.d1, self.d2, self.d3)[order - 1]
        if analytic is not None:
            return analytic(t)
        return fd_derivative(self.position, t, order,
                             h=default_step(order), domain=self.domain)

    def sample(self, ts, order: int = 2):
        """r and its first `order` (0-2) derivatives at every parameter of
        `ts`, each of shape (n, dim).  Raises OutOfDomain for the first
        parameter outside the domain.

        Catalog curves evaluate their closed forms on arrays and raise
        KinematicsError for the first row with a non-finite component.
        Expression curves run their array functions under numpy's raising
        errstate; on a FloatingPointError, or on any non-finite value, the
        whole sample is redone by the stacked scalar calls that sample
        every other curve, so the walker's EvalDomain is raised where it
        would be.
        """
        ts = np.asarray(ts, dtype=float)
        outside = ts[~self.contains(ts)]
        if outside.size:
            raise self._outside(float(outside[0]))
        if self.forms is not None:
            with np.errstate(all="ignore"):  # non-finite values raise below
                arrays = self._columns(ts, order, (form(ts, np)
                                                   for form in self.forms))
            finite = np.isfinite(arrays).all(axis=(0, 2))
            if not finite.all():
                raise KinematicsError("non-finite vector component at "
                                      f"t={ts[np.argmin(finite)]:g}")
            return arrays
        if self.arrays is not None:
            try:
                with np.errstate(divide="raise", over="raise",
                                 invalid="raise", under="ignore"):
                    arrays = self._columns(ts, order, ([f(ts) for f in fns]
                                                       for fns in self.arrays))
                if np.isfinite(arrays).all():
                    return arrays
            except FloatingPointError:
                pass
        calls = (self.point, lambda t: self.derivative(t, 1),
                 lambda t: self.derivative(t, 2))[:order + 1]
        return tuple(np.array([fn(t).as_tuple() for t in ts.tolist()],
                              dtype=float).reshape(len(ts), self.dim)
                     for fn in calls)

    def _columns(self, ts, order, components):
        """One (n, dim) array per order up to `order`, filled from the
        component sequences of r, r', r'' in `components`."""
        # one array per order: a single (order + 1, n, dim) block raised
        # the peak RSS of 1e5-sample kinematics runs by 0.7 MB
        arrays = tuple(np.empty((len(ts), self.dim)) for _ in range(order + 1))
        for array, values in zip(arrays, components):
            for k, component in enumerate(values):
                array[:, k] = component  # a constant fills the column
        return arrays


@dataclass(frozen=True)
class PlaneCurve(_Curve):
    dim = 2


@dataclass(frozen=True)
class SpaceCurve(_Curve):
    dim = 3


# -- reparametrization --------------------------------------------------------

_N_PROBE = 64  # midpoints at which reparametrize checks the sign of g'


def reparametrize(curve, g: Callable[[float], float],
                  g_derivatives: Optional[Sequence[Callable[[float], float]]] = None,
                  domain_h: tuple[float, float] = None):
    """Curve in the parameter h where t = g(h), g strictly monotonic.

    `g_derivatives` supplies (g', g'', g''') callables; missing entries fall
    back to finite differences of g.  Derivatives of the composite follow
    the chain rule (Faa di Bruno to order 3).
    """
    if domain_h is None:
        raise BadParameters("domain_h is required")
    h0, h1 = domain_h

    derivs = list(g_derivatives) if g_derivatives else []
    while len(derivs) < 3:
        order = len(derivs) + 1
        derivs.append(lambda h, _k=order: fd_derivative(
            g, h, _k, domain=(h0, h1)))
    g1, g2, g3 = derivs

    sign = None
    for i in range(_N_PROBE):
        h = h0 + (h1 - h0) * (i + 0.5) / _N_PROBE
        s = g1(h)
        if s == 0.0 or (sign is not None and (s > 0) != sign):
            raise NonMonotonic(f"g' changes sign or vanishes near h={h:g}")
        sign = s > 0

    def pos(h):
        return curve.point(g(h))

    def dd1(h):
        return curve.derivative(g(h), 1) * g1(h)

    def dd2(h):
        t = g(h)
        return (curve.derivative(t, 2) * g1(h) ** 2
                + curve.derivative(t, 1) * g2(h))

    def dd3(h):
        t = g(h)
        return (curve.derivative(t, 3) * g1(h) ** 3
                + curve.derivative(t, 2) * (3.0 * g1(h) * g2(h))
                + curve.derivative(t, 1) * g3(h))

    return replace(curve, position=pos, domain=(h0, h1),
                   d1=dd1, d2=dd2, d3=dd3, forms=None, arrays=None,
                   name=f"{curve.name}@reparam" if curve.name else "reparam")


def transform_curve(curve, matrix, offset=None):
    """Image of the curve under p -> M p + b (M given as row tuples)."""
    rows = [tuple(row) for row in matrix]
    if curve.dim == 2:
        b = offset if offset is not None else Vec2(0.0, 0.0)

        def apply(v: Vec2) -> Vec2:
            return Vec2(rows[0][0] * v.x + rows[0][1] * v.y,
                        rows[1][0] * v.x + rows[1][1] * v.y)
    else:
        b = offset if offset is not None else Vec3(0.0, 0.0, 0.0)

        def apply(v: Vec3) -> Vec3:
            return Vec3(rows[0][0] * v.x + rows[0][1] * v.y + rows[0][2] * v.z,
                        rows[1][0] * v.x + rows[1][1] * v.y + rows[1][2] * v.z,
                        rows[2][0] * v.x + rows[2][1] * v.y + rows[2][2] * v.z)

    def make_deriv(order):
        def deriv(t):
            return apply(curve.derivative(t, order))
        return deriv

    return replace(curve,
                   position=lambda t: apply(curve.point(t)) + b,
                   d1=make_deriv(1), d2=make_deriv(2), d3=make_deriv(3),
                   forms=None, arrays=None,
                   name=f"{curve.name}@moved" if curve.name else "moved")


# -- catalog -------------------------------------------------------------------

@dataclass(frozen=True)
class CurveCatalogEntry:
    defaults: dict
    builder: Callable[..., _Curve]


def _closed_form(cls, forms, domain, name):
    """A catalog curve from its closed forms (see `_Curve.forms`); the
    scalar calls evaluate them with `math`."""
    vec = Vec2 if cls.dim == 2 else Vec3
    position, d1, d2, d3 = (lambda t, form=form: vec(*form(t, math))
                            for form in forms)
    return cls(position=position, domain=domain, d1=d1, d2=d2, d3=d3,
               name=name, forms=tuple(forms))


def _line(x0=1.0, y0=2.0, a=3.0, b=4.0):
    return _closed_form(PlaneCurve, (
        lambda t, m: (x0 + a * t, y0 + b * t),
        lambda t, m: (a, b),
        lambda t, m: (0.0, 0.0),
        lambda t, m: (0.0, 0.0)), (-5.0, 5.0), "line")


def _circle(radius=1.0, cx=0.0, cy=0.0):
    if radius <= 0:
        raise BadParameters("circle needs radius > 0")
    r = radius
    return _closed_form(PlaneCurve, (
        lambda t, m: (cx + r * m.cos(t), cy + r * m.sin(t)),
        lambda t, m: (-r * m.sin(t), r * m.cos(t)),
        lambda t, m: (-r * m.cos(t), -r * m.sin(t)),
        lambda t, m: (r * m.sin(t), -r * m.cos(t))),
        (0.0, 2.0 * math.pi), "circle")


def _ellipse(a=2.0, b=1.0):
    if not (a > b > 0):
        raise BadParameters(f"ellipse needs a > b > 0, got a={a}, b={b}")
    return _closed_form(PlaneCurve, (
        lambda t, m: (a * m.cos(t), b * m.sin(t)),
        lambda t, m: (-a * m.sin(t), b * m.cos(t)),
        lambda t, m: (-a * m.cos(t), -b * m.sin(t)),
        lambda t, m: (a * m.sin(t), -b * m.cos(t))),
        (0.0, 2.0 * math.pi), "ellipse")


def _parabola(a=1.0, x0=0.0, y0=1.0):
    return _closed_form(PlaneCurve, (
        lambda t, m: (x0 + t, y0 + a * t * t),
        lambda t, m: (1.0, 2.0 * a * t),
        lambda t, m: (0.0, 2.0 * a),
        lambda t, m: (0.0, 0.0)), (-2.0, 2.0), "parabola")


def _cubic(a=1.0, b=1.0, c=1.0):
    # twisted cubic; positive parameters keep it clear of the axes for t > 0
    return _closed_form(SpaceCurve, (
        lambda t, m: (a * t, b * t * t, c * t ** 3),
        lambda t, m: (a, 2.0 * b * t, 3.0 * c * t * t),
        lambda t, m: (0.0, 2.0 * b, 6.0 * c * t),
        lambda t, m: (0.0, 0.0, 6.0 * c)), (0.2, 1.5), "cubic")


def _helix(radius=1.0, pitch=1.0, cx=0.0, cy=0.0, cz=0.0):
    if radius <= 0:
        raise BadParameters("helix needs radius > 0")
    r, p = radius, pitch
    return _closed_form(SpaceCurve, (
        lambda t, m: (cx + r * m.cos(t), cy + r * m.sin(t), cz + p * t),
        lambda t, m: (-r * m.sin(t), r * m.cos(t), p),
        lambda t, m: (-r * m.cos(t), -r * m.sin(t), 0.0),
        lambda t, m: (r * m.sin(t), -r * m.cos(t), 0.0)),
        (0.0, 2.0 * math.pi), "helix")


def _poly_eval(coeffs, t, order):
    total = 0.0
    for k in range(order, len(coeffs)):
        fac = 1.0
        for j in range(k, k - order, -1):
            fac *= j
        total += coeffs[k] * fac * t ** (k - order)
    return total


def _polynomial(x_coeffs=(1.0, 1.0), y_coeffs=(2.0, 1.0, 0.0, 0.5)):
    xs = tuple(float(c) for c in x_coeffs)
    ys = tuple(float(c) for c in y_coeffs)
    return _closed_form(PlaneCurve, [
        lambda t, m, k=k: (_poly_eval(xs, t, k), _poly_eval(ys, t, k))
        for k in range(4)], (-1.0, 1.0), "polynomial")


CATALOG: dict[str, CurveCatalogEntry] = {
    "line": CurveCatalogEntry({"x0": 1.0, "y0": 2.0, "a": 3.0, "b": 4.0},
                              _line),
    "circle": CurveCatalogEntry({"radius": 1.0, "cx": 0.0, "cy": 0.0},
                                _circle),
    "ellipse": CurveCatalogEntry({"a": 2.0, "b": 1.0}, _ellipse),
    "parabola": CurveCatalogEntry({"a": 1.0, "x0": 0.0, "y0": 1.0},
                                  _parabola),
    "cubic": CurveCatalogEntry({"a": 1.0, "b": 1.0, "c": 1.0}, _cubic),
    "helix": CurveCatalogEntry(
        {"radius": 1.0, "pitch": 1.0, "cx": 0.0, "cy": 0.0, "cz": 0.0},
        _helix),
    "polynomial": CurveCatalogEntry(
        {"x_coeffs": (1.0, 1.0), "y_coeffs": (2.0, 1.0, 0.0, 0.5)},
        _polynomial),
}


def make_catalog_curve(name: str, params: dict | None = None,
                       domain: tuple[float, float] | None = None):
    """Construct a catalog curve; unknown names raise UnknownCurve and
    incomplete/invalid parameters raise BadParameters."""
    entry = CATALOG.get(name) if isinstance(name, str) else None
    if entry is None:
        raise UnknownCurve(f"no catalog curve named {name!r}")
    if not isinstance(params, (dict, type(None))):
        raise BadParameters(f"{name}: params must be an object, got {params!r}")
    params = dict(params or {})
    unknown = set(params) - set(entry.defaults)
    if unknown:
        raise BadParameters(f"{name}: unknown parameters {sorted(unknown)}")
    for key, value in params.items():
        many = isinstance(entry.defaults[key], tuple)
        if many and not isinstance(value, (list, tuple, np.ndarray)):
            raise BadParameters(f"{name}: {key} must be a list of numbers")
        for item in (value if many else (value,)):
            _finite_real(item, f"{name}: {key}")
    try:
        curve = entry.builder(**params)
    except TypeError as exc:
        raise BadParameters(f"{name}: {exc}") from exc
    if domain is not None:
        curve = replace(curve, domain=_spec_domain(domain))
    return curve


def _finite_real(value, what: str) -> float:
    """`value` as a float; it must be a finite real number (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise BadParameters(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _spec_domain(value) -> tuple[float, float]:
    """A record's domain [t0, t1]: two finite numbers with t0 < t1 and a
    finite width t1 - t0."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise BadParameters(f"domain must be [t0, t1], got {value!r}")
    t0, t1 = (_finite_real(t, "domain") for t in value)
    if not (t0 < t1 and math.isfinite(t1 - t0)):
        raise BadParameters(f"bad domain ({t0}, {t1})")
    return t0, t1


# -- curve specification records (CLI / config) --------------------------------

def curve_from_spec(record: dict):
    """Build a curve from a specification record:

    {"kind": <catalog name>, "params": {...}, "domain": [t0, t1]}
    {"kind": "expr", "expr": {"x": str, "y": str, "z"?: str}, "domain": [t0, t1]}
    """
    if not isinstance(record, dict) or "kind" not in record:
        raise BadParameters("curve record needs a 'kind' field")
    kind = record["kind"]
    domain = record.get("domain")
    if kind != "expr":
        return make_catalog_curve(kind, record.get("params"), domain=domain)

    exprs = record.get("expr")
    if not isinstance(exprs, dict) or "x" not in exprs or "y" not in exprs:
        raise BadParameters("expr curve needs expr.x and expr.y")
    if domain is None:
        raise BadParameters("expr curve needs an explicit domain")
    domain = _spec_domain(domain)
    fx, fy, fz = (expr_mod.compile_chain(exprs[axis]) if axis in exprs
                  else None for axis in ("x", "y", "z"))
    # per order, the array functions of the coordinates
    arrays = tuple(tuple(f.array for f in fns)
                   for fns in zip(*(c for c in (fx, fy, fz) if c is not None)))

    if fz is not None:
        def make3(order):
            x, y, z = fx[order], fy[order], fz[order]
            return lambda t: Vec3(x(t), y(t), z(t))
        return SpaceCurve(position=make3(0), domain=domain,
                          d1=make3(1), d2=make3(2), d3=make3(3), name="expr",
                          arrays=arrays)

    def make2(order):
        x, y = fx[order], fy[order]
        return lambda t: Vec2(x(t), y(t))
    return PlaneCurve(position=make2(0), domain=domain,
                      d1=make2(1), d2=make2(2), d3=make2(3), name="expr",
                      arrays=arrays)
