"""Shared numerical machinery: finite differences, ladder extrapolation,
adaptive Simpson quadrature, and bisection root finding.

Stencils work on anything supporting + and scalar * (floats, Vec2/Vec3,
numpy arrays), so the same code differentiates scalar and vector maps.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import KinematicsError, OrderUnsupported, RootCountMismatch

# Default steps balance truncation against roundoff at double precision:
# the k-th difference divides ~eps*|f| by h^k, so higher orders need wider
# steps (1e-5 at order 2 would floor out near 1e-5 relative error).
FD_STEPS = {1: 1e-5, 2: 1e-4, 3: 1e-3}

# Central stencils (2nd-order accurate), offsets in units of h.
_CENTRAL = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}

# One-sided forward stencils (2nd-order accurate); mirrored for backward.
_FORWARD = {
    1: ((0, -1.5), (1, 2.0), (2, -0.5)),
    2: ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0)),
    3: ((0, -2.5), (1, 9.0), (2, -12.0), (3, 7.0), (4, -1.5)),
}
# the widest offset of each central and forward stencil, in units of h
_CENTRAL_REACH = {k: max(abs(j) for j, _ in s) for k, s in _CENTRAL.items()}
_FORWARD_REACH = {k: max(j for j, _ in s) for k, s in _FORWARD.items()}


def fd_derivative(f: Callable[[float], object], t: float, order: int,
                  h: float | None = None,
                  domain: tuple[float, float] | None = None):
    """Finite-difference derivative of f at t, with step `h`, or
    FD_STEPS[order] when h is None.

    Central stencil when the window fits inside `domain`, otherwise the
    one-sided stencil of the same accuracy anchored at the nearest endpoint.
    """
    if order not in (1, 2, 3):
        raise OrderUnsupported(f"derivative order {order} not supported")
    if h is None:
        h = FD_STEPS[order]

    stencil = _CENTRAL[order]
    sign = 1.0
    if domain is not None:
        lo, hi = domain
        reach = _CENTRAL_REACH[order] * h
        if t - reach < lo or t + reach > hi:
            stencil = _FORWARD[order]
            fwd_reach = _FORWARD_REACH[order] * h
            if t + fwd_reach > hi and (t - lo) > (hi - t):
                sign = -1.0  # mirror to a backward stencil
    scale = sign ** order / h ** order
    acc = None
    for k, c in stencil:
        term = f(t + sign * k * h) * (c * scale)
        acc = term if acc is None else acc + term
    return acc


def fd1_wide(f: Callable[[float], float], t: float) -> float:
    """5-point first derivative (4th-order accurate) with step 1e-3.

    The wide step keeps noise amplification low when f is itself the result
    of a finite-difference computation.
    """
    h = 1e-3
    return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)


def extrapolate_to_zero(hs: Sequence[float], vs: Sequence[float]) -> float:
    """Neville polynomial extrapolation of the samples (h_i, v_i) to h = 0.

    Used on one-sided Delta-t ladders whose values expand in integer powers
    of the step.
    """
    if len(hs) != len(vs) or len(hs) < 2:
        raise KinematicsError("extrapolation needs matching ladders of >= 2 samples")
    tab = list(vs)
    n = len(tab)
    for level in range(1, n):
        for i in range(n - level):
            h0, h1 = hs[i], hs[i + level]
            tab[i] = (h0 * tab[i + 1] - h1 * tab[i]) / (h0 - h1)
    return tab[0]


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson quadrature to an absolute tolerance of 1e-10."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = f(lm)
        frm = f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if depth >= 40 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth + 1)
                + recurse(x1, x2, f1, frm, f2, right, eps / 2.0, depth + 1))

    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), 1e-10, 0)


def bisect_root(f: Callable[[float], float], a: float, b: float) -> float:
    """Bisection on [a, b] to a bracket of 1e-12; requires a sign change."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise KinematicsError(f"no sign change on [{a:g}, {b:g}]")
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or (b - a) < 1e-12:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def find_roots(f: Callable[[float], float], a: float, b: float,
               expected: int | None = None) -> list[float]:
    """All transversal roots of f on [a, b] located by a scan of 8192
    intervals, then bisection."""
    roots = []
    n_scan = 8192
    xs = [a + (b - a) * i / n_scan for i in range(n_scan + 1)]
    vals = [f(x) for x in xs]
    for i in range(n_scan):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            if not roots or abs(roots[-1] - xs[i]) > 1e-12 * 10:
                roots.append(xs[i])
        elif v0 * v1 < 0:
            roots.append(bisect_root(f, xs[i], xs[i + 1]))
    if vals[-1] == 0.0 and (not roots or abs(roots[-1] - b) > 1e-12 * 10):
        roots.append(b)
    if expected is not None and len(roots) != expected:
        raise RootCountMismatch(
            f"expected {expected} roots, found {len(roots)}: {roots}")
    return roots
