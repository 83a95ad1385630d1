"""Shared numerical machinery: finite differences, ladder extrapolation,
adaptive Simpson quadrature, and bisection root finding.

Stencils work on anything supporting + and scalar * (floats, Vec2/Vec3,
numpy arrays), so the same code differentiates scalar and vector maps.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Sequence

from .errors import (BadParameters, KinematicsError, OrderUnsupported,
                     RootCountMismatch)

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


def fd_step_from_env() -> float | None:
    """ROTOR_FD_STEP as a float, or None when it is unset; a value that is
    not a finite number > 0 raises BadParameters."""
    env = os.environ.get("ROTOR_FD_STEP")
    if env is None:
        return None
    try:
        step = float(env)
    except ValueError:
        step = math.nan
    if not (math.isfinite(step) and step > 0.0):
        raise BadParameters(
            f"ROTOR_FD_STEP must be a finite number > 0, got {env!r}")
    return step


def default_step(order: int) -> float:
    """FD step for the given order; ROTOR_FD_STEP overrides all orders."""
    step = fd_step_from_env()
    return FD_STEPS[order] if step is None else step


def fd_derivative(f: Callable[[float], object], t: float, order: int,
                  h: float | None = None,
                  domain: tuple[float, float] | None = None):
    """Finite-difference derivative of f at t.

    Central stencil when the window fits inside `domain`, otherwise the
    one-sided stencil of the same accuracy anchored at the nearest endpoint.
    """
    if order not in (1, 2, 3):
        raise OrderUnsupported(f"derivative order {order} not supported")
    if h is None:
        h = default_step(order)

    stencil = _CENTRAL[order]
    sign = 1.0
    if domain is not None:
        lo, hi = domain
        reach = max(abs(k) for k, _ in stencil) * h
        if t - reach < lo or t + reach > hi:
            stencil = _FORWARD[order]
            fwd_reach = max(k for k, _ in stencil) * h
            if t + fwd_reach > hi and (t - lo) > (hi - t):
                sign = -1.0  # mirror to a backward stencil
    scale = sign ** order / h ** order
    acc = None
    for k, c in stencil:
        term = f(t + sign * k * h) * (c * scale)
        acc = term if acc is None else acc + term
    return acc


def fd1_wide(f: Callable[[float], float], t: float, h: float = 1e-3) -> float:
    """5-point first derivative (4th-order accurate).

    The wide step keeps noise amplification low when f is itself the result
    of a finite-difference computation.
    """
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


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10, max_depth: int = 40) -> float:
    """Adaptive Simpson quadrature with absolute tolerance `tol`."""

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
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth + 1)
                + recurse(x1, x2, f1, frm, f2, right, eps / 2.0, depth + 1))

    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 0)


def bisect_root(f: Callable[[float], float], a: float, b: float,
                tol: float = 1e-12, max_iter: int = 200) -> float:
    """Bisection on [a, b]; requires a sign change."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise KinematicsError(f"no sign change on [{a:g}, {b:g}]")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or (b - a) < tol:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def find_roots(f: Callable[[float], float], a: float, b: float,
               n_scan: int = 4096, tol: float = 1e-12,
               expected: int | None = None) -> list[float]:
    """All transversal roots of f on [a, b] located by scan + bisection."""
    roots = []
    xs = [a + (b - a) * i / n_scan for i in range(n_scan + 1)]
    vals = [f(x) for x in xs]
    for i in range(n_scan):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            if not roots or abs(roots[-1] - xs[i]) > tol * 10:
                roots.append(xs[i])
        elif v0 * v1 < 0:
            roots.append(bisect_root(f, xs[i], xs[i + 1], tol=tol))
    if vals[-1] == 0.0 and (not roots or abs(roots[-1] - b) > tol * 10):
        roots.append(b)
    if expected is not None and len(roots) != expected:
        raise RootCountMismatch(
            f"expected {expected} roots, found {len(roots)}: {roots}")
    return roots
