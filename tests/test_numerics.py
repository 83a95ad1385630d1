import math

import pytest

from rotorkin.errors import KinematicsError, OrderUnsupported, RootCountMismatch
from rotorkin.numerics import (FD_STEPS, adaptive_simpson, bisect_root,
                               extrapolate_to_zero, fd_derivative, find_roots)


# -- finite differences -----------------------------------------------------------

def test_stencils_exact_on_low_degree_polynomials():
    # each central stencil's truncation term vanishes on low-degree
    # polynomials: order 1 through quadratics, orders 2-3 through cubics
    quadratic = lambda t: 2.0 + 3.0 * t - 1.5 * t ** 2
    cubic = lambda t: 2.0 + 3.0 * t - 1.5 * t ** 2 + 0.25 * t ** 3
    cases = (
        (1, quadratic, lambda t: 3.0 - 3.0 * t),
        (2, cubic, lambda t: -3.0 + 1.5 * t),
        (3, cubic, lambda t: 1.5),
    )
    for order, poly, exact in cases:
        for t in (-1.0, 0.3, 2.0):
            fd = fd_derivative(poly, t, order, h=1e-2)
            assert abs(fd - exact(t)) <= 1e-9 * max(abs(exact(t)), 1.0)


def test_one_sided_stencils_at_domain_edges():
    f = math.exp
    for t, order in ((0.0, 1), (0.0, 2), (1.0, 3)):
        fd = fd_derivative(f, t, order, h=1e-3, domain=(0.0, 1.0))
        assert abs(fd - math.exp(t)) <= 1e-4 * math.exp(t)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_default_steps_are_fixed(monkeypatch, order):
    # h=None means FD_STEPS[order]; the environment cannot change it
    monkeypatch.setenv("ROTOR_FD_STEP", "0.05")
    for t in (-0.7, 0.0, 1.3):
        assert (fd_derivative(math.exp, t, order)
                == fd_derivative(math.exp, t, order, h=FD_STEPS[order]))


def test_unsupported_order():
    with pytest.raises(OrderUnsupported):
        fd_derivative(math.sin, 0.0, 4)


# -- ladder extrapolation ------------------------------------------------------------

def test_extrapolation_recovers_constant_term():
    hs = (1e-1, 5e-2, 2.5e-2, 1.25e-2)
    vs = [7.0 + 3.0 * h - 2.0 * h ** 2 + h ** 3 for h in hs]
    assert abs(extrapolate_to_zero(hs, vs) - 7.0) <= 1e-12


def test_extrapolation_input_validation():
    with pytest.raises(KinematicsError):
        extrapolate_to_zero([1e-2], [1.0])
    with pytest.raises(KinematicsError):
        extrapolate_to_zero([1e-2, 1e-3], [1.0])


# -- quadrature ------------------------------------------------------------------------

def test_simpson_known_integrals():
    assert abs(adaptive_simpson(math.sin, 0.0, math.pi) - 2.0) <= 1e-10
    assert abs(adaptive_simpson(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) <= 1e-12
    assert adaptive_simpson(math.sin, 1.0, 1.0) == 0.0


def test_simpson_oscillatory():
    value = adaptive_simpson(lambda x: math.sin(10.0 * x) ** 2, 0.0, math.pi)
    assert abs(value - 0.5 * math.pi) <= 1e-8


# -- root finding ------------------------------------------------------------------------

def test_bisection_on_cosine():
    root = bisect_root(math.cos, 0.0, math.pi)
    assert abs(root - 0.5 * math.pi) <= 1e-11


def test_bisection_requires_sign_change():
    with pytest.raises(KinematicsError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_roots_locates_all_crossings():
    roots = find_roots(math.sin, 0.1, 2.0 * math.pi - 0.1, expected=1)
    assert abs(roots[0] - math.pi) <= 1e-11
    roots = find_roots(lambda x: math.cos(3.0 * x), 0.0, math.pi, expected=3)
    for root, closed in zip(roots, (math.pi / 6, math.pi / 2, 5 * math.pi / 6)):
        assert abs(root - closed) <= 1e-11


def test_find_roots_count_mismatch():
    with pytest.raises(RootCountMismatch):
        find_roots(math.sin, 0.1, 2.0 * math.pi - 0.1, expected=2)
