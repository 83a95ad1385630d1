import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkin import expr
from rotorkin.curves import (CATALOG, PlaneCurve, SpaceCurve, curve_from_spec,
                             make_catalog_curve, reparametrize,
                             transform_curve)
from rotorkin.errors import (BadParameters, EvalDomain, KinematicsError,
                             NonMonotonic, OrderUnsupported, OutOfDomain,
                             UnknownCurve)
from rotorkin.numerics import fd_derivative
from rotorkin.vec import Vec2, Vec3

RNG = np.random.default_rng(1203)


def interior_samples(curve, n):
    t0, t1 = curve.domain
    pad = 1e-3 * (t1 - t0)
    return t0 + pad + (t1 - t0 - 2 * pad) * RNG.random(n)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_analytic_derivatives_match_fd(name):
    curve = make_catalog_curve(name)
    for order, tol in ((1, 1e-5), (2, 1e-5), (3, 1e-3)):
        for t in interior_samples(curve, 1000):
            analytic = curve.derivative(float(t), order)
            fd = fd_derivative(curve.position, float(t), order,
                               domain=curve.domain)
            scale = max(analytic.norm(), fd.norm(), 1.0)
            assert (analytic - fd).norm() <= tol * scale, (name, order, t)


def test_ellipse_first_derivative_at_zero():
    curve = make_catalog_curve("ellipse", {"a": 2.0, "b": 1.0})
    assert curve.derivative(0.0, 1) == Vec2(0.0, 1.0)


def test_line_second_derivative_exactly_zero():
    curve = make_catalog_curve("line", {"x0": 1.0, "y0": 2.0, "a": 3.0, "b": 4.0})
    for t in (-4.0, 0.0, 2.5):
        assert curve.derivative(t, 2) == Vec2(0.0, 0.0)


def test_helix_third_derivative_vs_fd_oracle():
    curve = make_catalog_curve("helix")
    t = math.pi / 2
    analytic = curve.derivative(t, 3)
    oracle = fd_derivative(curve.position, t, 3, h=1e-3, domain=curve.domain)
    assert (analytic - oracle).norm() <= 1e-4 * max(oracle.norm(), 1.0)


def test_catalog_construction():
    ellipse = make_catalog_curve("ellipse", {"a": 2.0, "b": 1.0})
    assert (ellipse.point(0.0) - Vec2(2.0, 0.0)).norm() == 0.0
    helix = make_catalog_curve("helix", {"radius": 1.0, "pitch": 1.0})
    assert (helix.point(0.0) - Vec3(1.0, 0.0, 0.0)).norm() == 0.0


def test_catalog_errors():
    with pytest.raises(UnknownCurve):
        make_catalog_curve("lemniscate")
    with pytest.raises(BadParameters):
        make_catalog_curve("ellipse", {"a": 1.0, "b": 2.0})
    with pytest.raises(BadParameters):
        make_catalog_curve("ellipse", {"a": 1.0, "b": 1.0})
    with pytest.raises(BadParameters):
        make_catalog_curve("circle", {"radius": -1.0})
    with pytest.raises(BadParameters):
        make_catalog_curve("helix", {"spin": 3.0})
    with pytest.raises(BadParameters):  # the width t1 - t0 overflows
        make_catalog_curve("ellipse", domain=(-1e308, 1e308))


def test_domain_and_order_checks():
    curve = make_catalog_curve("parabola")
    with pytest.raises(OutOfDomain):
        curve.point(5.0)
    with pytest.raises(OutOfDomain):
        curve.derivative(-3.0, 1)
    with pytest.raises(OrderUnsupported):
        curve.derivative(0.0, 4)


def test_fd_fallback_matches_analytic():
    analytic = make_catalog_curve("ellipse")
    bare = PlaneCurve(position=analytic.position, domain=analytic.domain)
    assert not bare.analytic
    for t in interior_samples(analytic, 50):
        for order, tol in ((1, 1e-7), (2, 1e-5), (3, 1e-3)):
            a = analytic.derivative(float(t), order)
            b = bare.derivative(float(t), order)
            assert (a - b).norm() <= tol * max(a.norm(), 1.0)


def test_fd_one_sided_at_endpoints():
    curve = PlaneCurve(position=lambda t: Vec2(math.cos(t), math.sin(t)),
                       domain=(0.0, 1.0))
    d = curve.derivative(0.0, 1)
    assert (d - Vec2(0.0, 1.0)).norm() < 1e-7
    d = curve.derivative(1.0, 2)
    assert (d - Vec2(-math.cos(1.0), -math.sin(1.0))).norm() < 1e-5


def test_env_step_override(monkeypatch):
    from rotorkin.numerics import default_step
    monkeypatch.setenv("ROTOR_FD_STEP", "1e-7")
    assert default_step(1) == 1e-7
    monkeypatch.delenv("ROTOR_FD_STEP")
    assert default_step(1) == 1e-5


# -- reparametrization ---------------------------------------------------------

def test_reparametrize_identity():
    curve = make_catalog_curve("ellipse")
    same = reparametrize(curve, lambda h: h,
                         g_derivatives=(lambda h: 1.0, lambda h: 0.0,
                                        lambda h: 0.0),
                         domain_h=curve.domain)
    for t in interior_samples(curve, 100):
        assert (same.point(float(t)) - curve.point(float(t))).norm() <= 1e-14
        for order in (1, 2, 3):
            a = same.derivative(float(t), order)
            b = curve.derivative(float(t), order)
            assert (a - b).norm() <= 1e-12 * max(b.norm(), 1.0)


def test_reparametrize_double_speed_doubles_rotation():
    from rotorkin.plane import distance_kinematics
    circle = make_catalog_curve("circle")
    doubled = reparametrize(circle, lambda h: 2.0 * h,
                            g_derivatives=(lambda h: 2.0, lambda h: 0.0,
                                           lambda h: 0.0),
                            domain_h=(0.0, math.pi))
    center = Vec2(0.0, 0.0)
    for h in (0.3, 1.0, 2.2):
        fast = distance_kinematics(doubled, center, h).rot_speed
        slow = distance_kinematics(circle, center, 2.0 * h).rot_speed
        assert abs(fast - 2.0 * slow) <= 1e-12


def test_reparametrize_chain_rule_rates():
    from rotorkin.plane import distance_kinematics
    ellipse = make_catalog_curve("ellipse")
    squared = reparametrize(ellipse, lambda h: h * h,
                            g_derivatives=(lambda h: 2.0 * h,
                                           lambda h: 2.0, lambda h: 0.0),
                            domain_h=(0.1, 1.0))
    center = Vec2(0.0, 0.0)
    for h in (0.2, 0.5, 0.9):
        composed = distance_kinematics(squared, center, h).dD
        direct = distance_kinematics(ellipse, center, h * h).dD
        expected = 2.0 * h * direct
        assert abs(composed - expected) <= 1e-8 * max(abs(expected), 1.0)


def test_reparametrize_inverse_roundtrip():
    ellipse = make_catalog_curve("ellipse", domain=(0.5, 2.5))
    warped = reparametrize(
        ellipse, math.exp,
        g_derivatives=(math.exp, math.exp, math.exp),
        domain_h=(math.log(0.5), math.log(2.5)))
    back = reparametrize(
        warped, math.log,
        g_derivatives=(lambda h: 1.0 / h, lambda h: -1.0 / h ** 2,
                       lambda h: 2.0 / h ** 3),
        domain_h=(0.5, 2.5))
    for t in (0.6, 1.2, 2.4):
        assert (back.point(t) - ellipse.point(t)).norm() <= 1e-10


@st.composite
def monotone_maps(draw):
    """phi and its first three derivatives, phi strictly monotone on
    [0, 1]: a cubic, an exponential or a sine wave on a slope."""
    kind = draw(st.sampled_from(["cubic", "exp", "wave"]))
    if kind == "cubic":
        a = draw(st.floats(0.0, 5.0))
        return (lambda h: h + a * h ** 3, lambda h: 1.0 + 3.0 * a * h * h,
                lambda h: 6.0 * a * h, lambda h: 6.0 * a)
    if kind == "exp":
        k = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
        return tuple(lambda h, n=n: k ** n * math.exp(k * h)
                     for n in range(4))
    w = draw(st.floats(0.5, 8.0))
    a = draw(st.floats(0.0, 0.9)) / w  # phi' = 1 + a w cos(w h) > 0
    return (lambda h: h + a * math.sin(w * h),
            lambda h: 1.0 + a * w * math.cos(w * h),
            lambda h: -a * w * w * math.sin(w * h),
            lambda h: -a * w ** 3 * math.cos(w * h))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["ellipse", "cubic", "helix", "polynomial"]),
       phi=monotone_maps(), start=st.floats(0.01, 0.5),
       width=st.floats(0.1, 0.49), increasing=st.booleans(),
       h=st.floats(0.01, 0.99))
def test_reparametrized_derivatives_are_derivatives(name, phi, start, width,
                                                    increasing, h):
    # t = g(h) maps [0, 1] onto [lo, hi] inside the domain, either way
    # round; each derivative of the reparametrized curve (Faa di Bruno to
    # order 3) against a central difference of the one an order lower,
    # within the difference's truncation estimate |D(2d) - D(d)| plus
    # rounding
    curve = make_catalog_curve(name)
    t0, t1 = curve.domain
    lo, hi = t0 + start * (t1 - t0), t0 + (start + width) * (t1 - t0)
    scale = (hi - lo) / (phi[0](1.0) - phi[0](0.0))
    origin = lo
    if not increasing:
        scale, origin = -scale, hi
    g = (lambda s: origin + scale * (phi[0](s) - phi[0](0.0)),
         *(lambda s, f=f: scale * f(s) for f in phi[1:]))
    warped = reparametrize(curve, g[0], g_derivatives=g[1:],
                           domain_h=(0.0, 1.0))

    def at(order, s):
        value = warped.point(s) if order == 0 else warped.derivative(s, order)
        return np.array(value.as_tuple())

    for order in (1, 2, 3):
        def central(d):
            return (at(order - 1, h + d) - at(order - 1, h - d)) / (2 * d)

        d = 1e-3
        estimate = np.abs(central(2 * d) - central(d))
        exact = at(order, h)
        rounding = 1e-9 * max(1.0, np.abs(at(order - 1, h)).max(),
                              np.abs(exact).max())
        error = np.abs(exact - central(d))
        assert (error <= estimate + rounding).all(), (order, error, estimate)


def test_reparametrize_rejects_non_monotonic():
    curve = make_catalog_curve("ellipse")
    with pytest.raises(NonMonotonic):
        reparametrize(curve, math.sin,
                      g_derivatives=(math.cos, lambda h: -math.sin(h),
                                     lambda h: -math.cos(h)),
                      domain_h=(0.0, math.pi))


def test_transform_curve_rigid_motion():
    curve = make_catalog_curve("ellipse")
    angle = 0.7
    rot = ((math.cos(angle), -math.sin(angle)),
           (math.sin(angle), math.cos(angle)))
    moved = transform_curve(curve, rot, Vec2(3.0, -1.0))
    for t in (0.0, 1.0, 4.0):
        p = curve.point(t)
        q = moved.point(t)
        expected = Vec2(rot[0][0] * p.x + rot[0][1] * p.y + 3.0,
                        rot[1][0] * p.x + rot[1][1] * p.y - 1.0)
        assert (q - expected).norm() <= 1e-14
        # derivatives rotate without translating
        d = moved.derivative(t, 1)
        dp = curve.derivative(t, 1)
        expected_d = Vec2(rot[0][0] * dp.x + rot[0][1] * dp.y,
                          rot[1][0] * dp.x + rot[1][1] * dp.y)
        assert (d - expected_d).norm() <= 1e-14


# -- specification records ------------------------------------------------------

def test_curve_from_spec_catalog():
    curve = curve_from_spec({"kind": "ellipse", "params": {"a": 3.0, "b": 1.5},
                             "domain": [0.0, 1.0]})
    assert curve.domain == (0.0, 1.0)
    assert (curve.point(0.0) - Vec2(3.0, 0.0)).norm() == 0.0


def test_curve_from_spec_expr_space():
    curve = curve_from_spec({
        "kind": "expr",
        "expr": {"x": "cos(t)", "y": "sin(t)", "z": "t"},
        "domain": [0.0, 2.0],
    })
    assert isinstance(curve, SpaceCurve)
    assert (curve.point(0.0) - Vec3(1.0, 0.0, 0.0)).norm() <= 1e-15
    d = curve.derivative(1.0, 2)
    assert (d - Vec3(-math.cos(1.0), -math.sin(1.0), 0.0)).norm() <= 1e-12


def test_curve_from_spec_errors():
    with pytest.raises(BadParameters):
        curve_from_spec({"params": {}})
    with pytest.raises(BadParameters):
        curve_from_spec({"kind": "expr", "expr": {"x": "t"}, "domain": [0, 1]})
    with pytest.raises(BadParameters):
        curve_from_spec({"kind": "expr", "expr": {"x": "t", "y": "t"}})
    with pytest.raises(BadParameters):
        curve_from_spec({"kind": "expr", "expr": {"x": "t", "y": "t"},
                         "domain": [-1e308, 1e308]})


def test_env_step_must_be_finite_and_positive(monkeypatch):
    from rotorkin.numerics import default_step, fd_step_from_env
    for bad in ("abc", "0", "-1e-5", "nan", "inf", ""):
        monkeypatch.setenv("ROTOR_FD_STEP", bad)
        with pytest.raises(BadParameters):
            fd_step_from_env()
        with pytest.raises(BadParameters):
            default_step(2)
    monkeypatch.delenv("ROTOR_FD_STEP")
    assert fd_step_from_env() is None


# -- sampling on arrays ----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CATALOG))
def test_sample_equals_scalar_calls(name):
    curve = make_catalog_curve(name)
    ts = interior_samples(curve, 30)
    sampled = curve.sample(ts)
    stacked = [np.array([fn(t).as_tuple() for t in ts.tolist()])
               for fn in (curve.point, lambda t: curve.derivative(t, 1),
                          lambda t: curve.derivative(t, 2))]
    for got, want in zip(sampled, stacked):
        assert got.shape == (len(ts), curve.dim)
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


def test_sample_stacks_scalar_calls_without_closed_forms():
    spec = {"kind": "expr", "expr": {"x": "2*cos(t)", "y": "sin(t)"},
            "domain": [0.0, 6.0]}
    # without its array functions, as a curve built from callables
    curve = replace(curve_from_spec(spec), arrays=None)
    catalog = make_catalog_curve("ellipse")
    assert curve.forms is None
    ts = np.linspace(0.0, 6.0, 13)
    for got, want in zip(curve.sample(ts), catalog.sample(ts)):
        assert np.allclose(got, want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("spec", [
    {"kind": "ellipse"},
    {"kind": "expr", "expr": {"x": "2*cos(t)", "y": "sin(t)"},
     "domain": [0.0, 6.0]},
])
def test_sample_order_gives_the_first_derivatives(spec):
    curve = curve_from_spec(spec)
    ts = np.linspace(0.0, 6.0, 13)
    full = curve.sample(ts)
    assert len(full) == 3
    for order in (0, 1, 2):
        part = curve.sample(ts, order)
        assert len(part) == order + 1
        for got, want in zip(part, full):
            assert np.array_equal(got, want)


def test_moved_and_reparametrized_curves_drop_the_closed_forms():
    curve = make_catalog_curve("circle")
    moved = transform_curve(curve, ((0.0, -1.0), (1.0, 0.0)), Vec2(3.0, 0.0))
    slow = reparametrize(curve, lambda h: 0.5 * h,
                         [lambda h: 0.5, lambda h: 0.0, lambda h: 0.0],
                         domain_h=(0.0, 4.0 * math.pi))
    for derived in (moved, slow):
        assert derived.forms is None
        ts = np.linspace(*derived.domain, 7)
        r, r1, r2 = derived.sample(ts)
        assert np.allclose(r, [derived.point(t).as_tuple() for t in ts])
        assert np.allclose(r2, [derived.derivative(t, 2).as_tuple()
                                for t in ts])


def scalar_samples(curve, ts, order=2):
    return [np.array([fn(t).as_tuple() for t in ts.tolist()])
            for fn in (curve.point, lambda t: curve.derivative(t, 1),
                       lambda t: curve.derivative(t, 2))[:order + 1]]


@pytest.mark.parametrize("exprs", [
    {"x": "2", "y": "3*t"},  # r' and r'' of x, and r'' of y, fold to 0
    {"x": "2*cos(t)", "y": "sin(t)", "z": "0.5"},
    {"x": "t", "y": "cos(1)"},  # a constant left unfolded
])
def test_expression_sample_broadcasts_constants(exprs):
    curve = curve_from_spec({"kind": "expr", "expr": exprs,
                             "domain": [0.0, 6.0]})
    assert expr._scalar_only not in sum(curve.arrays, ())  # on arrays
    ts = np.linspace(0.0, 6.0, 9)
    sampled = curve.sample(ts)
    for got, want in zip(sampled, scalar_samples(curve, ts)):
        assert got.shape == (len(ts), len(exprs))
        assert np.array_equal(got, want)


def test_moved_and_reparametrized_expression_curves_sample_their_points():
    curve = curve_from_spec({"kind": "expr", "domain": [0.0, 6.0],
                             "expr": {"x": "2*cos(t)", "y": "sin(t)"}})
    moved = transform_curve(curve, ((0.0, -1.0), (1.0, 0.0)), Vec2(3.0, 0.0))
    slow = reparametrize(curve, lambda h: 0.5 * h,
                         [lambda h: 0.5, lambda h: 0.0, lambda h: 0.0],
                         domain_h=(0.0, 12.0))
    for derived in (moved, slow):
        assert derived.arrays is None
        ts = np.linspace(*derived.domain, 7)
        for got, want in zip(derived.sample(ts),
                             scalar_samples(derived, ts)):
            assert np.array_equal(got, want)
    assert not np.allclose(moved.sample(np.linspace(0.0, 6.0, 7), 0)[0],
                           curve.sample(np.linspace(0.0, 6.0, 7), 0)[0])


def test_failing_expression_sample_raises_the_walkers_error():
    # numpy flags 1/0 at t = 0.5, where 1/(1/0) would hide it as 0
    curve = curve_from_spec({"kind": "expr", "domain": [0.0, 1.0],
                             "expr": {"x": "t", "y": "1/(1/(t - 0.5))"}})
    assert curve.sample([0.0, 0.25], 0)[0].tolist() == [[0.0, -0.5],
                                                        [0.25, -0.25]]
    with pytest.raises(EvalDomain, match=r"^division by zero at t=0.5$"):
        curve.sample([0.0, 0.5, 1.0], 0)


def test_sample_checks_domain_and_finiteness():
    curve = make_catalog_curve("ellipse")
    with pytest.raises(OutOfDomain, match="t=7"):
        curve.sample([0.0, 7.0, 8.0])
    huge = make_catalog_curve("parabola", {"a": 1e308})
    with pytest.raises(KinematicsError, match="non-finite"):
        huge.sample([0.0, 2.0])


@pytest.mark.parametrize("params", [
    {"a": "x"}, {"radius": None}, {"radius": True}, {"radius": float("nan")},
    {"x_coeffs": ["a"]}, {"x_coeffs": 3.0}, {"y_coeffs": [1.0, float("inf")]}])
def test_catalog_params_must_be_finite_numbers(params):
    name = next(n for n, e in CATALOG.items()
                if set(params) <= set(e.defaults))
    with pytest.raises(BadParameters):
        make_catalog_curve(name, params)


@pytest.mark.parametrize("domain", [
    ["a", 1], ["a", "b"], [0.0], [0.0, 1.0, 2.0], "ab", [0.0, float("inf")],
    [1.0, 0.0], [True, 2.0]])
def test_spec_domain_must_be_two_increasing_finite_numbers(domain):
    for record in ({"kind": "ellipse", "domain": domain},
                   {"kind": "expr", "expr": {"x": "t", "y": "t^2"},
                    "domain": domain}):
        with pytest.raises(BadParameters):
            curve_from_spec(record)
