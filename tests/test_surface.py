import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkin.curves import curve_from_spec
from rotorkin.errors import (AxisProjectionDegenerate, BadParameters,
                             DegenerateProjection, IrregularNet, OutOfDomain)
from rotorkin.numerics import default_step, extrapolate_to_zero, fd_derivative
from rotorkin.space import space_distance_kinematics
from rotorkin.surface import (chart_curve, chart_curve_derivatives,
                              composed_space_curve,
                              make_surface, surface_chord_speeds,
                              surface_distance_kinematics, surface_geometry,
                              surface_local_first_derivative,
                              surface_plane_rot_limits)
from rotorkin.vec import Vec3

RNG = np.random.default_rng(917)
LADDER_WIDE = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def const(value):
    return lambda t: value


def sphere_band_curve(domain=(0.2, 5.8)):
    return chart_curve(
        lambda t: t, lambda t: 0.3 * math.sin(t) + 0.2, domain=domain,
        u_derivs=(const(1.0), const(0.0), const(0.0)),
        v_derivs=(lambda t: 0.3 * math.cos(t), lambda t: -0.3 * math.sin(t),
                  lambda t: -0.3 * math.cos(t)))


def torus_wind_curve(domain=(0.2, 5.8)):
    return chart_curve(
        lambda t: t, lambda t: math.sin(t) + 2.0, domain=domain,
        u_derivs=(const(1.0), const(0.0), const(0.0)),
        v_derivs=(math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t)))


def equator_curve():
    return chart_curve(lambda t: t, const(0.0), domain=(0.0, 6.2),
                       u_derivs=(const(1.0), const(0.0), const(0.0)),
                       v_derivs=(const(0.0), const(0.0), const(0.0)))


# -- geometry ------------------------------------------------------------------

def test_sphere_geometry_at_equator():
    geo = surface_geometry(make_surface("sphere"), 0.7, 0.0)
    assert np.allclose(geo.g, np.eye(2), atol=1e-15)
    assert abs(abs(geo.L[0, 0]) - 1.0) <= 1e-14


def test_plane_chart_is_flat():
    geo = surface_geometry(make_surface("plane"), 0.3, -0.8)
    assert np.abs(geo.L).max() == 0.0
    assert np.abs(geo.Gamma).max() == 0.0


def test_metric_inverse_and_normal():
    surf = make_surface("torus")
    for _ in range(25):
        u = RNG.uniform(0, 2 * math.pi)
        v = RNG.uniform(0, 2 * math.pi)
        geo = surface_geometry(surf, u, v)
        assert np.abs(geo.g @ geo.g_inv - np.eye(2)).max() <= 1e-10
        assert abs(geo.n.norm() - 1.0) <= 1e-12
        assert abs(geo.n.dot(geo.r1)) <= 1e-10
        assert abs(geo.n.dot(geo.r2)) <= 1e-10
        assert np.abs(geo.Gamma - geo.Gamma.transpose(0, 2, 1)).max() <= 1e-14


def test_metric_compatibility():
    # d_k g_ij = sum_m (Gamma^m_ki g_mj + Gamma^m_kj g_mi)
    surf = make_surface("torus")
    u0, v0 = 1.1, 0.63
    geo = surface_geometry(surf, u0, v0)
    h = 1e-6
    for k in range(2):
        if k == 0:
            dg = (surface_geometry(surf, u0 + h, v0).g
                  - surface_geometry(surf, u0 - h, v0).g) / (2 * h)
        else:
            dg = (surface_geometry(surf, u0, v0 + h).g
                  - surface_geometry(surf, u0, v0 - h).g) / (2 * h)
        predicted = (np.einsum("mi,mj->ij", geo.Gamma[:, k, :], geo.g)
                     + np.einsum("mj,mi->ij", geo.Gamma[:, k, :], geo.g))
        assert np.abs(dg - predicted).max() <= 1e-6


def test_irregular_net_raises():
    surf = make_surface("sphere")
    # override the domain check by sampling right at the pole
    with pytest.raises((IrregularNet, OutOfDomain)):
        surface_geometry(surf, 1.0, 0.5 * math.pi)


def test_surface_catalog_errors():
    with pytest.raises(BadParameters):
        make_surface("torus", {"R": 0.5, "r": 1.0})
    with pytest.raises(BadParameters):
        make_surface("moebius")
    with pytest.raises(BadParameters):
        make_surface("graph", {"c99": 1.0})


# -- catalog partials ------------------------------------------------------

PARTIAL_KEYS = ("u", "v", "uu", "uv", "vv", "uuu", "uuv", "uvv", "vvv")


@st.composite
def catalog_surfaces(draw):
    kind = draw(st.sampled_from(["sphere", "torus", "cylinder", "graph"]))
    center = {key: draw(st.floats(-10.0, 10.0)) for key in ("cx", "cy", "cz")}
    if kind == "graph":
        keys = [f"c{i}{j}" for i in range(4) for j in range(4 - i)]
        return kind, draw(st.dictionaries(st.sampled_from(keys),
                                          st.floats(-3.0, 3.0)))
    if kind == "torus":
        r = draw(st.floats(0.1, 3.0))
        return kind, {"R": r + draw(st.floats(0.1, 5.0)), "r": r, **center}
    return kind, {"radius": draw(st.floats(0.1, 10.0)), **center}


def off_surface(kind, params, point):
    """How far `point` is from satisfying the surface's implicit equation."""
    x, y, z = point
    if kind == "graph":
        return abs(z - sum(c * x ** int(key[1]) * y ** int(key[2])
                           for key, c in params.items()))
    rho = math.hypot(x - params["cx"], y - params["cy"])
    if kind == "sphere":
        return abs(math.hypot(rho, z - params["cz"]) - params["radius"])
    if kind == "torus":
        return abs(math.hypot(rho - params["R"], z - params["cz"])
                   - params["r"])
    return abs(rho - params["radius"])


@settings(max_examples=300, deadline=None)
@given(case=catalog_surfaces(), s=st.floats(0.0, 1.0), w=st.floats(0.0, 1.0))
def test_catalog_partials_are_derivatives_of_the_chart(case, s, w):
    # each partial (a, b) against a central difference of the one an order
    # lower (in u when a > 0, else in v; the chart at order 0), within the
    # difference's truncation estimate |D(2h) - D(h)| plus rounding
    kind, params = case
    surf = make_surface(kind, params)
    (u0, u1), (v0, v1) = surf.domain
    u, v = u0 + s * (u1 - u0), v0 + w * (v1 - v0)
    assert sorted(surf.partials) == sorted(PARTIAL_KEYS)
    point = surf.chart(u, v).as_tuple()
    scale = max(1.0, *map(abs, point))
    assert off_surface(kind, params, point) <= 1e-12 * scale

    def at(key, du, dv):
        fn = surf.partials[key] if key else surf.chart
        return np.array(fn(u + du, v + dv).as_tuple())

    for key in PARTIAL_KEYS:
        a, b = key.count("u"), key.count("v")
        lower = "u" * (a - 1) + "v" * b if a else "v" * (b - 1)
        step = np.array((1.0, 0.0) if a else (0.0, 1.0))

        def central(h):
            return (at(lower, *(h * step)) - at(lower, *(-h * step))) / (2 * h)

        h = 1e-3
        estimate = np.abs(central(2 * h) - central(h))
        rounding = 1e-9 * max(scale, np.abs(at(lower, 0.0, 0.0)).max())
        error = np.abs(at(key, 0.0, 0.0) - central(h))
        assert (error <= estimate + rounding).all(), (key, error, estimate)


# -- chart curves ----------------------------------------------------------------

def test_chart_curve_without_derivatives_differences_each_coordinate():
    # bit for bit what a difference of each coordinate on its own gives,
    # with the one-sided stencils at the ends
    u, v = (lambda t: t * t), (lambda t: math.sin(3.0 * t))
    domain = (0.2, 1.7)
    curve = chart_curve(u, v, domain=domain)
    for t in (0.2, 0.2005, 0.9, 1.6999, 1.7):
        for order in (1, 2, 3):
            want = tuple(fd_derivative(f, t, order, h=default_step(order),
                                       domain=domain) for f in (u, v))
            assert curve.derivative(t, order).as_tuple() == want


def test_chart_curve_analytic_derivatives_pair_the_coordinates():
    curve = chart_curve(math.sin, math.cos, domain=(0.0, 1.0),
                        u_derivs=(math.cos, math.sin, math.tan),
                        v_derivs=(math.exp, math.log1p, math.atan))
    assert curve.point(0.5).as_tuple() == (math.sin(0.5), math.cos(0.5))
    for order, fu, fv in ((1, math.cos, math.exp), (2, math.sin, math.log1p),
                          (3, math.tan, math.atan)):
        assert curve.derivative(0.5, order).as_tuple() == (fu(0.5), fv(0.5))


def _num(x):
    return f"({x!r})"


@st.composite
def chart_lines(draw):
    """A sphere or torus off the origin, the chart line u = a + b t,
    v = c + d sin(t) on t in [0, 1] inside its chart, and the same
    composed curve written as one expression space curve."""
    kind = draw(st.sampled_from(["sphere", "torus"]))
    cx, cy, cz = (draw(st.floats(3.5, 6.0)) for _ in range(3))
    a, b = draw(st.floats(1.6, 4.5)), draw(st.floats(-1.5, 1.5))
    if kind == "sphere":
        radius = draw(st.floats(0.5, 2.0))
        params = {"radius": radius}
        c, d = draw(st.floats(-0.8, 0.8)), draw(st.floats(-0.4, 0.4))
    else:
        big, small = draw(st.floats(1.0, 2.0)), draw(st.floats(0.1, 0.9))
        params = {"R": big, "r": small}
        c, d = draw(st.floats(0.5, 5.5)), draw(st.floats(-0.5, 0.5))
    u = f"{_num(a)} + {_num(b)}*t"
    v = f"{_num(c)} + {_num(d)}*sin(t)"
    if kind == "sphere":
        rho, z = f"{_num(radius)}*cos({v})", f"{_num(radius)}*sin({v})"
    else:
        rho = f"({_num(big)} + {_num(small)}*cos({v}))"
        z = f"{_num(small)}*sin({v})"
    surf = make_surface(kind, {**params, "cx": cx, "cy": cy, "cz": cz})
    chart = curve_from_spec({"kind": "expr", "expr": {"x": u, "y": v},
                             "domain": [0.0, 1.0]})
    space = curve_from_spec({"kind": "expr", "domain": [0.0, 1.0], "expr": {
        "x": f"{_num(cx)} + {rho}*cos({u})",
        "y": f"{_num(cy)} + {rho}*sin({u})",
        "z": f"{_num(cz)} + {z}"}})
    return surf, chart, space


@settings(max_examples=100, deadline=None)
@given(case=chart_lines(), ts=st.lists(st.floats(0.0, 1.0), min_size=6,
                                       max_size=6))
def test_surface_kinematics_are_those_of_the_expression_space_curve(case, ts):
    surf, chart, space = case
    fields = ("D", "dD", "d2D", "speed_a", "speed_b", "speed_c")
    for t in ts:
        got = surface_distance_kinematics(surf, chart, t)
        want = space_distance_kinematics(space, t)
        for name in fields:
            x, y = getattr(got, name), getattr(want, name)
            assert abs(x - y) <= 1e-10 * max(abs(x), abs(y), 1e-9), name


# -- chart-curve derivative expansion ------------------------------------------------

def test_sphere_equator_second_derivative():
    surf = make_surface("sphere")
    curve = equator_curve()
    for t in (0.5, 2.0, 4.5):
        _, d1, d2, _ = chart_curve_derivatives(surf, curve, t)
        expected = Vec3(-math.cos(t), -math.sin(t), 0.0)
        assert (d2 - expected).norm() <= 1e-14
        assert (d1 - Vec3(-math.sin(t), math.cos(t), 0.0)).norm() <= 1e-14


def test_flat_chart_straight_line_has_no_curvature():
    surf = make_surface("plane")
    line = chart_curve(lambda t: 0.5 * t, lambda t: -0.25 * t,
                       domain=(-1.0, 1.0),
                       u_derivs=(const(0.5), const(0.0), const(0.0)),
                       v_derivs=(const(-0.25), const(0.0), const(0.0)))
    _, _, d2, d3 = chart_curve_derivatives(surf, line, 0.3)
    assert d2.norm() == 0.0
    assert d3.norm() == 0.0


def test_expansion_matches_chain_rule_composition():
    # the natural-frame expansion and the direct chain rule are independent
    # code paths; they agree to machine precision
    for surf, curve in ((make_surface("sphere"), sphere_band_curve()),
                        (make_surface("torus"), torus_wind_curve())):
        composed = composed_space_curve(surf, curve)
        for t in RNG.uniform(0.3, 5.7, size=25):
            t = float(t)
            _, d1, d2, d3 = chart_curve_derivatives(surf, curve, t)
            for order, value in ((1, d1), (2, d2), (3, d3)):
                direct = composed.derivative(t, order)
                assert (value - direct).norm() <= 1e-12 * max(direct.norm(), 1.0)


def test_expansion_matches_order3_fd():
    surf = make_surface("torus")
    curve = torus_wind_curve()
    composed = composed_space_curve(surf, curve)
    t = 0.7
    _, _, _, d3 = chart_curve_derivatives(surf, curve, t)
    oracle = fd_derivative(composed.position, t, 3, h=1e-3,
                           domain=curve.domain)
    assert (d3 - oracle).norm() <= 1e-4 * max(oracle.norm(), 1.0)


# -- distance kinematics ----------------------------------------------------------

def test_shifted_sphere_distance_vs_fd():
    surf = make_surface("sphere", {"radius": 2.0, "cz": 5.0})
    curve = sphere_band_curve()
    composed = composed_space_curve(surf, curve)

    def dist(t):
        return composed.point(t).norm()

    for t in RNG.uniform(0.4, 5.6, size=50):
        kin = surface_distance_kinematics(surf, curve, float(t))
        fd = fd_derivative(dist, float(t), 1, domain=curve.domain)
        assert abs(kin.dD - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_centered_sphere_constant_distance():
    surf = make_surface("sphere", {"radius": 2.0})
    curve = sphere_band_curve()
    for t in (0.5, 2.5, 4.5):
        kin = surface_distance_kinematics(surf, curve, t)
        assert kin.D == pytest.approx(2.0, abs=1e-14)
        assert abs(kin.dD) <= 1e-14


def test_composed_curve_equivalence():
    # surface kinematics are the space kinematics of the composed curve
    surf = make_surface("torus", {"cz": 3.0})
    curve = torus_wind_curve()
    composed = composed_space_curve(surf, curve)
    for t in RNG.uniform(0.4, 5.6, size=50):
        assert repr(surface_distance_kinematics(surf, curve, float(t))) == \
            repr(space_distance_kinematics(composed, float(t)))


def test_surface_projection_failure_is_a_degenerate_projection():
    # x and z vanish at t = 0, and with them the xOz projection
    surf = make_surface("cylinder")
    line = chart_curve(const(0.5 * math.pi), lambda t: t, domain=(-1.0, 1.0),
                       u_derivs=(const(0.0), const(0.0), const(0.0)),
                       v_derivs=(const(1.0), const(0.0), const(0.0)))
    with pytest.raises(AxisProjectionDegenerate) as info:
        surface_distance_kinematics(surf, line, 0.0)
    assert isinstance(info.value, DegenerateProjection)


# -- first fundamental form ---------------------------------------------------------

def test_equator_arc_length_speed():
    surf = make_surface("sphere")
    assert surface_local_first_derivative(surf, equator_curve(), 1.0) == \
        pytest.approx(1.0, abs=1e-15)


def test_chord_length_ladder_converges_to_phi():
    surf = make_surface("torus")
    curve = torus_wind_curve()
    for t in (0.9, 3.1):
        phi = surface_local_first_derivative(surf, curve, t)
        ratios = []
        for dt in LADDER_WIDE:
            chord = (surf.point(*curve.point(t + dt).as_tuple())
                     - surf.point(*curve.point(t).as_tuple()))
            ratios.append(chord.norm() / dt)
        estimate = extrapolate_to_zero(LADDER_WIDE, ratios)
        assert abs(estimate - phi) <= 1e-4 * max(phi, 1.0)


def test_phi_squared_is_first_fundamental_form():
    surf = make_surface("torus")
    curve = torus_wind_curve()
    for t in RNG.uniform(0.3, 5.7, size=200):
        t = float(t)
        phi = surface_local_first_derivative(surf, curve, t)
        geo = surface_geometry(surf, *curve.point(t).as_tuple())
        up = np.array(curve.derivative(t, 1).as_tuple())
        form = float(np.einsum("ij,i,j->", geo.g, up, up))
        assert abs(phi * phi - form) <= 1e-12 * max(form, 1.0)


# -- rotational speed limits --------------------------------------------------------

def test_sphere_equator_limits():
    surf = make_surface("sphere")
    curve = equator_curve()
    psi_a, psi_b, _ = surface_plane_rot_limits(surf, curve, 1.0,
                                               components="ab")
    assert psi_a == 0.0  # the equator is a geodesic
    assert psi_b == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(DegenerateProjection):
        surface_plane_rot_limits(surf, curve, 1.0, components="abc")


def test_tangent_plane_limit_matches_verbatim_contraction():
    # the tangent-plane limit is implemented via the geodesic-equation
    # residual; expand the full six-index metric contraction literally and
    # compare
    surf = make_surface("torus")
    curve = torus_wind_curve()
    for t in (0.8, 2.9):
        (u, v) = curve.point(t).as_tuple()
        up = np.array(curve.derivative(t, 1).as_tuple())
        upp = np.array(curve.derivative(t, 2).as_tuple())
        geo = surface_geometry(surf, u, v)
        G, g = geo.Gamma, geo.g

        def big_term(p):
            total = 0.0
            for k in range(2):
                for l in range(2):
                    inner = sum(G[l, i, j] * up[i] * up[j]
                                for i in range(2) for j in range(2))
                    total += (inner * up[k] * up[p]
                              + upp[l] * up[k] * up[p]) * g[k, l]
                    inner_p = sum(G[p, i, j] * up[i] * up[j]
                                  for i in range(2) for j in range(2))
                    total -= (inner_p * up[k] * up[l]
                              + upp[p] * up[k] * up[l]) * g[k, l]
            return total

        contraction = sum(big_term(p) * big_term(q) * g[p, q]
                          for p in range(2) for q in range(2))
        speed = math.sqrt(float(np.einsum("ij,i,j->", g, up, up)))
        verbatim = 0.5 / speed ** 3 * math.sqrt(max(contraction, 0.0))
        implemented = surface_plane_rot_limits(surf, curve, t,
                                               components="a")[0]
        assert abs(verbatim - implemented) <= 1e-12 * max(verbatim, 1.0)


def test_flat_chart_mixed_limits_vanish():
    surf = make_surface("plane")
    line = chart_curve(lambda t: t, lambda t: 2.0 * t + 0.3,
                       domain=(-1.0, 1.0),
                       u_derivs=(const(1.0), const(0.0), const(0.0)),
                       v_derivs=(const(2.0), const(0.0), const(0.0)))
    psi_a, psi_b, psi_c = surface_plane_rot_limits(surf, line, 0.2)
    assert psi_a == 0.0
    assert psi_b == 0.0
    assert psi_c == 0.0


def test_chord_speeds_vs_fd_of_projected_direction():
    surf = make_surface("torus")
    curve = torus_wind_curve()
    t = 1.3
    geo = surface_geometry(surf, *curve.point(t).as_tuple())
    basis = [np.array(geo.r1.as_tuple()), np.array(geo.r2.as_tuple()),
             np.array(geo.n.as_tuple())]
    m = np.stack(basis).T

    for dt in (1e-2, 1e-3):
        speeds = surface_chord_speeds(surf, curve, t, dt)
        for idx, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
            def unit_comp(s):
                delta = (surf.point(*curve.point(t + s).as_tuple())
                         - surf.point(*curve.point(t).as_tuple()))
                chi = np.linalg.solve(m, np.array(delta.as_tuple()))
                vec = chi[i] * basis[i] + chi[j] * basis[j]
                return vec / np.linalg.norm(vec)

            h = dt * 1e-3
            fd = np.linalg.norm((unit_comp(dt + h) - unit_comp(dt - h))
                                / (2 * h))
            assert abs(speeds[idx] - fd) <= 1e-4 * max(fd, 1.0)


def test_chord_speeds_converge_to_limits():
    for surf, curve in ((make_surface("sphere"), sphere_band_curve()),
                        (make_surface("torus"), torus_wind_curve())):
        for t in (1.0, 2.6):
            closed = surface_plane_rot_limits(surf, curve, t)
            for idx in range(3):
                values = [surface_chord_speeds(surf, curve, t, dt)[idx]
                          for dt in LADDER_WIDE]
                estimate = extrapolate_to_zero(LADDER_WIDE, values)
                assert abs(estimate - closed[idx]) <= \
                    1e-3 * max(abs(closed[idx]), 1.0)
