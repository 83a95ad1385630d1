import math

import numpy as np
import pytest

from rotorkin.errors import DegenerateVector, KinematicsError
from rotorkin.vec import Vec2, Vec3, triple_product, unit_vector

RNG = np.random.default_rng(411)


def rand_vec3(scale=1.0):
    return Vec3(*(RNG.normal(size=3) * scale))


def test_unit_vector_345():
    u = unit_vector(Vec2(3.0, 4.0))
    assert u == Vec2(0.6, 0.8)


def test_unit_vector_zero_raises():
    with pytest.raises(DegenerateVector):
        unit_vector(Vec2(0.0, 0.0))


def test_unit_vector_symmetric():
    u = unit_vector(Vec3(1.0, 1.0, 1.0))
    expected = 1.0 / math.sqrt(3.0)
    for comp in (u.x, u.y, u.z):
        assert abs(comp - expected) < 1e-15


def test_unit_vector_norm_property():
    for _ in range(500):
        v = rand_vec3(scale=10.0 ** RNG.uniform(-3, 3))
        if v.norm() <= 1e-12:
            continue
        assert abs(unit_vector(v).norm() - 1.0) <= 1e-14


def test_triple_product_basis():
    assert triple_product(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)) == 1.0


def test_triple_product_repeated_argument():
    a, c = Vec3(2, -1, 3), Vec3(0, 5, 1)
    assert triple_product(a, a, c) == 0.0


def test_triple_product_cofactor_oracle():
    # det [[1,2,3],[4,5,6],[7,8,10]] = 1*(50-48) - 2*(40-42) + 3*(32-35) = -3
    assert triple_product(Vec3(1, 2, 3), Vec3(4, 5, 6), Vec3(7, 8, 10)) == -3.0


def test_triple_product_antisymmetry():
    for _ in range(200):
        a, b, c = rand_vec3(), rand_vec3(), rand_vec3()
        t = triple_product(a, b, c)
        scale = max(abs(t), 1.0)
        assert abs(triple_product(b, a, c) + t) < 1e-12 * scale
        assert abs(triple_product(a, c, b) + t) < 1e-12 * scale
        assert abs(triple_product(c, b, a) + t) < 1e-12 * scale


def test_lagrange_identity():
    for _ in range(500):
        a, b = rand_vec3(3.0), rand_vec3(3.0)
        lhs = a.cross(b).norm() ** 2
        rhs = a.dot(a) * b.dot(b) - a.dot(b) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_non_finite_components_rejected():
    with pytest.raises(KinematicsError):
        Vec2(float("nan"), 0.0)
    with pytest.raises(KinematicsError):
        Vec3(0.0, float("inf"), 0.0)
