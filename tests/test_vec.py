import copy
import dataclasses
import math
import pickle

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


# -- the Vec contract -----------------------------------------------------------

def test_vectors_are_frozen_and_slotted():
    for v in (Vec2(1.0, 2.0), Vec3(1.0, 2.0, 3.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.x = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del v.y
        # a new name: on Python 3.10 and 3.11 the frozen __setattr__ of a
        # slots=True dataclass raises TypeError here
        with pytest.raises((AttributeError, TypeError)):
            v.w = 5.0
        assert not hasattr(v, "__dict__")
        assert (v.x, v.y) == (1.0, 2.0)
        assert pickle.loads(pickle.dumps(v)) == copy.copy(v) == v


def test_vector_eq_hash_and_repr():
    assert Vec2(1.0, 2.0) == Vec2(1.0, 2.0) != Vec2(1.0, 3.0)
    assert Vec3(1.0, 2.0, 3.0) == Vec3(1, 2, 3)
    assert Vec2(1.0, 2.0) != (1.0, 2.0)
    assert hash(Vec2(1.0, 2.0)) == hash((1.0, 2.0))
    assert hash(Vec3(1.0, 2.0, 3.0)) == hash((1.0, 2.0, 3.0))
    assert len({Vec3(0.0, 0.0, 1.0), Vec3(0.0, 0.0, 1.0)}) == 1
    assert repr(Vec2(0.5, -1.0)) == "Vec2(x=0.5, y=-1.0)"
    assert repr(Vec3(0.5, -1.0, 2.0)) == "Vec3(x=0.5, y=-1.0, z=2.0)"
    assert Vec2(x=1.0, y=2.0) == Vec2(1.0, 2.0)
    assert [f.name for f in dataclasses.fields(Vec3)] == ["x", "y", "z"]


@pytest.mark.parametrize("cls, components, bad", [
    (Vec2, (math.nan, 0.0), math.nan),
    (Vec2, (1.0, -math.inf), -math.inf),
    (Vec3, (0.0, math.inf, math.nan), math.inf),
    (Vec3, (1.0, 2.0, np.float64("nan")), np.float64("nan")),
])
def test_first_non_finite_component_is_named(cls, components, bad):
    with pytest.raises(KinematicsError) as info:
        cls(*components)
    assert str(info.value) == f"non-finite vector component: {bad!r}"


def test_numpy_components_are_accepted():
    v = Vec3(*np.array([1.0, 2.0, 3.0]))
    assert v == Vec3(1.0, 2.0, 3.0)
    assert Vec2(np.float64(3.0), np.float64(4.0)).norm() == 5.0


def test_post_init_runs_once_per_vector(monkeypatch):
    # the benchmark's tracer counts vectors by patching __post_init__
    calls = []
    for cls in (Vec2, Vec3):
        def counted(self, _post_init=cls.__post_init__):
            calls.append(type(self))
            return _post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    a, b = Vec2(1.0, 2.0), Vec2(3.0, 5.0)
    p, q = Vec3(1.0, 2.0, 3.0), Vec3(0.0, 1.0, 4.0)
    assert calls == [Vec2, Vec2, Vec3, Vec3]
    del calls[:]
    results = [a + b, a - b, a * 2.0, 2.0 * a, a / 2.0, -a, unit_vector(a),
               p + q, p - q, p * 2.0, 2.0 * p, p / 2.0, -p, p.cross(q),
               unit_vector(p)]
    assert calls == [type(r) for r in results]
    del calls[:]
    assert a.dot(b) == 13.0 and a.cross(b) == -1.0 and p.norm() > 0.0
    assert calls == []
    assert triple_product(p, q, Vec3(1.0, 0.0, 0.0)) == 5.0
    assert calls == [Vec3, Vec3]  # the third argument and p x q
    with pytest.raises(KinematicsError):
        Vec2(math.nan, 0.0)
    assert calls == [Vec3, Vec3, Vec2]
