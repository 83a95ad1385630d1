"""Fixed-size 2- and 3-vector arithmetic.

Frozen, slotted dataclasses over 64-bit floats.  The constructor stores each
component through its slot and then runs `__post_init__`, the one finite
check per construction, so NaN/Inf cannot leak out of any public operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from operator import sub
from typing import Union

from .errors import DegenerateVector, KinematicsError

EPS_NORM = 1e-12
# the coordinate planes xOy, xOz, yOz (or basis planes 1-2, 1-3, 2-3)
_PLANES = ((0, 1), (0, 2), (1, 2))


def _check_finite(*components: float) -> None:
    for c in components:
        if not math.isfinite(c):
            raise KinematicsError(f"non-finite vector component: {c!r}")


# The constructors store components through the slot descriptors bound
# below each class (object.__setattr__ would double their cost), then run
# __post_init__ once: perfbench/tracer.py counts vectors by patching it.

@dataclass(frozen=True, slots=True, init=False)
class Vec2:
    """A finite plane vector."""
    x: float
    y: float

    def __init__(self, x: float, y: float):
        _set_x2(self, x)
        _set_y2(self, y)
        self.__post_init__()

    def __post_init__(self):
        if not (isfinite(self.x) and isfinite(self.y)):
            _check_finite(self.x, self.y)

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec2":
        return Vec2(self.x / s, self.y / s)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """Scalar z-component of the wedge of two plane vectors."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


_set_x2, _set_y2 = Vec2.x.__set__, Vec2.y.__set__


@dataclass(frozen=True, slots=True, init=False)
class Vec3:
    """A finite space vector."""
    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float):
        _set_x3(self, x)
        _set_y3(self, y)
        _set_z3(self, z)
        self.__post_init__()

    def __post_init__(self):
        if not (isfinite(self.x) and isfinite(self.y) and isfinite(self.z)):
            _check_finite(self.x, self.y, self.z)

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec3":
        return Vec3(self.x / s, self.y / s, self.z / s)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


_set_x3, _set_y3, _set_z3 = Vec3.x.__set__, Vec3.y.__set__, Vec3.z.__set__


Vec = Union[Vec2, Vec3]


def unit_vector(v: Vec) -> Vec:
    """v / |v|, raising DegenerateVector when |v| <= EPS_NORM."""
    n = v.norm()
    if n <= EPS_NORM:
        raise DegenerateVector(f"cannot normalize vector of length {n:g}")
    return v / n


def triple_product(a: Vec3, b: Vec3, c: Vec3) -> float:
    """a vedge b . c (the 3x3 determinant of the rows a, b, c)."""
    return a.cross(b).dot(c)


# -- the same rules on component tuples ---------------------------------------
# The scalar formulas keep their vectors as float tuples and build a Vec only
# for a public result; these give them Vec's finite check and norms.

def _checked(components: tuple) -> tuple:
    """`components`, after the finite check a Vec built from them runs."""
    if not all(map(isfinite, components)):
        _check_finite(*components)
    return components


def _sub(p: tuple, q: tuple) -> tuple:
    """p - q of component tuples, with the finite check of Vec.__sub__."""
    return _checked(tuple(map(sub, p, q)))


def _norm(c: tuple) -> float:
    """|c| by the formula of Vec2.norm (hypot) or of Vec3.norm."""
    if len(c) == 2:
        return math.hypot(*c)
    x, y, z = c
    return math.sqrt(x * x + y * y + z * z)
