"""Fixed-size 2- and 3-vector arithmetic.

Plain frozen dataclasses over 64-bit floats.  Components are validated to be
finite on construction, so NaN/Inf cannot leak out of any public operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DegenerateVector, KinematicsError

EPS_NORM = 1e-12


def _check_finite(*components: float) -> None:
    for c in components:
        if not math.isfinite(c):
            raise KinematicsError(f"non-finite vector component: {c!r}")


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __post_init__(self):
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


@dataclass(frozen=True)
class Vec3:
    x: float
    y: float
    z: float

    def __post_init__(self):
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


Vec = Union[Vec2, Vec3]


def unit_vector(v: Vec, eps: float = EPS_NORM) -> Vec:
    """v / |v|, raising DegenerateVector when |v| <= eps."""
    n = v.norm()
    if n <= eps:
        raise DegenerateVector(f"cannot normalize vector of length {n:g}")
    return v / n


def triple_product(a: Vec3, b: Vec3, c: Vec3) -> float:
    """a vedge b . c (the 3x3 determinant of the rows a, b, c)."""
    return a.cross(b).dot(c)
