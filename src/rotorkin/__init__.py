"""Rotating-frame kinematics of parametric curves.

Decomposes the motion of a point along a plane curve, space curve, or
surface-bound curve into linear motion (distance rate to a frame center)
plus rotation (angular rate of the tracked direction), exposes the local
chord-limit invariants that classify curves up to position, and
reconstructs trajectories from the decomposed data by ODE integration.
"""

import importlib

__version__ = "0.1.0"

# each public name and its module, imported on first use of the name (PEP
# 562), so that `import rotorkin.cli` loads only the modules the CLI runs
_HOMES = {"PlaneCurve": "curves", "SpaceCurve": "curves", "Vec2": "vec",
          "Vec3": "vec", "EllipseParams": "ellipse",
          "make_catalog_curve": "curves", "curve_from_spec": "curves",
          "reparametrize": "curves", "transform_curve": "curves"}
__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
