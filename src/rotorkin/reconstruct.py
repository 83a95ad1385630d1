"""Trajectory reconstruction from decomposed motion data.

A moving point is pinned down by (a) an ODE for its distance to a fixed
center (first- or second-order form) and (b) its rotation: the unit
direction to it in the plane, or its three coordinate-plane projections in
space, each turning at a signed angular speed omega.  A problem whose
`data(ts)` gives these as functions of time only is rebuilt by running
Simpson sums (what RK4 reduces to for such data) of the distance datum and
of the angles, so each direction (cos, sin) has unit norm exactly and
`max_drift` is 0.  Other problems take classical RK4 on their (t, e)
fields, renormalizing the directions after every step and recording the
largest pre-renormalization drift.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .csvout import _BLOCK, _column_blocks, _write_csv
from .curves import make_catalog_curve
from .errors import (BadParameters, CenterOnCurve, InconsistentDirections,
                     NonFiniteData, NonTangentField, ProjectionCollapse,
                     StepTooLarge)
from .plane import _frame_terms
from .vec import _PLANES, Vec2, Vec3

_TANGENCY_TOL = 1e-8
# a trajectory is considered to have hit a coordinate plane when the
# corresponding component of its unit direction drops below this; the
# triangulation of the point from its plane projections degenerates there
_COLLAPSE_TOL = 1e-3
_TRIANGULATION_TOL = 1e-6
_MAX_STEPS = 10 ** 6
# the steps a problem takes when its step is None
_DEFAULT_STEPS = 10 ** 4
# the plane problem's one direction turns in the plane of its slots (0, 1)
_PLANE = ((0, 1),)


@dataclass(frozen=True)
class Trajectory:
    """A rebuilt trajectory: parameters, points and direction drift."""
    ts: np.ndarray
    points: np.ndarray  # (n, 2) or (n, 3)
    max_drift: float

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def max_error_vs(self, curve) -> float:
        """Largest distance from the trajectory to `curve` at the same
        parameter; a non-finite point raises NonFiniteData.  A block whose
        norms overflow is redone by math.dist, which scales each row."""
        worst = 0.0
        for start in range(0, len(self.ts), _BLOCK):
            points = self.points[start:start + _BLOCK]
            if not np.isfinite(points).all():
                raise NonFiniteData("trajectory has a non-finite point")
            ref = curve.sample(self.ts[start:start + _BLOCK], 0)[0]
            with np.errstate(over="ignore"):
                dists = np.linalg.norm(points - ref, axis=1)
            if not np.isfinite(dists).all():
                dists = np.array([math.dist(p, q) for p, q in
                                  zip(points.tolist(), ref.tolist())])
            worst = max(worst, float(dists.max()))
        return worst

    @property
    def header(self) -> list[str]:
        return ["t", "x", "y", "z"][:self.dim + 1]

    def write_csv(self, path) -> None:
        _write_csv(lambda: open(path, "w", newline=""), self.header,
                   _column_blocks((self.ts, *self.points.T)))


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _as_array(v) -> np.ndarray:
    if isinstance(v, (Vec2, Vec3)):
        return np.array(v.as_tuple(), dtype=float)
    return np.asarray(v, dtype=float)


def _step(problem) -> float:
    """The problem's step; None takes span / _DEFAULT_STEPS, if not 0."""
    t0, t1 = problem.domain
    step = (t1 - t0) / _DEFAULT_STEPS if problem.step is None else problem.step
    if problem.step is None and step == 0:
        raise BadParameters(f"domain [{t0:g}, {t1:g}] is too short for the "
                            "default step: span / 10^4 rounds to 0")
    return step


def _check_problem(problem, fields, directions) -> None:
    """Checks shared by both problem kinds; NaN fails every one of them."""
    if problem.data is None and None in fields:
        raise BadParameters("a problem needs data or all its rhs fields")
    if not problem.D0 > 0:
        raise BadParameters("D0 must be positive")
    if problem.order not in (1, 2):
        raise BadParameters("distance ODE order must be 1 or 2")
    step = _step(problem)
    if not (isinstance(step, numbers.Real) and not isinstance(step, bool)
            and math.isfinite(step) and step > 0):
        raise BadParameters(f"step must be finite and positive, got {step!r}")
    t0, t1 = problem.domain
    if not abs(t1 - t0) / step <= _MAX_STEPS:
        raise BadParameters(
            f"step {step:g} needs more than {_MAX_STEPS} steps on "
            f"[{t0:g}, {t1:g}]")
    for name, e in directions:
        if not abs(np.linalg.norm(_as_array(e)) - 1.0) <= 1e-12:
            raise BadParameters(f"{name} must be a unit vector")


def _step_count(problem) -> tuple[int, float]:
    t0, t1 = problem.domain
    n_steps = max(1, int(round((t1 - t0) / _step(problem))))
    return n_steps, (t1 - t0) / n_steps


def _non_positive(step: int, t: float) -> StepTooLarge:
    return StepTooLarge(
        f"distance became non-positive at step {step} (t={t:g})")


def _general_path(problem, fields, e0s, assemble) -> Trajectory:
    """RK4 on (t, e) fields: the distance state and each direction are
    stepped separately (they do not couple), renormalized, and assembled."""
    t0 = problem.domain[0]
    n_steps, h = _step_count(problem)
    es = [_as_array(e) for e in e0s]
    for f, e in zip(fields, es):
        v = _as_array(f(t0, e))
        if abs(float(v @ e)) > _TANGENCY_TOL * max(1.0, float(np.linalg.norm(v))):
            raise NonTangentField("direction field not tangent at the start")
    second = problem.order == 2

    def rhs_dist(t, y):
        if second:
            return np.array([y[1], problem.rhs_D(t)])
        return np.array([problem.rhs_D(t)])

    dvec = np.array([problem.D0, problem.dD0] if second else [problem.D0])
    ts = np.empty(n_steps + 1)
    ts[0] = t0
    first = assemble(np.array([problem.D0]), np.array([es]), ts[:1])
    points = np.empty((n_steps + 1, first.shape[1]))
    points[0] = first[0]
    max_drift = 0.0
    for k in range(n_steps):
        t = t0 + k * h
        dvec = _rk4_step(rhs_dist, t, dvec, h)
        for i, f in enumerate(fields):
            e = _rk4_step(lambda s, y, _f=f: _as_array(_f(s, y)), t, es[i], h)
            norm = float(np.linalg.norm(e))
            max_drift = max(max_drift, abs(norm - 1.0))
            es[i] = e / norm
        D = float(dvec[0])
        if not D > 0.0:
            raise _non_positive(k + 1, t + h)
        ts[k + 1] = t0 + (k + 1) * h
        points[k + 1] = assemble(np.array([D]), np.array([es]),
                                 ts[k + 1:k + 2])[0]
    return Trajectory(ts=ts, points=points, max_drift=max_drift)


def _running_sums(first, steps) -> np.ndarray:
    """`first`, then `first` plus each prefix sum of `steps` (axis 0), with
    the rounding error of each add (Knuth's TwoSum) summed alongside: a
    plain cumsum drifts by 8e-13 over the circle preset's 1e4 steps.  Once
    a sum is not finite it is left as cumsum has it."""
    y = np.concatenate(([first], steps))
    total = np.cumsum(y, axis=0)
    before, step, after = total[:-1], y[1:], total[1:]
    part = after - before
    err = (before - (after - part)) + (step - part)
    err = np.where(np.isfinite(err), err, 0.0)
    return np.concatenate(([first], after + np.cumsum(err, axis=0)))


def _time_only_path(problem, e0s, planes, assemble) -> Trajectory:
    """Time-only data as running Simpson sums, a block of steps at a time.

    Per block of m steps: `data` in one call on the m + 1 grid points
    t_k = t0 + k h that bound its steps and on their m midpoints t_k + h/2;
    then the sums of the angle of each direction in its plane (i, j) of
    `planes`, from atan2 of its start value, and of the distance (and its
    rate, at order 2).  `assemble(Ds, Es, ts)` turns the block's distances
    and directions into points and raises for a bad row; the error raised
    is that of the first failing step, non-finite data ahead of D <= 0.
    """
    t0 = problem.domain[0]
    n_steps, h = _step_count(problem)
    h6 = h / 6.0
    es = [_as_array(e) for e in e0s]
    dim = len(es[0])

    def directions(thetas):
        Es = np.zeros((len(thetas), len(planes), dim))
        for n, (i, j) in enumerate(planes):
            Es[:, n, i], Es[:, n, j] = np.cos(thetas[:, n]), np.sin(thetas[:, n])
        return Es

    D, V = float(problem.D0), float(problem.dD0)
    theta = np.array([math.atan2(e[j], e[i]) for e, (i, j) in zip(es, planes)])
    ts = np.empty(n_steps + 1)
    ts[0] = t0
    points = np.empty((n_steps + 1, dim))
    points[0] = assemble(np.array([D]), directions(theta[None]), ts[:1])[0]
    for start in range(0, n_steps, _BLOCK):
        grid = t0 + np.arange(start, min(start + _BLOCK, n_steps) + 1) * h
        m = len(grid) - 1
        now, end, mid = slice(0, m), slice(1, m + 1), slice(m + 1, 2 * m + 1)
        with np.errstate(all="ignore"):
            g, omega = problem.data(np.concatenate((grid, grid[:m] + 0.5 * h)))
            g, omega = np.asarray(g, dtype=float), np.asarray(omega, dtype=float)
            thetas = _running_sums(
                theta, h6 * (omega[now] + 4.0 * omega[mid] + omega[end]))
            rate = h6 * (g[now] + 4.0 * g[mid] + g[end])
            if problem.order == 2:
                Vs = _running_sums(V, rate)
                rate = h * Vs[:m] + h * h6 * (g[now] + 2.0 * g[mid])
                V = float(Vs[-1])
            Ds = _running_sums(D, rate)
        finite = np.isfinite(g) & np.isfinite(omega).all(axis=1)
        finite = finite[now] & finite[mid] & finite[end]
        bad = ~finite | ~(Ds[1:] > 0.0)
        done = int(np.argmax(bad)) if bad.any() else m
        if done:
            rows = slice(start + 1, start + 1 + done)
            ts[rows] = grid[1:done + 1]
            points[rows] = assemble(Ds[1:done + 1],
                                    directions(thetas[1:done + 1]), ts[rows])
        if done < m:
            if not finite[done]:
                raise NonFiniteData(
                    "reconstruction data is not finite at step "
                    f"{start + done + 1} (t={float(grid[done]):g})")
            raise _non_positive(start + done + 1, float(grid[done]) + h)
        D, theta = float(Ds[-1]), thetas[-1]
    return Trajectory(ts=ts, points=points, max_drift=0.0)


@dataclass(frozen=True, kw_only=True)
class PlaneReconstructionProblem:
    """Distance ODE + direction ODE for a plane trajectory.

    `order` selects the distance form: 1 takes rhs_D = dD/dt, 2 takes
    rhs_D = d^2D/dt^2 with the initial rate dD0.  The motion is given
    either as `data`, which declares both right-hand sides time-only:
    data(ts) for a 1-D array returns (rhs_D values (n,), signed angular
    speeds omega (n, 1)), with rhs_e = omega J e, and reconstruction sums
    it; or, without `data`, as both rhs fields.  A step of None takes
    span / 10^4.
    """
    rhs_D: Optional[Callable[[float], float]] = None
    rhs_e: Optional[Callable] = None  # (t, e: ndarray(2)) -> ndarray(2)
    D0: float
    e0: np.ndarray
    domain: tuple[float, float]
    step: Optional[float]
    order: int = 1
    dD0: float = 0.0
    center: np.ndarray = field(default_factory=lambda: np.zeros(2))
    data: Optional[Callable] = None

    def __post_init__(self):
        _check_problem(self, (self.rhs_D, self.rhs_e), (("e0", self.e0),))


def reconstruct_plane(problem: PlaneReconstructionProblem) -> Trajectory:
    """Integrate the distance and direction data and assemble
    P(t) = center + D(t) e(t)."""
    center = _as_array(problem.center)

    def assemble(Ds, Es, ts):
        return center + Ds[:, None] * Es[:, 0, :]

    if problem.data is not None:
        return _time_only_path(problem, [problem.e0], _PLANE, assemble)
    return _general_path(problem, [problem.rhs_e], [problem.e0], assemble)


def integrate_unit_direction(rhs_e: Callable, e0, domain: tuple[float, float],
                             step: float):
    """Integrate a unit-direction ODE with per-step renormalization.

    Returns (ts, directions, max_drift): reconstruct_plane with D = 1
    fixed.  The right-hand side must be tangent to the unit sphere at the
    start.
    """
    trajectory = reconstruct_plane(PlaneReconstructionProblem(
        rhs_D=lambda t: 0.0, rhs_e=rhs_e, D0=1.0, e0=e0, domain=domain,
        step=step))
    return trajectory.ts, trajectory.points, trajectory.max_drift


@dataclass(frozen=True, kw_only=True)
class SpaceReconstructionProblem:
    """Distance ODE + three projected-direction ODEs for a space trajectory.

    The projected directions live in the xOy, xOz, and yOz planes (stored
    as 3-vectors with the fixed zero slot); together with D they must be
    realizable by one point, which is checked at construction.  `data`
    returns (rhs_D values (n,), signed angular speeds (n, 3) in the order
    eA, eB, eC); without it, all four rhs fields are needed, as for the
    plane problem.
    """
    rhs_D: Optional[Callable[[float], float]] = None
    rhs_eA: Optional[Callable] = None
    rhs_eB: Optional[Callable] = None
    rhs_eC: Optional[Callable] = None
    D0: float
    eA0: np.ndarray
    eB0: np.ndarray
    eC0: np.ndarray
    domain: tuple[float, float]
    step: Optional[float]
    order: int = 1
    dD0: float = 0.0
    data: Optional[Callable] = None

    def __post_init__(self):
        _check_problem(self, (self.rhs_D, self.rhs_eA, self.rhs_eB,
                              self.rhs_eC),
                       (("eA0", self.eA0), ("eB0", self.eB0),
                        ("eC0", self.eC0)))
        _triangulate(_as_array(self.eA0), _as_array(self.eB0),
                     _as_array(self.eC0), None)


def _triangulate_rows(eA: np.ndarray, eB: np.ndarray, eC: np.ndarray,
                      prev_u: Optional[np.ndarray],
                      ts: Optional[np.ndarray] = None) -> np.ndarray:
    """Unit directions of (x, y, z) from rows of their three plane
    projections.

    x:y comes from eA and y:z from eC; the sign of each row is fixed by
    continuity with the row before (the first row with `prev_u`, or, at
    the start, by consistency with eA).  Sign continuity is a cumulative
    product of sign flips.  eB is redundant and serves as the consistency
    check.  Raises for the first row that fails a check, naming its
    parameter value from `ts` when given.
    """
    w = np.stack((eA[:, 0] * eC[:, 1], eA[:, 1] * eC[:, 1],
                  eA[:, 1] * eC[:, 2]), axis=1)
    with np.errstate(all="ignore"):
        norm = np.linalg.norm(w, axis=1)
        u = w / norm[:, None]
        if prev_u is None:
            prev_u = eA[0] * np.array([1.0, 1.0, 0.0])
        before = np.vstack((prev_u, u[:-1]))
        flips = np.where(np.einsum("ij,ij->i", u, before) < 0.0, -1.0, 1.0)
        u *= np.cumprod(flips)[:, None]
        residual = np.zeros(len(u))
        for e, keep in zip((eA, eB, eC), _PLANES):
            p = np.zeros_like(u)
            p[:, keep] = u[:, keep]
            p /= np.linalg.norm(p, axis=1)[:, None]
            residual = np.maximum(residual, np.linalg.norm(p - e, axis=1))
    collapsed = ~(norm > _COLLAPSE_TOL ** 2)
    near_plane = ~(np.abs(u).min(axis=1) >= _COLLAPSE_TOL)
    inconsistent = ~(residual <= _TRIANGULATION_TOL)
    bad = collapsed | near_plane | inconsistent
    if bad.any():
        i = int(np.argmax(bad))
        at = "" if ts is None else f" at t={float(ts[i]):g}"
        if collapsed[i]:
            raise ProjectionCollapse(f"projected directions collapsed{at}")
        if near_plane[i]:
            raise ProjectionCollapse(
                f"trajectory approaches a coordinate plane{at}; projected "
                "data no longer determines the point")
        raise InconsistentDirections(
            f"projected directions disagree{at} (residual {residual[i]:.3g})")
    return u


def _triangulate(eA: np.ndarray, eB: np.ndarray, eC: np.ndarray,
                 prev_u: Optional[np.ndarray]) -> np.ndarray:
    """_triangulate_rows for a single set of projected directions."""
    return _triangulate_rows(eA[None], eB[None], eC[None], prev_u)[0]


def reconstruct_space(problem: SpaceReconstructionProblem) -> Trajectory:
    """Integrate D and the three projected directions, triangulating the
    point at every step; collapse onto a coordinate plane raises."""
    e0s = [problem.eA0, problem.eB0, problem.eC0]
    prev_u = None

    def assemble(Ds, Es, ts):
        nonlocal prev_u
        u = _triangulate_rows(Es[:, 0], Es[:, 1], Es[:, 2], prev_u, ts)
        prev_u = u[-1]
        return Ds[:, None] * u

    if problem.data is not None:
        return _time_only_path(problem, e0s, _PLANES, assemble)
    return _general_path(problem, [problem.rhs_eA, problem.rhs_eB,
                                   problem.rhs_eC], e0s, assemble)


# -- analytic data generators ---------------------------------------------------

def _derivatives(curve, ts, order):
    """r, r' and r'' of `curve` at ts (r'' is zero at order 1)."""
    r, rp, *rpp = curve.sample(ts, order)
    return r, rp, rpp[0] if rpp else np.zeros_like(rp)


def _start(curve, center, norm, order):
    """rel0 = r(t0) - center, D0 = norm(rel0) (each builder keeps its own
    norm, so that D0 keeps its bits) and dD0 = rel0 . r'(t0) / D0 at order
    2, else 0, at the curve's start t0.  A D0 that overflows raises
    NonFiniteData, one that is not positive CenterOnCurve."""
    t0 = curve.domain[0]
    r0, rp0 = (a[0] for a in curve.sample([t0], 1))
    rel0 = r0 - center
    with np.errstate(over="ignore"):  # an overflow raises below
        d0 = float(norm(rel0))
    if not math.isfinite(d0):
        raise NonFiniteData(f"start distance overflows at t={t0:g}")
    if not d0 > 0.0:
        raise CenterOnCurve(f"start distance vanishes at t={t0:g}")
    return rel0, d0, float(rel0 @ rp0) / d0 if order == 2 else 0.0


def plane_data_from_curve(curve, center: Vec2 = Vec2(0.0, 0.0),
                          order: int = 1,
                          step: Optional[float] = None) -> PlaneReconstructionProblem:
    """Build the plane reconstruction data a curve induces about `center`:
    the distance rate (or its derivative) and the signed angular speed
    (rel x r') / |rel|^2 of the center-to-point direction."""
    c = np.array(center.as_tuple())

    def data(ts):
        r, rp, rpp = _derivatives(curve, ts, order)
        rel = r - c
        d = np.hypot(rel[:, 0], rel[:, 1])
        dD, d2D, _, omega = _frame_terms(rel.T, rp.T, rpp.T, d)
        return (dD, d2D)[order - 1], omega[:, None]

    rel0, d0, dd0 = _start(curve, c, lambda r: np.hypot(*r), order)
    return PlaneReconstructionProblem(
        D0=d0, e0=rel0 / d0, domain=curve.domain, step=step, order=order,
        dD0=dd0, center=c, data=data)


def space_data_from_curve(curve, order: int = 1,
                          step: Optional[float] = None) -> SpaceReconstructionProblem:
    """Build the space reconstruction data a curve induces about the origin:
    distance ODE plus the signed angular speeds cross / denom of the three
    projected directions."""
    def data(ts):
        from .space import _space_terms
        r, rp, rpp = _derivatives(curve, ts, order)
        x, y, z = rel = r.T
        dD, d2D, pairs = _space_terms(rel, rp.T, rpp.T,
                                      np.sqrt(x * x + y * y + z * z))
        return (dD, d2D)[order - 1], np.column_stack(
            [np.divide(*pair) for pair in pairs])

    r0, d0, dd0 = _start(curve, 0.0, np.linalg.norm, order)
    if np.abs(r0).min() < _COLLAPSE_TOL * d0:
        raise ProjectionCollapse(
            f"start point {tuple(r0.tolist())} lies on a coordinate plane; "
            "projected data cannot determine it")

    def unit_proj(i, j):
        p = np.zeros(3)
        p[[i, j]] = r0[[i, j]]
        return p / np.linalg.norm(p)

    return SpaceReconstructionProblem(
        D0=d0, eA0=unit_proj(0, 1), eB0=unit_proj(0, 2), eC0=unit_proj(1, 2),
        domain=curve.domain, step=step, order=order, dD0=dd0, data=data)


# -- presets ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionPreset:
    """A named reconstruction: its builder and error tolerance."""
    build: Callable  # (step, domain) -> (problem, reference curve)
    tolerance: float


def _preset_circle(step, domain):
    curve = make_catalog_curve("circle", domain=domain)
    problem = plane_data_from_curve(curve, order=1, step=step)
    return problem, curve


def _preset_helix(step, domain):
    curve = make_catalog_curve(
        "helix", {"cx": 2.0, "cy": 2.0, "cz": 1.0},
        domain=domain or (0.0, math.pi))
    problem = space_data_from_curve(curve, order=1, step=step)
    return problem, curve


def _preset_ellipse(step, domain, frame: str):
    from . import ellipse
    curve = make_catalog_curve("ellipse", {"a": 2.0, "b": 1.0}, domain=domain)
    problem = ellipse.reconstruction_problem(ellipse.EllipseParams(2.0, 1.0),
                                             frame, step=step,
                                             domain=curve.domain)
    return problem, curve


PRESETS = {
    "circle": ReconstructionPreset(_preset_circle, 1e-8),
    "helix": ReconstructionPreset(_preset_helix, 1e-5),
    "ellipse-origin": ReconstructionPreset(
        lambda step, domain: _preset_ellipse(step, domain, "origin"), 1e-6),
    "ellipse-focus": ReconstructionPreset(
        lambda step, domain: _preset_ellipse(step, domain, "focus"), 1e-6),
}


def run_preset(name: str, step: Optional[float] = None, domain=None):
    """Build and run a named preset; returns (trajectory, max_error, tolerance)."""
    preset = PRESETS.get(name)
    if preset is None:
        raise BadParameters(f"no reconstruction preset named {name!r}")
    problem, reference = preset.build(step, domain)
    if isinstance(problem, PlaneReconstructionProblem):
        trajectory = reconstruct_plane(problem)
    else:
        trajectory = reconstruct_space(problem)
    return trajectory, trajectory.max_error_vs(reference), preset.tolerance
