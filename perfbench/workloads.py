"""Seeded inputs for the benchmark's four workloads.

Each workload is a fixed list of CLI jobs.  Sizes (samples, steps) are
fixed by the workload; the seed only draws curve parameters, always inside
ranges that keep every job valid: ellipses have a > b > 0, and every
expression curve stays clear of its frame center and of the coordinate
planes.  Expression coefficients never come out as 0 or 1, so constant
folding gives the same tree shape, and therefore the same work, on every
seed.

Every job carries the numpy model of its curve, which `checks` uses to
verify the CLI's output against closed forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * math.pi

# A model maps a float array t of shape (n,) to (r, r', r''), each (n, dim).
Model = Callable[[np.ndarray], tuple]


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its output must look like."""
    name: str
    argv: tuple          # arguments after `python -m rotorkin.cli`
    config: Optional[dict]   # written to <work>/<name>.json, passed as --config
    out: str             # kind of output file: "csv" or "" (stdout only)
    check: str           # plane_kin | local_kin | space_kin | profile | trajectory | verify
    rows: int            # expected data rows in the output file
    model: Optional[Model] = None
    center: tuple = (0.0, 0.0)
    tolerance: float = 0.0   # trajectory: largest allowed distance to the model
    params: dict = field(default_factory=dict)  # profile: ellipse a, b
    setup: list = field(default_factory=list)  # inputs the setup probe builds


# -- closed-form curve models --------------------------------------------------

def ellipse_model(a, b):
    def model(t):
        c, s = np.cos(t), np.sin(t)
        return (np.stack([a * c, b * s], 1), np.stack([-a * s, b * c], 1),
                np.stack([-a * c, -b * s], 1))
    return model


def cubic_model(a, b, c):
    def model(t):
        z = np.zeros_like(t)
        return (np.stack([a * t, b * t * t, c * t ** 3], 1),
                np.stack([a + z, 2 * b * t, 3 * c * t * t], 1),
                np.stack([z, 2 * b + z, 6 * c * t], 1))
    return model


def helix_model(radius, pitch, cx, cy, cz):
    def model(t):
        c, s, z = np.cos(t), np.sin(t), np.zeros_like(t)
        return (np.stack([cx + radius * c, cy + radius * s, cz + pitch * t], 1),
                np.stack([-radius * s, radius * c, pitch + z], 1),
                np.stack([-radius * c, -radius * s, z], 1))
    return model


def plane_trig_model(p):
    """x = X0 + A cos t + E cos 2t,  y = Y0 + B sin t + F sin 3t."""
    def model(t):
        c1, s1 = np.cos(t), np.sin(t)
        c2, s2 = np.cos(2 * t), np.sin(2 * t)
        c3, s3 = np.cos(3 * t), np.sin(3 * t)
        r = np.stack([p["X0"] + p["A"] * c1 + p["E"] * c2,
                      p["Y0"] + p["B"] * s1 + p["F"] * s3], 1)
        r1 = np.stack([-p["A"] * s1 - 2 * p["E"] * s2,
                       p["B"] * c1 + 3 * p["F"] * c3], 1)
        r2 = np.stack([-p["A"] * c1 - 4 * p["E"] * c2,
                       -p["B"] * s1 - 9 * p["F"] * s3], 1)
        return r, r1, r2
    return model


def plane_trig_text(p):
    return {"x": f"{p['X0']} + {p['A']}*cos(t) + {p['E']}*cos(2*t)",
            "y": f"{p['Y0']} + {p['B']}*sin(t) + {p['F']}*sin(3*t)"}


def space_trig_model(p):
    """x = X0 + A cos t + E sin 2t, y = Y0 + B sin t + F cos 2t,
    z = Z0 + C t + G sin t."""
    def model(t):
        c1, s1 = np.cos(t), np.sin(t)
        c2, s2 = np.cos(2 * t), np.sin(2 * t)
        r = np.stack([p["X0"] + p["A"] * c1 + p["E"] * s2,
                      p["Y0"] + p["B"] * s1 + p["F"] * c2,
                      p["Z0"] + p["C"] * t + p["G"] * s1], 1)
        r1 = np.stack([-p["A"] * s1 + 2 * p["E"] * c2,
                       p["B"] * c1 - 2 * p["F"] * s2,
                       p["C"] + p["G"] * c1], 1)
        r2 = np.stack([-p["A"] * c1 - 4 * p["E"] * s2,
                       -p["B"] * s1 - 4 * p["F"] * c2,
                       -p["G"] * s1], 1)
        return r, r1, r2
    return model


def space_trig_text(p):
    return {"x": f"{p['X0']} + {p['A']}*cos(t) + {p['E']}*sin(2*t)",
            "y": f"{p['Y0']} + {p['B']}*sin(t) + {p['F']}*cos(2*t)",
            "z": f"{p['Z0']} + {p['C']}*t + {p['G']}*sin(t)"}


def torus_chart_model(s, c):
    """Shifted torus s composed with the chart curve u = U0 + U1 t,
    v = V0 + V1 sin 2t.  Only r and r' are needed by the checks."""
    def model(t):
        u = c["U0"] + c["U1"] * t
        v = c["V0"] + c["V1"] * np.sin(2 * t)
        du = c["U1"] + np.zeros_like(t)
        dv = 2 * c["V1"] * np.cos(2 * t)
        w = s["R"] + s["r"] * np.cos(v)
        r = np.stack([s["cx"] + w * np.cos(u), s["cy"] + w * np.sin(u),
                      s["cz"] + s["r"] * np.sin(v)], 1)
        ru = np.stack([-w * np.sin(u), w * np.cos(u), np.zeros_like(t)], 1)
        rv = np.stack([-s["r"] * np.sin(v) * np.cos(u),
                       -s["r"] * np.sin(v) * np.sin(u),
                       s["r"] * np.cos(v)], 1)
        return r, ru * du[:, None] + rv * dv[:, None], None
    return model


# -- seeded parameter draws ---------------------------------------------------------

def _draw(rng, lo, hi):
    """A coefficient in [lo, hi] with six decimals, as the CLI will read it.
    Callers keep 0 and 1 outside [lo, hi]."""
    return round(float(rng.uniform(lo, hi)), 6)


def _ellipse_params(rng):
    a = _draw(rng, 1.5, 3.0)
    return {"a": a, "b": round(a * _draw(rng, 0.35, 0.85), 6)}


def _plane_trig_params(rng):
    # |r - center| >= B - F - |offset| > 0.4 everywhere on the curve
    return {"X0": _draw(rng, -1.5, -1.1), "Y0": _draw(rng, 1.1, 1.5),
            "A": _draw(rng, 1.6, 2.4), "B": _draw(rng, 1.1, 1.4),
            "E": _draw(rng, 0.1, 0.2), "F": _draw(rng, 0.1, 0.2)}


def _space_trig_params(rng):
    # every coordinate stays >= 0.6 on [0, 2 pi]: clear of all coordinate
    # planes, so projections and the triangulation never degenerate
    return {"X0": _draw(rng, 3.0, 3.5), "Y0": _draw(rng, 3.0, 3.5),
            "Z0": _draw(rng, 1.2, 1.6),
            "A": _draw(rng, 1.2, 1.6), "B": _draw(rng, 1.2, 1.6),
            "E": _draw(rng, 0.2, 0.4), "F": _draw(rng, 0.2, 0.4),
            "C": _draw(rng, 0.2, 0.4), "G": _draw(rng, 0.2, 0.5)}


def _torus_params(rng):
    R, r = _draw(rng, 1.8, 2.2), _draw(rng, 0.4, 0.6)
    return {"R": R, "r": r, "cx": round(R + r + _draw(rng, 0.6, 1.0), 6),
            "cy": round(R + r + _draw(rng, 0.6, 1.0), 6),
            "cz": round(r + _draw(rng, 0.6, 1.0), 6)}


def _chart_params(rng):
    # u in (0, 2 pi) and v in (0, 2 pi): inside the torus chart
    return {"U0": _draw(rng, 0.3, 0.6), "U1": _draw(rng, 0.6, 0.9),
            "V0": _draw(rng, 1.2, 1.6), "V1": _draw(rng, 0.2, 0.4)}


# -- workloads ------------------------------------------------------------------------

def _kinematics(name, check, record, samples, frame, model,
                center=(0.0, 0.0)):
    config = {"curve": record, "samples": samples, "frame": frame}
    return Job(name, ("kinematics",), config, "csv", check, samples, model,
               center=center, setup=[{"curve": record}])


def _reconstruct_record(name, record, model, tolerance):
    return Job(name, ("reconstruct",), {"curve": record}, "csv", "trajectory",
               10001, model, tolerance=tolerance, setup=[{"curve": record}])


def _preset(name, preset, model, tolerance):
    return Job(name, ("reconstruct", "--preset", preset), None, "csv",
               "trajectory", 10001, model, tolerance=tolerance,
               setup=[{"preset": preset}])


def _sample_jobs(rng):
    e1, e2, e3 = _ellipse_params(rng), _ellipse_params(rng), _ellipse_params(rng)
    cubic = {"a": _draw(rng, 0.6, 0.9), "b": _draw(rng, 0.6, 0.9),
             "c": _draw(rng, 0.6, 0.9)}
    torus, chart = _torus_params(rng), _chart_params(rng)
    surface_config = {
        "surface": {"kind": "torus", "params": torus},
        "chart_curve": {"u": f"{chart['U0']} + {chart['U1']}*t",
                        "v": f"{chart['V0']} + {chart['V1']}*sin(2*t)",
                        "domain": [0.2, 5.2]},
        "samples": 10000}
    return [
        _kinematics("kin_ellipse_origin", "plane_kin",
                    {"kind": "ellipse", "params": e1}, 100000, "origin",
                    ellipse_model(**e1)),
        _kinematics("kin_ellipse_local", "local_kin",
                    {"kind": "ellipse", "params": e2}, 50000, "local",
                    ellipse_model(**e2)),
        _kinematics("kin_cubic", "space_kin", {"kind": "cubic", "params": cubic},
                    100000, "origin", cubic_model(**cubic)),
        Job("surface_torus", ("surface",), surface_config, "csv", "space_kin",
            10000, torus_chart_model(torus, chart),
            setup=[{"surface": surface_config["surface"],
                    "chart": surface_config["chart_curve"]}]),
        Job("ellipse_profile", ("ellipse",), {**e3, "samples": 20000}, "csv",
            "profile", 20000, params=e3, setup=[{"ellipse": e3}]),
    ]


def _expr_jobs(rng):
    plane, space, rec = (_plane_trig_params(rng), _space_trig_params(rng),
                         _space_trig_params(rng))
    center = (round(plane["X0"] + _draw(rng, -0.2, 0.2), 6),
              round(plane["Y0"] + _draw(rng, -0.2, 0.2), 6))
    domain = [0.0, round(TWO_PI, 12)]
    plane_record = {"kind": "expr", "expr": plane_trig_text(plane),
                    "domain": domain}
    space_record = {"kind": "expr", "expr": space_trig_text(space),
                    "domain": domain}
    rec_record = {"kind": "expr", "expr": space_trig_text(rec), "domain": domain}
    return [
        _kinematics("kin_expr_plane", "plane_kin", plane_record, 20000,
                    f"point:{center[0]},{center[1]}", plane_trig_model(plane),
                    center=center),
        _kinematics("kin_expr_space", "space_kin", space_record, 20000,
                    "origin", space_trig_model(space)),
        _reconstruct_record("rec_expr_space", rec_record,
                            space_trig_model(rec), 1e-5),
    ]


def _reconstruct_jobs(rng):
    e = _ellipse_params(rng)
    unit_ellipse = ellipse_model(2.0, 1.0)
    return [
        _preset("rec_circle", "circle", ellipse_model(1.0, 1.0), 1e-8),
        _preset("rec_helix", "helix", helix_model(1.0, 1.0, 2.0, 2.0, 1.0),
                1e-5),
        _preset("rec_ellipse_origin", "ellipse-origin", unit_ellipse, 1e-6),
        _preset("rec_ellipse_focus", "ellipse-focus", unit_ellipse, 1e-6),
        _reconstruct_record("rec_ellipse_record",
                            {"kind": "ellipse", "params": e},
                            ellipse_model(**e), 1e-5),
    ]


def _verify_jobs(rng):
    return [Job("verify", ("verify",), None, "", "verify", 12)]


WORKLOADS = {
    "sample": _sample_jobs,
    "expr": _expr_jobs,
    "reconstruct": _reconstruct_jobs,
    "verify": _verify_jobs,
}

# every job name any workload can produce, in a fixed order (metric names)
JOB_NAMES = tuple(job.name for build in WORKLOADS.values()
                  for job in build(np.random.default_rng(0)))
TRAJECTORY_JOBS = tuple(job.name for build in WORKLOADS.values()
                        for job in build(np.random.default_rng(0))
                        if job.check == "trajectory")


def generate(workload: str, seed: int) -> list[Job]:
    """The workload's jobs with parameters drawn from `seed`."""
    stream = list(WORKLOADS).index(workload)
    return WORKLOADS[workload](np.random.default_rng([seed, stream]))


def write_inputs(jobs: list[Job], work: Path) -> dict:
    """Write each job's config file into `work`; return {job: config}."""
    written = {}
    for job in jobs:
        if job.config is not None:
            (work / f"{job.name}.json").write_text(
                json.dumps(job.config, indent=1))
            written[job.name] = job.config
    (work / "setup.json").write_text(
        json.dumps([item for job in jobs for item in job.setup]))
    return written


def job_argv(job: Job, work: Path) -> list[str]:
    """CLI arguments for `job`, with its config and output inside `work`."""
    argv = list(job.argv)
    if job.config is not None:
        argv += ["--config", str(work / f"{job.name}.json")]
    if job.out:
        argv += ["--out", str(work / f"{job.name}.{job.out}")]
    return argv
