"""Output checks that decide whether a job counts as failed.

A job passes when it exits 0 and its output has the expected header and
row count, holds only finite numbers, and agrees with the closed forms of
its `workloads` model on a seeded sample of rows.  Kinematic quantities
must agree within REL_TOL relative to the larger of the value and a
thousandth of the column's scale, so rows where a rate crosses zero are
held to the column's scale rather than to the floating-point noise of a
cancelling sum.
"""

from __future__ import annotations

import numpy as np

from workloads import Job

REL_TOL = 1e-9
CHECKED_ROWS = 200


class OutputMismatch(Exception):
    """The output differs from what the job must produce."""


HEADERS = {
    "plane_kin": "t,D,dD,d2D,rot_speed",
    "local_kin": "t,D,dD,d2D,rot_speed,phi,psi_speed",
    "space_kin": "t,D,dD,d2D,speed_A,speed_B,speed_C",
    "profile": "theta,xi1,d1,d2,d3,rot_speed_origin,rot_speed_focus",
}


def _cross2(a, b):
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


def _pair_speed(r, r1, i, j):
    return (np.abs(r[:, i] * r1[:, j] - r1[:, i] * r[:, j])
            / (r[:, i] ** 2 + r[:, j] ** 2))


def expected_columns(job: Job, t: np.ndarray) -> dict:
    """Closed-form values of the checked output columns at parameters t."""
    if job.check == "profile":
        # ellipse (a cos t, b sin t) seen from its focus (c, 0)
        a, b = job.params["a"], job.params["b"]
        c = np.sqrt(a * a - b * b)
        xi1 = a - c * np.cos(t)
        return {"xi1": xi1, "d1": c * np.sin(t), "d2": c * np.cos(t),
                "d3": -c * np.sin(t),
                "rot_speed_origin": a * b / (a * a * np.cos(t) ** 2
                                             + b * b * np.sin(t) ** 2),
                "rot_speed_focus": b / xi1}
    r, r1, r2 = job.model(t)
    if job.check == "local_kin":
        phi = np.linalg.norm(r1, axis=1)
        psi_speed = np.abs(_cross2(r1, r2)) / (2 * phi * phi)
        return {"D": np.zeros_like(t), "dD": phi, "rot_speed": psi_speed,
                "phi": phi, "psi_speed": psi_speed}
    rel = r - np.asarray(job.center) if job.check == "plane_kin" else r
    D = np.linalg.norm(rel, axis=1)
    cols = {"D": D, "dD": np.sum(rel * r1, axis=1) / D}
    if job.check == "plane_kin":
        cols["rot_speed"] = np.abs(_cross2(rel, r1)) / (D * D)
    else:
        cols["speed_A"] = _pair_speed(r, r1, 0, 1)
        cols["speed_B"] = _pair_speed(r, r1, 0, 2)
        cols["speed_C"] = _pair_speed(r, r1, 1, 2)
    return cols


def _rows(data: bytes, header: str, n_rows: int, n_cols: int) -> list[bytes]:
    lines = data.split(b"\n")
    if lines[0].decode() != header:
        raise OutputMismatch(f"header {lines[0][:80]!r}, expected {header!r}")
    if len(lines) != n_rows + 2 or lines[-1] != b"":
        raise OutputMismatch(f"{len(lines) - 2} rows, expected {n_rows}")
    if data.count(b",") != (n_rows + 1) * (n_cols - 1):
        raise OutputMismatch("rows with the wrong number of fields")
    if b"nan" in data or b"inf" in data:
        raise OutputMismatch("non-finite value in the output")
    return lines[1:-1]


def _sample_rows(rows, rng):
    n = len(rows)
    pick = np.unique(np.concatenate(
        [[0, n - 1], rng.choice(n, size=min(n, CHECKED_ROWS), replace=False)]))
    return np.array([[float(x) for x in rows[i].split(b",")] for i in pick])


def check_table(job: Job, data: bytes, rng) -> None:
    header = HEADERS[job.check]
    names = header.split(",")
    table = _sample_rows(_rows(data, header, job.rows, len(names)), rng)
    for name, want in expected_columns(job, table[:, 0]).items():
        got = table[:, names.index(name)]
        floor = 1e-3 * float(np.max(np.abs(want)))
        err = np.abs(got - want) / np.maximum(np.abs(want), max(floor, 1e-300))
        worst = int(np.argmax(err))
        if err[worst] > REL_TOL:
            raise OutputMismatch(
                f"{name} at t={table[worst, 0]!r}: {got[worst]!r}, closed form "
                f"{want[worst]!r} (relative error {err[worst]:.3g})")


def check_trajectory(job: Job, data: bytes, stdout: str, rng) -> None:
    dim = job.model(np.zeros(1))[0].shape[1]
    header = "t,x,y" if dim == 2 else "t,x,y,z"
    table = _sample_rows(_rows(data, header, job.rows, dim + 1), rng)
    error = np.linalg.norm(table[:, 1:] - job.model(table[:, 0])[0], axis=1)
    if error.max() >= job.tolerance:
        raise OutputMismatch(f"trajectory is {error.max():.3g} from the curve")
    lines = stdout.split()
    if len(lines) != 1 or not lines[0].startswith("max_error="):
        raise OutputMismatch(f"unexpected stdout {stdout[:80]!r}")
    max_error = float(lines[0].split("=", 1)[1])
    if not max_error < job.tolerance:
        raise OutputMismatch(f"max_error={max_error!r} >= {job.tolerance}")


def check_verify(job: Job, stdout: str) -> None:
    lines = stdout.splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    if len(lines) != job.rows or len(passed) != job.rows:
        raise OutputMismatch(f"{len(passed)} of {len(lines)} criteria PASS, "
                             f"expected {job.rows}")


def check_job(job: Job, code: int, data: bytes, stdout: str, rng) -> str:
    """Empty string when the job's run is correct, else the reason.
    `data` is the job's output file, `stdout` what it printed."""
    if code != 0:
        return f"exit code {code}"
    try:
        if job.check == "verify":
            check_verify(job, stdout)
        elif job.check == "trajectory":
            check_trajectory(job, data, stdout, rng)
        else:
            check_table(job, data, rng)
    except (OutputMismatch, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return ""

