"""rotorkin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It drives the checkout's own CLI
(`python -m rotorkin.cli` with PYTHONPATH=src), one fresh process per job,
from a single closed-loop client: the next job starts when the previous
one has exited, and no two processes run at once.

--trace 0 measures the end-to-end metrics for S seconds: passes over the
workload's jobs, each job preceded by a set-up probe and followed by a
host-speed calibration, until the next job would end past S seconds (at
least one full pass).
--trace 1 runs one untraced pass and one traced pass (each job under
tracer.py) and reports the per-layer metrics; S does not apply.
--workload all runs every workload both ways and prints every metric.

Every job's output is checked (checks.py); a job fails on a non-zero exit
or a failed check.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.  Inputs, host state and every
sample go to .perfbench_results/ in the checkout; scratch files go to
.perfbench_work/.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads
from workloads import JOB_NAMES, TRAJECTORY_JOBS, WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
SETUP_REPS = 7           # at least this many set-up probes per run
# a calibration run follows every timed process and lasts this share of
# its wall time, and at least CALIBRATION_MIN_S
CALIBRATION_SHARE = 0.05
CALIBRATION_MIN_S = 0.1
# The mean calibration round, in seconds, that reported times are scaled
# to: about the typical figure on the 2-core Xeon (2.1 GHz, shared with
# other tenants) the benchmark was tuned on.
REFERENCE_ROUND_S = 0.005
RUN_LIMIT_S = 170.0   # any child still running this long into a run is killed

VERIFY_CRITERIA = ("fd-rates", "rot-speeds", "local-limits", "line-degeneracy",
                   "chart-expansion", "focal-table", "average-speeds",
                   "accel-zeros", "reconstruction", "congruence",
                   "fundamental-form", "cli-determinism")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("success_rate", "1"))

PER_LAYER = (
    [("cli.import_s", "s"), ("cli.config_s", "s"), ("cli.emit_s", "s"),
     ("cli.self_s", "s"), ("cli.rows_out", "count"), ("cli.bytes_out", "B"),
     ("cli.cpu_s", "s")]
    + [(f"cli.job_s.{job}", "s") for job in JOB_NAMES]
    + [("vec.constructed", "count"), ("vec.self_s", "s"),
       ("numerics.fd_calls", "count"), ("numerics.fd_s", "s"),
       ("numerics.extrapolate_s", "s"), ("numerics.quad_s", "s"),
       ("numerics.root_s", "s"), ("numerics.self_s", "s"),
       ("expr.parse_s", "s"), ("expr.differentiate_s", "s"),
       ("expr.evaluate_calls", "count"), ("expr.evaluate_s", "s"),
       ("expr.self_s", "s"),
       ("curves.point_calls", "count"), ("curves.derivative_calls", "count"),
       ("curves.fd_calls", "count"), ("curves.self_s", "s"),
       ("plane.calls", "count"), ("plane.self_s", "s"),
       ("space.calls", "count"), ("space.self_s", "s"),
       ("surface.calls", "count"), ("surface.self_s", "s"),
       ("surface.geometry_calls", "count"),
       ("surface.composed_builds", "count"),
       ("reconstruct.steps", "count"), ("reconstruct.rhs_calls", "count"),
       ("reconstruct.rhs_s", "s"), ("reconstruct.step_s", "s"),
       ("reconstruct.triangulate_s", "s"), ("reconstruct.error_check_s", "s"),
       ("reconstruct.self_s", "s"), ("reconstruct.max_drift", "1")]
    + [(f"reconstruct.max_error.{job}", "length") for job in TRAJECTORY_JOBS]
    + [("ellipse.calls", "count"), ("ellipse.self_s", "s"),
       ("verify.self_s", "s")]
    + [(f"verify.{cid}.{kind}", unit) for cid in VERIFY_CRITERIA
       for kind, unit in (("s", "s"), ("measured", "1"))]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.unattributed_s", "s")])


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class JobRun:
    job: str
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    error: str          # empty when the job's output is correct
    rows_out: int
    bytes_out: int
    stdout: str


class Runner:
    """Spawns CLI processes one at a time and waits for each."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                    "PYTHONHASHSEED": "0"}
        self.kill_at = time.monotonic() + RUN_LIMIT_S
        self.check_rng = np.random.default_rng(seed)

    def spawn(self, argv: list[str], name: str) -> tuple[int, float, dict]:
        """Run argv to completion through spawn.py, with stdout and stderr
        in <work>/<name>.*; (exit code, wall seconds, spawn.py's report)."""
        timeout = max(1.0, self.kill_at - time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py"), str(timeout),
             str(self.work / f"{name}.stdout"),
             str(self.work / f"{name}.stderr"), *argv],
            stdout=subprocess.PIPE, env=self.env, cwd=ROOT,
            start_new_session=True)
        try:
            report, _ = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchError(f"spawn.py exited with {proc.returncode}")
        report = json.loads(report)
        return report["code"], report["wall_s"], report

    def calibrate(self, seconds: float) -> float:
        """Mean round time of calibrate.py run for about `seconds`."""
        code, _, _ = self.spawn([sys.executable, str(HERE / "calibrate.py"),
                                 str(seconds)], "calibrate")
        if code != 0:
            raise BenchError(f"calibration exited with {code}")
        return float((self.work / "calibrate.stdout").read_text())

    def setup_probe(self) -> tuple[int, float, str]:
        """(exit code, wall seconds, where rotorkin.cli was imported from)."""
        code, wall, _ = self.spawn(
            [sys.executable, str(HERE / "setup_probe.py"),
             str(self.work / "setup.json")], "setup")
        return code, wall, (self.work / "setup.stdout").read_text().strip()

    def job(self, job: Job, spans: Path | None = None) -> JobRun:
        argv = workloads.job_argv(job, self.work)
        if spans is None:
            command = [sys.executable, "-m", "rotorkin.cli", *argv]
        else:
            command = [sys.executable, str(HERE / "tracer.py"), str(spans), *argv]
        out_path = self.work / f"{job.name}.{job.out}"
        out_path.unlink(missing_ok=True)
        code, wall, report = self.spawn(command, job.name)
        stdout = (self.work / f"{job.name}.stdout").read_bytes()
        data = out_path.read_bytes() if job.out and out_path.exists() else b""
        error = checks.check_job(job, code, data, stdout.decode(), self.check_rng)
        if code != 0:
            stderr = (self.work / f"{job.name}.stderr").read_text(errors="replace")
            error += ": " + (stderr.strip().splitlines() or [""])[-1]
        return JobRun(
            job=job.name, wall_s=wall, rss_mb=report["maxrss_kb"] / 1024.0,
            cpu_s=report["cpu_s"], code=code, error=error,
            rows_out=max(data.count(b"\n") - 1, 0),
            bytes_out=len(data) + len(stdout), stdout=stdout.decode())


# -- host record -------------------------------------------------------------------------

def _git_sha() -> str:
    """HEAD's commit, read from .git without running git (the checkout the
    benchmark runs in need not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_state() -> dict:
    """Load average and CPU steal ticks, read from /proc (read-only)."""
    state = {"time": time.time()}
    try:
        state["loadavg"] = [float(x) for x in
                            Path("/proc/loadavg").read_text().split()[:3]]
        ticks = [int(x) for x in
                 Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
        state["steal_ticks"], state["total_ticks"] = ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        pass
    return state


def host_info() -> dict:
    return {"git_sha": _git_sha(), "python": sys.version.split()[0],
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0))}


# -- end-to-end measurement ----------------------------------------------------------

@dataclass
class Measurement:
    runs: list[JobRun]
    setup_walls: list[float]
    setup_rounds: list[float]     # calibration round after each set-up probe
    job_rounds: list[tuple[float, float]]  # rounds just before and after each job

    def setup_factor(self) -> float:
        """REFERENCE_ROUND_S over the mean round next to the set-up probes:
        below 1 while other tenants slow the host down."""
        return REFERENCE_ROUND_S / statistics.mean(self.setup_rounds)

    def job_factor(self) -> float:
        """REFERENCE_ROUND_S over the mean round around the jobs, each job's
        pair of rounds weighted by its wall time."""
        walls = [run.wall_s for run in self.runs]
        rounds = [(before + after) / 2 for before, after in self.job_rounds]
        mean = sum(w * r for w, r in zip(walls, rounds)) / sum(walls)
        return REFERENCE_ROUND_S / mean


def measure(runner: Runner, jobs: list[Job], seconds: float) -> Measurement:
    """Passes over `jobs` until the next job, at its median so far, would
    end past `seconds`; always at least one full pass.  Each job is preceded
    by a set-up probe, so both sample the same stretch of time, and every
    timed process is followed by a calibration run; a job is scaled by the
    rounds on either side of it, a set-up probe by the round after it.
    Set-up probes are topped up to SETUP_REPS at the end."""
    m = Measurement([], [], [], [])
    walls: dict[str, list[float]] = {job.name: [] for job in jobs}

    def calibrate(after_wall: float) -> float:
        return runner.calibrate(max(CALIBRATION_MIN_S,
                                    CALIBRATION_SHARE * after_wall))

    def setup_probe() -> float:
        code, wall, _ = runner.setup_probe()
        if code != 0:
            raise BenchError(f"set-up probe exited with {code}")
        m.setup_walls.append(wall)
        m.setup_rounds.append(calibrate(wall))
        return m.setup_rounds[-1]

    deadline = time.monotonic() + seconds
    for job in itertools.cycle(jobs):
        done = walls[job.name]
        if done and (time.monotonic() + statistics.median(done)
                     + statistics.median(m.setup_walls) > deadline):
            break
        before = setup_probe()
        m.runs.append(runner.job(job))
        done.append(m.runs[-1].wall_s)
        m.job_rounds.append((before, calibrate(done[-1])))
    while len(m.setup_walls) < SETUP_REPS:
        setup_probe()
    return m


# -- metrics ---------------------------------------------------------------------------------

def end_to_end_metrics(m: Measurement) -> tuple[dict, dict]:
    """The END_TO_END metrics, and the unscaled times."""
    by_job: dict[str, list[float]] = {}
    for run in m.runs:
        by_job.setdefault(run.job, []).append(run.wall_s)
    raw = {"wall_s": sum(statistics.median(w) for w in by_job.values()),
           "setup_s": statistics.median(m.setup_walls)}
    failed = sum(1 for run in m.runs if run.error)
    return {
        "wall_s": raw["wall_s"] * m.job_factor(),
        "setup_s": raw["setup_s"] * m.setup_factor(),
        "peak_rss_mb": max(run.rss_mb for run in m.runs),
        "success_rate": 1.0 - failed / len(m.runs),
    }, raw


def load_spans(path: Path):
    """(count, self seconds, inclusive seconds) per span name, counters and
    verify measurements of one traced process."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        name, parent = data["name"], data["parent"]
        start, end = data["start"], data["end"]
    own = tracer.self_times(parent, start, end)
    size = len(meta["names"])
    count = np.bincount(name, minlength=size)
    self_s = np.bincount(name, weights=own, minlength=size)
    incl_s = np.bincount(name, weights=end - start, minlength=size)
    spans = {n: (int(count[i]), float(self_s[i]), float(incl_s[i]))
             for i, n in enumerate(meta["names"])}
    return spans, meta["counters"], meta["measured"]


def layer_metrics(untraced: list[JobRun], traced: list[JobRun],
                  span_files: list[Path]) -> dict:
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    measured: dict[str, float] = {}
    for path in span_files:
        if not path.exists():
            continue
        job_spans, job_counters, job_measured = load_spans(path)
        for n, values in job_spans.items():
            total = spans.setdefault(n, [0, 0.0, 0.0])
            for k in range(3):
                total[k] += values[k]
        for key, value in job_counters.items():
            if key == "reconstruct.max_drift":
                counters[key] = max(counters.get(key, 0.0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        measured.update(job_measured)

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def own(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def layer(prefix, field=1):   # field 0: calls, 1: self seconds
        return sum(v[field] for n, v in spans.items()
                   if n.startswith(prefix + ".") and n != "cli.import")

    walls = {run.job: run.wall_s for run in untraced}
    m = {
        "cli.import_s": own("cli.import"),
        "cli.config_s": own("cli._load_config"),
        "cli.emit_s": own("cli._emit", "cli.write_csv"),
        "cli.self_s": layer("cli"),
        "cli.rows_out": sum(run.rows_out for run in untraced),
        "cli.bytes_out": sum(run.bytes_out for run in untraced),
        "cli.cpu_s": sum(run.cpu_s for run in untraced),
    }
    m.update({f"cli.job_s.{job}": walls.get(job, 0.0) for job in JOB_NAMES})
    m.update({
        "vec.constructed": counters.get("vec.constructed", 0),
        "vec.self_s": layer("vec"),
        "numerics.fd_calls": calls("numerics.fd_derivative", "numerics.fd1_wide"),
        "numerics.fd_s": own("numerics.fd_derivative", "numerics.fd1_wide"),
        "numerics.extrapolate_s": own("numerics.extrapolate_to_zero"),
        "numerics.quad_s": own("numerics.adaptive_simpson"),
        "numerics.root_s": own("numerics.bisect_root", "numerics.find_roots"),
        "numerics.self_s": layer("numerics"),
        "expr.parse_s": own("expr.parse"),
        "expr.differentiate_s": own("expr.differentiate"),
        "expr.evaluate_calls": counters.get("expr.evaluate_calls", 0),
        "expr.evaluate_s": own("expr.evaluate"),
        "expr.self_s": layer("expr"),
        "curves.point_calls": calls("curves.point"),
        "curves.derivative_calls": calls("curves.derivative"),
        "curves.fd_calls": counters.get("curves.fd_calls", 0),
        "curves.self_s": layer("curves"),
    })
    for name in ("plane", "space", "surface", "ellipse"):
        m[f"{name}.calls"] = layer(name, field=0)
        m[f"{name}.self_s"] = layer(name)
    rhs = [n for n in spans if n.endswith(".rhs")]
    m.update({
        "surface.geometry_calls": calls("surface.surface_geometry"),
        "surface.composed_builds": calls("surface.composed_space_curve"),
        "reconstruct.steps": counters.get("reconstruct.steps", 0),
        "reconstruct.rhs_calls": calls(*rhs),
        "reconstruct.rhs_s": own(*rhs),
        "reconstruct.step_s": own("reconstruct.reconstruct_plane",
                                  "reconstruct.reconstruct_space",
                                  "reconstruct.integrate_unit_direction"),
        "reconstruct.triangulate_s": own("reconstruct._triangulate"),
        "reconstruct.error_check_s": own("reconstruct.max_error_vs"),
        "reconstruct.self_s": layer("reconstruct"),
        "reconstruct.max_drift": counters.get("reconstruct.max_drift", 0.0),
    })
    max_errors = {run.job: float(run.stdout.split("=", 1)[1])
                  for run in untraced
                  if run.job in TRAJECTORY_JOBS and not run.error}
    m.update({f"reconstruct.max_error.{job}": max_errors.get(job, 0.0)
              for job in TRAJECTORY_JOBS})
    m["verify.self_s"] = layer("verify")
    for cid in VERIFY_CRITERIA:
        m[f"verify.{cid}.s"] = spans.get(f"verify.{cid}", (0, 0.0, 0.0))[2]
        m[f"verify.{cid}.measured"] = measured.get(cid, 0.0)
    traced_wall = sum(run.wall_s for run in traced)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - sum(run.wall_s for run in untraced)
    m["trace.unattributed_s"] = traced_wall - sum(v[1] for v in spans.values())
    return m


# -- one workload ------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    jobs = workloads.generate(name, seed)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "host": host_info(),
              "host_start": host_state(),
              "configs": workloads.write_inputs(jobs, WORK)}
    runner = Runner(WORK, seed)

    code, _, where = runner.setup_probe()   # warm-up: bytecode, page cache
    expected = ROOT / "src" / "rotorkin" / "cli.py"
    if code != 0 or Path(where).resolve() != expected.resolve():
        raise BenchError(f"set-up probe failed (exit {code}, imported {where!r})")

    if trace:
        untraced = [runner.job(job) for job in jobs]
        span_files = [WORK / f"{job.name}.spans.npz" for job in jobs]
        traced = [runner.job(job, spans) for job, spans in zip(jobs, span_files)]
        runs = untraced + traced
        metrics = layer_metrics(untraced, traced, span_files)
        units = dict(PER_LAYER)
    else:
        measurement = measure(runner, jobs, seconds)
        runs = measurement.runs
        metrics, record["unscaled"] = end_to_end_metrics(measurement)
        record.update(job_factor=measurement.job_factor(),
                      setup_factor=measurement.setup_factor(),
                      setup_walls=measurement.setup_walls,
                      setup_rounds=measurement.setup_rounds,
                      job_rounds=measurement.job_rounds)
        units = dict(END_TO_END)

    record["host_end"] = host_state()
    record["runs"] = [{k: v for k, v in asdict(run).items() if k != "stdout"}
                      for run in runs]
    failed = sum(1 for run in runs if run.error)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1))

    for run in runs:
        if run.error:
            print(f"FAILED {run.job}: {run.error}")
    print(f"# {name} seed={seed} trace={int(trace)}: {len(runs)} jobs, "
          f"{failed} failed; record {path.relative_to(ROOT)}")
    for key, entry in result["metrics"].items():
        print(f"{name:<12} {key:<40} {entry['value']:>16.6g} {entry['unit']}")
    if not trace:
        print(f"# unscaled wall_s {record['unscaled']['wall_s']:.6g} s, setup_s "
              f"{record['unscaled']['setup_s']:.6g} s; host factors "
              f"{record['job_factor']:.4g} (jobs), "
              f"{record['setup_factor']:.4g} (set-up)")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the job it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "rotorkin" / "cli.py").is_file():
        print(f"no rotorkin source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
        else:
            parts = [(w, run_workload(w, args.seed, args.seconds, trace))
                     for w in WORKLOADS for trace in (False, True)]
            result = {
                "correct": all(r["correct"] for _, r in parts),
                "attempted": sum(r["attempted"] for _, r in parts),
                "failed": sum(r["failed"] for _, r in parts),
                "metrics": {f"{w}.{k}": v for w, r in parts
                            for k, v in r["metrics"].items()}}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
