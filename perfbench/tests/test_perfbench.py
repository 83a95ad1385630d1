"""Tests of the benchmark itself: `python -m pytest perfbench/tests -q`.

They run the checkout's CLI on shrunken copies of the generated jobs, so
the whole file takes well under a minute.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def shrink(job):
    """The same job on 400 samples or 500 RK4 steps."""
    if job.config is None:
        return job
    if job.check == "trajectory":
        config = {**job.config, "step": workloads.TWO_PI / 500}
        return dataclasses.replace(job, config=config, rows=501)
    config = {**job.config, "samples": 400}
    return dataclasses.replace(job, config=config, rows=400)


def seeded_jobs(seed):
    """Every job whose input depends on the seed, shrunk."""
    return [shrink(job) for name in workloads.WORKLOADS
            for job in workloads.generate(name, seed) if job.config is not None]


def run_jobs(jobs, work, spans=False):
    workloads.write_inputs(jobs, work)
    runner = run.Runner(work, seed=0)
    return [runner.job(job, work / f"{job.name}.npz" if spans else None)
            for job in jobs]


@pytest.mark.parametrize("seed", [1, 2, 3, 20261017])
def test_generated_inputs_give_error_rate_zero(seed, tmp_path):
    runs = run_jobs(seeded_jobs(seed), tmp_path)
    assert [(r.job, r.error) for r in runs if r.error] == []
    assert len(runs) == 9


def test_same_seed_same_inputs():
    first, second = workloads.generate("expr", 7), workloads.generate("expr", 7)
    assert [j.config for j in first] == [j.config for j in second]
    assert [j.config for j in first] != [j.config for j in workloads.generate("expr", 8)]


def test_checks_reject_wrong_output(tmp_path):
    job = shrink(workloads.generate("sample", 1)[0])
    (good,) = run_jobs([job], tmp_path)
    assert good.error == ""
    data = (tmp_path / f"{job.name}.csv").read_bytes()
    rng = np.random.default_rng(0)
    lines = data.decode().split("\n")
    skewed = [lines[0]] + [
        ",".join([cells[0], repr(float(cells[1]) * (1 + 1e-7))] + cells[2:])
        for cells in (line.split(",") for line in lines[1:-1])] + [""]
    bad_inputs = {
        "skewed D": "\n".join(skewed).encode(),
        "missing row": "\n".join(lines[:-2] + [""]).encode(),
        "nan": data.replace(b",", b",nan", 1),
        "header": data.replace(b"rot_speed", b"speed", 1),
    }
    for what, bad in bad_inputs.items():
        assert checks.check_job(job, 0, bad, "", rng), what
    assert checks.check_job(job, 3, data, "", rng) == "exit code 3"


def test_self_times_of_nested_and_recursive_spans():
    # main [0,10] > plane [1,4] > curves [2,3];
    # main > evaluate [5,9] > evaluate [6,8] > evaluate [6.5,7]
    parent = [-1, 0, 1, 0, 3, 4]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 6.5]
    end = [10.0, 4.0, 3.0, 9.0, 8.0, 7.0]
    own = tracer.self_times(np.array(parent), np.array(start), np.array(end))
    assert own.tolist() == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.5, 0.5])
    # the recursive spans' self times add up to the outermost one's span
    assert own[3:].sum() == pytest.approx(4.0)
    assert own.sum() == pytest.approx(10.0)


def test_span_log_records_parents_and_counts_recursion(tmp_path):
    log = tracer.SpanLog()

    def depth(n):
        return 0 if n == 0 else 1 + spanned(n - 1)

    def leaf():
        return sum(range(1000))

    spanned = log.span("expr.depth", depth)
    counted = log.span("expr.evaluate", lambda n: inner(n), recursive=True)
    inner = lambda n: 0 if n == 0 else counted(n - 1) + 1  # noqa: E731
    root = log.span("cli.main", lambda: (spanned(3), counted(4),
                                         log.span("curves.leaf", leaf)()))
    root()
    log.save(tmp_path / "spans.npz")
    spans, counters, _ = run.load_spans(tmp_path / "spans.npz")
    assert spans["expr.depth"][0] == 4          # one span per recursive call
    assert spans["expr.evaluate"][0] == 1       # only the outermost call
    assert counters["expr.evaluate_calls"] == 5
    assert list(log.parent) == [-1, 0, 1, 2, 3, 0, 0]
    total_self = sum(s for _, s, _ in spans.values())
    assert total_self == pytest.approx(spans["cli.main"][2])


def test_untraced_run_installs_no_wrapper(tmp_path):
    job = shrink(workloads.generate("expr", 1)[1])
    (untraced,) = run_jobs([job], tmp_path)
    assert untraced.error == "" and not list(tmp_path.glob("*.npz"))
    untraced_csv = (tmp_path / f"{job.name}.csv").read_bytes()

    # the benchmark's own imports leave rotorkin unwrapped in this process
    from rotorkin import cli, curves, expr, reconstruct, vec, verify
    for module in (cli, curves, expr, reconstruct, vec, verify):
        wrapped = [n for n, f in vars(module).items()
                   if callable(f) and hasattr(f, "__wrapped__")]
        assert wrapped == [], module.__name__
    assert not hasattr(curves._Curve.point, "__wrapped__")

    (traced,) = run_jobs([job], tmp_path, spans=True)
    assert traced.error == ""
    assert (tmp_path / f"{job.name}.csv").read_bytes() == untraced_csv
    spans, _, _ = run.load_spans(tmp_path / f"{job.name}.npz")
    assert spans["cli.main"][0] == 1 and spans["space.space_distance_kinematics"][0] == 400


def test_traced_counts_repeat_exactly(tmp_path):
    jobs = [shrink(j) for j in workloads.generate("sample", 5)[3:4]] + \
           [shrink(j) for j in workloads.generate("expr", 5)[2:]]
    counts = []
    for attempt in range(2):
        work = tmp_path / str(attempt)
        work.mkdir()
        runs = run_jobs(jobs, work, spans=True)
        assert [r.error for r in runs] == ["", ""]
        metrics = run.layer_metrics(runs, runs, [work / f"{j.name}.npz" for j in jobs])
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith(("_calls", "constructed", "steps", "builds"))})
    assert counts[0] == counts[1]
    assert counts[0]["reconstruct.steps"] == 500
    assert counts[0]["surface.composed_builds"] == 400
    assert counts[0]["numerics.fd_calls"] == 0


def test_end_to_end_times_are_scaled_by_the_host_factors():
    runs = [run.JobRun("a", wall, 50.0, wall, 0, "", 10, 100, "")
            for wall in (2.0, 3.0, 9.0)] + \
           [run.JobRun("b", 1.0, 60.0, 1.0, 1, "exit code 1", 0, 0, "")]
    ref = run.REFERENCE_ROUND_S
    # jobs ran on a host twice as slow as the reference, set-up probes on
    # one four times as slow
    m = run.Measurement(runs, [0.4, 0.5, 0.6], [4 * ref] * 3,
                        [(ref, 3 * ref)] * 4)
    metrics, unscaled = run.end_to_end_metrics(m)
    assert unscaled == {"wall_s": 3.0 + 1.0, "setup_s": 0.5}
    assert metrics == pytest.approx({"wall_s": 2.0, "setup_s": 0.125,
                                     "peak_rss_mb": 60.0, "success_rate": 0.75})


def test_job_factor_weights_each_job_by_its_wall_time():
    runs = [run.JobRun("a", wall, 50.0, wall, 0, "", 0, 0, "")
            for wall in (1.0, 3.0)]
    ref = run.REFERENCE_ROUND_S
    m = run.Measurement(runs, [0.3], [ref], [(ref, ref), (2 * ref, 2 * ref)])
    assert m.job_factor() == pytest.approx(1 / 1.75)


def test_calibration_does_not_import_rotorkin():
    source = (BENCH / "calibrate.py").read_text()
    assert "rotorkin" not in source.split('"""', 2)[2]
    proc = subprocess.run([sys.executable, str(BENCH / "calibrate.py"), "0.05"],
                          capture_output=True, text=True, timeout=30, check=True)
    assert 0 < float(proc.stdout) < 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sample",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
