"""Acceptance suite: runs every verification criterion at its stated
tolerance and prints one PASS/FAIL line per criterion.

The same criteria back the `rotorkin verify` subcommand; here each one is
a separate test so a regression pinpoints itself.
"""

import os
import subprocess
import sys

import pytest

from rotorkin import cli, verify
from rotorkin.errors import NonFiniteData

_RESULTS = {}


def _run(cid):
    if cid not in _RESULTS:
        runner = dict((c, fn) for c, _, fn in verify.CRITERIA)[cid]
        _RESULTS[cid] = runner(None)
    result = _RESULTS[cid]
    print(result.line(), result.detail)
    return result


@pytest.mark.parametrize("cid", [cid for cid, _, _ in verify.CRITERIA])
def test_criterion(cid):
    result = _run(cid)
    assert result.passed, result.line() + " " + result.detail
    assert result.cid == cid


def test_verify_cli_exits_zero_on_subset():
    # full `verify` is exercised criterion-by-criterion above; the CLI exit
    # path is checked on the cheap ellipse-tagged subset
    proc = subprocess.run(
        [sys.executable, "-m", "rotorkin.cli", "verify", "--filter", "ellipse"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)


def test_pool_matches_the_criterion_by_criterion_runs():
    want = [_run(cid) for cid, _, _ in verify.CRITERIA]
    got = verify.run_all()
    assert ([(r.cid, r.passed, float(r.measured), r.bound) for r in got]
            == [(r.cid, r.passed, float(r.measured), r.bound) for r in want])


# -- the worker pool on a cheap table ------------------------------------------------

def _pid(fault=None):
    return verify.CriterionResult(
        cid="pid", passed=True, measured=0.0, bound=0.0,
        detail=str(os.getpid()))


def _non_finite(fault=None):
    exc = NonFiniteData("reconstructed trajectory is not finite")
    exc.t = 0.25
    raise exc


@pytest.fixture
def cheap_table(monkeypatch):
    """A three-entry CRITERIA and two usable CPUs, so run_all forks."""
    runners = dict((cid, fn) for cid, _, fn in verify.CRITERIA)
    monkeypatch.setattr(verify, "CRITERIA", (
        ("local-limits", ("plane",), runners["local-limits"]),
        ("line-degeneracy", ("plane",), runners["line-degeneracy"]),
        ("pid", ("cli",), _pid)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    return monkeypatch


def test_pool_runs_the_patched_table_with_the_fault(cheap_table):
    results = verify.run_all(fault="psi")
    assert [r.cid for r in results] == ["local-limits", "line-degeneracy",
                                        "pid"]
    assert [r.passed for r in results] == [False, True, True]
    assert results[2].detail != str(os.getpid())  # ran in a worker


def test_worker_errors_reach_the_caller(cheap_table, capsys):
    cheap_table.setattr(verify, "CRITERIA",
                        verify.CRITERIA[1:] + (("nan", ("cli",), _non_finite),))
    with pytest.raises(NonFiniteData) as info:
        verify.run_all()
    assert str(info.value) == "reconstructed trajectory is not finite"
    assert info.value.t == 0.25
    outcomes = [(cli.main(["verify"]),) + capsys.readouterr()]
    cheap_table.setattr(os, "sched_getaffinity", lambda pid: {0})
    outcomes.append((cli.main(["verify"]),) + capsys.readouterr())
    assert outcomes[0] == outcomes[1] == (
        2, "", "config error: reconstructed trajectory is not finite\n")


@pytest.mark.parametrize("cpus, methods", [({0}, None), ({0, 1}, ["spawn"])])
def test_without_fork_the_criteria_run_in_process(monkeypatch, capsys, cpus,
                                                  methods):
    import multiprocessing

    def no_fork():
        raise OSError("fork is not available")
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    if methods is not None:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: methods)
    assert cli.main(["verify", "--filter", "ellipse"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS ") for line in lines)
