"""The writers of every command and of `Trajectory.write_csv`, the fork
code that the per-sample row loop shares, and the row block of the array
paths; a leaf module, so the CLI loads it without the reconstruction code."""

import json
import os
import shutil
import tempfile
from contextlib import ExitStack

import numpy as np

# rows per block of work, from sampling and the kernels to one "%" of the
# CSV writer; bounds the memory of each block's arrays
_BLOCK = 1024


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _forked_runs(count, work, take, mode) -> None:
    """Do blocks 0 to count - 1 in one contiguous run (a range of block
    numbers) per usable CPU: a forked child does each later run as
    work(run, tmp) into an unlinked temporary file opened with `mode`,
    while this process does run 0 as work(run, None), into the
    destination.  It then takes the children's files in order with
    take(run, tmp), and redoes a failed child's run as work(run, None), so
    that run's error is raised here.  A failure here kills and reaps the
    children first.  Children leave through os._exit (no exit handler)."""
    n = max(1, min(count, _usable_cpus()))
    runs = [range(count * k // n, count * (k + 1) // n) for k in range(n)]
    children = []
    with ExitStack() as files:
        try:
            for run in runs[1:]:
                tmp = files.enter_context(tempfile.TemporaryFile(mode))
                if (pid := os.fork()) == 0:
                    try:
                        work(run, tmp)
                        tmp.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
                children.append((pid, run, tmp))
            work(runs[0], None)
            while children:
                pid, run, tmp = children[0]
                failed = os.waitpid(pid, 0)[1]
                del children[0]
                if failed:
                    work(run, None)
                else:
                    tmp.seek(0)
                    take(run, tmp)
        finally:
            for pid, _, _ in children:  # left only when this process failed
                import signal  # lazily: 1 ms a CLI start would pay
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _write_csv(fh, header, columns) -> None:
    """Write `header` and the rows of the equal-length float `columns` to
    the text stream `fh`, every cell as "%.17g" (the bytes of f"{cell:.17g}"),
    one "%" per block of _BLOCK rows (`_block_rows`), in `_forked_runs`."""
    line = ",".join(["%.17g"] * len(header)) + "\n"

    def write(run, out):
        if out is None:
            out = fh
            if run.start == 0:  # run 0, always this process's, heads the file
                fh.write(",".join(header) + "\n")
        for k in run:
            block = _block_rows(columns, k)
            out.write(line * len(block) % tuple(block.ravel().tolist()))

    fh.flush()  # a child must not inherit unwritten output
    _forked_runs(-(-len(columns[0]) // _BLOCK), write,
                 lambda run, tmp: shutil.copyfileobj(tmp, fh), "w+")


def _write_json(fh, header, columns) -> None:
    """Write the rows of `columns` as the bytes of json.dumps(rows, indent=2)
    + "\n", each row an object keyed by `header`, one block at a time."""
    fh.write("[")
    for k in range(-(-len(columns[0]) // _BLOCK)):
        rows = [dict(zip(header, row))
                for row in _block_rows(columns, k).tolist()]
        # the block's list without its brackets: the items at the same indent
        fh.write(("," if k else "") + json.dumps(rows, indent=2)[1:-2])
    fh.write("\n]\n" if len(columns[0]) else "]\n")


def _block_rows(columns, k):
    """Block k of the rows of `columns`, stacked into a table."""
    return np.column_stack([c[k * _BLOCK:(k + 1) * _BLOCK] for c in columns])
