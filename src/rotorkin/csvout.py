"""The CSV writer of every command and of `Trajectory.write_csv`; a leaf
module, so the CLI loads it without the reconstruction code."""

import os
import shutil
import tempfile
from contextlib import ExitStack

_BLOCK = 1024  # rows per "%" call; bounds the memory of each block's text


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _write_csv(fh, header, table) -> None:
    """Write `header` and the rows of the (n, k) float array `table` to
    the text stream `fh`, every cell as "%.17g" (the bytes of
    f"{cell:.17g}"), one "%" per _BLOCK rows.  The blocks are cut into one
    contiguous run per usable CPU; a forked child formats each run after
    the first into its own temporary file, which the parent appends in
    order."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    starts = range(0, len(table), _BLOCK)
    n = max(1, min(len(starts), _usable_cpus()))
    runs = [starts[len(starts) * k // n:len(starts) * (k + 1) // n]
            for k in range(n)]

    def write(out, run):
        for start in run:
            block = table[start:start + _BLOCK]
            out.write(line * len(block) % tuple(block.ravel().tolist()))

    fh.flush()  # a child must not inherit unwritten output
    children = []
    with ExitStack() as files:
        try:
            for run in runs[1:]:
                tmp = files.enter_context(tempfile.TemporaryFile("w+"))
                if (pid := os.fork()) == 0:
                    # the child formats its run and leaves through _exit
                    # (status 1 on an error), so no atexit handler runs
                    try:
                        write(tmp, run)
                        tmp.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
                children.append((pid, tmp))
            fh.write(",".join(header) + "\n")
            write(fh, runs[0])
            while children:
                pid, tmp = children[0]
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                if status:
                    raise ChildProcessError(
                        f"CSV writer process {pid} exited with {status}")
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh)
        finally:
            for pid, _ in children:  # left only when the write failed
                import signal  # lazily: 1 ms a CLI start would pay
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
