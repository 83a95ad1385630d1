"""Time one process: `python spawn.py TIMEOUT STDOUT STDERR COMMAND...`.

Runs COMMAND with its output in the files STDOUT and STDERR, kills it
after TIMEOUT seconds, and prints one JSON object: exit code, wall seconds
from spawn to exit, peak RSS in KiB and CPU seconds.

The benchmark starts every timed process through this small launcher
rather than directly: on Linux a child's ru_maxrss starts from the peak
RSS of the process that spawned it, and the benchmark process itself
(numpy, output checks, span tables) is larger than some jobs.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> None:
    timeout, stdout, stderr, command = float(argv[0]), argv[1], argv[2], argv[3:]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    print(json.dumps({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                      "maxrss_kb": usage.ru_maxrss,
                      "cpu_s": usage.ru_utime + usage.ru_stime}))


if __name__ == "__main__":
    main(sys.argv[1:])
