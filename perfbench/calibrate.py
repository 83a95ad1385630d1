"""Host-speed probe: `python calibrate.py SECONDS`.

Times a fixed pure-Python loop (float math and small tuples, like the
CLI's scalar paths) over and over for about SECONDS, after two warm-up
rounds, and prints the mean time of one round.  It imports nothing from
rotorkin, so it measures the host and never the program: the benchmark
divides its times by this figure to take out the slow drift of a shared
host.
"""

import math
import sys
import time


def probe() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        t = i * 1e-4
        p = (math.cos(t), math.sin(t))
        acc += math.hypot(p[0] * 2.0 - 1.0, p[1] * 0.5 + t)
    return time.perf_counter() - start


def main(seconds: float) -> None:
    probe(), probe()
    rounds = [probe()]
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        rounds.append(probe())
    print(sum(rounds) / len(rounds))


if __name__ == "__main__":
    main(float(sys.argv[1]))
