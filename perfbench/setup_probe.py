"""Set-up probe: `python setup_probe.py SETUP_JSON`.

Imports rotorkin.cli and builds, through public functions, every input a
workload pass needs (the list written by `workloads.write_inputs`), then
exits without sampling or stepping.  The benchmark times this process from
spawn to exit as `setup_s`.  It prints where rotorkin was imported from so
the benchmark can confirm it measures the checkout's source.
"""

import json
import sys

import rotorkin.cli  # noqa: F401  (the import is part of set-up)
from rotorkin import expr
from rotorkin.curves import curve_from_spec
from rotorkin.ellipse import EllipseParams
from rotorkin.reconstruct import PRESETS
from rotorkin.surface import surface_from_spec


def build(item: dict) -> None:
    if "curve" in item:
        curve_from_spec(item["curve"])
    elif "preset" in item:
        PRESETS[item["preset"]].build(None, None)
    elif "ellipse" in item:
        EllipseParams(**item["ellipse"])
    elif "surface" in item:
        surface_from_spec(item["surface"])
        for axis in ("u", "v"):
            chain = [expr.parse(item["chart"][axis])]
            for _ in range(3):
                chain.append(expr.differentiate(chain[-1]))
    else:
        raise ValueError(f"unknown set-up item {item!r}")


def main(path: str) -> None:
    with open(path) as fh:
        for item in json.load(fh):
            build(item)
    print(rotorkin.cli.__file__)


if __name__ == "__main__":
    main(sys.argv[1])
