"""The numpy "%.17g" formatter of the CSV writer, held to Python's "%" byte
for byte, and the writer around it at block edges on one CPU and on many."""

import io
import os
import random
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkin.csvout import _BLOCK, _column_blocks, _format_rows, _write_csv


def formatted(table):
    """The formatter's text of `table`, its passes joined."""
    return "".join(_format_rows(table))


def percent(table):
    """The reference text: Python's "%" over every cell of `table`."""
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return line * len(table) % tuple(table.ravel().tolist())


def assert_formats(cells, columns=1):
    """Format `cells` as a table of `columns` columns and as one column,
    and compare each row with "%" (the first differing row is reported)."""
    cells = np.asarray(cells, dtype=float)
    for width in (columns, 1):
        table = cells[:len(cells) // width * width].reshape(-1, width)
        got, want = formatted(table), percent(table)
        if got != want:
            for got_row, want_row, row in zip(got.splitlines(),
                                              want.splitlines(), table):
                assert got_row == want_row, [float.hex(x) for x in row]
        assert got == want


FINITE = st.floats(width=64, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda cols: st.lists(st.lists(FINITE, min_size=cols, max_size=cols),
                          min_size=1, max_size=40)))
def test_any_finite_block_prints_as_percent(rows):
    table = np.array(rows, dtype=float)
    assert formatted(table) == percent(table)


def test_a_million_random_bit_patterns_print_as_percent():
    bits = np.random.default_rng(26).integers(0, 2 ** 64, 10 ** 6 + 4,
                                              dtype=np.uint64)
    cells = bits.view(np.float64)
    cells = cells[np.isfinite(cells)]
    assert len(cells) > 10 ** 6 - 1000
    for start in range(0, len(cells), 7 * _BLOCK):
        table = cells[start:start + 7 * _BLOCK]
        table = table[:len(table) // 7 * 7].reshape(-1, 7)
        assert formatted(table) == percent(table)


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
    cells = np.concatenate([tens, np.nextafter(tens, 0.0),
                            np.nextafter(tens, np.inf)])
    assert_formats(np.concatenate([cells, -cells]), 3)


def test_integers_up_to_2_to_the_73():
    rng = np.random.default_rng(5)
    powers = 2.0 ** np.arange(74)
    near = (powers[:, None] + np.arange(-3, 4)).ravel()
    cells = np.concatenate([np.arange(-2000.0, 2001.0), powers, near,
                            np.floor(rng.uniform(0, 2.0 ** 73, 5000)),
                            np.floor(rng.uniform(0, 1e17, 5000)),
                            10.0 ** np.arange(23) * np.arange(1, 24)])
    assert_formats(np.concatenate([cells, -cells]), 5)


def ties():
    """Dyadic rationals c / 2**b whose decimal expansion c * 5**b has 18
    digits, the last a 5: "%.17g" rounds them half to even."""
    rnd = random.Random(26)
    cells = []
    for b in range(2, 25):
        lo, hi = -(-10 ** 17 // 5 ** b), min(2 ** 53, 10 ** 18 // 5 ** b)
        cells += [(rnd.randrange(lo, hi) | 1) / 2 ** b
                  for _ in range(200) if lo < hi]
    return [x for x in cells if len(str(int(x * 2 ** 24) * 5 ** 24)) >= 18]


def near_ties():
    """Cells c / 2**(F + m) whose scaled value c * 5**m / 2**F lies t / 2**F
    from a rounding tie, t odd and small, F from 44 to 53: the double-double
    cannot tell their side of the tie, so Python's "%" must."""
    cells = []
    for m in range(24, 30):
        for f in range(44, 54):
            inverse = pow(5 ** m, -1, 2 ** f)
            for t in range(-401, 402, 2):
                c = ((2 ** (f - 1) + t) * inverse) % 2 ** f
                if 10 ** 16 <= (c * 5 ** m) >> f < 10 ** 17:
                    cells.append(c / 2 ** (f + m))
    return cells


def test_ties_round_half_to_even():
    cells = np.array(ties())
    assert len(cells) > 4000
    assert_formats(np.concatenate([cells, -cells]), 4)


def test_cells_next_to_a_tie_go_to_python():
    # the fast path alone misrounds some of these
    cells = np.array(near_ties())
    assert len(cells) > 4000
    assert_formats(np.concatenate([cells, -cells]), 4)


def test_extremes_zeros_and_non_finite_cells():
    tiny, huge = 5e-324, np.finfo(float).max
    cells = [tiny, -tiny, 2 * tiny, np.finfo(float).tiny,
             np.nextafter(np.finfo(float).tiny, 0.0), huge, -huge,
             np.nextafter(huge, 0.0), 0.0, -0.0, np.nan, -np.nan, np.inf,
             -np.inf, 1e-5, 9.9999999999999991e-6, 1e-4, 0.001, 1e16, 1e17,
             9.9999999999999984e16, 123456789012345678.0, 0.1, 0.5, 1.5,
             100.0, 1200.0, 1e22, 1e23, 2.0 ** -1074 * 3]
    assert_formats(cells, 3)
    assert formatted(np.array([[np.nan, -0.0, np.inf]])) == "nan,-0,inf\n"


def test_an_empty_table_prints_nothing():
    assert formatted(np.empty((0, 3))) == ""


def on_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5000])
@pytest.mark.parametrize("cpus", [1, 3])
def test_write_csv_at_block_edges(monkeypatch, rows, cpus):
    on_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(
        -30, 30, (rows, 3))
    fh = io.StringIO()
    _write_csv(lambda: nullcontext(fh), ["a", "b", "c"],
               _column_blocks(table.T))
    assert fh.getvalue() == "a,b,c\n" + percent(table)
