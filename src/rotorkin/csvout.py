"""The writers of every command and of `Trajectory.write_csv`, their
"%.17g" formatter, and the fork code that runs their blocks; a leaf
module, so the CLI loads it without the reconstruction code.

The writers read a *block source*: a pair (rows, block) whose block(k)
gives the columns of rows k * _BLOCK to (k + 1) * _BLOCK, equal-length
float sequences, so that no row is computed before its block is written."""

import functools
import json
import math
import os
import shutil
import tempfile
from contextlib import ExitStack

import numpy as np

# rows per block of work, from sampling and the kernels to the CSV writer,
# and steps per block of reconstruction; bounds each block's arrays
_BLOCK = 1024


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _forked_runs(count, work, files) -> list:
    """Do blocks 0 to count - 1 in one contiguous run (a range of block
    numbers) per usable CPU, each as work(run, tmp) into its own unlinked
    temporary text file entered in the ExitStack `files`:
    a forked child does each later run, this process run 0.  A failed
    child's run is redone here, so that its error is raised here.  Returns
    the (run, file) pairs in order, each file rewound.  A failure here
    kills and reaps the children first.  Children leave through os._exit
    (no exit handler)."""
    n = max(1, min(count, _usable_cpus()))
    runs = [(range(count * k // n, count * (k + 1) // n),
             files.enter_context(tempfile.TemporaryFile("w+")))
            for k in range(n)]
    children = []
    try:
        for run, tmp in runs[1:]:
            if (pid := os.fork()) == 0:
                try:
                    work(run, tmp)
                    tmp.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append((pid, run, tmp))
        work(*runs[0])
        while children:
            pid, run, tmp = children[0]
            failed = os.waitpid(pid, 0)[1]
            del children[0]
            if failed:
                tmp.seek(0)
                tmp.truncate()
                work(run, tmp)
    finally:
        for pid, _, _ in children:  # left only when this process failed
            import signal  # lazily: 1 ms a CLI start would pay
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for _, tmp in runs:
        tmp.flush()
        tmp.seek(0)
    return runs


def _column_blocks(columns):
    """The block source of the rows of the equal-length `columns`."""
    return len(columns[0]), lambda k: [c[k * _BLOCK:(k + 1) * _BLOCK]
                                       for c in columns]


def _write_csv(out, header, rows) -> None:
    """Write `header` and the rows of the block source `rows` as CSV, every
    cell as "%.17g" (the bytes of f"{cell:.17g}"), to the text stream that
    out() opens (a context manager); see `_write_runs`."""
    count, block = rows

    def write(run, tmp):
        for k in run:
            tmp.writelines(_format_rows(np.column_stack(block(k))))

    _tables()  # built once, before the children fork
    _write_runs(out, ",".join(header) + "\n", count, write, "")


def _write_json(out, header, rows) -> None:
    """Write the rows of the block source `rows` as the bytes of
    json.dumps(rows, indent=2) + "\n", each row an object keyed by
    `header`, to the text stream that out() opens; see `_write_runs`."""
    count, block = rows

    def write(run, tmp):
        for k in run:
            items = [dict(zip(header, row))
                     for row in np.column_stack(block(k)).tolist()]
            # the block's list without its brackets: the items at the same
            # indent
            tmp.write(("," if k else "") + json.dumps(items, indent=2)[1:-2])

    _write_runs(out, "[", count, write, "\n]\n" if count else "]\n")


def _write_runs(out, head, count, write, tail) -> None:
    """Format the `count` rows a block at a time, write(run, tmp) in
    `_forked_runs`, every run into a temporary file; only once every run
    has succeeded, open out() and copy `head`, the runs and `tail` into it.
    So an error raised by a block leaves the destination unopened."""
    with ExitStack() as files:
        runs = _forked_runs(-(-count // _BLOCK), write, files)
        with out() as fh:
            fh.write(head)
            for _, tmp in runs:
                shutil.copyfileobj(tmp, fh)
            fh.write(tail)


# -- "%.17g" of float64 cells, in numpy ---------------------------------------
#
# A nonzero finite cell x prints as its 17-digit integer N = round(|x| *
# 10**(16 - k)), k = floor(log10|x|), laid out by "%g"'s rules.  The scaled
# value is a double-double hi + lo: Dekker's exact product of |x| and the
# power's high part, plus |x| times the power's low part, within 2**-47 of
# the exact product (Loitsch, "Printing floating-point numbers quickly and
# accurately with integers", PLDI 2010; Dekker, Numer. Math. 18, 1971).  A
# cell whose scaled value lies within 2**-40 of a rounding tie, whose k is
# still off after one correction, or that is not finite, goes to Python's
# "%" instead, so the fast path never has to be right for the bytes to be.

_CELLS = 2048  # cells per pass of the formatter
_KMIN, _KMAX = -325, 309  # the decimal exponents k of the power table
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
_LOG10_2 = math.log10(2)
# rows: the binary scale s of |x|, then 10**(16 - k) / s as hi (also split
# in two halves) + lo; a column is filled when a cell first needs it
_POWERS = np.zeros((5, _KMAX - _KMIN + 1))
_FILLED = [False] * (_KMAX - _KMIN + 1)


def _fill_powers(i0, i1) -> None:
    """Fill the power table's columns i0 to i1 from exact integers; past
    |k| = 250 the scale 2**-+512 keeps the split product clear of overflow
    and underflow."""
    for i in range(i0, i1 + 1):
        if _FILLED[i]:
            continue
        k = i + _KMIN
        shift = 512 if k < -250 else -512 if k > 250 else 0
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        num, den = num << max(-shift, 0), den << max(shift, 0)
        hi = num / den  # int / int rounds correctly
        p, q = hi.as_integer_ratio()
        half = hi * _SPLIT - (hi * _SPLIT - hi)
        _POWERS[:, i] = (2.0 ** shift, hi, half, hi - half,
                         (num * q - p * den) / (den * q))
        _FILLED[i] = True


def _scaled(a, i):
    """hi, lo: |x| * 10**(16 - k) for the cells `a` = |x|, i = k - _KMIN."""
    i0, i1 = int(i.min()), int(i.max())
    if not all(_FILLED[i0:i1 + 1]):
        _fill_powers(i0, i1)
    scale, hi, h1, h2, lo = (row.take(i) for row in _POWERS)
    a = a * scale
    a1 = a * _SPLIT - (a * _SPLIT - a)
    a2 = a - a1
    p = a * hi
    return p, ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * lo


def _k_off(p, lo):
    """+1 where hi + lo = p + lo is below 10**16 (k too large), -1 where it
    is 10**17 or more (k too small), else 0."""
    return ((p - 1e16) + lo < 0).astype(np.intp) - ((p - 1e17) + lo >= 0)


@functools.cache
def _tables():
    """The layout's tables, built on first use, each entry 8 bytes (a
    little-endian int read back as one int64): the 4 digits of 0-9999
    between NULs, then the same with trailing zeros as NULs; the head (sign,
    "0.000"-style lead of 0 or 2-5 bytes, first digit) by (sign * 6 + lead)
    * 10 + digit; the exponent ("e", sign, 2-3 digits) by k - _KMIN + 1,
    NULs at 0."""
    two = np.arange(100)  # 0-9999 as 100 * high + low, each of two digits
    tens, ones = two // 10 + 48, two - two // 10 * 10 + 48
    pair = tens + ones * 65536
    bare = tens * (two > 0) + ones * 65536 * (ones > 48)
    body = np.empty((2, 100, 100), "<i8")
    np.add(pair[:, None], pair * 2 ** 32, out=body[0])
    np.add(pair[:, None], bare * 2 ** 32, out=body[1])
    body[1, :, 0] = bare
    sign, lead, first = np.ix_(np.arange(2), np.arange(6), np.arange(10))
    lead = (lead > 1) * (48 + 46 * 256) + (lead > 2) * 48 * 65536 * (
        1 + 256 * (lead > 3) + 65536 * (lead > 4))
    head = 45 * sign + lead * 256 + (first + 48) * 256 ** 6
    k = np.arange(_KMIN, _KMAX + 1)
    e = k - 2 * k * (k < 0)
    u = e - e // 10 * 10 + 48
    t = e // 10 - e // 100 * 10 + 48
    h = (e >= 100) * (e // 100 + 48)
    digits = np.where(h, h + t * 256 + u * 65536, t + u * 256)
    tail = 101 + (43 + 2 * (k < 0)) * 256 + digits * 65536
    return tuple(np.asarray(table, "<i8").ravel().view(np.int64)
                 for table in (body, head, np.concatenate([[0], tail])))


# a cell's bytes: 0 sign, 1-5 lead, then digit j at 6 + 2j with the point
# after it at 7 + 2j, 40-44 exponent, 45 separator; unused bytes stay NUL
_WIDTH = 48
# the bytes of a cell left to Python's "%"
_PERCENT = np.frombuffer(b"%.17g".ljust(_WIDTH, b"\0"), np.int64)


def _lay_out(x, out):
    """Lay the cells x out in `out`, one row of _WIDTH bytes per cell, all
    but the separator; return the mask of the cells left to Python."""
    n = len(x)
    a = np.abs(x)
    bad = ~np.isfinite(a)
    a[bad | (a == 0)] = 1.0  # placeholders: N is set below, or "%" decides
    # k = floor(log10|x|), or one off: the bits of a normal |x|, read as an
    # int and scaled by 2**-52, are log2|x| + 1023 to within 0.09; a
    # subnormal's k comes out too large, and it goes to Python
    k = np.floor((a.view(np.int64) * 2.0 ** -52 - 1023) * _LOG10_2).astype(
        np.intp)
    p, lo = _scaled(a, k - _KMIN)
    off = _k_off(p, lo)
    fix = np.flatnonzero(off)
    if fix.size:  # near a power of ten, or subnormal
        k[fix] -= off[fix]
        p[fix], lo[fix] = _scaled(a[fix], k[fix] - _KMIN)
        bad[fix] |= _k_off(p[fix], lo[fix]) != 0
    r = np.rint(lo)
    bad |= np.abs(lo - r) > 0.5 - 2.0 ** -40
    N = p.astype(np.int64) + r.astype(np.int64)
    N[bad | (x == 0)] = 0
    top = N == 10 ** 17  # rounded up to the next power of ten
    N[top] = 10 ** 16
    k += top
    # the 17 digits: the first, then four groups of four
    d0 = N // 10 ** 16
    rest = N - d0 * 10 ** 16
    groups = np.empty((4, n), np.intp)
    for j, unit in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1)):
        groups[j] = rest // unit
        rest -= groups[j] * unit
    body, head, tail = _tables()
    after = np.ones(n, bool)  # a group past the last nonzero digit prints
    for j in (3, 2, 1, 0):  # its trailing zeros as NULs
        zero = groups[j] == 0
        groups[j] += 10000 * after
        after &= zero
    fixed = (k >= -4) & (k <= 16)  # "%g" prints these without an exponent
    lead = np.where(fixed & (k < 0), 1 - k, 0)
    words = out.view(np.int64)
    words[:, 0] = head.take((np.signbit(x) * 6 + lead) * 10 + d0)
    words[:, 1:5] = body.take(groups.T)
    words[:, 5] = tail.take(np.where(fixed, 0, k - _KMIN + 1))
    # the point follows digit k of a plain number, digit 0 of an exponent
    # form, when a nonzero digit follows: when the next digit is not NUL
    flat = out.reshape(-1)
    dot = np.where(fixed, k, 0)
    at = np.flatnonzero((dot >= 0) & (dot < 16))
    at = at[flat[at * _WIDTH + 8 + 2 * dot[at]] != 0]
    flat[at * _WIDTH + 7 + 2 * dot[at]] = 46
    # zeros of the integer part that the strip took: digit k is NUL
    whole = np.flatnonzero(fixed & (k > 0))
    whole = whole[flat[whole * _WIDTH + 6 + 2 * k[whole]] == 0]
    if whole.size:
        digits = out[whole, 8:39:2]
        digits[(digits == 0) & (np.arange(1, 17) <= k[whole, None])] = 48
        out[whole, 8:39:2] = digits
    return bad


def _format_rows(table):
    """Yield the text of `line * rows % tuple(cells)` for the 2-D float64
    `table`, `line` being ",".join(["%.17g"] * columns) + "\\n", one str
    per pass of about _CELLS cells (whole rows); a cell the layout leaves
    to Python is formatted by one "%" per pass."""
    rows, cols = table.shape
    per = max(1, min(_CELLS // cols, rows)) * cols
    ends = np.zeros((per // cols, cols, 8), np.uint8)  # the separators
    ends[:, :, 5] = 44
    ends[:, -1, 5] = 10
    ends = ends.view(np.int64).ravel()
    buffer = np.empty((per, _WIDTH), np.uint8)
    cells = table.ravel()
    for start in range(0, cells.size, per):
        x = cells[start:start + per]
        out = buffer[:len(x)]
        bad = np.flatnonzero(_lay_out(x, out))
        words = out.view(np.int64)
        words[bad] = _PERCENT  # their bytes become a "%" format
        words[:, 5] += ends[:len(x)]
        text = out.tobytes().translate(None, b"\0").decode("ascii")
        yield text % tuple(x[bad].tolist()) if bad.size else text
