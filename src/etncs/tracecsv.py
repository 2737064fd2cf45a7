"""Reading trace.csv back.

Text in the writer's own layout (``sim.format_blocks``: every value
``[-]d.<16 digits>e[+-]dd[d]``, every line ending in a newline) is parsed
with numpy arithmetic into the values ``np.loadtxt`` gives, bit for bit; any
other text goes through ``np.loadtxt``, with its messages.  This is a module
of its own, imported by ``sim.read_trace_csv`` when first called, so that
only the processes that read a trace compile and load it.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .sim import _BLOCK_ROWS, _E_MAX, _POW_LO, _format_tables, _veltkamp

__all__ = ["read"]

# The bytes of the shortest and the longest field the writer makes, with its
# separator: "d.<16 digits>e+dd," and "-d.<16 digits>e+ddd,".
_FIELD_MIN, _FIELD_MAX = 23, 25
_ZEROS = 0x3030303030303030   # ASCII '0' in each byte of an int64 word
_NIBBLES = 0xF0F0F0F0F0F0F0F0 - 2 ** 64   # the high nibble of each byte, as an int64
_MAGIC = 0x4330000000000000    # the bits of 2.0**52


def _all_digits(words: np.ndarray) -> bool:
    """Whether every byte of the int64 words is an ASCII digit: its high
    nibble is 3, and adding 6 does not carry it out of 0x30..0x3F."""
    carried = words + 0x0606060606060606
    carried &= _NIBBLES
    carried ^= _ZEROS
    high = words & _NIBBLES
    high ^= _ZEROS
    carried |= high
    return not carried.any()


def _join_digits(words: np.ndarray, width: int) -> None:
    """Join each pair of neighbouring ``width``-digit numbers, one in each
    8*width-bit lane of the little-endian int64 words, first number
    highest, into one number in the pair's lane (SWAR), in place: width 1
    on digit values gives 2-digit numbers, then 2 gives 4 digits and 4
    gives 8.  The sums wrap, and the mask keeps the joined lanes' bits."""
    mask = sum(((1 << (8 * width)) - 1) << (16 * width * i) for i in range(4 // width))
    low = words >> (8 * width)
    words *= 10 ** width
    words += low
    words &= mask


def _exact_float(n: np.ndarray) -> np.ndarray:
    """int64 values 0 <= n < 2^52 as float64, exactly: 2^52 + n has n as its
    mantissa bits."""
    return (n | _MAGIC).view(np.float64) - 2.0 ** 52


def _parse_fields(buf: np.ndarray, spans: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray, neg: np.ndarray,
                  tables: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """The values of the fields ``buf[starts[i]:ends[i]]``, or None if one is
    not in the writer's layout ``[-]d.<16 digits>e[+-]dd[d]``.  ``spans[i]``
    is the 24 bytes from byte i of ``buf``, ``neg[i]`` whether field i
    starts with '-', and ``tables`` the first four of ``sim._format_tables``.

    The inverse of ``_format_values``: with D the 17 digits and E the
    exponent, D * 10^(E-16) is formed as the double-double x0 + lo, Dekker's
    product of float(D) and 10^(E-16)'s hi on Veltkamp halves plus the
    terms of D's and the power's remainders, whose error is below 2^-90 of
    the value.  The double x = x0 + lo is taken when 1e-280 <= x < 1e281 (or
    D is zero) and the exact residual (x0 + lo) - x lies below 0.499 of the
    spacing to the next double down, the smaller of x's two spacings, so x
    is the nearest double; ``float`` reads any other field, one at a time,
    correctly rounded as ``np.loadtxt`` is.  The arithmetic keeps to int64
    and float64 ufuncs, whose code the checks load anyway: each loop they
    do not use maps about 64 KB more of numpy into the process.
    """
    s = np.where(neg, starts + 1, starts)   # the lead digit
    size = ends - s                          # 22, or 23 with a 3-digit exponent
    three = size == 23
    # the 24 bytes from s as three little-endian int64 words: the lead digit,
    # '.', 6 digits; 8 digits; 2 digits, 'e', the exponent's sign and 2 or 3
    # digits
    words = spans[s].view(np.int64).reshape(-1, 3).T.copy()
    head, tail = words[0], words[2]
    mark = (tail >> 16) & 0xFFFF
    exp_neg = mark == 0x2D65   # "e-"
    ok = (three | (size == 22)) & (exp_neg | (mark == 0x2B65)) & ((head & 0xFF00) == 0x2E00)
    del s, size, mark
    # keep 8 digits in each word: '0' and the lead digit for the lead digit
    # and '.'; '00', the last 2 digits, '0' and the exponent's 3 digits (a
    # 2-digit one led by a '0')
    exp = np.where(three, tail >> 32, ((tail >> 24) & 0xFFFF00) | 0x30) & 0xFFFFFF
    words[0] = (head & -0x10000) | ((head & 0xFF) << 8) | 0x30
    words[2] = (exp << 40) | ((tail & 0xFFFF) << 16) | 0x3000003030
    del three, exp, head, tail
    if not (ok.all() and _all_digits(words)):
        return None
    del ok
    words -= _ZEROS
    _join_digits(words, 1)
    _join_digits(words, 2)   # 4-digit groups in the low 16 bits of each half
    e = words[2] >> 32
    e *= np.where(exp_neg, -1, 1)
    in_range = (e >= -_E_MAX) & (e <= _E_MAX)
    k = np.where(in_range, e - (16 + _POW_LO), -_POW_LO)   # the index of 10^(E-16), else 1
    del exp_neg, e
    _join_digits(words[:2], 4)
    # D = high * 10^10 + low, both exact doubles, and so is high * 10^10
    high = _exact_float(words[0])
    low = _exact_float(words[1] * 100 + (words[2] & 0xFFFF))
    del words
    high *= 1e10
    dh = high + low
    dl = low - (dh - high)   # exact: |dl| <= 8
    del high, low
    hi_t, lo_t, bh_t, bl_t = tables
    ph = hi_t[k]
    x0 = dh * ph
    ah, al = _veltkamp(dh)
    bh, bl = bh_t[k], bl_t[k]
    # lo = ((ah*bh - x0) + ah*bl + al*bh) + al*bl + (dh*lo_t[k] + dl*ph), in place
    lo = ah * bh
    lo -= x0
    ah *= bl
    lo += ah
    bh *= al
    lo += bh
    bl *= al
    lo += bl
    dl *= ph
    dl += lo_t[k] * dh
    lo += dl
    del ah, al, bh, bl, ph, dl, k
    x = x0 + lo
    r = lo - (x - x0)   # exact, as |lo| <= |x0|
    del lo, x0
    # the spacing to the double below, one unit less in x's bits, which is
    # the smaller spacing for a positive x
    gap = x - (x.view(np.int64) - 1).view(np.float64)
    take = in_range & (np.abs(r) < 0.499 * gap) & (x >= 1e-280) & (x < 1e281)
    take |= dh == 0
    x *= np.where(neg, -1.0, 1.0)
    for i in np.flatnonzero(~take).tolist():
        x[i] = float(buf[starts[i]:ends[i]].tobytes())
    return x


def _read_layout(fh, width: int, size: int) -> Optional[np.ndarray]:
    """The value matrix of the ``size`` bytes left in binary file ``fh``, if
    they are rows of ``width`` fields in the writer's layout, each line
    ending in a newline; else None.  The matrix is allocated once for the
    most rows ``size`` bytes can hold and shrunk at the end, so pages past
    the last row are never touched; the text is read _BLOCK_ROWS lines at
    a time into one buffer that holds that many of the longest lines, or
    the whole text and a byte more, if that is less."""
    tables = _format_tables()[:4]   # made first, so the cache pins no heap above the blocks
    cap = min(_BLOCK_ROWS * width * _FIELD_MAX, size + 1)
    buf = np.zeros(cap + 32, np.uint8)   # a field's 24 bytes may run past the text
    spans = np.ndarray((len(buf) - 23,), "V24", buf, strides=(1,))
    mat = np.empty((size // (width * _FIELD_MIN), width))
    rows = held = 0
    while True:
        read = fh.readinto(memoryview(buf)[held:cap])
        end = held + read
        if not end:
            break
        newline = buf[:end] == ord("\n")
        seps = np.flatnonzero(newline | (buf[:end] == ord(",")))
        line_ends = np.searchsorted(seps, np.flatnonzero(newline))   # as indices of seps
        del newline
        if len(line_ends) >= _BLOCK_ROWS:
            lines = _BLOCK_ROWS
        elif read < cap - held and buf[end - 1] == ord("\n"):
            lines = len(line_ends)   # the last lines of the file
        else:
            return None   # a line longer than the writer's, or no final newline
        fields = lines * width
        if (not np.array_equal(line_ends[:lines], np.arange(width - 1, fields, width))
                or rows + lines > len(mat)):
            return None
        ends = seps[:fields]
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        # compared over the bytes the separator scan compares, so that it runs
        # the same numpy code: a shorter slice mapped 64 KB more of numpy
        neg = (buf[:end] == ord("-"))[starts]
        values = _parse_fields(buf, spans, starts, ends, neg, tables)
        if values is None:
            return None
        mat[rows:rows + lines] = values.reshape(lines, width)
        rows += lines
        cut = ends[-1] + 1
        held = end - cut
        buf[:held] = buf[cut:end]
    if not rows:
        return None
    mat.resize((rows, width), refcheck=False)
    return mat


def read(path) -> Tuple[List[str], np.ndarray]:
    """Header names and the raw value matrix of a trace file."""
    with open(path, "rb") as fh:
        head = fh.readline()
        if head.endswith(b"\n") and head.isascii() and b"\r" not in head:
            names = head.decode().strip().split(",")
            if names != [""]:
                mat = _read_layout(fh, len(names), os.fstat(fh.fileno()).st_size - len(head))
                if mat is not None:
                    return names, mat
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"trace file {path} is empty")
        names = header.split(",")
        start = fh.tell()
        if not any(line.strip() for line in fh):   # loadtxt only warns on these
            raise ValueError(f"trace file {path} has no data rows")
        fh.seek(start)
        mat = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if mat.shape[1] != len(names):
        raise ValueError(f"trace file {path} is malformed: ragged rows")
    return names, mat
