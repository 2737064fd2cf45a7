"""Reading trace.csv and events.csv back.

There is one grammar for each file: the writer's own layout
(``sim.format_blocks``).  Every value is ``[-]d.<16 digits>e[+-]dd[d]``
or one of ``nan``, ``inf`` and ``-inf``, the texts ``%.16e`` gives the
non-finite values; an events index is an integer of magnitude below 2^63;
every line ends in a newline.  The text is parsed with numpy arithmetic, a block of lines at a
time, into the values ``float`` gives, bit for bit.  Any other text is a
ValueError naming the file, its line and, where one field is at fault, the
field.  A run's rows are read one block of ``_RUN_BLOCK`` rows at a time
(``read_run``).  This is a module of its own, imported by
``sim.read_trace_csv`` when first called, so that only the processes that
read a run compile and load it.
"""

from __future__ import annotations

import itertools
import os
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .sim import (_BLOCK_ROWS, _E_MAX, _EVENTS_HEADER, _POW_LO, _RUN_BLOCK, EventTable,
                  ScenarioConfig, TraceLog, _columns, _format_tables,
                  _trace_header, _veltkamp, read_events_csv, read_trace_csv)

__all__ = ["read", "read_events", "read_run"]

# The bytes of the longest field the writer makes, with its separator:
# "-d.<16 digits>e+ddd,".
_FIELD_MAX = 25
_ZEROS = 0x3030303030303030   # ASCII '0' in each byte of an int64 word
_NIBBLES = 0xF0F0F0F0F0F0F0F0 - 2 ** 64   # the high nibble of each byte, as an int64
_MAGIC = 0x4330000000000000    # the bits of 2.0**52
_SPELLED = (b"nan", b"inf", b"-inf")   # the writer's texts of the non-finite values
_OUTSIDE = "is not in the writer's layout"


class _Fault(Exception):
    """Raised with the index, among the fields a parser was given, of the
    first one outside the writer's layout, and what is wrong with it."""


def _non_digits(words: np.ndarray) -> np.ndarray:
    """Nonzero at each int64 word with a byte that is not an ASCII digit: a
    digit's high nibble is 3, and adding 6 does not carry it out of
    0x30..0x3F."""
    carried = words + 0x0606060606060606
    carried &= _NIBBLES
    carried ^= _ZEROS
    high = words & _NIBBLES
    high ^= _ZEROS
    carried |= high
    return carried


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
                  tables: Sequence[np.ndarray]) -> np.ndarray:
    """The values of the fields ``buf[starts[i]:ends[i]]``, each in the
    writer's layout ``[-]d.<16 digits>e[+-]dd[d]`` or one of its texts
    ``nan``, ``inf`` and ``-inf``; ``_Fault`` names the first field that is
    neither.  ``spans[i]`` is the 24 bytes from byte i of ``buf``,
    ``neg[i]`` whether field i starts with '-', and ``tables`` the first
    four of ``sim._format_tables``.

    The inverse of ``_format_values``: with D the 17 digits and E the
    exponent, D * 10^(E-16) is formed as the double-double x0 + lo, Dekker's
    product of float(D) and 10^(E-16)'s hi on Veltkamp halves plus the
    terms of D's and the power's remainders, whose error is below 2^-90 of
    the value.  The double x = x0 + lo is taken when 1e-280 <= x < 1e281 (or
    D is zero) and the exact residual (x0 + lo) - x lies below 0.499 of the
    spacing to the next double down, the smaller of x's two spacings, so x
    is the nearest double; ``float`` reads any other field, and the
    non-finite texts, one at a time, correctly rounded.  The arithmetic
    keeps to int64 and float64 ufuncs, whose code the checks load anyway:
    each loop they do not use maps about 64 KB more of numpy into the
    process.
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
    odd = _non_digits(words)
    spelled = None
    if not ok.all() or odd.any():
        spelled = np.flatnonzero(~ok | odd.any(axis=0))
        for i in spelled.tolist():
            if buf[starts[i]:ends[i]].tobytes() not in _SPELLED:
                raise _Fault(i, _OUTSIDE)
        words[:, spelled] = _ZEROS   # read as 0 here, and by float() below
    del ok, odd
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
    if spelled is not None:
        take[spelled] = False
    x *= np.where(neg, -1.0, 1.0)
    for i in np.flatnonzero(~take).tolist():
        x[i] = float(buf[starts[i]:ends[i]].tobytes())
    return x


def _chunks(fh, size: int, line_max: int, fields: int, separators: bytes, parse, name: str):
    """``parse(buf, spans, starts, ends, neg)`` of each block of lines of the
    ``size`` bytes left in binary file ``fh``, after its header line, read
    _BLOCK_ROWS lines at a time into one buffer that holds that many
    ``line_max``-byte lines, or the whole text and a byte more, if that is
    less.  Each line is ``fields`` fields split by the bytes of
    ``separators`` and ended by a newline; ``parse`` gets the buffer, the
    24 bytes from each of its bytes, the [start, end) of every field of the
    block's lines and whether it starts with '-', and raises ``_Fault`` at
    a field outside the layout.  A line that is longer, has another field
    count or has no newline, or the first bad field of the lines before it,
    is a ValueError "<name> line N[ field K]: ...".  Only what ``parse``
    returns is held while the caller works on it.
    """
    cap = min(_BLOCK_ROWS * line_max, size + 1)
    buf = np.zeros(cap + 32, np.uint8)   # a field's 24 bytes may run past the text
    spans = np.ndarray((len(buf) - 23,), "V24", buf, strides=(1,))
    held, line = 0, 2   # line: the file line of the buffer's first line
    while True:
        read = fh.readinto(memoryview(buf)[held:cap])
        end = held + read
        if not end:
            return
        newline = buf[:end] == ord("\n")
        split = newline.copy()
        for sep in separators:
            split |= buf[:end] == sep
        seps = np.flatnonzero(split)
        line_ends = np.searchsorted(seps, np.flatnonzero(newline))   # as indices of seps
        del split
        lines, fault = min(len(line_ends), _BLOCK_ROWS), None
        if lines < _BLOCK_ROWS and read == cap - held:   # a full buffer of fewer lines
            lengths = np.diff(np.flatnonzero(newline), prepend=-1, append=end)
            lines, fault = int(np.argmax(lengths > line_max)), "longer than the writer's lines"
        elif lines < _BLOCK_ROWS and buf[end - 1] != ord("\n"):
            fault = "no newline at the end of the file"
        del newline
        n = lines * fields
        if not np.array_equal(line_ends[:lines], np.arange(fields - 1, n, fields)):
            counts = np.diff(line_ends[:lines], prepend=-1)
            lines = int(np.argmax(counts != fields))
            fault, n = f"expected {fields} fields, got {counts[lines]}", lines * fields
        if lines:
            ends = seps[:n]
            starts = np.empty_like(ends)
            starts[0] = 0
            starts[1:] = ends[:-1] + 1
            # compared over the bytes the separator scan compares, so that it runs
            # the same numpy code: a shorter slice mapped 64 KB more of numpy
            neg = (buf[:end] == ord("-"))[starts]
            try:
                parsed = parse(buf, spans, starts, ends, neg)
            except _Fault as bad:
                i, why = bad.args
                raise ValueError(f"{name} line {line + i // fields} field {i % fields + 1}: "
                                 f"{buf[starts[i]:ends[i]].tobytes()!r} {why}") from None
            del seps, line_ends, starts, neg
        if fault:
            raise ValueError(f"{name} line {line + lines}: {fault}")
        cut = ends[-1] + 1
        del ends
        yield parsed
        del parsed
        line += lines
        held = end - cut
        buf[:held] = buf[cut:end]


def _blocks(path, offset: int, width: int) -> Iterator[np.ndarray]:
    """The value matrix of the trace file after its ``offset``-byte header,
    in blocks of ``_RUN_BLOCK`` rows, each valid until the next.  Rows are
    parsed as they are read, _BLOCK_ROWS lines at a time, which fill a
    block exactly."""
    tables = _format_tables()[:4]   # made first, so the cache pins no heap above the blocks
    with open(path, "rb") as fh:
        fh.seek(offset)
        size = os.fstat(fh.fileno()).st_size - offset
        if not size:
            raise ValueError(f"trace file {path} has no data rows")
        out = np.empty((_RUN_BLOCK, width))
        rows = 0
        for values in _chunks(fh, size, width * _FIELD_MAX, width, b",",
                              lambda *chunk: _parse_fields(*chunk, tables),
                              f"trace file {path}"):
            lines = len(values) // width
            out[rows:rows + lines] = values.reshape(lines, width)
            rows += lines
            del values
            if rows == _RUN_BLOCK:
                yield out
                rows = 0
        if rows:
            yield out[:rows]


def read(path) -> Tuple[List[str], Iterator[np.ndarray]]:
    """Header names and the raw value matrix of a trace file, as an iterator
    of its blocks of ``_RUN_BLOCK`` rows, each valid until the next.  A
    fault in the rows is raised where the iteration meets it."""
    with open(path, "rb") as fh:
        head = fh.readline()
    if not head:
        raise ValueError(f"trace file {path} is empty")
    if not head.isascii() or b"\r" in head or not head.strip():
        raise ValueError(f"trace file {path} line 1: {head!r} is not a header line")
    names = head.decode().rstrip("\n").split(",")
    return names, _blocks(path, len(head), len(names))


def read_run(scenario: ScenarioConfig, trace_path, events_path
             ) -> Tuple[EventTable, Iterator[TraceLog]]:
    """The run of ``scenario`` read back from its trace and events files:
    the event table, and the rows as TraceLogs of ``_RUN_BLOCK`` rows that
    carry it, each valid until the next.  Faults come in the order reading
    the files through meets them, so the trace's rows are read through
    before another fault is raised: one in the trace's rows, then a header
    other than these models write (naming its first column that differs),
    then one in the events file."""
    names, blocks = read_trace_csv(trace_path)
    header = _trace_header(scenario)
    expected = (name for group in header.values() for name in group)
    fault: Optional[Exception] = None
    for i, (name, want) in enumerate(itertools.zip_longest(names, expected)):
        if name != want:   # None stands for a missing or an extra column
            fault = ValueError(f"trace file {trace_path} column {i + 1} is {name!r}, "
                               f"expected {want!r} for these models")
            break
    if fault is None:
        try:
            events = read_events_csv(events_path, scenario.plant.output_dim)
        except (OSError, ValueError) as exc:
            fault = exc
    if fault is not None:
        for _ in blocks:
            pass
        raise fault
    return events, _trace_logs(scenario, header, events, blocks)


def _trace_logs(scenario: ScenarioConfig, header: Dict[str, List[str]], events: EventTable,
                blocks: Iterator[np.ndarray]) -> Iterator[TraceLog]:
    start = 0
    for mat in blocks:
        cols, col = {}, 0
        for base, group in header.items():
            cols[base] = mat[:, col:col + len(group)]
            col += len(group)
        cols["t"] = mat[:, 0]
        yield TraceLog(config=scenario, events=events, first_row=start, **cols)
        start += len(mat)


# ---------------------------------------------------------------------------
# events.csv

_EVENTS_HEAD = (_EVENTS_HEADER + "\n").encode()
_LOW_BYTES = np.array([(1 << 8 * j) - 1 for j in range(8)] + [-1], np.int64)   # j low bytes set


def _word(text: bytes) -> int:
    """The little-endian int64 word of up to 8 ASCII bytes."""
    return int.from_bytes(text, "little")


def read_events(path, width: int) -> EventTable:
    """The event table of an events file whose vectors are ``width`` long.

    The text is parsed with numpy arithmetic, _BLOCK_ROWS lines at a time
    from one reused buffer, into the table's own growing buffers: one
    separator scan over ',', ';' and newline per block, the side and kind
    labels compared byte for byte, the three indices by ``_digits`` and the
    floats by ``_parse_fields``.  Text outside that layout is a
    ValueError naming its line and field."""
    fields = 8 + 2 * width
    # the separator after each field of a line
    pattern = np.frombuffer(b"," * 8 + b";" * (width - 1) + b"," + b";" * (width - 1) + b"\n",
                            np.uint8)
    floats = [2, 6, 7, *range(8, fields)]   # t, e_norm, y_norm, payload, committed
    tables = _format_tables()[:4]

    def columns(buf, spans, starts, ends, neg):
        """The table's columns of a block of lines."""
        same = buf[ends].reshape(-1, fields) == pattern
        if not same.all():
            i = int(np.argmin(same))
            raise _Fault(i, f"ends in {chr(buf[ends[i]])!r}, not {chr(pattern[i % fields])!r}")
        starts, ends = starts.reshape(-1, fields), ends.reshape(-1, fields)
        faults = []

        def part(cols, parse, *args):   # a fault is kept as its index among the block's fields
            try:
                return parse(*args)
            except _Fault as bad:
                faults.append(bad.args[0] // len(cols) * fields + cols[bad.args[0] % len(cols)])

        labels = part([0, 1], _labels, spans, starts[:, :2], ends[:, :2])
        ints = part([3, 4, 5], _digits, buf, spans, starts[:, 3:6], ends[:, 3:6])
        values = part(floats, _parse_fields, buf, spans, starts[:, floats].ravel(),
                      ends[:, floats].ravel(), neg.reshape(-1, fields)[:, floats].ravel(), tables)
        if faults:
            raise _Fault(min(faults), _OUTSIDE)
        values = values.reshape(-1, 3 + 2 * width)
        return (*labels, values[:, 0], *ints.T, values[:, 1], values[:, 2],
                values[:, 3:3 + width], values[:, 3 + width:])

    buffers = [array(code) for code in "BBdqqqdddd"]   # one per EventTable column
    with open(path, "rb") as fh:
        if fh.readline() != _EVENTS_HEAD:
            raise ValueError(f"events file {path} lacks the events header")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        # the longest line: both labels, three 20-byte indices and the floats, with separators
        line_max = len(b"controller,commit,") + 3 * 21 + (3 + 2 * width) * _FIELD_MAX
        for block in _chunks(fh, size, line_max, fields, b",;", columns, f"events file {path}"):
            for buffer, column in zip(buffers, block):
                buffer.frombytes(memoryview(np.ascontiguousarray(column)).cast("B"))
    *scalars, payload, committed = _columns(buffers)
    return EventTable(*scalars, payload.reshape(-1, width), committed.reshape(-1, width))


def _labels(spans: np.ndarray, starts: np.ndarray, ends: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """(plant, dropped) from each line's side and kind fields, at columns 0
    and 1 of ``starts`` and ``ends``; ``_Fault`` names the first field that
    is not a writer's label."""
    size = ends - starts
    side = spans[starts[:, 0]].view(np.int64).reshape(-1, 3)
    kind = spans[starts[:, 1]].view(np.int64).reshape(-1, 3)[:, 0]
    plant = (size[:, 0] == 5) & ((side[:, 0] & _LOW_BYTES[5]) == _word(b"plant"))
    controller = ((size[:, 0] == 10) & (side[:, 0] == _word(b"controll"))
                  & ((side[:, 1] & _LOW_BYTES[2]) == _word(b"er")))
    dropped = (size[:, 1] == 4) & ((kind & _LOW_BYTES[4]) == _word(b"drop"))
    commit = (size[:, 1] == 6) & ((kind & _LOW_BYTES[6]) == _word(b"commit"))
    if not ((plant | controller) & (dropped | commit)).all():
        raise _Fault(int(np.argmin(np.column_stack((plant | controller, dropped | commit)))),
                     _OUTSIDE)
    return plant, dropped


def _digits(buf: np.ndarray, spans: np.ndarray, starts: np.ndarray, ends: np.ndarray
            ) -> np.ndarray:
    """The values of integer fields, shaped as ``starts``, each the writer's
    text of an int64 of magnitude below 2^63.  A field of 1 to 16 digits is
    read from the 16 bytes that end at its end, as two words whose bytes
    before the field are set to '0', joined by SWAR; ``int`` reads any
    other field, and ``_Fault`` names the first that is not such an
    integer."""
    size = (ends - starts).ravel()
    fast = (size >= 1) & (size <= 16) & (ends.ravel() >= 16)
    before = np.where(fast, 16 - size, 0)   # the bytes of the 16 that precede the field
    words = spans[ends.ravel() - 16].view(np.int64).reshape(-1, 3)[:, :2].T.copy()
    for word, n in ((words[0], np.minimum(before, 8)), (words[1], np.maximum(before - 8, 0))):
        mask = _LOW_BYTES[n]
        word &= ~mask
        word |= mask & _ZEROS
    odd = _non_digits(words)
    words -= _ZEROS
    for width in (1, 2, 4):
        _join_digits(words, width)
    words[0] *= 10 ** 8
    words[0] += words[1]
    if not fast.all() or odd.any():
        for i in np.flatnonzero(~fast | odd.any(axis=0)).tolist():
            text = buf[starts.flat[i]:ends.flat[i]].tobytes()
            if not (text.removeprefix(b"-").isdigit() and abs(int(text)) < 2 ** 63):
                raise _Fault(i, _OUTSIDE)
            words[0, i] = int(text)
    return words[0].reshape(starts.shape)
