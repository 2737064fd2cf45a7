"""Reading trace.csv and events.csv back.

Text in the writer's own layout (``sim.format_blocks``: every value
``[-]d.<16 digits>e[+-]dd[d]``, every line ending in a newline) is parsed
with numpy arithmetic, a block of lines at a time, into the values
``np.loadtxt`` and ``float`` give, bit for bit; any other text goes through
``np.loadtxt`` or the events reader's line parser, with their messages.  A
run's rows are read one block of ``_RUN_BLOCK`` rows at a time
(``read_run``).  This is a module of its own, imported by
``sim.read_trace_csv`` when first called, so that only the processes that
read a run compile and load it.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .sim import (_BLOCK_ROWS, _E_MAX, _EVENTS_HEADER, _POW_LO, _RUN_BLOCK, EventTable,
                  ScenarioConfig, TraceLog, _event_buffers, _event_table, _format_tables,
                  _trace_header, _veltkamp, read_events_csv, read_trace_csv)

__all__ = ["read", "read_events", "read_run"]

# The bytes of the longest field the writer makes, with its separator:
# "-d.<16 digits>e+ddd,".
_FIELD_MAX = 25
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


def _chunks(fh, size: int, line_max: int, fields: int, separators: bytes, parse):
    """``parse(buf, spans, starts, ends, neg)`` of each block of lines of the
    ``size`` bytes left in binary file ``fh``, read _BLOCK_ROWS lines at a
    time into one buffer that holds that many ``line_max``-byte lines, or
    the whole text and a byte more, if that is less.  Each line is
    ``fields`` fields split by the bytes of ``separators`` and ended by a
    newline; ``parse`` gets the buffer, the 24 bytes from each of its
    bytes, the [start, end) of every field of the block's lines and whether
    it starts with '-'.  None, and nothing after it, where a line is
    longer, has another field count or has no newline.  Only what ``parse``
    returns is held while the caller works on it.
    """
    cap = min(_BLOCK_ROWS * line_max, size + 1)
    buf = np.zeros(cap + 32, np.uint8)   # a field's 24 bytes may run past the text
    spans = np.ndarray((len(buf) - 23,), "V24", buf, strides=(1,))
    held = 0
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
        del newline, split
        if len(line_ends) >= _BLOCK_ROWS:
            lines = _BLOCK_ROWS
        elif read < cap - held and buf[end - 1] == ord("\n"):
            lines = len(line_ends)   # the last lines of the file
        else:
            yield None   # a line longer than the writer's, or no final newline
            return
        n = lines * fields
        if not np.array_equal(line_ends[:lines], np.arange(fields - 1, n, fields)):
            yield None
            return
        ends = seps[:n]
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        # compared over the bytes the separator scan compares, so that it runs
        # the same numpy code: a shorter slice mapped 64 KB more of numpy
        neg = (buf[:end] == ord("-"))[starts]
        cut = ends[-1] + 1
        parsed = parse(buf, spans, starts, ends, neg)
        del seps, line_ends, starts, ends, neg
        yield parsed
        if parsed is None:
            return
        del parsed
        held = end - cut
        buf[:held] = buf[cut:end]


def _blocks(path, offset: int, width: int) -> Iterator[np.ndarray]:
    """The value matrix of the trace file after its ``offset``-byte header,
    in blocks of ``_RUN_BLOCK`` rows, each valid until the next.  Rows in
    the writer's layout are parsed as they are read, _BLOCK_ROWS lines at a
    time, which fill a block exactly.  At any other text, ``np.loadtxt``
    reads the whole file and its matrix gives the rows not yet given: the
    fast path's rows are bit-equal to its."""
    tables = _format_tables()[:4]   # made first, so the cache pins no heap above the blocks
    done = 0
    with open(path, "rb") as fh:
        fh.seek(offset)
        size = os.fstat(fh.fileno()).st_size - offset
        out = np.empty((_RUN_BLOCK, width))
        rows = 0
        for values in _chunks(fh, size, width * _FIELD_MAX, width, b",",
                              lambda *chunk: _parse_fields(*chunk, tables)):
            if values is None:
                break
            lines = len(values) // width
            out[rows:rows + lines] = values.reshape(lines, width)
            rows += lines
            del values
            if rows == _RUN_BLOCK:
                yield out
                done += rows
                rows = 0
        else:
            if rows:
                yield out[:rows]
            if done + rows:
                return
    _, mat = _loadtxt(path)   # text outside the layout, or no row at all
    yield from _slices(mat, done)


def _slices(mat: np.ndarray, start: int) -> Iterator[np.ndarray]:
    """The rows of ``mat`` from ``start`` on, in blocks of ``_RUN_BLOCK`` rows."""
    return (mat[i:i + _RUN_BLOCK] for i in range(start, len(mat), _RUN_BLOCK))


def _loadtxt(path) -> Tuple[List[str], np.ndarray]:
    """Header names and the value matrix of a trace file, by ``np.loadtxt``."""
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


def read(path) -> Tuple[List[str], Iterator[np.ndarray]]:
    """Header names and the raw value matrix of a trace file, as an iterator
    of its blocks of ``_RUN_BLOCK`` rows, each valid until the next.  A
    fault in the rows is raised where the iteration meets it."""
    with open(path, "rb") as fh:
        head = fh.readline()
    if head.endswith(b"\n") and head.isascii() and b"\r" not in head:
        names = head.decode().strip().split(",")
        if names != [""]:
            return names, _blocks(path, len(head), len(names))
    names, mat = _loadtxt(path)
    return names, _slices(mat, 0)


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
_EVENT_FIELDS = _EVENTS_HEADER.split(",")
_INT64 = np.iinfo(np.int64)
_LOW_BYTES = np.array([(1 << 8 * j) - 1 for j in range(8)] + [-1], np.int64)   # j low bytes set


def _word(text: bytes) -> int:
    """The little-endian int64 word of up to 8 ASCII bytes."""
    return int.from_bytes(text, "little")


def read_events(path, width: int) -> EventTable:
    """The event table of an events file whose vectors are ``width`` long.

    Text in the writer's layout is parsed with numpy arithmetic, _BLOCK_ROWS
    lines at a time from one reused buffer, into the table's own growing
    buffers: one separator scan over ',', ';' and newline per block, the
    side and kind labels compared byte for byte, the three indices read as
    up to 16 digits and the floats by ``_parse_fields``.  Any other text is
    read again by ``_read_event_lines``, with its messages."""
    table = _read_event_layout(path, width)
    return _read_event_lines(path, width) if table is None else table


def _read_event_layout(path, width: int) -> Optional[EventTable]:
    """The event table of an events file in the writer's layout, else None."""
    fields = 8 + 2 * width
    # the separator after each field of a line
    pattern = np.frombuffer(b"," * 8 + b";" * (width - 1) + b"," + b";" * (width - 1) + b"\n",
                            np.uint8)
    floats = [2, 6, 7, *range(8, fields)]   # t, e_norm, y_norm, payload, committed
    tables = _format_tables()[:4]

    def columns(buf, spans, starts, ends, neg):
        """The table's columns of a block of lines, or None."""
        if not (buf[ends].reshape(-1, fields) == pattern).all():
            return None
        starts, ends = starts.reshape(-1, fields), ends.reshape(-1, fields)
        labels = _labels(spans, starts[:, :2], ends[:, :2])
        values = _parse_fields(buf, spans, starts[:, floats].ravel(), ends[:, floats].ravel(),
                               neg.reshape(-1, fields)[:, floats].ravel(), tables)
        ints = None if values is None else _digits(spans, starts[:, 3:6], ends[:, 3:6])
        if labels is None or ints is None:
            return None
        values = values.reshape(-1, 3 + 2 * width)
        return (*labels, values[:, 0], *ints.T, values[:, 1], values[:, 2],
                values[:, 3:3 + width], values[:, 3 + width:])

    buffers = _event_buffers()
    with open(path, "rb") as fh:
        if fh.readline() != _EVENTS_HEAD:
            return None
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        line_max = len(b"controller,commit,") + 3 * 17 + (3 + 2 * width) * _FIELD_MAX
        for block in _chunks(fh, size, line_max, fields, b",;", columns):
            if block is None:
                return None
            for buffer, column in zip(buffers, block):
                buffer.frombytes(memoryview(np.ascontiguousarray(column)).cast("B"))
    return _event_table(buffers, width)


def _labels(spans: np.ndarray, starts: np.ndarray, ends: np.ndarray
            ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(plant, dropped) from each line's side and kind fields, at columns 0
    and 1 of ``starts`` and ``ends``, or None if one is not a writer's
    label."""
    size = ends - starts
    side = spans[starts[:, 0]].view(np.int64).reshape(-1, 3)
    kind = spans[starts[:, 1]].view(np.int64).reshape(-1, 3)[:, 0]
    plant = (size[:, 0] == 5) & ((side[:, 0] & _LOW_BYTES[5]) == _word(b"plant"))
    controller = ((size[:, 0] == 10) & (side[:, 0] == _word(b"controll"))
                  & ((side[:, 1] & _LOW_BYTES[2]) == _word(b"er")))
    dropped = (size[:, 1] == 4) & ((kind & _LOW_BYTES[4]) == _word(b"drop"))
    commit = (size[:, 1] == 6) & ((kind & _LOW_BYTES[6]) == _word(b"commit"))
    if not ((plant | controller) & (dropped | commit)).all():
        return None
    return plant, dropped


def _digits(spans: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Optional[np.ndarray]:
    """The values of fields of 1 to 16 ASCII digits, shaped as ``starts``,
    or None if one is not: the 16 bytes that end at a field's end, as two
    words whose bytes before the field are set to '0', joined by SWAR."""
    size = (ends - starts).ravel()
    if not (((size >= 1) & (size <= 16)).all() and (ends >= 16).all()):
        return None
    words = spans[ends.ravel() - 16].view(np.int64).reshape(-1, 3)[:, :2].T.copy()
    before = 16 - size   # the bytes of the 16 that precede the field
    for word, n in ((words[0], np.minimum(before, 8)), (words[1], np.maximum(before - 8, 0))):
        mask = _LOW_BYTES[n]
        word &= ~mask
        word |= mask & _ZEROS
    if not _all_digits(words):
        return None
    words -= _ZEROS
    for width in (1, 2, 4):
        _join_digits(words, width)
    words[0] *= 10 ** 8
    words[0] += words[1]
    return words[0].reshape(starts.shape)


def _event_rows(rows: List[str], width: int) -> EventTable:
    """The EventTable of stripped, non-blank events.csv rows whose vectors
    are ``width`` long.  ValueError describes the first fault found in the
    first row with one."""
    counts = [r.count(",") for r in rows]
    if counts.count(9) != len(counts):
        raise ValueError(f"expected 10 fields, got {next(c for c in counts if c != 9) + 1}")
    cells = np.array(",".join(rows).split(","), dtype=object).reshape(-1, 10)
    plant, dropped = cells[:, 0] == "plant", cells[:, 1] == "drop"
    known = (plant | (cells[:, 0] == "controller")) & (dropped | (cells[:, 1] == "commit"))
    if not known.all():
        side, kind = cells[np.argmin(known), :2]
        raise ValueError(f"unknown side or kind {side!r}, {kind!r}")
    try:
        ints = cells[:, 3:6].astype(np.int64)
    except OverflowError:
        name, value = next((_EVENT_FIELDS[3 + j], v) for row in cells[:, 3:6]
                           for j, v in enumerate(row)
                           if not _INT64.min <= int(v) <= _INT64.max)
        raise ValueError(f"{name} {value} out of range") from None
    # sample_index joins rows through int64 arrays, so its magnitude must fit
    if (ints[:, 0] == _INT64.min).any():
        raise ValueError(f"sample_index {_INT64.min} out of range")
    vectors = []
    for j in (8, 9):
        lengths = [v.count(";") + 1 for v in cells[:, j]]
        if lengths.count(width) != len(lengths):
            bad = next(n for n in lengths if n != width)
            raise ValueError(f"{_EVENT_FIELDS[j]} has {bad} values, expected {width}")
        vectors.append(";".join(cells[:, j]).split(";"))
    floats = np.array(cells[:, [2, 6, 7]].T.ravel().tolist() + vectors[0] + vectors[1],
                      dtype=object).astype(float)
    n = len(rows)
    t, e_norm, y_norm = floats[:3 * n].reshape(3, n)
    payload, committed = floats[3 * n:].reshape(2, n, width)
    return EventTable(plant, dropped, t, *ints.T, e_norm, y_norm, payload, committed)


def _read_event_lines(path, width: int) -> EventTable:
    """The event table of an events file read line by line as text.  A short
    or garbled row, an index outside int64 or a vector of another length is
    a ValueError naming its line."""
    blocks = []
    with open(path) as fh:
        if fh.readline().strip() != _EVENTS_HEADER:
            raise ValueError(f"events file {path} lacks the events header")
        # (line number, text) of each non-blank line, parsed a block at a time
        # as it is read, which bounds the memory the line and cell texts take
        lines = ((n, r) for n, r in enumerate(map(str.strip, fh), start=2) if r)
        while block := list(itertools.islice(lines, _BLOCK_ROWS)):
            try:
                blocks.append(_event_rows([r for _, r in block], width))
            except ValueError as exc:
                for n, r in block:   # name the first bad line
                    try:
                        _event_rows([r], width)
                    except ValueError as line_exc:
                        raise ValueError(f"events file {path} line {n}: {line_exc}") from None
                raise ValueError(f"events file {path}: {exc}") from None
    if not blocks:
        return _event_table(_event_buffers(), width)
    return EventTable(*(np.concatenate([getattr(b, f.name) for b in blocks])
                        for f in fields(EventTable)))
