"""The array event analyses against per-event reference loops, and the
events.csv round trip.

The ``_ref_*`` functions are the per-event loop versions the array code in
``etncs.sim`` replaced, kept here as the definition of what each one
computes; they walk the table one row at a time (``table[i]``).
"""

import math
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etncs.design import TransformGains
from etncs.models import cubic_nl2, firstorder_lead
from etncs.network import DelayProfile
from etncs.quantizer import QuantizerSpec
from etncs.sim import (_BLOCK_ROWS, TRACE_COLUMNS, ChannelConfig, EventTable, ScenarioConfig,
                       TraceLog, _accum_ratio_excess, _gap_stats, dropout_spans, held_samples,
                       max_consecutive_drops, read_events_csv, write_events_csv)
from etncs.trigger import TriggerConfig

_IDENTITY = QuantizerSpec(kind="identity", sector=(1.0, 1.0))
_CHANNEL = ChannelConfig(DelayProfile(t0=0.0, d=0.0, form="constant"))
_CONFIG = ScenarioConfig(
    plant=cubic_nl2(), controller=firstorder_lead(),
    x0_plant=np.zeros(2), x0_controller=np.zeros(1),
    trigger_p=TriggerConfig(0.4), trigger_c=TriggerConfig(0.15),
    quant_p=_IDENTITY, quant_c=_IDENTITY, chan_pc=_CHANNEL, chan_cp=_CHANNEL,
    gains=TransformGains(m11=0.16, m21=-4.865, m22=7.033), t_end=0.5, h=1e-3)


def _rows(table):
    return [table[i] for i in range(len(table))]


def _ref_dropout_spans(trace, side):
    spans = []
    start = None
    for e in _rows(trace.events_on(side)):
        if e.dropped and start is None:
            start = int(e.sample_index)
        elif not e.dropped and start is not None:
            spans.append((start, int(e.sample_index)))
            start = None
    if start is not None:
        spans.append((start, len(trace.t)))
    return spans


def _ref_max_consecutive_drops(trace, side):
    worst = run = 0
    for e in _rows(trace.events_on(side)):
        run = run + 1 if e.dropped else 0
        worst = max(worst, run)
    return worst


def _ref_held_samples(events, side, rows):
    """Row k holds the commit latest in the table among those with
    ``sample_index <= k``, zeros before any."""
    commits = _rows(events[events.commits(side)])
    held = np.zeros((rows, events.committed.shape[1]))
    for k in range(rows):
        for e in commits:
            if e.sample_index <= k:
                held[k] = e.committed
    return held


def _ref_gap_stats(trace, side):
    commits = _rows(trace.commits_on(side))
    if len(commits) < 2:
        return float(trace.config.t_end), [], []
    gaps = [cur.t - prev.t for prev, cur in zip(commits, commits[1:])]
    return min(gaps), gaps, [cur.y_norm for cur in commits[1:]]


def _ref_accum_ratio_excess(commits, delta):
    worst_excess = -math.inf
    for e in _rows(commits)[1:]:
        e_norm, y_norm = float(e.e_norm), float(e.y_norm)
        if y_norm == 0.0:
            if e_norm > 0.0:
                worst_excess = math.inf
            continue
        bound = (1.0 + math.sqrt(delta)) ** (int(e.drops_before) + 1) - 1.0
        worst_excess = max(worst_excess, e_norm / y_norm - bound)
    return worst_excess


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _trace(events: EventTable, rows: int) -> TraceLog:
    m = events.payload.shape[1]
    signals = {name: np.zeros((rows, m)) for name in TRACE_COLUMNS[1:]}
    return TraceLog(config=_CONFIG, t=np.arange(rows) * _CONFIG.h, events=events,
                    **signals)


_NORMS = st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.0, 1e3))
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, math.inf, -math.inf]),
                    st.floats(allow_nan=False))


@st.composite
def event_tables(draw, m):
    """Tables that mix the sides and run drops of up to five in a row;
    times rise with ties and indices are unsorted, some off the rows."""
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 5), st.booleans()),
                         max_size=12))
    plant, dropped = [], []
    for side, drops, commit in runs:
        plant += [side] * (drops + commit)
        dropped += [True] * drops + [False] * commit
    n = len(plant)
    steps = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.0125, 0.3]), min_size=n, max_size=n))
    ints = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    vectors = st.lists(_VALUES, min_size=n * m, max_size=n * m)
    return EventTable(
        plant=np.array(plant, dtype=bool), dropped=np.array(dropped, dtype=bool),
        t=np.cumsum(np.array(steps, dtype=float)),
        sample_index=np.array(draw(st.lists(st.integers(-3, 40), min_size=n, max_size=n)),
                              dtype=np.int64),
        attempt_index=np.array(draw(ints), dtype=np.int64),
        drops_before=np.array(draw(ints), dtype=np.int64),
        e_norm=np.array(draw(st.lists(_NORMS, min_size=n, max_size=n)), dtype=float),
        y_norm=np.array(draw(st.lists(_NORMS, min_size=n, max_size=n)), dtype=float),
        payload=np.array(draw(vectors), dtype=float).reshape(n, m),
        committed=np.array(draw(vectors), dtype=float).reshape(n, m))


@given(data=st.data(), m=st.sampled_from([1, 2]), rows=st.integers(1, 40),
       delta=st.floats(1e-4, 1.0))
def test_array_event_analyses_equal_per_event_loops(data, m, rows, delta):
    trace = _trace(data.draw(event_tables(m)), rows)
    for side in ("plant", "controller"):
        starts, ends = dropout_spans(trace, side)
        assert starts.dtype == ends.dtype == np.int64
        assert list(zip(starts.tolist(), ends.tolist())) == _ref_dropout_spans(trace, side)
        assert max_consecutive_drops(trace, side) == _ref_max_consecutive_drops(trace, side)
        held = held_samples(trace.events, side, rows)
        assert held.shape == (rows, m)
        assert _bits(held).tolist() == \
            _bits(_ref_held_samples(trace.events, side, rows)).tolist()
        (min_gap, gaps, y_norms), ref = _gap_stats(trace, side), _ref_gap_stats(trace, side)
        assert [_bits(v).tolist() for v in (min_gap, gaps, y_norms)] == \
            [_bits(v).tolist() for v in ref]
        assert _bits(_accum_ratio_excess(trace, side, delta)) == \
            _bits(_ref_accum_ratio_excess(trace.commits_on(side), delta))


@given(data=st.data(), m=st.sampled_from([1, 2]), blocks=st.booleans())
def test_events_csv_round_trip_is_bit_exact(data, m, blocks):
    events = data.draw(event_tables(m))
    n = len(events)
    # any float but NaN (whose text drops sign and payload), and any int64
    # but sample_index -2**63 (whose magnitude does not fit), survives
    floats = st.lists(_VALUES, min_size=n, max_size=n)
    ints = st.lists(st.integers(-2 ** 63 + 1, 2 ** 63 - 1), min_size=n, max_size=n)
    events = replace(
        events,
        **{name: np.array(data.draw(floats)) for name in ("t", "e_norm", "y_norm")},
        **{name: np.array(data.draw(ints), dtype=np.int64) for name
           in ("sample_index", "attempt_index", "drops_before")})
    if blocks and n:   # repeat the rows until they cross two block edges
        events = events[np.arange(2 * _BLOCK_ROWS + 1) % n]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        write_events_csv(_trace(events, 1), path)
        back = read_events_csv(path, m)
    for f in fields(EventTable):
        got, want = getattr(back, f.name), getattr(events, f.name)
        assert got.dtype == want.dtype and got.shape == want.shape, f.name
        if want.dtype == np.float64:
            got, want = got.view(np.int64), want.view(np.int64)
        assert got.tolist() == want.tolist(), f.name


def test_bad_line_past_the_first_block_is_named(tmp_path):
    n = 2 * _BLOCK_ROWS + 1
    k = np.arange(n)
    events = EventTable(plant=k % 3 == 0, dropped=k % 4 == 0, t=k * 1e-3, sample_index=k,
                        attempt_index=k, drops_before=0 * k, e_norm=np.ones(n),
                        y_norm=np.ones(n), payload=np.ones((n, 1)), committed=np.ones((n, 1)))
    path = tmp_path / "events.csv"
    write_events_csv(_trace(events, 1), path)
    lines = path.read_text().splitlines()
    lines[400] = lines[400].replace(",", ",,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{path} line 401: expected 10 fields, got 11"):
        read_events_csv(path, 1)


def _assert_tables_equal_bits(got: EventTable, want: EventTable) -> None:
    for f in fields(EventTable):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


@settings(max_examples=25, deadline=None)
@given(data=st.data(), m=st.sampled_from([1, 2]), blocks=st.booleans())
def test_events_csv_reads_back_the_drawn_table(data, m, blocks):
    """The writer's text reads back as the table that was written, bit for
    bit: any finite float, NaN and the infinities (whose texts are nan, inf
    and -inf), indices of 1 to 16 digits, rows that cross two edges of the
    reader's blocks of lines."""
    events = data.draw(event_tables(m))
    n = len(events)
    value = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, math.nan, math.inf,
                                       -math.inf]),
                      st.floats(allow_nan=False, allow_infinity=False))
    floats = st.lists(value, min_size=n, max_size=n)
    vectors = st.lists(value, min_size=n * m, max_size=n * m)
    ints = st.lists(st.one_of(st.integers(0, 10 ** 16 - 1),
                              st.sampled_from([0, 9, 10, 10 ** 8 - 1, 10 ** 8, 10 ** 16 - 1])),
                    min_size=n, max_size=n)
    events = replace(
        events,
        **{name: np.array(data.draw(floats)) for name in ("t", "e_norm", "y_norm")},
        **{name: np.array(data.draw(ints), dtype=np.int64) for name
           in ("sample_index", "attempt_index", "drops_before")},
        **{name: np.array(data.draw(vectors)).reshape(n, m) for name in ("payload", "committed")})
    if blocks and n:
        events = events[np.arange(2 * _BLOCK_ROWS + 1) % n]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        write_events_csv(_trace(events, 1), path)
        _assert_tables_equal_bits(read_events_csv(path, m), events)


# (old, new) -> the sample_index of line 9, or the message after "<path> line"
_EDITS = {
    (",7,", ",-7,"): -7,
    (",7,", ",12345678901234567,"): 12345678901234567,
    ("e-", "E-"): " 2 field 7: b'1.2500000000000000E-01' is not in the writer's layout",
    ("plant,", "Plant,"): " 2 field 1: b'Plant' is not in the writer's layout",
    ("commit,", "commit ,"): " 3 field 2: b'commit ' is not in the writer's layout",
    ("\n", "\r\n"): " 2 field 10: b'1.0000000000000000e+00\\r' is not in the writer's layout",
    (",", ";"): " 2 field 1: b'plant' ends in ';', not ','",
    ("\n", "\n\n"): " 3: expected 10 fields, got 1",
}


@pytest.mark.parametrize("old, new", list(_EDITS))
def test_other_text_takes_the_line_reader(tmp_path, old, new):
    """One edit of the writer's text.  A signed or a 17-digit index is the
    writer's text of another table, which reads back bit for bit.  Text
    outside the layout (a respelled value or label, a space, CRLF, a wrong
    separator, a blank line) is a ValueError naming its line and field."""
    n = 40
    k = np.arange(n)
    events = EventTable(plant=k % 3 == 0, dropped=k % 4 == 0, t=k * 1e-3, sample_index=k,
                        attempt_index=k, drops_before=0 * k, e_norm=np.full(n, 0.125),
                        y_norm=np.ones(n), payload=np.ones((n, 1)), committed=np.ones((n, 1)))
    path = tmp_path / "events.csv"
    write_events_csv(_trace(events, 1), path)
    head, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(head + b"\n" + body.replace(old.encode(), new.encode(), 1))
    want = _EDITS[old, new]
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{re.escape(f'events file {path} line{want}')}$"):
            read_events_csv(path, 1)
    else:
        index = k.copy()
        index[7] = want
        _assert_tables_equal_bits(read_events_csv(path, 1), replace(events, sample_index=index))


def test_longest_lines_read_back(tmp_path):
    """Lines as long as the writer makes them (the longer label, 20-byte
    indices, 25-byte values) fill more than one buffer and read back bit
    for bit."""
    n, m = 3 * _BLOCK_ROWS, 2
    big = np.full(n, -2 ** 63 + 1, dtype=np.int64)
    value = np.full(n, -1.2345678901234567e-300)
    events = EventTable(plant=np.zeros(n, bool), dropped=np.zeros(n, bool), t=value,
                        sample_index=big, attempt_index=big, drops_before=big, e_norm=value,
                        y_norm=value, payload=np.full((n, m), value[0]),
                        committed=np.full((n, m), value[0]))
    path = tmp_path / "events.csv"
    write_events_csv(_trace(events, 1), path)
    assert len(path.read_bytes().splitlines()[1]) + 1 == 18 + 3 * 21 + (3 + 2 * m) * 25
    _assert_tables_equal_bits(read_events_csv(path, m), events)
