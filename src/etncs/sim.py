"""Closed-loop executor for the event-triggered networked control loop.

Per integration step, in a fixed order that makes runs bit-reproducible:
channels are polled at the sample instant, the plant-side gain block
reconstructs the controller output from the held link value and the held
plant sample, both detectors are evaluated at the sample (transmitting
through quantizer and channel on violation, with the error resetting only on
success), the row is logged, and both systems advance one RK4 step with
their inputs held constant.

One loop serves a single run and a seed sweep: B lanes advance in lockstep,
and a single run is a batch of one.  Every per-row quantity is a list of
rows, Python floats for a single run and ``(B,)`` arrays for a batch,
lane i in element i, so one loop body and one set of kernels serve both.
Rows leave the loop one block at a time, to a consumer per lane, so a run
holds one block of rows per lane, not the whole trace.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import core
from .design import DesignParams, DesignResult, TransformGains
from .network import Channel, DelayProfile, DropoutModel
from .quantizer import QuantizerSpec, quantize
from .signals import Signal, SignalSpec
from .trigger import TriggerConfig, check_violation

__all__ = [
    "DivergenceError",
    "ChannelConfig",
    "ScenarioConfig",
    "EventTable",
    "TraceLog",
    "run_scenario",
    "compute_metrics",
    "dropout_spans",
    "max_consecutive_drops",
    "held_samples",
    "event_bookkeeping",
    "TRACE_COLUMNS",
    "format_blocks",
    "text_bytes",
    "write_trace_csv",
    "write_events_csv",
    "read_trace_csv",
    "read_events_csv",
]

_FMT = "%.16e"  # 17 significant digits: round-trips float64 exactly
_BLOCK_ROWS = 256  # rows formatted or parsed at once; one block's text is held in memory
# Rows a run hands on at once. The executor fills, and the trace reader
# parses, one block of this many rows per lane; the trace writer, the checks
# and the report take each block in turn, so no step holds a whole run.
_RUN_BLOCK = 8 * _BLOCK_ROWS
# Rows one lane may log. A lane keeps 16 B of every row, the two energy terms
# of its L2 gain (see checks.RunChecks), and holds the rest one block at a
# time, so the cap bounds what it keeps at 160 MB.
MAX_ROWS = 10_000_000


class DivergenceError(RuntimeError):
    """State left the trusted region; carries the offending row index."""

    def __init__(self, row: int, t: float, detail: str):
        super().__init__(f"divergence at row {row} (t={t:.6f}): {detail}")
        self.row = row
        self.t = t


@dataclass(frozen=True)
class ChannelConfig:
    """Delay, dropout model and initial hold for one link direction."""

    delay: DelayProfile
    dropout: DropoutModel = DropoutModel()
    initial_hold: float = 0.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one closed-loop run."""

    plant: core.SystemModel
    controller: core.SystemModel
    x0_plant: np.ndarray
    x0_controller: np.ndarray
    trigger_p: TriggerConfig
    trigger_c: TriggerConfig
    quant_p: QuantizerSpec
    quant_c: QuantizerSpec
    chan_pc: ChannelConfig
    chan_cp: ChannelConfig
    gains: TransformGains
    w1: SignalSpec = SignalSpec(kind="zero")
    w2: SignalSpec = SignalSpec(kind="zero")
    t_end: float = 20.0
    h: float = 1e-3
    drop_first_allowed: bool = False
    divergence_limit: float = 1e9

    def __post_init__(self):
        if self.t_end <= 0 or self.h <= 0:
            raise ValueError("t_end and h must be positive")
        # tested before n_rows, whose floor() raises on an infinite quotient
        if not self.t_end / self.h <= MAX_ROWS - 1:
            raise ValueError(f"t_end = {self.t_end} at h = {self.h} needs more than "
                             f"{MAX_ROWS} rows, the most a run may log")
        if self.n_rows < 2:
            raise ValueError(f"t_end = {self.t_end} is shorter than one step h = {self.h}")
        # Signal numbers a sample's dwell segment, t / dwell rounded down, in int64
        last = (self.n_rows - 1) * self.h
        for name, w in (("w1", self.w1), ("w2", self.w2)):
            if w.kind == "piecewise_uniform" and not last / w.dwell + 1e-12 < 2.0 ** 63:
                raise ValueError(f"{name}.dwell = {w.dwell}: t_end / dwell is past int64")
        # the executor's norm test flags a non-finite state only below a finite
        # limit, and a limit of 0 or less would fail every state
        if not 0.0 < self.divergence_limit < math.inf:
            raise ValueError(f"divergence_limit must be positive and finite, "
                             f"got {self.divergence_limit}")
        if self.plant.output_dim != self.controller.input_dim:
            raise ValueError("plant and controller port dimensions disagree")
        if len(np.asarray(self.x0_plant)) != self.plant.state_dim:
            raise ValueError("plant initial state has the wrong dimension")
        if len(np.asarray(self.x0_controller)) != self.controller.state_dim:
            raise ValueError("controller initial state has the wrong dimension")

    @property
    def n_rows(self) -> int:
        """Samples per lane, at t = k*h for k = 0 .. floor(t_end/h)."""
        return math.floor(self.t_end / self.h + 1e-9) + 1


@dataclass(frozen=True)
class EventTable:
    """The attempted transmissions of a run as columns, one row per detector
    firing, kept or dropped, in firing order.  The executor records all but
    the four bookkeeping columns, which ``event_bookkeeping`` derives.
    Indexing it with a mask, a slice or an index selects those rows of every
    column."""

    plant: np.ndarray          # bool: fired by the plant side, else the controller
    dropped: np.ndarray        # bool: the channel dropped the packet
    t: np.ndarray
    sample_index: np.ndarray   # int64: the trace row of the firing sample
    attempt_index: np.ndarray  # int64: position among its side's attempts
    drops_before: np.ndarray   # int64: its side's attempts since that side's last commit
    e_norm: np.ndarray         # ||y - the side's last commit|| at the firing sample
    y_norm: np.ndarray         # ||y|| at the firing sample
    payload: np.ndarray        # (n, m): quantized values put on the wire
    committed: np.ndarray      # (n, m): raw output samples (committed when not dropped)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, rows) -> "EventTable":
        return EventTable(*(getattr(self, f.name)[rows] for f in fields(self)))

    def on(self, side: str) -> np.ndarray:
        """The mask of one side's attempts."""
        return self.plant if side == "plant" else ~self.plant

    def commits(self, side: str) -> np.ndarray:
        """The mask of one side's delivered attempts."""
        return self.on(side) & ~self.dropped


# each recorded EventTable column's buffer type; a vector takes m values per attempt
_EVENT_CODES = "BBdqdd"


def _event_buffers() -> Tuple[array, ...]:
    """Empty typed buffers, one per recorded column, for a lane's attempts."""
    return tuple(array(code) for code in _EVENT_CODES)


def _columns(buffers: Sequence[array]) -> List[np.ndarray]:
    """Each typed buffer viewed as a numpy column without a copy, a "B"
    buffer as bools; the buffers can no longer grow."""
    return [np.frombuffer(b, bool if b.typecode == "B" else b.typecode) for b in buffers]


def _event_table(buffers: Sequence[array], m: int) -> EventTable:
    """The EventTable viewing the recorded columns' buffers, with the four
    columns ``event_bookkeeping`` derives from them."""
    plant, dropped, t, sample_index, payload, committed = _columns(buffers)
    committed = committed.reshape(-1, m)
    return EventTable(plant, dropped, t, sample_index,
                      *event_bookkeeping(plant, dropped, committed),
                      payload.reshape(-1, m), committed)


def event_bookkeeping(plant: np.ndarray, dropped: np.ndarray, committed: np.ndarray
                      ) -> Tuple[np.ndarray, ...]:
    """(attempt_index, drops_before, e_norm, y_norm) of each attempt, from
    its side's attempts in firing order: its position among them, the
    attempts since the side's last commit, ||committed - the side's previous
    commit|| (zeros before the first) and ||committed||, each norm numpy's
    row reduction."""
    attempt_index, drops_before = np.empty((2, len(plant)), np.int64)
    e_norm = np.empty(len(plant))
    for on in (np.flatnonzero(plant), np.flatnonzero(~plant)):
        pos = np.arange(len(on))
        last = np.maximum.accumulate(np.where(dropped[on], -1, pos))
        before = np.concatenate(([-1], last))[:len(on)]   # the last commit before each
        sample = committed[on]
        previous = np.concatenate((np.zeros((1, sample.shape[1])), sample))[before + 1]
        attempt_index[on], drops_before[on] = pos, pos - 1 - before
        e_norm[on] = np.linalg.norm(sample - previous, axis=1)
    return attempt_index, drops_before, e_norm, np.linalg.norm(committed, axis=1)


@dataclass
class TraceLog:
    """Per-sample signal record of a run's rows from trace row ``first_row``
    on, and the run's event table up to at least the last of them; ``held``,
    if set, maps each side to its held samples at the rows."""

    config: ScenarioConfig
    t: np.ndarray
    x_p: np.ndarray
    y_p: np.ndarray
    e_p: np.ndarray
    u_p: np.ndarray
    x_c: np.ndarray
    y_c: np.ndarray
    e_c: np.ndarray
    u_c: np.ndarray
    y_r: np.ndarray
    u_r: np.ndarray
    y_tilde_c: np.ndarray
    u_tilde_c: np.ndarray
    y_qp: np.ndarray
    y_qc: np.ndarray
    w1: np.ndarray
    events: EventTable
    first_row: int = 0
    held: Optional[Dict[str, np.ndarray]] = None

    def events_on(self, side: str) -> EventTable:
        return self.events[self.events.on(side)]

    def commits_on(self, side: str) -> EventTable:
        return self.events[self.events.commits(side)]


def _check_lanes(cfgs: Sequence[ScenarioConfig]) -> None:
    """Lanes share every field but w1, w2 and the channels' dropout models."""
    first = cfgs[0]
    for n, lane in enumerate(cfgs[1:], start=1):
        for f in fields(ScenarioConfig):
            if f.name in ("w1", "w2"):
                continue
            a, b = getattr(first, f.name), getattr(lane, f.name)
            if f.name in ("chan_pc", "chan_cp"):
                a = replace(a, dropout=b.dropout)
            if not (np.array_equal(a, b) if f.name.startswith("x0") else a == b):
                raise ValueError(
                    f"lane {n} differs from lane 0 in {f.name}; lanes may differ "
                    f"only in w1, w2 and the channels' dropout models")


def _squares_bound(limit: float) -> float:
    """A bound that the sum of both states' squared norms is tested against
    before the exact norm test: a sum below it puts each norm within
    ``limit``, because a rounded sum of nonnegative terms is at least each
    term, the bound lies below limit**2, and sqrt rounds correctly and is
    monotone.  It is finite, so that inf and NaN fail it.  ``limit`` is
    positive and finite (ScenarioConfig checks it)."""
    square = min(limit * limit, 2.0 ** 1023)   # within half an ulp of limit**2
    return math.nextafter(math.nextafter(square, 0.0), 0.0)


# overflow to inf and NaN needs no warning: the divergence test fails both
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_scenario(cfgs: Sequence[ScenarioConfig], sinks: Sequence[Callable[[TraceLog], None]]
                 ) -> List[Union[EventTable, DivergenceError]]:
    """Execute the loop on ``cfgs``, the B lanes of one lockstep batch (a
    single run is a batch of one), handing each block of up to
    ``_RUN_BLOCK`` rows of a live lane to ``sinks[i]``, in row order, as a
    TraceLog; returns one EventTable or DivergenceError per lane.

    Lanes may differ only in w1, w2 and the channels' dropout models; any
    other difference raises ValueError.  A block's arrays are reused for the
    next block, and its event table views the lane's growing buffers, so a
    sink copies what it keeps and keeps no events.  A lane that diverges has
    had the blocks before the one it diverged in.

    Every per-row quantity (states, ports, held samples, each link's
    ``Channel`` hold, gain products, w1 and w2) is a list of rows, and the
    loop body and its kernels (the models, ``core.rk4_step``,
    ``check_violation``, ``quantize``) take and give such lists.  A row is
    a Python float for a single run, which saves numpy's per-call cost, and
    a ``(B,)`` array for a batch, lane i in element i; the form is picked
    once, from the lane count.  Every operation is elementwise on a row or
    a left fold over rows, so a lane gets the bits of its solo run.  Each
    row goes into a list as one tuple, and every ``_BLOCK_ROWS`` rows the
    list is written into the log arrays, ``(rows, dim, B)``.  Only the event
    table records commits: each block's held samples are read back from it
    with ``held_samples``.  Lane i is element i from the first row to the
    last: a lane whose new state fails the norm test gets its
    DivergenceError and leaves the mask ``live``, keeping its element with a
    NaN state, and the batch stops when no lane is live.  When the log
    arrays' block is full, each live lane's block goes to its sink.
    """
    if not cfgs:
        raise ValueError("run_scenario needs at least one scenario")
    _check_lanes(cfgs)
    cfg = cfgs[0]
    h, g, m = cfg.h, cfg.gains, cfg.plant.output_dim
    n_rows, lanes = cfg.n_rows, len(cfgs)
    one = lanes == 1

    def rows(value) -> list:   # the same sample in every lane
        value = np.asarray(value, dtype=float)
        return value.tolist() if one else [np.full(lanes, v) for v in value]

    block = min(_RUN_BLOCK, n_rows)
    w1 = np.empty((block, m, lanes))
    w2 = np.empty((block, m, lanes))
    chan_pc = Channel(cfg.chan_pc.delay, [c.chan_pc.dropout for c in cfgs], "pc",
                      rows(np.full(m, cfg.chan_pc.initial_hold)))
    chan_cp = Channel(cfg.chan_cp.delay, [c.chan_cp.dropout for c in cfgs], "cp",
                      rows(np.full(m, cfg.chan_cp.initial_hold)))
    log = {name: np.empty((block, dim, lanes)) for name, dim in (
        ("x_p", cfg.plant.state_dim), ("x_c", cfg.controller.state_dim),
        ("y_p", m), ("y_c", m), ("u_c", m), ("u_r", m), ("y_qp", m), ("y_qc", m))}
    # each log array's columns in a row's tuple
    ends = np.cumsum([a.shape[1] for a in log.values()]).tolist()
    slots = list(zip(log.values(), [0] + ends[:-1], ends))
    plant, controller = cfg.plant, cfg.controller
    output_p, output_c = plant.output, controller.output

    x_p, x_c = rows(cfg.x0_plant), rows(cfg.x0_controller)
    held_p = rows(np.zeros(m))   # last committed sample of each detector,
    held_c = rows(np.zeros(m))   # updated in place on every commit
    # the gain block's products with the plant's held sample, redone on a commit
    m21_held, y_r = _held_products(g, held_p)
    live = np.ones(lanes, dtype=bool)   # the lanes not yet retired
    retired = False                     # ~live once a lane has retired
    # a single lane's verdict is a bool, or at t=0 ``live``, which bool()
    # reads, and a batch's a mask, which count_nonzero reads; both at a
    # fraction of the cost of .any() and .all()
    any_lane = bool if one else (lambda mask: bool(np.count_nonzero(mask)))
    every_lane = bool if one else (lambda mask: np.count_nonzero(mask) == lanes)
    force_first = not cfg.drop_first_allowed
    limit = cfg.divergence_limit
    bound = _squares_bound(limit)
    events = [_event_buffers() for _ in cfgs]   # per lane
    out: List[Union[EventTable, DivergenceError, None]] = [None] * lanes

    for start in range(0, n_rows, block):
        t_col = np.arange(start, min(start + block, n_rows)) * h   # bit-equal to k * h
        n = len(t_col)
        for i in np.flatnonzero(live):
            w1[:n, :, i] = Signal(cfgs[i].w1)(t_col)
            w2[:n, :, i] = Signal(cfgs[i].w2)(t_col)
        for first in range(0, n, _BLOCK_ROWS):
            last = min(first + _BLOCK_ROWS, n)
            if one:
                w1_rows, w2_rows = w1[first:last, :, 0].tolist(), w2[first:last, :, 0].tolist()
            else:
                w1_rows, w2_rows = (list(map(list, w[first:last])) for w in (w1, w2))
            kept = []
            for j, w1_j, w2_j in zip(range(first, last), w1_rows, w2_rows):
                k = start + j
                t = k * h
                u_r = chan_cp.poll(t)
                u_c = [w + v for w, v in zip(w2_j, chan_pc.poll(t))]
                u_p, y_p = _plant_side(output_p, g, m21_held, u_r, w1_j, x_p, t)
                y_c = output_c(x_c, u_c, t)

                # plant-side detector (initial transmission at t=0 is unconditional);
                # a committed sample feeds the local gain block immediately
                fire = check_violation(held_p, y_p, cfg.trigger_p) if k else live
                if any_lane(fire) and _transmit("plant", k, t, fire, y_p, held_p, g.m11,
                                                cfg.quant_p, chan_pc, events, force_first, one):
                    m21_held, y_r = _held_products(g, held_p)
                    u_p, y_p = _plant_side(output_p, g, m21_held, u_r, w1_j, x_p, t)
                # controller-side detector (send only; no local feedback to itself)
                fire = check_violation(held_c, y_c, cfg.trigger_c) if k else live
                if any_lane(fire):
                    _transmit("controller", k, t, fire, y_c, held_c, 1.0, cfg.quant_c,
                              chan_cp, events, force_first, one)

                kept.append((*x_p, *x_c, *y_p, *y_c, *u_c, *u_r,
                             *quantize(cfg.quant_p, y_r), *quantize(cfg.quant_c, held_c)))
                if k == n_rows - 1:
                    break

                x_p = core.rk4_step(plant, x_p, u_p, t, h)
                x_c = core.rk4_step(controller, x_c, u_c, t, h)
                # the one divergence test: a sum of both states' squared norms
                # below the bound passes both norms; any other sum, NaN too,
                # gets the exact norm test, whose NaN <= limit is false, so it
                # also catches a non-finite state.  Each sum is a left fold
                # over the rows from the first square, as in check_violation
                rows_p, rows_c = iter(x_p), iter(x_c)
                v = next(rows_p)
                sq_p = v * v
                for v in rows_p:
                    sq_p += v * v
                v = next(rows_c)
                sq_c = v * v
                for v in rows_c:
                    sq_c += v * v
                if every_lane((sq_p + sq_c < bound) | retired):
                    continue
                norm_p, norm_c = np.sqrt(sq_p), np.sqrt(sq_c)
                failed = ~((norm_p <= limit) & (norm_c <= limit)) & live
                if any_lane(failed):
                    for i, err in _divergences(cfg, (x_p, x_c), (norm_p, norm_c), failed,
                                               k + 1, t).items():
                        out[i] = err
                    live &= ~failed
                    if not live.any():
                        return out
                    retired = ~live
                    # NaN > x is false, so no detector fires on a retired lane again
                    x_p = [np.where(failed, np.nan, v) for v in x_p]
                    x_c = [np.where(failed, np.nan, v) for v in x_c]
            chunk = np.array(kept).reshape(len(kept), ends[-1], lanes)
            for a, lo, hi in slots:
                a[first:last] = chunk[:, lo:hi]

        for i in np.flatnonzero(live):
            _hand_off(sinks[i], cfgs[i], start, t_col, events[i], m, w1[:n, :, i],
                      {name: a[:n, :, i] for name, a in log.items()})
    for i in np.flatnonzero(live):
        out[i] = _event_table(events[i], m)
    return out


def _hand_off(sink, cfg: ScenarioConfig, start: int, t_col: np.ndarray,
              buffers: Sequence[array], m: int, w1: np.ndarray, cols: Dict[str, np.ndarray]
              ) -> None:
    """Send one block of a lane to its sink: the logged columns, the held
    samples the event table records, and the columns that follow from them
    elementwise, by the formulas the loop used on them.  The table views
    the lane's buffers only until this returns, so that they can grow
    again."""
    table = _event_table(buffers, m)
    stop = start + len(t_col)
    held = {side: held_samples(table, side, stop, start) for side in ("plant", "controller")}
    held_p, held_c = held.values()
    g = cfg.gains
    y_tilde_c = (cols["u_r"] - g.m21 * held_p) / g.m22   # as in _plant_side
    sink(TraceLog(config=cfg, t=t_col, w1=w1, events=table, first_row=start, held=held,
                  e_p=cols["y_p"] - held_p, e_c=cols["y_c"] - held_c, y_r=g.m11 * held_p,
                  u_tilde_c=held_p, y_tilde_c=y_tilde_c, u_p=w1 - y_tilde_c, **cols))


def _held_products(g: TransformGains, held) -> Tuple[list, list]:
    """m21 and m11 times each row of the plant's held sample."""
    return [g.m21 * v for v in held], [g.m11 * v for v in held]


def _plant_side(output, g: TransformGains, m21_held, u_r, w1, x_p, t):
    """(u_p, y_p), row by row: the plant-side gain block reconstructs the
    controller output y_tilde_c = (u_r - m21_held) / m22 from the held link
    value and ``m21_held``, m21 times the held plant sample, and the plant
    takes u_p = w1 - y_tilde_c and gives its ``output``."""
    u_p = [w - (r - v) / g.m22 for w, r, v in zip(w1, u_r, m21_held)]
    return u_p, output(x_p, u_p, t)


def _transmit(side: str, k: int, t: float, fire, y, held, gain: float,
              spec: QuantizerSpec, chan: Channel,
              events: List[Tuple[array, ...]], force_first: bool, one: bool) -> bool:
    """Quantize ``gain * y`` and send it on every firing lane, appending the
    attempt to the lane's event buffers; a delivered sample becomes that
    lane's held value, updated in place.  ``y`` and ``held`` are lists of
    rows, a single lane's floats (``one``) or a batch's ``(B,)`` arrays;
    each firing lane's sample is sent as floats.  True iff some lane
    committed."""
    committed = False
    for i in (0,) if one else np.flatnonzero(fire):   # a single lane fires as lane 0
        y_i = y if one else [v.item(i) for v in y]
        payload = quantize(spec, [gain * v for v in y_i])
        # every live lane fires on both sides at k = 0, its links' first attempts
        dropped = math.isnan(chan.send(t, payload, force_success=force_first and k == 0, lane=i))
        *scalars, payloads, samples = events[i]
        for column, value in zip(scalars, (side == "plant", dropped, t, k)):
            column.append(value)
        payloads.extend(payload)
        samples.extend(y_i)
        if not dropped:
            if one:
                held[:] = y_i
            else:
                for row, v in zip(held, y_i):
                    row[i] = v
            committed = True
    return committed


def _divergences(cfg: ScenarioConfig, states, norms, failed, row: int, t: float
                 ) -> Dict[int, DivergenceError]:
    """column -> DivergenceError of each lane in the mask ``failed``, whose
    new plant or controller state failed the norm test at ``row``.  A lane's
    first cause wins, in this order: plant non-finite, controller
    non-finite, plant over the limit, controller over the limit."""
    limit, h = cfg.divergence_limit, cfg.h
    causes: Dict[int, str] = {}
    for model, x in zip((cfg.plant, cfg.controller), states):
        finite = np.isfinite(x).reshape(len(x), -1).all(axis=0)
        for i in np.flatnonzero(~finite & failed):
            causes.setdefault(i, f"non-finite step at t={t!r} (model {model.name!r})")
    for label, norm in zip(("plant", "controller"), norms):
        norm = np.atleast_1d(norm)
        for i in np.flatnonzero(~(norm <= limit) & failed):
            causes.setdefault(i, f"{label} state norm {norm[i]:.3e} exceeds {limit:.3e}")
    return {i: DivergenceError(row, t + h, text) for i, text in causes.items()}


def dropout_spans(trace: TraceLog, side: str) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the half-open [first drop, next success) spans where
    the held-sample norm bound is not expected to hold, as int64 trace rows
    (``sample_index``); a span still open after the trace's last row ends
    just past it."""
    ev = trace.events
    on = ev.on(side)
    dropped, rows = ev.dropped[on], ev.sample_index[on]
    after_drop = np.zeros_like(dropped)
    after_drop[1:] = dropped[:-1]
    starts = rows[dropped & ~after_drop]
    ends = rows[~dropped & after_drop]
    if len(ends) < len(starts):   # the trace ends inside a span
        ends = np.append(ends, trace.first_row + len(trace.t))
    return starts, ends


def max_consecutive_drops(trace: TraceLog, side: str) -> int:
    dropped = trace.events.dropped[trace.events.on(side)]
    # the edges of each run of drops, starts and ends alternating
    edges = np.flatnonzero(np.diff(dropped, prepend=False, append=False))
    return int(np.max(edges[1::2] - edges[::2], initial=0))


def held_samples(events: EventTable, side: str, rows: int, start: int = 0) -> np.ndarray:
    """The detector's held sample at each trace row from ``start`` up to
    ``rows``, from the event table: row k holds the last commit with
    ``sample_index <= k`` (zeros before the first commit).  Sorted by index,
    a running max of table positions keeps this exact for unsorted commits.
    """
    commits = events.commits(side)
    index = events.sample_index[commits]
    values = np.concatenate((np.zeros((1, events.committed.shape[1])),
                             events.committed[commits]))
    order = np.argsort(index, kind="stable")
    last = np.concatenate(([0], np.maximum.accumulate(order) + 1))
    below = np.searchsorted(index[order], np.arange(start, rows), side="right")
    return values[last[below]]


def _gap_stats(trace: TraceLog, side: str) -> Tuple[float, np.ndarray, np.ndarray]:
    """(min gap, gaps, y_norm at each gap's closing commit).

    Gaps run between consecutive successful commits; with no commit after
    t=0 the minimum is reported as t_end.
    """
    commits = trace.events.commits(side)
    gaps = np.diff(trace.events.t[commits])
    min_gap = float(np.min(gaps)) if len(gaps) else float(trace.config.t_end)
    return min_gap, gaps, trace.events.y_norm[commits][1:]


def _accum_ratio_excess(trace: TraceLog, side: str, delta: float) -> float:
    """Worst excess of the accumulated-error ratio e_norm / y_norm at each of
    ``side``'s re-commits after the first over the geometric-series factor
    (1+sqrt(delta))^(n+1) - 1 of its n preceding drops: -inf with no
    re-commit, +inf where a nonzero error meets a zero output."""
    ev = trace.events
    recommits = np.flatnonzero(ev.commits(side))[1:]
    e_norm, y_norm = ev.e_norm[recommits], ev.y_norm[recommits]
    # float_power calls libm pow on each element, as the scalar ** did
    bound = np.float_power(1.0 + math.sqrt(delta), ev.drops_before[recommits] + 1) - 1.0
    zero = y_norm == 0.0
    with np.errstate(over="ignore", invalid="ignore"):   # inf and NaN, as a float / gave
        ratio = np.divide(e_norm, y_norm, where=~zero,
                          out=np.where(e_norm > 0.0, math.inf, -math.inf))
    # fmax skips a NaN ratio, as the max over the commits did
    return float(np.fmax.reduce(ratio - bound, initial=-math.inf))


def compute_metrics(run, design: Optional[DesignResult] = None,
                    params: Optional[DesignParams] = None) -> Dict[str, object]:
    """metrics.kv's entries, from the ``checks.RunMetrics`` a run was fed to
    block by block (see ``checks.metrics``)."""
    from . import checks   # here, so that only the steps that check a run compile it

    return checks.metrics(run, design, params)


# ---------------------------------------------------------------------------
# CSV serialization (fixed column order, 17 significant digits)

# trace.csv column groups in file order; every group but t and the two state
# vectors has the port dimension
TRACE_COLUMNS = ("t", "x_p", "y_p", "e_p", "u_p", "x_c", "y_c", "e_c", "u_c",
                 "y_r", "u_r", "y_tilde_c", "u_tilde_c", "y_qp", "y_qc", "w1")

_EVENTS_HEADER = ("side,kind,t,sample_index,attempt_index,drops_before,"
                  "e_norm,y_norm,payload,committed")


def _trace_header(scenario: ScenarioConfig) -> Dict[str, List[str]]:
    """trace.csv's column names for the scenario's plant, controller and port
    dimensions, grouped by TRACE_COLUMNS entry in file order; only a port of
    dimension one is unnumbered."""
    states = {"x_p": scenario.plant.state_dim, "x_c": scenario.controller.state_dim}
    port = scenario.plant.output_dim
    header = {"t": ["t"]}
    for base in TRACE_COLUMNS[1:]:
        width = states.get(base, port)
        one = width == 1 and base not in states
        header[base] = [base] if one else [f"{base}{i + 1}" for i in range(width)]
    return header


# Each value's text fills a slot of _SLOT bytes in a block's uint8 array, as
# seven native 32-bit words:
#   [sign or NUL, lead digit, '.', NUL] [4 digits] x4 ['e', exp sign, NUL or
#   hundreds, tens] [units, NUL, NUL, separator]
# A block's text is its bytes with the NULs dropped.
_SLOT = 28
_E_MAX = 280   # the fast paths' decimal exponents, -_E_MAX.._E_MAX
# the powers 10^p they scale by: 10^(16-E) to format, 10^(E-16) to parse
_POW_LO, _POW_HI = -16 - _E_MAX, 16 + _E_MAX
_SPLIT = 134217729.0   # 2^27 + 1: Veltkamp's split of a double into two halves


def _veltkamp(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """x as hi + lo exactly, each with at most 26 significant bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _format_tables() -> Tuple[np.ndarray, ...]:
    """The fast paths' tables, built on first use from exact integers:
    10^p as the double-double hi + lo (``float`` of an int and int / int are
    correctly rounded, and lo rounds the exact remainder), hi's Veltkamp
    halves, and the 32-bit words of the sign and lead digit, of each 4-digit
    group and of each exponent."""
    hi, lo = [], []
    for p in range(_POW_LO, _POW_HI + 1):
        if p >= 0:
            n = 10 ** p
            hi.append(float(n))
            lo.append(float(n - int(hi[-1])))
        else:
            d = 10 ** -p
            hi.append(1 / d)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * d) / (d * den))
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    groups = np.empty((10, 10, 10, 10, 4), np.uint8)   # [thousands]..[units]
    for i in range(4):
        groups[..., i] = digit.reshape((10,) + (1,) * (3 - i))
    lead = "".join(sign + d + ".\0" for sign in "\0-" for d in "0123456789")
    exp = "".join("e" + t[0] + t[1:].rjust(3, "\0") + "\0" * 3
                  for t in map("{:+03d}".format, range(-_E_MAX, _E_MAX + 1)))
    hi = np.array(hi)
    return (hi, np.array(lo), *_veltkamp(hi), np.frombuffer(lead.encode(), np.uint32),
            groups.view(np.uint32).reshape(10000),
            *np.frombuffer(exp.encode(), np.uint32).reshape(-1, 2).T.copy())


def _format_values(v: np.ndarray) -> np.ndarray:
    """The ``_FMT`` text of each value of a float64 vector, one NUL-padded
    slot per value; the separator byte is left NUL.

    The fast path takes zeros and the values a with 1e-280 <= a < 1e281.
    With E = floor(log10 a), N = a * 10^(16-E) is computed as P + Q: P is the
    rounded product a * hi and Q the sum of its exact error (Dekker's product
    on Veltkamp halves) and a * lo.  If E is right, 1e16 <= N < 1e17 < 2^57,
    so P is an integer, and the 17 digits are P + rint(Q), which rounds half
    to even because P is even.  The error of P + Q is a few ulps of Q
    (|Q| < 32) plus 2^-106 N, below 1e-14, far inside the 0.001 tie band, so
    a value is taken only when |Q - rint(Q)| < 0.499, (P - 1e16) + Q >= 0
    and P < 1e17 - 16.  That sends to ``_FMT % v`` the near ties, a log10
    off by one either way and a value that would round up to 10^17, besides
    NaN, infinities, subnormals and the rest outside the range.
    """
    hi_t, lo_t, bh_t, bl_t, lead, groups, *exp = _format_tables()
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= 1e-280) & (a < 1e281)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, -_E_MAX, _E_MAX, out=e)
    k = 16 - _POW_LO - e
    p = a * hi_t[k]
    ah, al = _veltkamp(a)
    bh, bl = bh_t[k], bl_t[k]
    q = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo_t[k]
    r = np.rint(q)
    fast &= (np.abs(q - r) < 0.499) & ((p - 1e16) + q >= 0) & (p < 1e17 - 16)
    fast |= zero
    digits = np.where(fast, p.astype(np.int64) + r.astype(np.int64), 10 ** 16)
    digits[zero] = 0   # their e is log10(1.0) = 0 already
    # numpy floor-divides int64 by a scalar through libdivide; its % has no such path
    top = digits // 10 ** 16
    rest = digits - top * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    high_hi, low_hi = high // 10000, low // 10000
    out = np.empty((len(v), _SLOT), np.uint8)
    words = out.view(np.uint32)
    words[:, 0] = lead[10 * np.signbit(v) + top]
    words[:, 1] = groups[high_hi]
    words[:, 2] = groups[high - high_hi * 10000]
    words[:, 3] = groups[low_hi]
    words[:, 4] = groups[low - low_hi * 10000]
    words[:, 5] = exp[0][e + _E_MAX]
    words[:, 6] = exp[1][e + _E_MAX]
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = np.array([_FMT % x for x in v[slow].tolist()], dtype=f"S{_SLOT}")
        out[slow] = text.view(np.uint8).reshape(len(slow), _SLOT)
    return out


def format_blocks(*columns: np.ndarray) -> Iterator[np.ndarray]:
    """The ``_FMT`` text of float64 columns set side by side (each a vector
    or a matrix with one row per row), one uint8 array of shape
    (rows, columns, _SLOT) per block of rows; only one block is stacked at a
    time.  A slot holds its value's text, NUL padded, and ends in a NUL byte
    for the caller's separator; ``text_bytes`` drops the NULs.  A run of
    equal values down a column is formatted once, keyed by its bits, never by
    float ``==``, so ``-0.0`` keeps its sign."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns]).T
        bits = block.view(np.int64)
        new = np.empty(bits.shape, bool)   # run starts, one column after another
        new[:, 0] = True
        np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
        yield np.take(_format_values(block[new]), (np.cumsum(new) - 1).reshape(new.shape).T,
                      axis=0)


def text_bytes(text: np.ndarray) -> bytes:
    """The bytes of a uint8 array of NUL-padded text, in order, NULs dropped."""
    return text.tobytes().translate(None, b"\0")


def write_trace_csv(trace: TraceLog, dest) -> None:
    """Write the rows of ``trace`` to ``dest``, a binary file open for
    writing, after the header if ``trace`` starts at row 0: the blocks of a
    run written in turn to one file make the file of the whole run."""
    names = [name for group in _trace_header(trace.config).values() for name in group]
    if trace.first_row == 0:
        dest.write((",".join(names) + "\n").encode())
    seps = np.frombuffer(b"," * (len(names) - 1) + b"\n", np.uint8)
    for text in format_blocks(*(getattr(trace, base) for base in TRACE_COLUMNS)):
        text[:, :, -1] = seps
        dest.write(text_bytes(text))


# the side and kind labels as NUL-padded uint8 rows, each with its comma
_SIDES = np.array([b"controller,", b"plant,"]).view(np.uint8).reshape(2, -1)
_KINDS = np.array([b"commit,", b"drop,"]).view(np.uint8).reshape(2, -1)


def write_events_csv(trace: TraceLog, path) -> None:
    ev, m = trace.events, trace.events.payload.shape[1]
    # after t, e_norm, y_norm, each payload and each committed value
    seps = np.frombuffer(b",,," + (b";" * (m - 1) + b",") + (b";" * (m - 1) + b"\n"),
                         np.uint8)
    with open(path, "wb") as fh:
        fh.write((_EVENTS_HEADER + "\n").encode())
        start = 0
        for text in format_blocks(ev.t, ev.e_norm, ev.y_norm, ev.payload, ev.committed):
            n = len(text)
            block = ev[start:start + n]
            start += n
            text[:, :, -1] = seps
            ints = np.char.add(np.column_stack(   # an int64 takes at most 20 bytes
                (block.sample_index, block.attempt_index, block.drops_before)).astype("S20"),
                b",")
            fh.write(text_bytes(np.concatenate(
                (_SIDES[block.plant.view(np.uint8)], _KINDS[block.dropped.view(np.uint8)],
                 text[:, 0], ints.view(np.uint8).reshape(n, -1), text[:, 1:].reshape(n, -1)),
                axis=1)))


def read_trace_csv(path) -> Tuple[List[str], Iterator[np.ndarray]]:
    """Header names of a trace file and an iterator of its value matrix's
    blocks of ``_RUN_BLOCK`` rows.  Text outside ``write_trace_csv``'s
    layout is a ValueError naming its line and field (see ``tracecsv``)."""
    from .tracecsv import read   # here, so that only verify and report compile it

    return read(path)


def read_events_csv(path, width: int) -> EventTable:
    """The event table of an events file whose vectors are ``width`` long.
    Text outside ``write_events_csv``'s layout is a ValueError naming its
    line and field (see ``tracecsv``)."""
    from .tracecsv import read_events

    return read_events(path, width)

