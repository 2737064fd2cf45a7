"""Closed-loop executor for the event-triggered networked control loop.

Per integration step, in a fixed order that makes runs bit-reproducible:
channels are polled at the sample instant, the plant-side gain block
reconstructs the controller output from the held link value and the held
plant sample, both detectors are evaluated at the sample (transmitting
through quantizer and channel on violation, with the error resetting only on
success), the row is logged, and both systems advance one RK4 step with
their inputs held constant.

One loop serves a single run and a seed sweep: B lanes advance in lockstep,
each array carrying them as columns, and a single run is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import core, trigger
from .design import (DesignParams, DesignResult, TransformGains,
                     interevent_bound_controller, interevent_bound_plant)
from .network import Channel, DelayProfile, DropoutModel
from .quantizer import QuantizerSpec, quantize
from .signals import SignalSpec, build_signal
from .trigger import TriggerConfig, check_violation

__all__ = [
    "DivergenceError",
    "ChannelConfig",
    "ScenarioConfig",
    "EventRecord",
    "TraceLog",
    "run_scenario",
    "compute_metrics",
    "dropout_spans",
    "max_consecutive_drops",
    "held_samples",
    "plant_dissipativity",
    "TRACE_COLUMNS",
    "split_columns",
    "format_blocks",
    "write_trace_csv",
    "write_events_csv",
    "read_trace_csv",
    "read_events_csv",
    "read_trace",
]

_FMT = "%.16e"  # 17 significant digits: round-trips float64 exactly
_BLOCK_ROWS = 256  # rows formatted at once; one block's text is held in memory


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
        if self.plant.output_dim != self.controller.input_dim:
            raise ValueError("plant and controller port dimensions disagree")
        if len(np.asarray(self.x0_plant)) != self.plant.state_dim:
            raise ValueError("plant initial state has the wrong dimension")
        if len(np.asarray(self.x0_controller)) != self.controller.state_dim:
            raise ValueError("controller initial state has the wrong dimension")


@dataclass(frozen=True)
class EventRecord:
    """One detector firing: an attempted transmission, kept or dropped."""

    side: str                 # "plant" | "controller"
    t: float
    sample_index: int
    attempt_index: int
    dropped: bool
    drops_before: int         # consecutive drops on this link just before
    e_norm: float             # ||y - last committed|| at the firing sample
    y_norm: float             # ||y|| at the firing sample
    payload: np.ndarray       # quantized value put on the wire
    committed: np.ndarray     # raw output sample (committed when not dropped)


@dataclass
class TraceLog:
    """Per-sample signal record plus the event table for one run."""

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
    events: List[EventRecord] = field(default_factory=list)

    def events_on(self, side: str) -> List[EventRecord]:
        return [e for e in self.events if e.side == side]

    def commits_on(self, side: str) -> List[EventRecord]:
        return [e for e in self.events if e.side == side and not e.dropped]


def run_scenario(cfg: Union[ScenarioConfig, Sequence[ScenarioConfig]]):
    """Execute the loop and return the complete trace.

    ``cfg`` is one ScenarioConfig, or a sequence of them: the lanes of one
    lockstep batch.  Lanes may differ only in w1, w2 and the channels'
    dropout models; any other difference raises ValueError.  One config
    gives its TraceLog, or raises DivergenceError with the offending row
    index if a state leaves the finite/trusted region.  A sequence gives one
    TraceLog or DivergenceError per lane: a lane that diverges is retired
    and the others go on, every lane byte-identical to its own run.
    """
    if isinstance(cfg, ScenarioConfig):
        (run,) = _run_lanes([cfg])
        if isinstance(run, DivergenceError):
            raise run
        return run
    return _run_lanes(list(cfg))


def _check_lanes(cfgs: List[ScenarioConfig]) -> None:
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


def _run_lanes(cfgs: List[ScenarioConfig]) -> List[Union[TraceLog, DivergenceError]]:
    """The per-row loop, advancing B lanes in lockstep (see run_scenario).

    Per-lane arrays carry the lanes on their last axis: states ``(n, B)``,
    ports, held samples and each link's ``Channel`` hold ``(m, B)``, logs
    ``(rows, dim, B)``.  A single lane has no lane axis, so its models see
    one sample, as in a scalar run.
    Every operation on the arrays is elementwise or reduces over axis 0
    only, so no lane's bits depend on another lane.
    """
    if not cfgs:
        raise ValueError("run_scenario needs at least one scenario")
    _check_lanes(cfgs)
    cfg = cfgs[0]
    h, g, m = cfg.h, cfg.gains, cfg.plant.output_dim
    n_rows = int(math.floor(cfg.t_end / h + 1e-9)) + 1
    shape = () if len(cfgs) == 1 else (len(cfgs),)

    def columns(a: np.ndarray) -> np.ndarray:   # a view with the lane axis
        return a if shape else a[..., None]

    def every_lane(value) -> np.ndarray:
        a = np.empty((len(value),) + shape)
        columns(a)[:] = np.asarray(value, dtype=float)[:, None]
        return a

    t_col = np.arange(n_rows) * h      # bit-equal to k * h
    w1 = np.empty((n_rows, m) + shape)
    w2 = np.empty((n_rows, m) + shape)
    for i, lane in enumerate(cfgs):
        columns(w1)[..., i] = build_signal(lane.w1)(t_col)
        columns(w2)[..., i] = build_signal(lane.w2)(t_col)
    chan_pc = Channel(cfg.chan_pc.delay, [c.chan_pc.dropout for c in cfgs], "pc",
                      dim=m, initial_hold=np.full(m, cfg.chan_pc.initial_hold))
    chan_cp = Channel(cfg.chan_cp.delay, [c.chan_cp.dropout for c in cfgs], "cp",
                      dim=m, initial_hold=np.full(m, cfg.chan_cp.initial_hold))
    log = {name: np.empty((n_rows, dim) + shape) for name, dim in (
        ("x_p", cfg.plant.state_dim), ("x_c", cfg.controller.state_dim),
        ("y_p", m), ("y_c", m), ("u_c", m), ("u_r", m),
        ("held_p", m), ("held_c", m), ("y_qp", m), ("y_qc", m))}

    x_p = every_lane(cfg.x0_plant)
    x_c = every_lane(cfg.x0_controller)
    held_p = every_lane(np.zeros(m))   # last committed sample of each detector,
    held_c = every_lane(np.zeros(m))   # updated in place on every commit
    first_row = np.ones(len(cfgs), dtype=bool)
    # a single lane's verdict is a numpy bool, which bool() reads at a
    # fraction of the cost of .any()
    any_lane = np.ndarray.any if shape else bool
    force_first = not cfg.drop_first_allowed
    limit = cfg.divergence_limit
    lanes = list(range(len(cfgs)))     # the lane held in each column
    events: List[List[EventRecord]] = [[] for _ in cfgs]
    out: List[Union[TraceLog, DivergenceError, None]] = [None] * len(cfgs)

    for k in range(n_rows):
        t = k * h
        u_r = chan_cp.poll(t)
        v_pc = chan_pc.poll(t)
        u_p, y_p = _plant_side(cfg.plant, g, held_p, u_r, w1[k], x_p, t)
        u_c = w2[k] + v_pc
        y_c = np.asarray(cfg.controller.output(x_c, u_c, t), dtype=float)

        # plant-side detector (initial transmission at t=0 is unconditional);
        # a committed sample feeds the local gain block immediately
        fire = check_violation(held_p, y_p, cfg.trigger_p) if k else first_row
        if any_lane(fire) and _transmit("plant", k, t, fire, y_p, held_p, g.m11,
                                        cfg.quant_p, chan_pc, events, force_first):
            u_p, y_p = _plant_side(cfg.plant, g, held_p, u_r, w1[k], x_p, t)
        # controller-side detector (send only; no local feedback to itself)
        fire = check_violation(held_c, y_c, cfg.trigger_c) if k else first_row
        if any_lane(fire):
            _transmit("controller", k, t, fire, y_c, held_c, 1.0, cfg.quant_c,
                      chan_cp, events, force_first)

        log["x_p"][k] = x_p
        log["x_c"][k] = x_c
        log["y_p"][k] = y_p
        log["y_c"][k] = y_c
        log["u_c"][k] = u_c
        log["u_r"][k] = u_r
        log["held_p"][k] = held_p
        log["held_c"][k] = held_c
        log["y_qp"][k] = quantize(cfg.quant_p, g.m11 * held_p)
        log["y_qc"][k] = quantize(cfg.quant_c, held_c)
        if k == n_rows - 1:
            break

        failed: Dict[int, DivergenceError] = {}   # column -> first cause
        x_p = _step(cfg.plant, x_p, u_p, t, h, k + 1, failed)
        x_c = _step(cfg.controller, x_c, u_c, t, h, k + 1, failed)
        for label, x in (("plant", x_p), ("controller", x_c)):
            norm = np.sqrt(np.add.reduce(x * x, axis=0))
            if any_lane(norm > limit):
                norm = np.atleast_1d(norm)
                for i in np.flatnonzero(norm > limit):
                    failed.setdefault(i, DivergenceError(
                        k + 1, t + h, f"{label} state norm {norm[i]:.3e} exceeds {limit:.3e}"))
        if failed:
            for i, err in failed.items():
                out[lanes[i]] = err
            keep = [i for i in range(len(lanes)) if i not in failed]
            lanes = [lanes[i] for i in keep]
            if not lanes:
                break
            # retire the failed lanes: the batch goes on with the other columns
            x_p, x_c, held_p, held_c, w1, w2 = (
                a[..., keep] for a in (x_p, x_c, held_p, held_c, w1, w2))
            log = {name: a[..., keep] for name, a in log.items()}
            events = [events[i] for i in keep]
            chan_pc.keep(keep)
            chan_cp.keep(keep)

    # the other columns follow elementwise from the logged held samples, by
    # the formulas the loop used on them
    for i, lane in enumerate(lanes):
        cols = {name: columns(a)[..., i] for name, a in log.items()}
        held_p, held_c = cols.pop("held_p"), cols.pop("held_c")
        w1_i = columns(w1)[..., i]
        y_tilde_c, u_p = _gain_block(g, held_p, cols["u_r"], w1_i)
        out[lane] = TraceLog(config=cfgs[lane], t=t_col, w1=w1_i, events=events[i],
                             e_p=cols["y_p"] - held_p, e_c=cols["y_c"] - held_c,
                             y_r=g.m11 * held_p, u_tilde_c=held_p,
                             y_tilde_c=y_tilde_c, u_p=u_p, **cols)
    return out


def _gain_block(g: TransformGains, held_p, u_r, w1):
    """The plant-side gain block: the controller output y_tilde_c it
    reconstructs from the held link value and the held plant sample, and
    the plant input u_p."""
    y_tilde_c = (u_r - g.m21 * held_p) / g.m22
    return y_tilde_c, w1 - y_tilde_c


def _plant_side(plant: core.SystemModel, g: TransformGains, held_p, u_r, w1, x_p, t):
    """(u_p, y_p) from the gain block and the plant output."""
    _, u_p = _gain_block(g, held_p, u_r, w1)
    return u_p, np.asarray(plant.output(x_p, u_p, t), dtype=float)


def _transmit(side: str, k: int, t: float, fire, y, held, gain: float,
              spec: QuantizerSpec, chan: Channel,
              events: List[List[EventRecord]], force_first: bool) -> bool:
    """Quantize ``gain * y`` and send it on every firing lane, logging the
    attempt; a delivered sample becomes that lane's held value.  True iff
    some lane committed."""
    y2, held2 = y.reshape(len(y), -1), held.reshape(len(held), -1)
    committed = False
    for i in np.flatnonzero(fire):
        y_i = y2[:, i]
        e_norm = float(np.linalg.norm(y_i - held2[:, i]))
        payload = quantize(spec, gain * y_i)
        force = force_first and chan.attempts[i] == 0
        drops_before = chan.consecutive_drops[i]
        rec = chan.send(t, payload, force_success=force, lane=i)
        events[i].append(EventRecord(side, t, k, rec.index, rec.dropped,
                                     drops_before, e_norm,
                                     float(np.linalg.norm(y_i)),
                                     payload, y_i.copy()))
        if not rec.dropped:
            held2[:, i] = y_i
            committed = True
    return committed


def _step(model: core.SystemModel, x, u, t: float, h: float, row: int,
          failed: Dict[int, DivergenceError]) -> np.ndarray:
    """One RK4 step of every lane; a non-finite lane is noted in ``failed``
    and the batch goes on with the step's result."""
    try:
        return core.rk4_step(model, x, u, t, h)
    except core.IntegrationError as exc:
        for i in exc.lanes:
            if i not in failed:
                failed[i] = DivergenceError(row, t + h, str(exc))
                failed[i].__cause__ = exc
        return exc.state


def dropout_spans(trace: TraceLog, side: str) -> List[Tuple[float, float]]:
    """Half-open [first drop, next success) spans where the held-sample norm
    bound is not expected to hold."""
    spans: List[Tuple[float, float]] = []
    start: Optional[float] = None
    for e in trace.events_on(side):
        if e.dropped and start is None:
            start = e.t
        elif not e.dropped and start is not None:
            spans.append((start, e.t))
            start = None
    if start is not None:
        spans.append((start, float(trace.t[-1]) + trace.config.h))
    return spans


def max_consecutive_drops(trace: TraceLog, side: str) -> int:
    worst = run = 0
    for e in trace.events_on(side):
        run = run + 1 if e.dropped else 0
        worst = max(worst, run)
    return worst


def held_samples(trace: TraceLog, side: str) -> np.ndarray:
    """The detector's held sample per row: row k holds the last commit with
    ``sample_index <= k`` (zeros before the first commit).  Sorted by index,
    a running max of list positions keeps this exact for unsorted commits.
    """
    commits = trace.commits_on(side)
    values = np.array([np.zeros(trace.y_p.shape[1])] + [e.committed for e in commits])
    index = np.array([e.sample_index for e in commits], dtype=np.int64)
    order = np.argsort(index, kind="stable")
    last = np.concatenate(([0], np.maximum.accumulate(order) + 1))
    below = np.searchsorted(index[order], np.arange(len(trace.t)), side="right")
    return values[last[below]]


def plant_dissipativity(trace: TraceLog) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step residuals of the plant's dissipation inequality and their
    tolerance ``1e-6 * (1 + max(|V_k|, |V_{k+1}|))``, which scales the
    quadrature error allowance with the storage at either end of the step.
    """
    plant = trace.config.plant
    traj = core.Trajectory(times=trace.t, states=trace.x_p,
                           inputs=trace.u_p, outputs=trace.y_p)
    res = core.dissipativity_residuals(plant, traj)
    v = plant.storage(trace.x_p.T)
    return res, 1e-6 * (1.0 + np.maximum(np.abs(v[:-1]), np.abs(v[1:])))


def _gap_stats(trace: TraceLog, side: str) -> Tuple[float, List[Tuple[float, float, float]]]:
    """(min gap, list of (gap, y_norm at closing commit, its time)).

    Gaps run between consecutive successful commits; with no commit after
    t=0 the minimum is reported as t_end.
    """
    commits = trace.commits_on(side)
    if len(commits) < 2:
        return float(trace.config.t_end), []
    gaps = []
    for prev, cur in zip(commits, commits[1:]):
        gaps.append((cur.t - prev.t, cur.y_norm, cur.t))
    return min(g for g, _, _ in gaps), gaps


def compute_metrics(trace: TraceLog, design: Optional[DesignResult] = None,
                    params: Optional[DesignParams] = None) -> Dict[str, object]:
    """Aggregate the quantities the design formulas talk about.

    Extracts event statistics, the inter-switch slope and sup-norm constants,
    the empirical L2 gain of the disturbance-to-plant-output map, energy
    residuals against the plant storage, and, when a design result is
    supplied, boolean comparisons of the observed trace against its bounds.
    """
    cfg = trace.config
    me: Dict[str, object] = {}
    for side, key in (("plant", "p"), ("controller", "c")):
        attempts = trace.events_on(side)
        commits = trace.commits_on(side)
        me[f"attempts_{key}"] = len(attempts)
        me[f"events_{key}"] = len(commits)
        me[f"drops_{key}"] = len(attempts) - len(commits)
        me[f"max_consec_drops_{key}"] = max_consecutive_drops(trace, side)
        min_gap, _ = _gap_stats(trace, side)
        me[f"min_gap_{key}"] = min_gap

    me["sup_x_p"] = float(np.max(np.linalg.norm(trace.x_p, axis=1)))
    if np.any(trace.w1 != 0.0):
        me["l2_gain_emp"] = core.l2_gain_estimate(trace.w1, trace.y_p, trace.t)
    else:
        me["l2_gain_emp"] = float("nan")  # undefined without input energy

    sig_w1 = build_signal(cfg.w1)
    sig_w2 = build_signal(cfg.w2)
    w2_vals = sig_w2(trace.t)
    me["c0"] = sig_w1.slope_bound
    me["c1"] = float(np.max(np.linalg.norm(trace.w1, axis=1)))
    me["c2"] = float(np.max(np.linalg.norm(trace.y_tilde_c, axis=1)))
    me["c0_prime"] = sig_w2.slope_bound
    me["c1_prime"] = float(np.max(np.linalg.norm(w2_vals, axis=1)))
    me["c2_prime"] = float(np.max(np.linalg.norm(trace.u_c - w2_vals, axis=1)))

    if cfg.plant.storage is not None:
        res, tol = plant_dissipativity(trace)
        me["dissip_residual_max_p"] = float(np.max(res)) if len(res) else 0.0
        me["dissip_norm_residual_max_p"] = float(np.max(res / tol)) if len(res) else 0.0
        me["dissip_ok_p"] = bool(np.all(res <= tol)) if len(res) else True

    for side, key, tcfg in (("plant", "p", cfg.trigger_p),
                            ("controller", "c", cfg.trigger_c)):
        held = held_samples(trace, side)
        outputs = trace.y_p if side == "plant" else trace.y_c
        ok, bad = trigger.trigger_inequality_check(
            trace.t, outputs, held, tcfg.delta,
            [e.sample_index for e in trace.events_on(side)])
        me[f"trigger_ok_{key}"] = ok
        report = trigger.sampled_output_bound_check(
            trace.t, outputs, held, tcfg.delta, dropout_spans(trace, side))
        me[f"sampled_bound_ok_{key}"] = report.ok

        # accumulated-error ratio at each re-commit after n drops, against
        # the geometric-series factor (1+sqrt(delta))^(n+1) - 1
        worst_excess = -math.inf
        for e in trace.commits_on(side)[1:]:
            if e.y_norm == 0.0:
                if e.e_norm > 0.0:
                    worst_excess = math.inf
                continue
            bound = (1.0 + math.sqrt(tcfg.delta)) ** (e.drops_before + 1) - 1.0
            worst_excess = max(worst_excess, e.e_norm / e.y_norm - bound)
        me[f"accum_ratio_excess_{key}"] = worst_excess
        me[f"accum_ratio_ok_{key}"] = worst_excess <= 1e-9

    if design is not None and params is not None:
        me["within_l2_bound"] = bool(me["l2_gain_emp"] <= design.gamma_bound)
        me["budget_ok_p"] = bool(me["max_consec_drops_p"] <= design.d_p_max)
        me["budget_ok_c"] = bool(me["max_consec_drops_c"] <= design.d_c_max)
        me.update(_interevent_comparison(trace, params, me))
    return me


def _interevent_comparison(trace: TraceLog, params: DesignParams,
                           me: Dict[str, object]) -> Dict[str, object]:
    h = trace.config.h
    out: Dict[str, object] = {}
    for side, key, fn, consts in (
            ("plant", "p", interevent_bound_plant,
             (me["c0"], me["c1"], me["c2"])),
            ("controller", "c", interevent_bound_controller,
             (me["c0_prime"], me["c1_prime"], me["c2_prime"]))):
        _, gaps = _gap_stats(trace, side)
        worst_slack = math.inf
        ok = True
        for gap, y_norm, _t in gaps:
            bound = fn(params, *consts, y_norm)
            slack = gap - (bound - h)
            worst_slack = min(worst_slack, slack)
            if slack < -1e-12:
                ok = False
        out[f"interevent_ok_{key}"] = ok
        out[f"interevent_worst_slack_{key}"] = worst_slack
    return out


# ---------------------------------------------------------------------------
# CSV serialization (fixed column order, 17 significant digits)

# trace.csv column groups in file order; every group but t and the two state
# vectors has the port dimension
TRACE_COLUMNS = ("t", "x_p", "y_p", "e_p", "u_p", "x_c", "y_c", "e_c", "u_c",
                 "y_r", "u_r", "y_tilde_c", "u_tilde_c", "y_qp", "y_qc", "w1")

_EVENTS_HEADER = ("side,kind,t,sample_index,attempt_index,drops_before,"
                  "e_norm,y_norm,payload,committed")


def _trace_table(trace: TraceLog) -> Tuple[List[str], np.ndarray]:
    """trace.csv's header and rows; only a port of dimension one is unnumbered."""
    names, cols = ["t"], [trace.t[:, None]]
    for base in TRACE_COLUMNS[1:]:
        a = getattr(trace, base)
        cols.append(a)
        one = a.shape[1] == 1 and base not in ("x_p", "x_c")
        names += [base] if one else [f"{base}{i + 1}" for i in range(a.shape[1])]
    return names, np.hstack(cols)


def split_columns(names: List[str], mat: np.ndarray, plant_dim: int,
                  ctrl_dim: int, port_dim: int) -> Dict[str, np.ndarray]:
    """Group raw CSV columns back into named signal arrays (views of ``mat``)."""
    widths = {"t": 1, "x_p": plant_dim, "x_c": ctrl_dim}
    expected = sum(widths.get(base, port_dim) for base in TRACE_COLUMNS)
    if len(names) != expected:
        raise ValueError(
            f"trace has {len(names)} columns, expected {expected} for these models")
    out: Dict[str, np.ndarray] = {}
    i = 0
    for base in TRACE_COLUMNS:
        width = widths.get(base, port_dim)
        out[base] = mat[:, i:i + width]
        i += width
    out["t"] = mat[:, 0]
    return out


def format_blocks(mat: np.ndarray) -> Iterator[np.ndarray]:
    """The ``_FMT`` text of a C-contiguous float64 matrix, one object array
    per block of rows.  Each distinct value of a block is formatted once,
    keyed by its bits, never by float ``==``, so ``-0.0`` keeps its sign."""
    for start in range(0, len(mat), _BLOCK_ROWS):
        block = mat[start:start + _BLOCK_ROWS]
        bits, where = np.unique(block.view(np.int64), return_inverse=True)
        values = bits.view(np.float64).tolist()
        # one format string for all of them is faster than one % per value
        texts = (",".join([_FMT] * len(values)) % tuple(values)).split(",")
        yield np.array(texts, dtype=object)[where.reshape(block.shape)]


def write_trace_csv(trace: TraceLog, path) -> None:
    names, mat = _trace_table(trace)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for text in format_blocks(mat):
            fh.writelines(",".join(row) + "\n" for row in text.tolist())


def write_events_csv(trace: TraceLog, path) -> None:
    events, m = trace.events, trace.y_p.shape[1]
    floats = np.fromiter(((e.t, e.e_norm, e.y_norm, *e.payload, *e.committed)
                          for e in events), (float, 3 + 2 * m), len(events))
    rest = iter(events)
    with open(path, "w") as fh:
        fh.write(_EVENTS_HEADER + "\n")
        for text in format_blocks(floats):
            # text rows first: zip stops before it takes the next block's event
            for (t, e_norm, y_norm, *vec), e in zip(text.tolist(), rest):
                fh.write(f"{e.side},{'drop' if e.dropped else 'commit'},{t},"
                         f"{e.sample_index},{e.attempt_index},{e.drops_before},"
                         f"{e_norm},{y_norm},{';'.join(vec[:m])},{';'.join(vec[m:])}\n")


def read_trace_csv(path) -> Tuple[List[str], np.ndarray]:
    """Header names and the raw value matrix of a trace file."""
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


def _parse_event(line: str) -> EventRecord:
    f = line.split(",")
    if len(f) != 10:
        raise ValueError(f"expected 10 fields, got {len(f)}")
    if f[0] not in ("plant", "controller") or f[1] not in ("commit", "drop"):
        raise ValueError(f"unknown side or kind {f[0]!r}, {f[1]!r}")
    sample_index = int(f[3])
    if abs(sample_index) >= 2 ** 63:   # joined to rows through int64 arrays
        raise ValueError(f"sample_index {sample_index} out of range")
    return EventRecord(
        side=f[0], t=float(f[2]), sample_index=sample_index,
        attempt_index=int(f[4]), dropped=f[1] == "drop", drops_before=int(f[5]),
        e_norm=float(f[6]), y_norm=float(f[7]),
        payload=np.array([float(v) for v in f[8].split(";")]),
        committed=np.array([float(v) for v in f[9].split(";")]))


def read_events_csv(path) -> List[EventRecord]:
    """The event table of an events file; ValueError on a short or garbled row."""
    events: List[EventRecord] = []
    with open(path) as fh:
        if fh.readline().strip() != _EVENTS_HEADER:
            raise ValueError(f"events file {path} lacks the events header")
        for n, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                events.append(_parse_event(line.strip()))
            except ValueError as exc:
                raise ValueError(f"events file {path} line {n}: {exc}") from None
    return events


def read_trace(scenario: ScenarioConfig, trace_path, events_path) -> TraceLog:
    """A run read back from its trace and events files, as ``run_scenario``
    returned it; the signal arrays are column views of the parsed matrix."""
    names, mat = read_trace_csv(trace_path)
    port = scenario.plant.output_dim
    cols = split_columns(names, mat, scenario.plant.state_dim,
                         scenario.controller.state_dim, port)
    events = read_events_csv(events_path)
    for e in events:
        if e.payload.shape != (port,) or e.committed.shape != (port,):
            raise ValueError(f"events file {events_path}: {e.side} event at "
                             f"t={e.t:.6f} does not carry {port}-vectors")
    return TraceLog(config=scenario, events=events, **cols)
