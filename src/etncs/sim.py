"""Closed-loop executor for the event-triggered networked control loop.

Per integration step, in a fixed order that makes runs bit-reproducible:
channels are polled at the sample instant, the plant-side gain block
reconstructs the controller output from the held link value and the held
plant sample, both detectors are evaluated at the sample (transmitting
through quantizer and channel on violation, with the error resetting only on
success), the row is logged, and both systems advance one RK4 step with
their inputs held constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import core, trigger
from .design import (DesignParams, DesignResult, TransformGains,
                     interevent_bound_controller, interevent_bound_plant)
from .network import Channel, DelayProfile, DropoutModel
from .quantizer import QuantizerSpec, quantize
from .signals import SignalSpec, build_signal
from .trigger import DetectorState, TriggerConfig, check_violation, commit_transmission

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
    "write_trace_csv",
    "write_events_csv",
    "read_trace_csv",
    "read_events_csv",
    "read_trace",
]

_FMT = "%.16e"  # 17 significant digits: round-trips float64 exactly


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


def run_scenario(cfg: ScenarioConfig) -> TraceLog:
    """Execute the loop and return the complete trace.

    Raises DivergenceError with the offending row index if a state leaves
    the finite/trusted region.
    """
    h = cfg.h
    n_rows = int(math.floor(cfg.t_end / h + 1e-9)) + 1
    m = cfg.plant.output_dim
    g = cfg.gains

    chan_pc = Channel(cfg.chan_pc.delay, cfg.chan_pc.dropout, "pc", dim=m,
                      initial_hold=np.full(m, cfg.chan_pc.initial_hold))
    chan_cp = Channel(cfg.chan_cp.delay, cfg.chan_cp.dropout, "cp", dim=m,
                      initial_hold=np.full(m, cfg.chan_cp.initial_hold))
    sig_w1 = build_signal(cfg.w1)
    sig_w2 = build_signal(cfg.w2)

    det_p = DetectorState(last_sent_value=np.zeros(m))
    det_c = DetectorState(last_sent_value=np.zeros(m))

    cols = {name: np.empty((n_rows, m)) for name in
            ("y_p", "e_p", "u_p", "y_c", "e_c", "u_c", "y_r", "u_r",
             "y_tilde_c", "u_tilde_c", "y_qp", "y_qc", "w1")}
    t_col = np.empty(n_rows)
    xp_col = np.empty((n_rows, cfg.plant.state_dim))
    xc_col = np.empty((n_rows, cfg.controller.state_dim))
    events: List[EventRecord] = []

    x_p = np.asarray(cfg.x0_plant, dtype=float).copy()
    x_c = np.asarray(cfg.x0_controller, dtype=float).copy()

    for k in range(n_rows):
        t = k * h
        u_r = chan_cp.poll(t)
        v_pc = chan_pc.poll(t)
        w1 = sig_w1(t)
        w2 = sig_w2(t)

        def plant_side(det: DetectorState):
            u_tilde_c = det.last_sent_value
            y_tilde_c = (u_r - g.m21 * u_tilde_c) / g.m22
            u_p = w1 - y_tilde_c
            y_p = np.asarray(cfg.plant.output(x_p, u_p, t), dtype=float)
            return u_tilde_c, y_tilde_c, u_p, y_p

        u_tilde_c, y_tilde_c, u_p, y_p = plant_side(det_p)
        u_c = w2 + v_pc
        y_c = np.asarray(cfg.controller.output(x_c, u_c, t), dtype=float)

        # plant-side detector (initial transmission at t=0 is unconditional)
        if k == 0 or check_violation(det_p, y_p, cfg.trigger_p):
            e_norm = float(np.linalg.norm(y_p - det_p.last_sent_value))
            payload = quantize(cfg.quant_p, g.m11 * y_p)
            force = (chan_pc.attempt_count == 0) and not cfg.drop_first_allowed
            drops_before = chan_pc.consecutive_drops
            rec = chan_pc.send(t, payload, force_success=force)
            events.append(EventRecord("plant", t, k, rec.index, rec.dropped,
                                      drops_before, e_norm,
                                      float(np.linalg.norm(y_p)),
                                      payload, y_p.copy()))
            if not rec.dropped:
                det_p = commit_transmission(det_p, y_p, t)
                # the committed sample feeds the local gain block immediately
                u_tilde_c, y_tilde_c, u_p, y_p = plant_side(det_p)

        # controller-side detector (send only; no local feedback to itself)
        if k == 0 or check_violation(det_c, y_c, cfg.trigger_c):
            e_norm = float(np.linalg.norm(y_c - det_c.last_sent_value))
            payload = quantize(cfg.quant_c, y_c)
            force = (chan_cp.attempt_count == 0) and not cfg.drop_first_allowed
            drops_before = chan_cp.consecutive_drops
            rec = chan_cp.send(t, payload, force_success=force)
            events.append(EventRecord("controller", t, k, rec.index, rec.dropped,
                                      drops_before, e_norm,
                                      float(np.linalg.norm(y_c)),
                                      payload, y_c.copy()))
            if not rec.dropped:
                det_c = commit_transmission(det_c, y_c, t)

        t_col[k] = t
        xp_col[k] = x_p
        xc_col[k] = x_c
        cols["y_p"][k] = y_p
        cols["e_p"][k] = y_p - det_p.last_sent_value
        cols["u_p"][k] = u_p
        cols["y_c"][k] = y_c
        cols["e_c"][k] = y_c - det_c.last_sent_value
        cols["u_c"][k] = u_c
        cols["y_r"][k] = g.m11 * det_p.last_sent_value
        cols["u_r"][k] = u_r
        cols["y_tilde_c"][k] = y_tilde_c
        cols["u_tilde_c"][k] = u_tilde_c
        cols["y_qp"][k] = quantize(cfg.quant_p, g.m11 * det_p.last_sent_value)
        cols["y_qc"][k] = quantize(cfg.quant_c, det_c.last_sent_value)
        cols["w1"][k] = w1

        if k < n_rows - 1:
            try:
                x_p = core.rk4_step(cfg.plant, x_p, u_p, t, h)
                x_c = core.rk4_step(cfg.controller, x_c, u_c, t, h)
            except core.IntegrationError as exc:
                raise DivergenceError(k + 1, t + h, str(exc)) from exc
            for label, x in (("plant", x_p), ("controller", x_c)):
                if not np.all(np.isfinite(x)) or np.linalg.norm(x) > cfg.divergence_limit:
                    raise DivergenceError(
                        k + 1, t + h,
                        f"{label} state norm {np.linalg.norm(x):.3e} exceeds "
                        f"{cfg.divergence_limit:.3e}")

    return TraceLog(config=cfg, t=t_col, x_p=xp_col, x_c=xc_col, events=events,
                    **cols)


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
    v = np.array([plant.storage(x) for x in trace.x_p])
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
    w2_vals = np.array([sig_w2(t) for t in trace.t])
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
        attempt_times = [e.t for e in trace.events_on(side)]
        ok, bad = trigger.trigger_inequality_check(
            trace.t, outputs, held, tcfg.delta, attempt_times)
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


def _column_names(trace: TraceLog) -> List[str]:
    names = ["t"]
    for base in TRACE_COLUMNS[1:]:
        dim = getattr(trace, base).shape[1]
        if base in ("x_p", "x_c"):
            names += [f"{base}{i + 1}" for i in range(dim)]
        else:
            names += _vec_names(base, dim)
    return names


def _vec_names(base: str, dim: int) -> List[str]:
    return [base] if dim == 1 else [f"{base}{i + 1}" for i in range(dim)]


def _row_matrix(trace: TraceLog) -> np.ndarray:
    return np.hstack([trace.t[:, None]]
                     + [getattr(trace, base) for base in TRACE_COLUMNS[1:]])


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


def write_trace_csv(trace: TraceLog, path) -> None:
    mat = _row_matrix(trace)
    with open(path, "w") as fh:
        fh.write(",".join(_column_names(trace)) + "\n")
        for row in mat:
            fh.write(",".join(_FMT % v for v in row) + "\n")


def write_events_csv(trace: TraceLog, path) -> None:
    with open(path, "w") as fh:
        fh.write(_EVENTS_HEADER + "\n")
        for e in trace.events:
            fh.write(",".join([
                e.side,
                "drop" if e.dropped else "commit",
                _FMT % e.t,
                str(e.sample_index),
                str(e.attempt_index),
                str(e.drops_before),
                _FMT % e.e_norm,
                _FMT % e.y_norm,
                ";".join(_FMT % v for v in e.payload),
                ";".join(_FMT % v for v in e.committed),
            ]) + "\n")


def read_trace_csv(path) -> Tuple[List[str], np.ndarray]:
    """Header names and the raw value matrix of a trace file."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"trace file {path} is empty")
        names = header.split(",")
        data = [line.strip().split(",") for line in fh if line.strip()]
    if not data:
        raise ValueError(f"trace file {path} has no data rows")
    mat = np.array([[float(v) for v in row] for row in data])
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
