"""Re-derive invariants from serialized trace files.

The run is read back as a ``TraceLog`` (``sim.read_trace``), so every check
calls the same helpers as ``sim.compute_metrics``: dropout spans, maximum
consecutive drops, the held-sample join and the plant dissipativity
residuals.  Events join their trace rows on ``sample_index``; the
``events_on_grid`` check requires each event's index to name a row
(``0 <= sample_index < rows``) whose time equals the event time, and an event
that fails it makes no other check raise.  Everything is recomputed from the
trace.csv / events.csv columns and the scenario configuration alone, so
tampered or corrupted traces fail loudly.  Checks return (passed, detail)
pairs keyed by name.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from . import core, trigger
from .config import ConfigError, build_scenario, run_design
from .design import InfeasibleDesign
from .sim import (TRACE_COLUMNS, dropout_spans, held_samples,
                  max_consecutive_drops, plant_dissipativity, read_trace)

__all__ = ["verify_trace_files"]

CheckResult = Tuple[bool, str]


def verify_trace_files(cfg: Dict[str, str], trace_path, events_path
                       ) -> Dict[str, CheckResult]:
    """Run all trace-level invariant checks; returns name -> (pass, detail)."""
    scenario = build_scenario(cfg)
    trace = read_trace(scenario, trace_path, events_path)
    t = trace.t
    h = scenario.h
    checks: Dict[str, CheckResult] = {}

    n_expected = int(math.floor(scenario.t_end / h + 1e-9)) + 1
    checks["row_count"] = (len(t) == n_expected,
                           f"{len(t)} rows, expected {n_expected}")

    dt = np.diff(t)
    uniform = len(t) > 1 and np.all(dt > 0) and np.allclose(dt, h, rtol=0, atol=1e-9)
    checks["time_grid"] = (bool(uniform), "strictly increasing uniform grid")

    finite = all(np.all(np.isfinite(getattr(trace, c))) for c in TRACE_COLUMNS)
    checks["finite_values"] = (finite, "all samples finite")

    on_row = [0 <= e.sample_index < len(t) and t[e.sample_index] == e.t
              for e in trace.events]
    checks["events_on_grid"] = (
        all(on_row), "event times lie on the sample grid" if all(on_row)
        else f"{on_row.count(False)} events off their row, first at "
             f"t={trace.events[on_row.index(False)].t:.6f}")

    held_p = held_samples(trace, "plant")
    held_c = held_samples(trace, "controller")

    e_p_ok = np.allclose(trace.e_p, trace.y_p - held_p, rtol=0, atol=1e-9)
    e_c_ok = np.allclose(trace.e_c, trace.y_c - held_c, rtol=0, atol=1e-9)
    held_col_ok = np.allclose(trace.u_tilde_c, held_p, rtol=0, atol=1e-9)
    checks["error_columns"] = (bool(e_p_ok and e_c_ok and held_col_ok),
                               "logged errors equal output minus last commit")

    for side, key, tcfg, y, held in (
            ("plant", "p", scenario.trigger_p, trace.y_p, held_p),
            ("controller", "c", scenario.trigger_c, trace.y_c, held_c)):
        attempt_times = [e.t for e in trace.events_on(side)]
        ok, bad = trigger.trigger_inequality_check(
            t, y, held, tcfg.delta, attempt_times)
        checks[f"trigger_ineq_{key}"] = (
            ok, "holds at all non-firing samples" if ok
            else f"violated at {len(bad)} samples, first at t={t[bad[0]]:.6f}")
        rep = trigger.sampled_output_bound_check(t, y, held, tcfg.delta,
                                                 dropout_spans(trace, side))
        checks[f"held_norm_bound_{key}"] = (
            rep.ok, f"{len(rep.excluded_spans)} dropout spans excluded" if rep.ok
            else f"violated at t={rep.violations[0][0]:.6f}")

    if scenario.plant.storage is not None:
        res, tol = plant_dissipativity(trace)
        checks["dissipativity_p"] = (
            bool(np.all(res <= tol)),
            f"worst residual at {float(np.max(res / tol)):.3e} of tolerance")

    # ZOH: the held link value may change only when a commit's arrival falls
    # inside the step (recomputed from the delay profile, so this also checks
    # causality of the logged schedule)
    sent = np.array([e.t for e in trace.commits_on("controller")])
    arrivals = np.array([scenario.chan_cp.delay.arrival(s) for s in sent])
    causal = bool(np.all(arrivals >= sent - 1e-12))
    arrivals.sort()
    changed = np.flatnonzero(np.any(trace.u_r[1:] != trace.u_r[:-1], axis=1)) + 1
    next_arrival = np.append(arrivals, np.inf)[
        np.searchsorted(arrivals, t[changed - 1], side="right")]
    unexplained = changed[~(next_arrival <= t[changed] + 1e-12)]
    checks["zoh_u_r"] = (
        causal and len(unexplained) == 0,
        "piecewise constant between arrivals" if len(unexplained) == 0
        else f"u_r changed at t={t[unexplained[0]]:.6f} with no packet arrival")

    commit_ok = True
    detail = "committed samples equal the logged output at their row"
    for e, ok in zip(trace.events, on_row):
        if e.dropped:
            continue
        y = trace.y_p if e.side == "plant" else trace.y_c
        if not ok or not np.array_equal(e.committed, y[e.sample_index]):
            commit_ok = False
            detail = (f"{e.side} commit at t={e.t:.6f} disagrees with trace" if ok
                      else f"commit at t={e.t:.6f} has no trace row")
            break
    checks["committed_samples"] = (commit_ok, detail)

    try:
        params, result = run_design(cfg)
    except (ConfigError, InfeasibleDesign):
        params = result = None
    if result is not None:
        gain = core.l2_gain_estimate(trace.w1, trace.y_p, t)
        checks["l2_gain_bound"] = (
            bool(gain <= result.gamma_bound),
            f"empirical {gain:.4f} vs certified {result.gamma_bound:.4f}")
        for side, key, budget in (("plant", "p", result.d_p_max),
                                  ("controller", "c", result.d_c_max)):
            worst = max_consecutive_drops(trace, side)
            checks[f"dropout_budget_{key}"] = (
                worst <= budget, f"observed {worst} consecutive vs budget {budget}")

    return checks
