"""Re-derive invariants from serialized trace files.

The run is read back as a ``TraceLog`` (``sim.read_trace``).  The verdicts
metrics.kv reports too come from ``sim.invariant_checks``; the checks here
are on the files themselves.  Events join their trace rows on
``sample_index``, and an event off its row (``events_on_grid``) makes no
check raise.  Checks return (passed, detail) pairs keyed by name.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .design import DesignResult
from .sim import (TRACE_COLUMNS, ScenarioConfig, held_samples, invariant_checks,
                  read_trace)

__all__ = ["verify_trace_files"]

CheckResult = Tuple[bool, str]


# inf and NaN in the files need no warning: the checks' <= comparisons fail both
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def verify_trace_files(scenario: ScenarioConfig, design: Optional[DesignResult],
                       trace_path, events_path) -> Dict[str, CheckResult]:
    """Run all trace-level invariant checks on the run of ``scenario``,
    against ``design`` when it is feasible; returns name -> (pass, detail)."""
    trace = read_trace(scenario, trace_path, events_path)
    t = trace.t
    h = scenario.h
    checks: Dict[str, CheckResult] = {}

    n_expected = scenario.n_rows
    checks["row_count"] = (len(t) == n_expected,
                           f"{len(t)} rows, expected {n_expected}")

    dt = np.diff(t)
    uniform = len(t) > 1 and np.all(dt > 0) and np.allclose(dt, h, rtol=0, atol=1e-9)
    checks["time_grid"] = (bool(uniform), "strictly increasing uniform grid")

    finite = all(np.all(np.isfinite(getattr(trace, c))) for c in TRACE_COLUMNS)
    checks["finite_values"] = (finite, "all samples finite")

    ev = trace.events
    row = np.clip(ev.sample_index, 0, len(t) - 1)
    on_row = (ev.sample_index == row) & (t[row] == ev.t)
    off = np.flatnonzero(~on_row)
    checks["events_on_grid"] = (
        len(off) == 0, "event times lie on the sample grid" if len(off) == 0
        else f"{len(off)} events off their row, first at t={ev.t[off[0]]:.6f}")
    # an off-row commit leaves the held-sample join, failing the checks on it
    cause = "" if len(off) == 0 else f"; likely cause: {checks['events_on_grid'][1]}"

    held = {side: held_samples(ev, side, len(t)) for side in ("plant", "controller")}
    e_p_ok = np.allclose(trace.e_p, trace.y_p - held["plant"], rtol=0, atol=1e-9)
    e_c_ok = np.allclose(trace.e_c, trace.y_c - held["controller"], rtol=0, atol=1e-9)
    held_col_ok = np.allclose(trace.u_tilde_c, held["plant"], rtol=0, atol=1e-9)
    ok = bool(e_p_ok and e_c_ok and held_col_ok)
    checks["error_columns"] = (
        ok, "logged errors equal output minus last commit" + ("" if ok else cause))

    for name, (ok, detail) in invariant_checks(trace, design, held)[0].items():
        on_join = name.startswith(("trigger_ineq", "held_norm_bound"))
        checks[name] = (ok, detail + cause if on_join and not ok else detail)

    # ZOH: the held link value may change only when a commit's arrival falls
    # inside the step (recomputed from the delay profile, so this also checks
    # causality of the logged schedule)
    sent = ev.t[ev.commits("controller")]
    arrivals = scenario.chan_cp.delay.arrival(sent)
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

    logged = np.where(ev.plant[:, None], trace.y_p[row], trace.y_c[row])
    agree = on_row & np.all(ev.committed == logged, axis=1)
    bad = np.flatnonzero(~ev.dropped & ~agree)
    detail = "committed samples equal the logged output at their row"
    if len(bad):
        e = bad[0]
        detail = (f"{'plant' if ev.plant[e] else 'controller'} commit at "
                  f"t={ev.t[e]:.6f} disagrees with trace" if on_row[e]
                  else f"commit at t={ev.t[e]:.6f} has no trace row")
    checks["committed_samples"] = (len(bad) == 0, detail)

    return checks
