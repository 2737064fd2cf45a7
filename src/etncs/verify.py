"""Re-derive invariants from serialized trace files.

The run is read back one block of rows at a time (``tracecsv.read_run``),
so no check holds the whole trace.  The verdicts metrics.kv reports too
come from ``checks.verdicts`` on the blocks merged by a
``checks.RunChecks``; the checks here are on the files themselves, each
merged across blocks from counts, first rows and the last row of the block
before.  Events join their trace rows on ``sample_index``, and an event off
its row (``events_on_grid``) makes no check raise.  Checks return (passed,
detail) pairs keyed by name.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .checks import RunChecks, verdicts
from .design import DesignResult
from .sim import TRACE_COLUMNS, ScenarioConfig, event_bookkeeping, held_samples
from .tracecsv import read_run

__all__ = ["verify_trace_files"]

CheckResult = Tuple[bool, str]


def _close(a: np.ndarray, b) -> bool:
    """``np.allclose(a, b, rtol=0, atol=1e-9)`` of a float array and a float
    array of its shape or a float, without its argument handling: equal
    infinities are close, NaN is close to nothing."""
    return bool(np.all((np.abs(a - b) <= 1e-9) | (a == b)))


# inf and NaN in the files need no warning: the checks' <= comparisons fail both
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def verify_trace_files(scenario: ScenarioConfig, design: Optional[DesignResult],
                       trace_path, events_path) -> Dict[str, CheckResult]:
    """Run all trace-level invariant checks on the run of ``scenario``,
    against ``design`` when it is feasible; returns name -> (pass, detail)."""
    h = scenario.h
    ev, blocks = read_run(scenario, trace_path, events_path)
    run = RunChecks(scenario)
    run.events = ev
    on_row = np.zeros(len(ev), bool)   # the event's sample_index names a row at its time
    agree = np.zeros(len(ev), bool)    # ... whose logged output is the committed sample
    uniform = errors_ok = True
    finite = all(bool(np.all(np.isfinite(a)))
                 for a in (ev.t, ev.e_norm, ev.y_norm, ev.payload, ev.committed))
    # ZOH: the held link value may change only when a commit's arrival falls
    # inside the step (recomputed from the delay profile, so this also checks
    # causality of the logged schedule)
    sent = ev.t[ev.commits("controller")]
    arrivals = scenario.chan_cp.delay.arrival(sent)
    causal = bool(np.all(arrivals >= sent - 1e-12))
    arrivals.sort()
    next_arrivals = np.append(arrivals, np.inf)
    unexplained_t = None   # the first u_r change with no packet arrival
    for block in blocks:
        t = block.t
        first, stop = block.first_row, block.first_row + len(t)
        t2, u_r2 = run.joined(block, "t"), run.joined(block, "u_r")
        dt = np.diff(t2)
        uniform &= bool(np.all(dt > 0)) and _close(dt, h)
        finite &= all(np.all(np.isfinite(getattr(block, c))) for c in TRACE_COLUMNS)

        mine = np.flatnonzero((ev.sample_index >= first) & (ev.sample_index < stop))
        rows = ev.sample_index[mine] - first
        on_row[mine] = t[rows] == ev.t[mine]
        logged = np.where(ev.plant[mine, None], block.y_p[rows], block.y_c[rows])
        agree[mine] = on_row[mine] & np.all(ev.committed[mine] == logged, axis=1)

        block.held = held = {side: held_samples(ev, side, stop, first)
                             for side in ("plant", "controller")}
        errors_ok &= (_close(block.e_p, block.y_p - held["plant"])
                      and _close(block.e_c, block.y_c - held["controller"])
                      and _close(block.u_tilde_c, held["plant"]))
        run.add(block)

        changed = np.flatnonzero(np.any(u_r2[1:] != u_r2[:-1], axis=1)) + 1
        next_arrival = next_arrivals[np.searchsorted(arrivals, t2[changed - 1], side="right")]
        unexplained = changed[~(next_arrival <= t2[changed] + 1e-12)]
        if unexplained_t is None and len(unexplained):
            unexplained_t = t2[unexplained[0]]
        del block, held

    checks: Dict[str, CheckResult] = {}
    n_expected = scenario.n_rows
    checks["row_count"] = (run.rows == n_expected, f"{run.rows} rows, expected {n_expected}")
    checks["time_grid"] = (run.rows > 1 and uniform, "strictly increasing uniform grid")
    checks["finite_values"] = (finite, "all samples finite")
    off = np.flatnonzero(~on_row)
    checks["events_on_grid"] = (
        len(off) == 0, "event times lie on the sample grid" if len(off) == 0
        else f"{len(off)} events off their row, first at t={ev.t[off[0]]:.6f}")
    # an off-row commit leaves the held-sample join, failing the checks on it
    cause = "" if len(off) == 0 else f"; likely cause: {checks['events_on_grid'][1]}"
    checks["error_columns"] = (
        errors_ok, "logged errors equal output minus last commit" + ("" if errors_ok else cause))

    for name, (ok, detail) in verdicts(run, design)[0].items():
        on_join = name.startswith(("trigger_ineq", "held_norm_bound"))
        checks[name] = (ok, detail + cause if on_join and not ok else detail)

    checks["zoh_u_r"] = (
        causal and unexplained_t is None,
        "piecewise constant between arrivals" if unexplained_t is None
        else f"u_r changed at t={unexplained_t:.6f} with no packet arrival")

    # the recorded bookkeeping is event_bookkeeping's on the same bits, a
    # non-finite norm being finite_values' to report
    unbooked = np.zeros(len(ev), bool)
    for name, derived in zip(("attempt_index", "drops_before", "e_norm", "y_norm"),
                             event_bookkeeping(ev.plant, ev.dropped, ev.committed)):
        recorded = getattr(ev, name)
        unbooked |= (recorded != derived) & np.isfinite(recorded)
    unlogged = ~ev.dropped & ~agree
    bad = np.flatnonzero(unlogged | unbooked)
    detail = "committed samples equal the logged output at their row"
    if len(bad):
        e = bad[0]
        side = "plant" if ev.plant[e] else "controller"
        detail = (f"{side} attempt at t={ev.t[e]:.6f} has an attempt_index, drops_before, "
                  "e_norm or y_norm that its side's attempts do not give" if not unlogged[e]
                  else f"{side} commit at t={ev.t[e]:.6f} disagrees with trace" if on_row[e]
                  else f"commit at t={ev.t[e]:.6f} has no trace row")
    checks["committed_samples"] = (len(bad) == 0, detail)

    return checks
