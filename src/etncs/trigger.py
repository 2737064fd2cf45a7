"""Relative-error event detectors.

A detector fires when the squared deviation of the current output from the
last transmitted sample exceeds delta times the squared output norm.  The
error resets only on a *successful* transmission; a dropped packet leaves it
in place so the detector re-fires at the next violating sample.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "TriggerConfig",
    "DetectorState",
    "BoundReport",
    "check_violation",
    "commit_transmission",
    "trigger_inequality_check",
    "sampled_output_bound_check",
]


@dataclass(frozen=True)
class TriggerConfig:
    """Relative triggering threshold delta in (0, 1]."""

    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")


@dataclass(frozen=True)
class DetectorState:
    """Last successfully transmitted sample and bookkeeping."""

    last_sent_value: np.ndarray
    last_sent_time: float = -np.inf
    event_count: int = 0


def check_violation(state: DetectorState, y, cfg: TriggerConfig) -> bool:
    """True iff ||y - last_sent||^2 > delta * ||y||^2 (strict)."""
    y = np.asarray(y, dtype=float)
    e = y - state.last_sent_value
    return float(e @ e) > cfg.delta * float(y @ y)


def commit_transmission(state: DetectorState, y, t: float) -> DetectorState:
    """Record a successful transmission of ``y`` at time ``t``."""
    if t < state.last_sent_time:
        raise ValueError(
            f"commit at t={t} precedes previous commit at {state.last_sent_time}")
    return replace(state,
                   last_sent_value=np.asarray(y, dtype=float).copy(),
                   last_sent_time=t,
                   event_count=state.event_count + 1)


def trigger_inequality_check(times, outputs, held, delta: float,
                             attempt_times: Sequence[float]) -> Tuple[bool, List[int]]:
    """Check ||y - held||^2 <= delta*||y||^2 at every non-firing sample.

    ``attempt_times`` are the samples where the detector fired (whether the
    packet went through or not); those are the only samples allowed to
    violate.  Returns (ok, indices of unexpected violations).
    """
    times = np.asarray(times, dtype=float)
    y = np.asarray(outputs, dtype=float).reshape(len(times), -1)
    s = np.asarray(held, dtype=float).reshape(len(times), -1)
    firing = np.isin(np.round(times, 12),
                     np.round(np.asarray(attempt_times, dtype=float), 12))
    e2 = np.sum((y - s) ** 2, axis=1)
    y2 = np.sum(y ** 2, axis=1)
    bad = np.flatnonzero(~firing & (e2 > delta * y2 + 1e-12 * (1.0 + y2))).tolist()
    return (len(bad) == 0), bad


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the held-sample norm bound check."""

    ok: bool
    violations: Tuple[Tuple[float, float], ...]  # (time, ratio) pairs
    excluded_spans: Tuple[Tuple[float, float], ...]


def sampled_output_bound_check(times, outputs, held, delta: float,
                               dropout_spans: Sequence[Tuple[float, float]] = (),
                               ) -> BoundReport:
    """Verify ||held(t)|| <= (1 + sqrt(delta)) * ||y(t)|| between events.

    The bound is a consequence of the triggering rule and only holds while
    every fired packet got through; ``dropout_spans`` (from a dropped attempt
    until the next successful commit) are excluded from the check and
    reported back in the result.
    """
    times = np.asarray(times, dtype=float)
    y_norm = np.linalg.norm(np.asarray(outputs, dtype=float).reshape(len(times), -1), axis=1)
    s_norm = np.linalg.norm(np.asarray(held, dtype=float).reshape(len(times), -1), axis=1)
    # t lies in some span [a, b) iff the spans starting at or before t reach
    # past it: sorted starts plus a running max of ends, exact for unsorted
    # or overlapping spans (fmax skips a NaN end, as the comparison would)
    spans = np.asarray(dropout_spans, dtype=float).reshape(-1, 2)
    order = np.argsort(spans[:, 0], kind="stable")
    reach = np.concatenate(([-np.inf], np.fmax.accumulate(spans[order, 1])))
    started = np.searchsorted(spans[order, 0], times, side="right")
    factor = 1.0 + np.sqrt(delta)
    bad = np.flatnonzero(~(reach[started] > times)
                         & (s_norm > factor * y_norm + 1e-12 * (1.0 + y_norm)))
    with np.errstate(divide="ignore", over="ignore"):
        ratio = s_norm[bad] / y_norm[bad]   # inf where ||y|| is 0 or tiny
    return BoundReport(ok=(len(bad) == 0),
                       violations=tuple(zip(times[bad].tolist(), ratio.tolist())),
                       excluded_spans=tuple((float(a), float(b)) for a, b in dropout_spans))
