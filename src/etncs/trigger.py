"""Relative-error event detectors.

A detector fires when the squared deviation of the current output from the
last transmitted sample exceeds delta times the squared output norm.  The
held sample changes only on a *successful* transmission; a dropped packet
leaves the error in place so the detector re-fires at the next violating
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "TriggerConfig",
    "BoundReport",
    "check_violation",
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


def check_violation(held, y, cfg: TriggerConfig):
    """True iff ||y - held||^2 > delta * ||y||^2 (strict), where ``held`` is
    the last successfully transmitted sample.  ``held`` and ``y`` are
    sequences of m rows: Python floats for one sample, which gives a bool,
    or B lanes' ``(B,)`` arrays, which give one verdict per lane.

    Both sums are a left fold over the rows from the first square, so a
    lane of a batch gets the bits of its one-sample test at any m: binary64
    arithmetic rounds correctly in both forms.  (numpy would sum a 1-D
    array of 8 or more elements pairwise.)
    """
    pairs = zip(y, held)
    yi, si = next(pairs)
    e = yi - si
    e2, y2 = e * e, yi * yi
    for yi, si in pairs:
        e = yi - si
        e2 += e * e
        y2 += yi * yi
    return e2 > cfg.delta * y2


def trigger_inequality_check(times, outputs, held, delta: float,
                             firing_rows: Sequence[int]) -> Tuple[bool, List[int]]:
    """Check ||y - held||^2 <= delta*||y||^2 at every non-firing sample.

    ``firing_rows`` are the ``sample_index`` values of the detector's
    attempts (whether the packet went through or not); those rows are the
    only ones allowed to violate.  An index outside ``[0, rows)`` names no
    row and is ignored.  Returns (ok, indices of unexpected violations).
    """
    n = len(times)
    y = np.asarray(outputs, dtype=float).reshape(n, -1)
    s = np.asarray(held, dtype=float).reshape(n, -1)
    rows = np.asarray(firing_rows, dtype=np.int64)
    firing = np.zeros(n, dtype=bool)
    firing[rows[(rows >= 0) & (rows < n)]] = True
    # in-place steps keep two row-length temporaries alive at a time; each
    # gives the bits of the plain expression
    e = y - s
    e *= e
    e2 = np.add.reduce(e, axis=1)
    del e
    y2 = np.add.reduce(y * y, axis=1)
    limit = 1.0 + y2
    limit *= 1e-12
    limit += delta * y2
    bad = np.flatnonzero(~firing & (e2 > limit)).tolist()
    return (len(bad) == 0), bad


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the held-sample norm bound check."""

    ok: bool
    violations: Tuple[Tuple[float, float], ...]  # (time, ratio) pairs
    excluded_spans: int   # the dropout spans left out of the check


def sampled_output_bound_check(
        times, outputs, held, delta: float,
        dropout_spans: Tuple[Sequence[int], Sequence[int]] = ((), ())) -> BoundReport:
    """Verify ||held(t)|| <= (1 + sqrt(delta)) * ||y(t)|| between events.

    The bound is a consequence of the triggering rule and only holds while
    every fired packet got through; ``dropout_spans``, the (starts, ends)
    rows of the half-open spans from a dropped attempt until the next
    successful commit, are excluded from the check and counted in the result.
    """
    n = len(times)
    times = np.asarray(times, dtype=float)
    y_norm = np.linalg.norm(np.asarray(outputs, dtype=float).reshape(n, -1), axis=1)
    s_norm = np.linalg.norm(np.asarray(held, dtype=float).reshape(n, -1), axis=1)
    # the spans open at row k are those starting at or before k less those
    # ending there or before, exact for unsorted, overlapping or reversed spans
    starts, ends = (np.clip(np.asarray(a, dtype=np.int64), 0, n) for a in dropout_spans)
    keep = starts < ends
    edges = np.bincount(starts[keep], minlength=n + 1) - np.bincount(ends[keep], minlength=n + 1)
    checked = np.cumsum(edges[:n]) == 0
    # factor * ||y|| + 1e-12 * (1 + ||y||), built in place
    limit = 1.0 + y_norm
    limit *= 1e-12
    limit += (1.0 + np.sqrt(delta)) * y_norm
    bad = np.flatnonzero(checked & (s_norm > limit))
    with np.errstate(divide="ignore", over="ignore"):
        ratio = s_norm[bad] / y_norm[bad]   # inf where ||y|| is 0 or tiny
    return BoundReport(ok=(len(bad) == 0),
                       violations=tuple(zip(times[bad].tolist(), ratio.tolist())),
                       excluded_spans=len(starts))
