"""One-directional links: bounded-rate time-varying delay, reproducible
packet dropouts, and zero-order-hold delivery, for every lane of a batch.

A ``Channel`` carries one link direction for all B lanes of a lockstep
batch.  The lanes share the delay profile; each has its own dropout model,
attempt counter, run of consecutive drops, packets in flight and held value,
so a lane behaves exactly as a one-lane channel with its model would.

A delay profile with slope magnitude below 1 makes the arrival map
t -> t + T(t) strictly increasing, so packets can never overtake each other:
a lane's packets land in send order, and a plain FIFO per lane delivers them
exactly (equal send times give equal arrivals, which land in send order).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .signals import hash_uniform

__all__ = [
    "DelayProfile",
    "DropoutModel",
    "Channel",
    "rate_bound_check",
]


@dataclass(frozen=True)
class DelayProfile:
    """Time-varying delay T(t) with initial value t0 and rate bound d in [0, 1).

    Forms: "constant" (T = t0), "affine" (T = t0 + d*t), "table" (linear
    interpolation of (time, delay) breakpoints, held flat outside the table).
    """

    t0: float = 0.0
    d: float = 0.0
    form: str = "affine"
    table: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.t0 < 0:
            raise ValueError("initial delay must be nonnegative")
        if not (0.0 <= self.d < 1.0):
            raise ValueError(f"delay rate bound must lie in [0, 1), got {self.d}")
        if self.form not in ("constant", "affine", "table"):
            raise ValueError(f"unknown delay form {self.form!r}")
        if self.form == "table":
            if len(self.table) < 2:
                raise ValueError("table form needs at least two breakpoints")
            ts = [p[0] for p in self.table]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError("table breakpoints must be strictly increasing")
            if any(p[1] < 0 for p in self.table):
                raise ValueError("table delays must be nonnegative")

    def delay(self, t):
        """T at one time (a float) or at an ndarray of times, elementwise."""
        if self.form == "table":
            ts, vs = np.array(self.table).T
            return np.interp(t, ts, vs)
        return self.t0 + (self.d if self.form == "affine" else 0.0) * t

    def arrival(self, t):
        """t + T(t) at one time or at an ndarray of times, elementwise."""
        return t + self.delay(t)


def rate_bound_check(profile: DelayProfile, grid: Sequence[float]) -> bool:
    """True iff finite-difference slopes of T over the grid stay within the
    declared rate bound, to 1e-9 (grid must be sorted)."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        return True
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    values = profile.delay(grid)
    slopes = np.abs(np.diff(values) / np.diff(grid))
    return bool(np.all(slopes <= profile.d + 1e-9))


@dataclass(frozen=True)
class DropoutModel:
    """Dropout decision per send attempt.

    Kinds: "none"; "bernoulli" (drop with probability p, reproducible under
    the seed; ``max_consecutive`` forces a delivery after that many drops in
    a row); "pattern" (1 = deliver / 0 = drop, indexed by attempt number;
    attempts beyond the pattern's end are delivered).
    """

    kind: str = "none"
    p: float = 0.0
    seed: int = 0
    pattern: Tuple[int, ...] = ()
    max_consecutive: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("none", "bernoulli", "pattern"):
            raise ValueError(f"unknown dropout kind {self.kind!r}")
        if self.kind == "bernoulli" and not (0.0 <= self.p <= 1.0):
            raise ValueError("dropout probability must lie in [0, 1]")
        if self.max_consecutive is not None and self.max_consecutive < 0:
            raise ValueError("max_consecutive must be nonnegative")

    def dropped(self, index: int, channel_id: str, consecutive: int) -> bool:
        if self.kind == "none":
            return False
        if self.max_consecutive is not None and consecutive >= self.max_consecutive:
            return False
        if self.kind == "pattern":
            return index < len(self.pattern) and self.pattern[index] == 0
        # keyed by (seed, channel, attempt), so a stream is reproducible no
        # matter how sends interleave across channels
        return hash_uniform(f"{self.seed}/{channel_id}/{index}") < self.p


class Channel:
    """One link direction for B lanes: a shared delay profile and, per lane,
    a dropout model and a zero-order hold.

    ``dropouts`` holds one model per lane.  ``hold`` is the held value of
    every lane as a list of rows, one per port element: Python floats for a
    single lane, ``(B,)`` arrays otherwise, lane i in element i of each row.
    ``send`` makes one attempt on one lane and returns the packet's arrival
    time, NaN when it is dropped.  ``poll`` delivers every packet that has
    arrived by ``t`` into its lane's hold and returns ``hold``; a delivery
    replaces the list (a single lane's hold is the delivered payload
    itself), so a hold once returned never changes.  Each lane counts its
    own attempts, so its dropout draws are keyed by its own model's seed and
    attempt counter.
    """

    def __init__(self, delay: DelayProfile, dropouts: Sequence[DropoutModel],
                 channel_id: str, hold: list):
        if delay.form == "table":
            # slopes between breakpoints are what can break FIFO delivery
            grid = [p[0] for p in delay.table]
            if not rate_bound_check(delay, grid):
                raise ValueError(
                    f"delay table of channel {channel_id!r} violates its "
                    f"declared rate bound {delay.d}")
        self.delay = delay
        self.dropouts = list(dropouts)
        if not self.dropouts:
            raise ValueError("a channel needs at least one lane")
        self.channel_id = channel_id
        self.hold = hold
        lanes = len(self.dropouts)
        self.attempts = [0] * lanes
        self.consecutive_drops = [0] * lanes
        self._last_send = [-math.inf] * lanes
        self._in_flight = [deque() for _ in range(lanes)]   # (arrival, payload)
        self._heads = [math.inf] * lanes         # each lane's next arrival
        self._soonest = math.inf                 # and the earliest of them

    def send(self, t: float, payload, force_success: bool = False,
             lane: int = 0) -> float:
        """One attempt to send ``payload``, a list of one float per port
        element, on ``lane`` at time ``t``: its arrival time, NaN when it is
        dropped.  The channel keeps the payload it is given, so the caller
        must not change it afterwards."""
        if t < self._last_send[lane]:
            raise ValueError(
                f"non-monotone send time {t} after {self._last_send[lane]} "
                f"on channel {self.channel_id!r}")
        self._last_send[lane] = t
        index = self.attempts[lane]
        self.attempts[lane] = index + 1
        if (not force_success) and self.dropouts[lane].dropped(
                index, self.channel_id, self.consecutive_drops[lane]):
            self.consecutive_drops[lane] += 1
            return math.nan
        self.consecutive_drops[lane] = 0
        arrival = self.delay.arrival(t)
        fifo = self._in_flight[lane]
        if not fifo:
            self._heads[lane] = arrival
            self._soonest = min(self._soonest, arrival)
        fifo.append((arrival, payload))
        return arrival

    def poll(self, t: float) -> list:
        """The hold after delivering every packet that arrived by ``t``."""
        if t >= self._soonest:
            heads = self._heads
            one = len(heads) == 1
            hold = self.hold if one else [row.copy() for row in self.hold]
            for lane, head in enumerate(heads):
                if head <= t:
                    fifo = self._in_flight[lane]
                    while fifo and fifo[0][0] <= t:
                        payload = fifo.popleft()[1]
                    heads[lane] = fifo[0][0] if fifo else math.inf
                    if one:
                        hold = payload
                    else:
                        for row, v in zip(hold, payload):
                            row[lane] = v
            self._soonest = min(heads)
            self.hold = hold
        return self.hold
