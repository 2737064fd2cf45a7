"""One-directional communication channels: bounded-rate time-varying delay,
reproducible packet dropouts, and zero-order-hold delivery.

A delay profile with slope magnitude below 1 makes the arrival map
t -> t + T(t) strictly increasing, so packets can never overtake each other
and the hold sees them in send order.
"""

from __future__ import annotations

import hashlib
from bisect import insort
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DelayProfile",
    "DropoutModel",
    "PacketRecord",
    "HoldState",
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

    def delay(self, t: float) -> float:
        if self.form == "constant":
            return self.t0
        if self.form == "affine":
            return self.t0 + self.d * t
        ts = np.array([p[0] for p in self.table])
        vs = np.array([p[1] for p in self.table])
        return float(np.interp(t, ts, vs))

    def arrival(self, t: float) -> float:
        return t + self.delay(t)


def rate_bound_check(profile: DelayProfile, grid: Sequence[float],
                     tol: float = 1e-9) -> bool:
    """True iff finite-difference slopes of T over the grid stay within the
    declared rate bound (grid must be sorted)."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        return True
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    values = np.array([profile.delay(t) for t in grid])
    slopes = np.abs(np.diff(values) / np.diff(grid))
    return bool(np.all(slopes <= profile.d + tol))


def _hash_uniform(seed: int, channel_id: str, index: int) -> float:
    """Deterministic uniform draw in [0, 1) keyed by (seed, channel, packet).

    Counter-based so dropout streams are reproducible no matter how sends
    interleave across channels.
    """
    digest = hashlib.sha256(f"{seed}/{channel_id}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


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
        return _hash_uniform(self.seed, channel_id, index) < self.p


@dataclass(frozen=True)
class PacketRecord:
    """Outcome of one send attempt."""

    index: int
    send_time: float
    payload: np.ndarray
    arrival_time: float  # nan when dropped
    dropped: bool


@dataclass
class HoldState:
    """Zero-order hold: constant between arrivals."""

    current_value: np.ndarray


class Channel:
    """Single-owner unidirectional channel with delay, dropouts and a hold.

    ``send`` schedules (or drops) a packet; ``poll`` delivers everything that
    has arrived by the given time into the hold and returns the held value.
    """

    def __init__(self, delay: DelayProfile, dropout: DropoutModel,
                 channel_id: str, dim: int = 1,
                 initial_hold: Optional[np.ndarray] = None):
        if delay.form == "table":
            # slopes between breakpoints are what can break FIFO delivery
            grid = [p[0] for p in delay.table]
            if not rate_bound_check(delay, grid):
                raise ValueError(
                    f"delay table of channel {channel_id!r} violates its "
                    f"declared rate bound {delay.d}")
        self.delay = delay
        self.dropout = dropout
        self.channel_id = channel_id
        self.dim = dim
        hold0 = np.zeros(dim) if initial_hold is None else np.asarray(initial_hold, float).copy()
        if hold0.shape != (dim,):
            raise ValueError("initial hold value has the wrong dimension")
        self.hold = HoldState(current_value=hold0)
        self.records: List[PacketRecord] = []
        self.consecutive_drops = 0
        self._in_flight: List[Tuple[float, int, np.ndarray]] = []
        self._last_send_time = -np.inf
        self._seq = 0

    @property
    def attempt_count(self) -> int:
        return len(self.records)

    def send(self, t: float, payload, force_success: bool = False) -> PacketRecord:
        if t < self._last_send_time:
            raise ValueError(
                f"non-monotone send time {t} after {self._last_send_time} "
                f"on channel {self.channel_id!r}")
        self._last_send_time = t
        payload = np.asarray(payload, dtype=float).copy()
        index = len(self.records)
        dropped = (not force_success) and self.dropout.dropped(
            index, self.channel_id, self.consecutive_drops)
        if dropped:
            self.consecutive_drops += 1
            record = PacketRecord(index, t, payload, float("nan"), True)
        else:
            self.consecutive_drops = 0
            arrival = self.delay.arrival(t)
            insort(self._in_flight, (arrival, self._seq, payload))
            self._seq += 1
            record = PacketRecord(index, t, payload, arrival, False)
        self.records.append(record)
        return record

    def poll(self, t: float) -> np.ndarray:
        while self._in_flight and self._in_flight[0][0] <= t:
            _, _, payload = self._in_flight.pop(0)
            self.hold.current_value = payload
        return self.hold.current_value.copy()
