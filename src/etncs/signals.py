"""Exogenous signal generators for scenario inputs.

The piecewise-constant random signal draws each dwell segment from a
counter-based hash of (seed, segment index), so its value at any time is
reproducible without sequential generator state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["SignalSpec", "build_signal"]


@dataclass(frozen=True)
class SignalSpec:
    """Declarative description of a scalar signal.

    Kinds: "zero"; "constant" (value); "piecewise_uniform" (uniform on
    [lo, hi], redrawn every ``dwell`` seconds, seeded); "sine"
    (amplitude * sin(2*pi*freq*t + phase)).
    """

    kind: str = "zero"
    value: float = 0.0
    lo: float = 0.0
    hi: float = 1.0
    dwell: float = 0.1
    seed: int = 0
    amplitude: float = 1.0
    freq: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "piecewise_uniform", "sine"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.kind == "piecewise_uniform":
            if self.dwell <= 0:
                raise ValueError("dwell must be positive")
            if self.hi < self.lo:
                raise ValueError("need lo <= hi")


def _segment_uniform(seed: int, segment: int) -> float:
    digest = hashlib.sha256(f"sig/{seed}/{segment}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class Signal:
    """Callable t -> 1-vector with a known inter-switch slope bound."""

    def __init__(self, spec: SignalSpec):
        self.spec = spec

    def __call__(self, t: float) -> np.ndarray:
        s = self.spec
        if s.kind == "zero":
            return np.zeros(1)
        if s.kind == "constant":
            return np.array([s.value])
        if s.kind == "piecewise_uniform":
            seg = int(np.floor(t / s.dwell + 1e-12))
            u = _segment_uniform(s.seed, seg)
            return np.array([s.lo + (s.hi - s.lo) * u])
        return np.array([s.amplitude * np.sin(2.0 * np.pi * s.freq * t + s.phase)])

    @property
    def slope_bound(self) -> float:
        """Bound on |d/dt| between switching instants (zero for held signals)."""
        s = self.spec
        if s.kind == "sine":
            return abs(s.amplitude) * 2.0 * np.pi * abs(s.freq)
        return 0.0


def build_signal(spec: SignalSpec) -> Signal:
    return Signal(spec)
