"""Exogenous signal generators for scenario inputs.

The piecewise-constant random signal draws each dwell segment from a
counter-based hash of (seed, segment index), so its value at any time is
reproducible without sequential generator state.  ``hash_uniform`` is the
one such draw, shared with the channels' dropout decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:                                    # CPython 3.12+
    from _sha2 import sha256 as _sha256
except ImportError:
    try:                                # CPython 3.10-3.11
        from _sha256 import sha256 as _sha256
    except ImportError:                 # a build without the built-in module
        from hashlib import sha256 as _sha256

__all__ = ["SignalSpec", "Signal", "hash_uniform"]


def hash_uniform(key: str) -> float:
    """Deterministic uniform draw in [0, 1): the first 8 bytes of the sha256
    of ``key``, read as a big-endian fraction.

    The digest comes from CPython's built-in sha256 module, which gives the
    same bytes as ``hashlib.sha256`` without mapping OpenSSL (about 3.6 MB of
    resident memory), so no subcommand loads OpenSSL.  ``hashlib`` is only the
    fallback for a Python built without that module.
    """
    digest = _sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


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


class Signal:
    """Callable t -> 1-vector with a known inter-switch slope bound."""

    def __init__(self, spec: SignalSpec):
        self.spec = spec

    def __call__(self, t) -> np.ndarray:
        """The value at a scalar time as a 1-vector, or at an array of N times
        as an (N, 1) column."""
        s = self.spec
        times = np.asarray(t, dtype=float)
        if s.kind == "zero":
            v = np.zeros(times.shape)
        elif s.kind == "constant":
            v = np.full(times.shape, s.value, dtype=float)
        elif s.kind == "piecewise_uniform":
            seg = np.floor(times / s.dwell + 1e-12).astype(np.int64)
            segs, inverse = np.unique(seg, return_inverse=True)
            u = np.array([hash_uniform(f"sig/{s.seed}/{k}") for k in segs.tolist()])
            v = s.lo + (s.hi - s.lo) * u[inverse]
        else:
            v = s.amplitude * np.sin(2.0 * np.pi * s.freq * times + s.phase)
        return v.reshape(-1, 1) if times.ndim else v.reshape(1)

    @property
    def slope_bound(self) -> float:
        """Bound on |d/dt| between switching instants (zero for held signals)."""
        s = self.spec
        if s.kind == "sine":
            return abs(s.amplitude) * 2.0 * np.pi * abs(s.freq)
        return 0.0

