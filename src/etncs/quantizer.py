"""Static symmetric quantizers with sector bounds.

All quantizers here are odd (q(-v) = -q(v)), memoryless and act componentwise
on vectors.  A quantizer with sector (a, b) satisfies
a*v'v <= v'q(v) <= b*v'v on its declared operating range; uniform mid-tread
with step D has sector (0, 2): the worst ratio 2 is approached just above the
dead-zone edge |v| = D/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["QuantizerSpec", "SectorViolation", "quantize", "sector_certificate"]

KINDS = ("identity", "uniform-mid-tread", "uniform-mid-riser", "logarithmic")


class SectorViolation(AssertionError):
    """Empirical sector escaped the declared (a, b) bounds."""


@dataclass(frozen=True)
class QuantizerSpec:
    """Configuration of one quantization block.

    ``step`` is the uniform step size; ``density`` the logarithmic level ratio
    in (0, 1).  ``sector`` declares the (a, b) bounds the block is trusted to
    satisfy.  Logarithmic levels are {+-density**j * u0, j integer}, cut off
    after ``n_levels`` levels below u0 (smaller magnitudes quantize to zero,
    which is what makes a = 0).
    """

    kind: str
    step: float = 0.0
    density: float = 0.0
    sector: Tuple[float, float] = (0.0, 2.0)
    u0: float = 1.0
    n_levels: int = 40

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown quantizer kind {self.kind!r}; expected one of {KINDS}")
        if self.kind in ("uniform-mid-tread", "uniform-mid-riser") and self.step <= 0:
            raise ValueError("uniform quantizers need step > 0")
        if self.kind == "logarithmic":
            if not (0.0 < self.density < 1.0):
                raise ValueError("logarithmic quantizer needs density in (0, 1)")
            if self.u0 <= 0:
                raise ValueError("logarithmic quantizer needs u0 > 0")
        a, b = self.sector
        if not (0.0 <= a <= b < np.inf):
            raise ValueError(f"sector must satisfy 0 <= a <= b < inf, got {self.sector}")


def _mid_tread(v: np.ndarray, step: float) -> np.ndarray:
    # round-half-away-from-zero keeps odd symmetry at the tie points
    return np.sign(v) * np.floor(np.abs(v) / step + 0.5) * step


def _mid_riser(v: np.ndarray, step: float) -> np.ndarray:
    # symmetrized variant: exact zero maps to zero, otherwise no dead zone
    out = np.sign(v) * step * (np.floor(np.abs(v) / step) + 0.5)
    return np.where(v == 0.0, 0.0, out)


def _logarithmic(v: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    rho = spec.density
    delta = (1.0 - rho) / (1.0 + rho)
    mag = np.abs(v)
    out = np.zeros_like(mag)
    scaled = (1.0 + delta) * mag / spec.u0
    # a magnitude whose scaled value underflows to 0 has log -inf, so j = inf
    # and level 0: below the cutoff, it quantizes to 0 like v = 0 does
    nz = scaled > 0
    if np.any(nz):
        # cell for level u0*rho^j is [level/(1+delta), level/(1-delta))
        j = np.ceil(np.log(scaled[nz]) / np.log(rho))
        level = spec.u0 * rho ** j
        # float-safety: nudge into the owning cell if we landed one off
        too_low = level <= (1.0 - delta) * mag[nz]
        level[too_low] /= rho
        too_high = level > (1.0 + delta) * mag[nz]
        level[too_high] *= rho
        out[nz] = level
    cutoff = spec.u0 * spec.density ** spec.n_levels
    out = np.where(out < cutoff, 0.0, out)
    return np.sign(v) * out


def quantize(spec: QuantizerSpec, v) -> np.ndarray:
    """Apply the quantizer componentwise; total on all finite inputs."""
    v = np.asarray(v, dtype=float)
    if spec.kind == "identity":
        return v.copy()
    if spec.kind == "uniform-mid-tread":
        return _mid_tread(v, spec.step)
    if spec.kind == "uniform-mid-riser":
        return _mid_riser(v, spec.step)
    return _logarithmic(v, spec)


def sector_certificate(spec: QuantizerSpec, samples) -> Tuple[float, float]:
    """Tightest empirical sector over the given samples.

    Returns (a_emp, b_emp) = min / max of v*q(v)/v^2 over all nonzero
    components, and raises SectorViolation if the declared sector does not
    contain it.
    """
    flat = np.concatenate([np.asarray(s, dtype=float).ravel() for s in np.atleast_1d(samples)])
    nz = flat[flat != 0.0]
    if nz.size == 0:
        raise ValueError("need at least one nonzero sample")
    ratios = nz * quantize(spec, nz) / (nz * nz)
    a_emp, b_emp = float(np.min(ratios)), float(np.max(ratios))
    a, b = spec.sector
    if a_emp < a or b_emp > b:
        raise SectorViolation(
            f"empirical sector ({a_emp}, {b_emp}) escapes declared ({a}, {b})")
    return a_emp, b_emp
