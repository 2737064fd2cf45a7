"""Static symmetric quantizers with sector bounds.

All quantizers here are odd (q(-v) = -q(v)), memoryless and act componentwise
on vectors.  A quantizer with sector (a, b) satisfies
a*v'v <= v'q(v) <= b*v'v on its declared operating range; uniform mid-tread
with step D has sector (0, 2): the worst ratio 2 is approached just above the
dead-zone edge |v| = D/2.  Quantizing one sample's list of floats
uniformly loads no numpy: the functions that work on arrays import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = ["QuantizerSpec", "SectorViolation", "quantize", "sector_certificate"]

KINDS = ("identity", "uniform-mid-tread", "logarithmic")


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
        if self.kind == "uniform-mid-tread" and self.step <= 0:
            raise ValueError("uniform quantizers need step > 0")
        if self.kind == "logarithmic":
            if not (0.0 < self.density < 1.0):
                raise ValueError("logarithmic quantizer needs density in (0, 1)")
            if self.u0 <= 0:
                raise ValueError("logarithmic quantizer needs u0 > 0")
        if self.n_levels < 0:
            raise ValueError(f"n_levels must be >= 0, got {self.n_levels}")
        a, b = self.sector
        if not (0.0 <= a <= b < math.inf):
            raise ValueError(f"sector must satisfy 0 <= a <= b < inf, got {self.sector}")


def _mid_tread(v, step: float):
    """sign(v) * floor(|v|/step + 1/2) * step: round-half-away-from-zero
    keeps odd symmetry at the tie points.

    A list of floats (one sample as a single run carries it) is quantized on
    Python floats into a list, which saves numpy's per-call cost and gives
    its bits: binary64 divide, add and multiply round correctly in both, the
    order of operations is the same, and the sign follows np.sign (1, -1, or
    0 for either zero).  Any element whose |v|/step + 1/2 is not finite (NaN,
    an infinity, or an overflowing quotient) sends the sample to numpy."""
    if type(v) is list:
        out = []
        for vi in v:
            q = abs(vi) / step + 0.5
            if not q < math.inf:
                break
            out.append((1.0 if vi > 0.0 else -1.0 if vi < 0.0 else 0.0) * math.floor(q) * step)
        else:
            return out
        import numpy as np

        return _mid_tread(np.array(v, dtype=float), step).tolist()
    import numpy as np

    return np.sign(v) * np.floor(np.abs(v) / step + 0.5) * step


def _logarithmic(v: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    import numpy as np

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


def quantize(spec: QuantizerSpec, v):
    """Apply the quantizer componentwise; total on all finite inputs.

    A list is a sample as the executor carries it, a list of rows: a single
    run's Python floats, which gives a list of floats, or a batch's ``(B,)``
    arrays, which gives a list of arrays, one row at a time; a list whose
    first row is not a Python number is taken for the second.  Anything else
    is read with ``np.asarray`` and gives a float ndarray.  All give the
    same bits, since every kind acts on each element alone."""
    if type(v) is list:
        if v and not isinstance(v[0], (float, int)):
            return [_quantize_array(spec, row) for row in v]
        if spec.kind == "uniform-mid-tread":
            return _mid_tread(v, spec.step)
        import numpy as np

        return _quantize_array(spec, np.array(v, dtype=float)).tolist()
    import numpy as np

    return _quantize_array(spec, np.asarray(v, dtype=float))


def _quantize_array(spec: QuantizerSpec, v: np.ndarray) -> np.ndarray:
    if spec.kind == "identity":
        return v.copy()
    if spec.kind == "uniform-mid-tread":
        return _mid_tread(v, spec.step)
    return _logarithmic(v, spec)


def sector_certificate(spec: QuantizerSpec, samples) -> Tuple[float, float]:
    """Tightest empirical sector over the given samples.

    Returns (a_emp, b_emp) = min / max of v*q(v)/v^2 over all nonzero
    components, and raises SectorViolation if the declared sector does not
    contain it.
    """
    import numpy as np

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
