"""Continuous-time system models, fixed-step integration, and trajectory-level
energy checks (dissipativity, supply rates, empirical L2 gains).

The executor carries states, inputs and outputs as lists of rows: Python
floats for a single run, ``(B,)`` arrays for B lockstep lanes.  A model's
``dynamics`` and ``output`` work on such rows (see SystemModel).  All
functions here are pure with respect to their inputs and safe to call from
parallel scenario runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "PassivityIndices",
    "SystemModel",
    "IndexMarginReport",
    "power",
    "rk4_step",
    "supply_rate",
    "dissipativity_residuals",
    "energy_terms",
    "l2_gain_estimate",
    "verify_lti_indices",
    "default_frequency_grid",
]


@dataclass(frozen=True)
class PassivityIndices:
    """Input (nu) / output (rho) passivity index pair.

    The admissible domain is ``rho * nu < 1/4``, or ``rho * nu == 1/4`` with
    ``rho >= 0``; anything else has no realizable input-output cone and is
    rejected at construction.
    """

    nu: float
    rho: float

    def __post_init__(self):
        p = self.rho * self.nu
        if not (p < 0.25 or (p == 0.25 and self.rho >= 0.0)):
            raise ValueError(
                f"index pair (nu={self.nu}, rho={self.rho}) outside the "
                f"admissible domain: rho*nu = {p} must be < 1/4 "
                f"(or == 1/4 with rho >= 0)"
            )


DynamicsFn = Callable[[Sequence, Sequence, float], Sequence]
OutputFn = Callable[[Sequence, Sequence, float], Sequence]
StorageFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SystemModel:
    """A continuous-time square system with declared passivity indices.

    dynamics(x, u, t) -> dx/dt and output(x, u, t) -> y.  ``storage`` is an
    optional nonnegative energy certificate used for trajectory spot checks;
    declared indices are trusted metadata otherwise.

    ``dynamics`` and ``output`` work on rows: ``x`` and ``u`` are sequences
    of ``state_dim`` and ``input_dim`` rows, and ``dynamics`` returns a
    sequence of ``state_dim`` rows, ``output`` one of ``output_dim`` rows (a
    tuple, a list or an ndarray).  A single run calls both on one sample,
    where each row is a Python float (``x`` and ``u`` are lists); a sweep
    calls them on B lockstep lanes, where ``x`` and ``u`` are lists of
    ``(B,)`` arrays, row i holding every lane's component i, with one scalar
    ``t``; the dissipation check calls ``output`` on the N samples of a
    trajectory as columns, with ``t`` of ``(N,)``.  So write them with row
    indexing (``x[i]``) and arithmetic that works on both, and take powers
    with ``core.power``, which gives the same bits on a float and on each
    element of an array: each element must come out with the bits of a
    one-sample call.  On floats a division by
    zero raises ZeroDivisionError where numpy returns inf or NaN.  The
    executor uses what they return without a copy, so it must not be a
    buffer the model reuses.

    ``storage`` acts columnwise on an array ``x`` of one sample
    ``(state_dim,)`` or of N samples ``(state_dim, N)``.  A step that leaves
    a lane's state non-finite or past the scenario's divergence limit retires
    that lane at that row (``sim.DivergenceError``, exit code 3 from the
    command line).
    """

    state_dim: int
    input_dim: int
    output_dim: int
    dynamics: DynamicsFn
    output: OutputFn
    indices: PassivityIndices
    storage: Optional[StorageFn] = None
    name: str = ""

    def __post_init__(self):
        if self.state_dim <= 0 or self.input_dim <= 0 or self.output_dim <= 0:
            raise ValueError("system dimensions must be positive")
        if self.output_dim != self.input_dim:
            raise ValueError(
                "only square systems are supported "
                f"(input_dim={self.input_dim}, output_dim={self.output_dim})"
            )


def power(v, p):
    """``v`` to the power ``p`` with the bits of ``np.float_power``.  A
    Python float takes ``math.pow``, which calls the same C ``pow()``
    without numpy's per-call cost; where it raises (an overflow, or a NaN
    from numbers) or gives NaN (keeping a NaN ``v``'s sign and payload,
    which numpy does not), numpy's result is returned.  Anything else goes
    to ``np.float_power``."""
    if type(v) is float:
        try:
            r = math.pow(v, p)
        except (OverflowError, ValueError):
            return np.float_power(v, p)
        if r == r:
            return r
    return np.float_power(v, p)


def rk4_step(model: SystemModel, state, u, t: float, h: float) -> list:
    """One classical 4th-order Runge-Kutta step with the input held constant.

    ``state`` and ``u`` are sequences of ``state_dim`` and ``input_dim``
    rows, and the new state is a list of ``state_dim`` rows.  A row is a
    Python float for one sample, as a single run carries it, or a ``(B,)``
    array, row i of B lockstep lanes' ``(state_dim, B)`` states; every lane
    takes the same ``t`` and ``h``.  Nothing is checked here: the caller
    passes the model's dimensions and ``h > 0`` (ScenarioConfig checks them
    once per run) and judges the new state, which is not finite if any stage
    derivative was not (each enters it with a positive weight).

    Each stage sum is one expression per row, so a lane of a batch gets the
    bits of its one-sample step: binary64 add and multiply round correctly
    in CPython as in numpy, numpy does not contract these ufuncs into a
    fused multiply-add, and both forms keep one order of operations.
    """
    f = model.dynamics
    half = 0.5 * h
    a = f(state, u, t)
    b = f([xi + half * ai for xi, ai in zip(state, a)], u, t + half)
    c = f([xi + half * bi for xi, bi in zip(state, b)], u, t + half)
    d = f([xi + h * ci for xi, ci in zip(state, c)], u, t + h)
    sixth = h / 6.0
    return [xi + sixth * (ai + 2.0 * bi + 2.0 * ci + di)
            for xi, ai, bi, ci, di in zip(state, a, b, c, d)]


def supply_rate(u: np.ndarray, y: np.ndarray, idx: PassivityIndices):
    """Energy inflow u'y - rho*y'y - nu*u'u per sample (per column of 2-D arrays)."""
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.shape != y.shape:
        raise ValueError(f"dimension mismatch: u{u.shape} vs y{y.shape}")
    rate = u * y   # in place, with the bits of the plain expression
    rate -= idx.rho * (y * y)
    rate -= idx.nu * (u * u)
    return np.add.reduce(rate, axis=0)


def dissipativity_residuals(model: SystemModel, times: np.ndarray,
                            states: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Per-interval residuals of the integral dissipation inequality.

    ``states`` ``(N, state_dim)`` and ``inputs`` ``(N, input_dim)`` are
    sampled at ``times`` ``(N,)``, with ``inputs[k]`` held on
    ``[times[k], times[k+1])``.  For each consecutive sample pair returns
    ``V(x_{k+1}) - V(x_k) - trapz(supply rate)`` with the interval's held
    input applied at both quadrature endpoints (outputs are evaluated from
    the states, so feedthrough systems are integrated consistently).
    The trajectory is dissipative w.r.t. the declared indices iff every
    residual is below the quadrature tolerance.
    """
    if model.storage is None:
        raise ValueError("model has no storage function to check against")
    x = states.T
    v = np.asarray(model.storage(x), dtype=float)
    if np.any(v < 0):
        raise ValueError(
            f"storage function is negative at sample {int(np.argmax(v < 0))}")
    u = inputs[:-1].T
    # (v[1:] - v[:-1]) - 0.5 * diff(times) * (w0 + w1), built in place
    trapz = supply_rate(u, model.output(x[:, :-1], u, times[:-1]), model.indices)
    trapz += supply_rate(u, model.output(x[:, 1:], u, times[1:]), model.indices)
    step = np.diff(times)
    step *= 0.5
    trapz *= step
    res = v[1:] - v[:-1]
    res -= trapz
    return res


def energy_terms(traj: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The trapezoid terms of int ||traj||^2 dt, one per step between the
    samples of ``traj`` ``(N, dim)`` at ``times`` ``(N,)``.  Each term needs
    only its step's two rows, so a trajectory read in blocks that overlap by
    one row gives the terms of the whole."""
    values = np.sum(traj * traj, axis=1)
    return 0.5 * (values[1:] + values[:-1]) * np.diff(times)


def l2_gain_estimate(in_terms: np.ndarray, out_terms: np.ndarray) -> float:
    """Empirical gain sqrt(int ||y||^2 / int ||w||^2) by trapezoidal quadrature.

    The two arguments are the ``energy_terms`` of the input and of the
    output, as a blockwise pass keeps them; each integral is their one
    pairwise sum.  This is a lower bound on the true L2 gain of the map
    w -> y.
    """
    e_in = float(np.sum(in_terms))
    if e_in <= 0.0:
        raise ValueError("input signal has zero energy; gain is undefined")
    e_out = float(np.sum(out_terms))
    return float(np.sqrt(e_out / e_in))


@dataclass(frozen=True)
class IndexMarginReport:
    """Result of a frequency-domain index check on a SISO transfer function."""

    min_residual: float
    worst_frequency: float
    verified: bool
    residuals: np.ndarray = field(repr=False)


def default_frequency_grid(lo: float = 1e-3, hi: float = 1e4,
                           n: int = 2000) -> np.ndarray:
    """Logarithmic frequency grid (rad/s) used for LTI index verification."""
    return np.logspace(np.log10(lo), np.log10(hi), n)


def verify_lti_indices(A, B, C, D, candidate: PassivityIndices,
                       freq_grid: np.ndarray) -> IndexMarginReport:
    """Check a candidate index pair against a SISO frequency response.

    For each grid frequency computes ``Re G(jw) - nu - rho*|G(jw)|^2`` and
    reports the signed minimum; a nonnegative minimum verifies the pair on
    the grid.  Raises if the system has a pole on the imaginary axis inside
    the swept range (the response is unbounded there).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        A = A.reshape(0, 0)
    n = A.shape[0]
    if n:
        B = np.asarray(B, dtype=float).reshape(n, -1)
        C = np.asarray(C, dtype=float).reshape(-1, n)
    else:  # static gain: G(jw) = D
        B = np.zeros((0, 1))
        C = np.zeros((1, 0))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    if B.shape[1] != 1 or C.shape[0] != 1 or D.shape != (1, 1):
        raise ValueError("only single-input single-output systems are supported")
    freq_grid = np.asarray(freq_grid, dtype=float)
    if freq_grid.size == 0:
        raise ValueError("frequency grid must be nonempty")

    if n:
        eig = np.linalg.eigvals(A)
        scale = np.maximum(np.abs(eig), 1.0)
        on_axis = np.abs(eig.real) < 1e-9 * scale
        in_range = np.abs(eig.imag) <= np.max(freq_grid) * (1 + 1e-9)
        if np.any(on_axis & in_range):
            raise ValueError(
                "system has a pole on the imaginary axis within the grid; "
                "the frequency condition is ill-defined there")

    residuals = np.empty(len(freq_grid))
    eye = np.eye(n)
    for i, w in enumerate(freq_grid):
        if n:
            g = complex((C @ np.linalg.solve(1j * w * eye - A, B))[0, 0]) + D[0, 0]
        else:
            g = complex(D[0, 0])
        residuals[i] = g.real - candidate.nu - candidate.rho * abs(g) ** 2
    i_min = int(np.argmin(residuals))
    return IndexMarginReport(
        min_residual=float(residuals[i_min]),
        worst_frequency=float(freq_grid[i_min]),
        verified=bool(residuals[i_min] >= 0.0),
        residuals=residuals,
    )
