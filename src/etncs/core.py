"""Continuous-time system models, fixed-step integration, and trajectory-level
energy checks (dissipativity, supply rates, empirical L2 gains).

The executor carries states, inputs and outputs as lists of rows: Python
floats for a single run, ``(B,)`` arrays for B lockstep lanes.  A model's
``dynamics`` and ``output`` work on such rows (see SystemModel).  All
functions here are pure with respect to their inputs and safe to call from
parallel scenario runs.  Each function that works on arrays imports numpy
itself, so that a step on Python floats and the design step load none.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
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
StorageFn = Callable[["np.ndarray"], "np.ndarray"]


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
            if r == r:
                return r
        except (OverflowError, ValueError):
            pass
    import numpy as np

    return np.float_power(v, p)


# The source of rk4_step's kernel for n rows, with each placeholder the n
# names or expressions of its line joined by commas.
_RK4_SOURCE = """\
def rk4(f, state, u, t, h):
    {x}, = state
    half = 0.5 * h
    {a}, = f(state, u, t)
    {b}, = f([{x_b}], u, t + half)
    {c}, = f([{x_c}], u, t + half)
    {d}, = f([{x_d}], u, t + h)
    sixth = h / 6.0
    return [{x_next}]
"""


class _RK4Kernels(dict):
    """RK4 kernels by state dimension, each generated on its first use."""

    def __missing__(self, n: int):
        def rows(expr: str) -> str:
            return ", ".join(expr.format(i=i) for i in range(n))

        source = _RK4_SOURCE.format(
            x=rows("x{i}"), a=rows("a{i}"), b=rows("b{i}"), c=rows("c{i}"), d=rows("d{i}"),
            x_b=rows("x{i} + half * a{i}"), x_c=rows("x{i} + half * b{i}"),
            x_d=rows("x{i} + h * c{i}"),
            x_next=rows("x{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})"))
        filename = f"<etncs.core rk4 n={n}>"
        namespace: dict = {}
        exec(compile(source, filename, "exec"), namespace)
        # tracebacks through a kernel show its source line
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        kernel = self[n] = namespace["rk4"]
        return kernel


_RK4 = _RK4Kernels()


def rk4_step(model: SystemModel, state, u, t: float, h: float) -> list:
    """One classical 4th-order Runge-Kutta step with the input held constant.

    ``state`` and ``u`` are sequences of ``state_dim`` and ``input_dim``
    rows, and the new state is a list of ``state_dim`` rows.  A row is a
    Python float for one sample, as a single run carries it, or a ``(B,)``
    array, row i of B lockstep lanes' ``(state_dim, B)`` states; every lane
    takes the same ``t`` and ``h``.  The caller passes the model's input
    dimension and ``h > 0`` (ScenarioConfig checks them once per run) and
    judges the new state, which is not finite if any stage derivative was
    not (each enters it with a positive weight).  ``dynamics`` must return
    exactly ``len(state)`` rows: any other count raises ValueError.

    The step runs a kernel generated for ``len(state)`` on its first use
    (``_RK4_SOURCE``), which unpacks the state and each stage's derivative
    into locals: on Python 3.11 each list comprehension is a call of its
    own, and four of them cost more than the arithmetic of a one-sample
    step.  Each row of a stage sum is one expression, ``xi + half * ai``,
    ``xi + h * ci`` and ``xi + sixth * (ai + 2.0 * bi + 2.0 * ci + di)``, so
    a lane of a batch gets the bits of its one-sample step: binary64 add and
    multiply round correctly in CPython as in numpy, numpy does not contract
    these ufuncs into a fused multiply-add, and both forms keep one order of
    operations.
    """
    return _RK4[len(state)](model.dynamics, state, u, t, h)


def supply_rate(u: np.ndarray, y: np.ndarray, idx: PassivityIndices):
    """Energy inflow u'y - rho*y'y - nu*u'u per sample (per column of 2-D arrays)."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    values = np.sum(traj * traj, axis=1)
    return 0.5 * (values[1:] + values[:-1]) * np.diff(times)


def l2_gain_estimate(in_terms: np.ndarray, out_terms: np.ndarray) -> float:
    """Empirical gain sqrt(int ||y||^2 / int ||w||^2) by trapezoidal quadrature.

    The two arguments are the ``energy_terms`` of the input and of the
    output, as a blockwise pass keeps them; each integral is their one
    pairwise sum.  This is a lower bound on the true L2 gain of the map
    w -> y.
    """
    import numpy as np

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
    import numpy as np

    return np.logspace(np.log10(lo), np.log10(hi), n)


def verify_lti_indices(A, B, C, D, candidate: PassivityIndices,
                       freq_grid: np.ndarray) -> IndexMarginReport:
    """Check a candidate index pair against a SISO frequency response.

    For each grid frequency computes ``Re G(jw) - nu - rho*|G(jw)|^2`` and
    reports the signed minimum.  The pair verifies on the grid if no
    residual is below minus a few ulps of its terms' scale,
    ``8 * eps * (|Re G| + |nu| + |rho| * |G|^2)`` at that frequency, which
    absorbs the rounding of an exact pair (the residual of (0, 1.8) for
    2/(s + 3.6) is zero, but computes to -2.2e-16 at 1.33e-3 rad/s).
    Raises if the system has a pole on the imaginary axis inside the swept
    range (the response is unbounded there).
    """
    import numpy as np

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
    tol = np.empty(len(freq_grid))
    eye = np.eye(n)
    nu, rho = candidate.nu, candidate.rho
    for i, w in enumerate(freq_grid):
        if n:
            g = complex((C @ np.linalg.solve(1j * w * eye - A, B))[0, 0]) + D[0, 0]
        else:
            g = complex(D[0, 0])
        g2 = abs(g) ** 2
        residuals[i] = g.real - nu - rho * g2
        tol[i] = abs(g.real) + abs(nu) + abs(rho) * g2
    tol *= 8.0 * np.finfo(float).eps
    i_min = int(np.argmin(residuals))
    return IndexMarginReport(
        min_residual=float(residuals[i_min]),
        worst_frequency=float(freq_grid[i_min]),
        verified=bool(np.all(residuals >= -tol)),
        residuals=residuals,
    )
