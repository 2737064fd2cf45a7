"""Example system models used by the shipped scenarios and tests."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import PassivityIndices, SystemModel, power

__all__ = ["cubic_nl2", "firstorder_lead", "FIRSTORDER_LEAD_SS", "lti_siso", "build_model"]

# State-space matrices of the first-order lead controller, G(s) = (s+10)/(s+3).
FIRSTORDER_LEAD_SS = (
    np.array([[-3.0]]),
    np.array([[1.0]]),
    np.array([[7.0]]),
    np.array([[1.0]]),
)


# Powers use core.power: it calls pow() on a float and on each element of an
# array, while an ndarray ``**`` multiplies and can differ in the last bit,
# which would make one-sample and column calls (and so a lockstep lane and
# its own one-lane run) disagree.
def cubic_nl2(nu: float = 0.0, rho: float = 1.8) -> SystemModel:
    """Two-state nonlinear plant with cubic self-damping.

    x1' = -3*x1^3 + x1*x2,  x2' = -3.6*x2 + 2*u,  y = x2.
    The quadratic storage x2^2/4 satisfies dV/dt = u*y - 1.8*y^2 exactly,
    which certifies the default index pair (0, 1.8).
    """

    def f(x, u, t):
        return (-3.0 * power(x[0], 3) + x[0] * x[1],
                -3.6 * x[1] + 2.0 * u[0])

    def h(x, u, t):
        return (x[1],)

    return SystemModel(state_dim=2, input_dim=1, output_dim=1,
                       dynamics=f, output=h,
                       indices=PassivityIndices(nu=nu, rho=rho),
                       storage=lambda x: 0.25 * power(x[1], 2),
                       name="cubic_nl2")


def firstorder_lead(nu: float = 0.49, rho: float = 0.27) -> SystemModel:
    """First-order lead compensator x' = -3x + u, y = 7x + u.

    The default indices are declared metadata; see the frequency-domain
    check in core.verify_lti_indices for their verification margin.
    """
    a, b, c, d = (float(m[0, 0]) for m in FIRSTORDER_LEAD_SS)
    return lti_siso(a, b, c, d, nu=nu, rho=rho, name="firstorder_lead")


def lti_siso(a: float, b: float, c: float, d: float,
             nu: float = 0.0, rho: float = 0.0,
             storage_p: Optional[float] = None, name: str = "lti") -> SystemModel:
    """Scalar-state SISO linear system x' = a*x + b*u, y = c*x + d*u."""

    def f(x, u, t):
        return (a * x[0] + b * u[0],)

    def h(x, u, t):
        return (c * x[0] + d * u[0],)

    storage = None
    if storage_p is not None:
        if storage_p < 0:
            raise ValueError("storage coefficient must be nonnegative")
        storage = lambda x: 0.5 * storage_p * power(x[0], 2)

    return SystemModel(state_dim=1, input_dim=1, output_dim=1,
                       dynamics=f, output=h,
                       indices=PassivityIndices(nu=nu, rho=rho),
                       storage=storage, name=name)


_BUILTINS = {
    "cubic_nl2": cubic_nl2,
    "firstorder_lead": firstorder_lead,
}


def build_model(name: str, nu: Optional[float] = None,
                rho: Optional[float] = None) -> SystemModel:
    """Instantiate a builtin model by name, optionally overriding its indices."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown model {name!r}; builtins: {sorted(_BUILTINS)}")
    factory = _BUILTINS[name]
    kwargs = {}
    if nu is not None:
        kwargs["nu"] = nu
    if rho is not None:
        kwargs["rho"] = rho
    return factory(**kwargs)
