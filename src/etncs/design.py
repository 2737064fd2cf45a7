"""Closed-form design and analysis formulas for the event-triggered loop.

Covers the stability test for the transformed feedback interconnection, the
synthesis of the plant-side gain block (m11, m21, m22) that absorbs delays
and quantization, conic-sector lower bounds on inter-event times, and the
per-link budgets of consecutive packet dropouts that preserve the finite-gain
L2 certificate.  Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .core import PassivityIndices

__all__ = [
    "InfeasibleDesign",
    "TransformGains",
    "DesignParams",
    "DesignResult",
    "BudgetReport",
    "effective_damping",
    "stability_margins",
    "min_m22_sq",
    "transformed_indices",
    "synthesize",
    "l2_gain_bounds",
    "cone_apex_angle",
    "interevent_bound_plant",
    "interevent_bound_controller",
    "controller_budget_report",
    "plant_budget_report",
]


class InfeasibleDesign(ValueError):
    """A requested design violates one of its feasibility inequalities."""


@dataclass(frozen=True)
class TransformGains:
    """Gains of the plant-side loop transformation block.

    The block maps the held plant sample and the reconstructed controller
    output through [[m11, 0], [m21, m22]]; m21 and m22 must have opposite
    signs for the transformation to present the network as a passive load.
    """

    m11: float
    m21: float
    m22: float

    def __post_init__(self):
        if self.m22 == 0.0:
            raise ValueError("m22 must be nonzero")
        if self.m11 == 0.0:
            raise ValueError("m11 must be nonzero")
        if self.m21 * self.m22 >= 0.0:
            raise ValueError(
                f"m21*m22 must be negative, got {self.m21 * self.m22}")


@dataclass(frozen=True)
class DesignParams:
    """All scalars the design formulas consume.

    rho_*/nu_* are output/input passivity indices of the plant and
    controller; delta_* the triggering thresholds; b_* the upper sector
    bounds of the quantizers; d1/d2 the delay rate bounds of the
    plant->controller and controller->plant links; alpha and gamma the
    free positive parameters of the stability test.
    """

    rho_p: float
    nu_p: float
    rho_c: float
    nu_c: float
    delta_p: float
    delta_c: float
    alpha: float = 1.0
    gamma: float = 250.0
    b_p: float = 2.0
    b_c: float = 2.0
    d1: float = 0.0
    d2: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.delta_p <= 1.0 and 0.0 < self.delta_c <= 1.0):
            raise ValueError("triggering thresholds must lie in (0, 1]")
        if self.alpha <= 0 or self.gamma <= 0:
            raise ValueError("alpha and gamma must be positive")
        if self.b_p <= 0 or self.b_c <= 0:
            raise ValueError("quantizer upper sector bounds must be positive")
        if not (0.0 <= self.d1 < 1.0 and 0.0 <= self.d2 < 1.0):
            raise ValueError("delay rate bounds must lie in [0, 1)")
        if self.rho_c <= 0:
            raise ValueError("synthesis requires a controller with rho_c > 0")


@dataclass(frozen=True)
class BudgetReport:
    """Dropout budget with a note on how it was evaluated, if any."""

    budget: int
    note: Optional[str] = None


@dataclass(frozen=True)
class DesignResult:
    """Everything a synthesized design reports."""

    gains: TransformGains
    rho_c_tilde: float
    nu_c_tilde: float
    damping: float
    stability_ok: bool
    margins: Dict[str, float]
    d_p_max: int
    d_c_max: int
    gamma_bound: float
    gamma_bound_sqrt: float
    notes: Tuple[str, ...] = ()


def effective_damping(nu_c_tilde: float, p: DesignParams) -> float:
    """Effective output damping of the plant loop after triggering slack.

    Piecewise in the sign of the transformed input index: the negative branch
    pays twice, directly and through the amplified triggering error.
    """
    if nu_c_tilde >= 0.0:
        return p.rho_p - p.delta_p * p.alpha / 2.0
    return p.rho_p + 2.0 * nu_c_tilde - p.delta_p * (p.alpha / 2.0 - 2.0 * nu_c_tilde)


def stability_margins(p: DesignParams, nu_c_tilde: float,
                      rho_c_tilde: float) -> Tuple[bool, Dict[str, float]]:
    """Finite-gain stability test of the transformed interconnection.

    Both margins must be strictly positive: the damping margin
    beta - 1/(4*gamma) and the coupling margin
    rho_c_tilde + nu_p - |nu_p| - 1/(2*alpha).
    """
    damping = effective_damping(nu_c_tilde, p)
    margins = {
        "damping": damping - 1.0 / (4.0 * p.gamma),
        "coupling": rho_c_tilde + p.nu_p - abs(p.nu_p) - 1.0 / (2.0 * p.alpha),
    }
    ok = margins["damping"] > 0.0 and margins["coupling"] > 0.0
    return ok, margins


def _k_factor(p: DesignParams) -> float:
    # combined controller-link amplification: quantizer sector, trigger
    # slack and delay stretch on the controller-to-plant path
    return p.b_c ** 2 * (1.0 + math.sqrt(p.delta_c)) ** 2 * (1.0 + p.d2)


def min_m22_sq(p: DesignParams) -> float:
    """Smallest admissible m22^2 (exclusive lower bound)."""
    return (1.0 / (2.0 * p.alpha) + abs(p.nu_p) - p.nu_p) * 2.0 * _k_factor(p) / p.rho_c


def transformed_indices(p: DesignParams, m22: float, m11: float) -> Tuple[float, float]:
    """(rho_c_tilde, nu_c_tilde) of the controller-plus-network seen through
    the gain block; tolerates m11 = 0 (the feed-forward term just vanishes)."""
    k = _k_factor(p)
    rho_t = p.rho_c * m22 ** 2 / (2.0 * k)
    nu_t = k / (2.0 * p.rho_c * m22 ** 2) \
        - (1.0 / (2.0 * p.rho_c) + abs(p.nu_c)) * p.b_p ** 2 * (1.0 + p.d1) * m11 ** 2
    return rho_t, nu_t


def synthesize(p: DesignParams, m22: float, m11: float) -> DesignResult:
    """Build the full design for a chosen (m22, m11).

    Checks the m22^2 feasibility bound, derives m21 with the sign opposite
    m22, computes the transformed indices, enforces their admissible domain
    (strictly below 1/4), and runs the stability test plus both dropout
    budgets.  Raises InfeasibleDesign naming the violated inequality.
    """
    k = _k_factor(p)
    bound = min_m22_sq(p)
    # designs strictly below the bound are rejected; boundary designs pass
    # through so their (zero) margins stay visible in the report
    if m22 ** 2 < bound * (1.0 - 1e-12):
        raise InfeasibleDesign(
            f"m22^2 = {m22 ** 2:.6g} violates the feasibility inequality "
            f"m22^2 > (1/(2*alpha) + |nu_p| - nu_p) * 2*b_c^2*(1+sqrt(delta_c))^2"
            f"*(1+d2) / rho_c = {bound:.6g}")
    rho_t, nu_t = transformed_indices(p, m22, m11)
    m21 = -math.copysign(k / (p.rho_c * abs(m22)), m22)
    if rho_t * nu_t >= 0.25:
        raise InfeasibleDesign(
            f"transformed index pair ({nu_t:.6g}, {rho_t:.6g}) violates the "
            f"admissible-domain inequality rho*nu < 1/4 "
            f"(product {rho_t * nu_t:.6g}); pick a nonzero m11 farther from 0")
    # also reject pairs outside the general index domain (defensive; the
    # strict product check above already covers the synthesis cases)
    PassivityIndices(nu=nu_t, rho=rho_t)

    gains = TransformGains(m11=m11, m21=m21, m22=m22)
    damping = effective_damping(nu_t, p)
    ok, margins = stability_margins(p, nu_t, rho_t)
    margins["m22_sq_slack"] = m22 ** 2 - bound
    margins["index_product_slack"] = 0.25 - rho_t * nu_t

    notes = []
    if ok:
        gamma_bound, gamma_bound_sqrt = l2_gain_bounds(p, damping)
    else:
        gamma_bound = gamma_bound_sqrt = float("inf")
        notes.append("stability margins not met; gain bounds are not certified")

    plant_rep = plant_budget_report(p, nu_t)
    ctrl_rep = controller_budget_report(p, gains)
    for rep in (plant_rep, ctrl_rep):
        if rep.note:
            notes.append(rep.note)

    return DesignResult(gains=gains, rho_c_tilde=rho_t, nu_c_tilde=nu_t,
                        damping=damping, stability_ok=ok, margins=margins,
                        d_p_max=plant_rep.budget, d_c_max=ctrl_rep.budget,
                        gamma_bound=gamma_bound,
                        gamma_bound_sqrt=gamma_bound_sqrt,
                        notes=tuple(notes))


def l2_gain_bounds(p: DesignParams, damping: float) -> Tuple[float, float]:
    """Certified L2 gain coefficient from the disturbance to the plant output.

    Returns the linear-ratio form
    (gamma + |nu_p| - nu_p) / (damping - 1/(4*gamma)), which is the certified
    bound, alongside its square root, which is what the underlying integral
    inequality actually implies; the linear form is the weaker (larger) of
    the two for any ratio above one and is the one the trace checks certify.
    """
    denom = damping - 1.0 / (4.0 * p.gamma)
    if denom <= 0.0:
        raise InfeasibleDesign(
            f"gain bound undefined: damping - 1/(4*gamma) = {denom:.6g} <= 0")
    ratio = (p.gamma + abs(p.nu_p) - p.nu_p) / denom
    return ratio, math.sqrt(ratio)


def cone_apex_angle(nu: float, rho: float) -> float:
    """Apex angle (radians) of the input-output cone of an index pair.

    arccos((nu+rho) / sqrt((1 - 4*rho*nu) + (nu+rho)^2)); well defined on the
    admissible index domain.  The radicand is 1 + (nu-rho)^2 >= 1.  In floats
    4*rho*nu is 4 times the rounded rho*nu, because x4 is exact, so it is at
    most 1 wherever the domain check passes and the radicand stays positive;
    an overflow gives NaN, never a radicand <= 0.
    """
    PassivityIndices(nu=nu, rho=rho)  # domain check
    ratio = (nu + rho) / math.sqrt((1.0 - 4.0 * rho * nu) + (nu + rho) ** 2)
    return math.acos(max(-1.0, min(1.0, ratio)))


def _interevent_bound(delta: float, rho: float, apex: float,
                      c0: float, c1: float, c2: float, y_norm):
    """sqrt(delta) * y_norm / denom for one output norm or elementwise on an
    array of them, 0 where the norm is 0: a system at rest never fires."""
    y = np.asarray(y_norm, dtype=float)
    if np.any(y < 0) or c0 < 0 or c1 < 0 or c2 < 0:
        raise ValueError("norm bounds must be nonnegative")
    if not np.any(y != 0.0):
        bound = np.zeros_like(y)
    else:
        denom = c0 / rho + apex * (1.0 / rho ** 2 + 1.0) * (c1 + c2)
        if denom <= 0.0:
            raise ValueError("zero denominator: no excitation bounds supplied")
        with np.errstate(over="ignore"):   # inf, as float arithmetic gives
            bound = np.where(y == 0.0, 0.0, math.sqrt(delta) * y / denom)
    return bound if bound.ndim else float(bound)


def interevent_bound_plant(p: DesignParams, c0: float, c1: float, c2: float,
                           y_norm_at_next_event):
    """Conic-sector lower bound on the gap between plant-side events.

    c0 bounds the disturbance slope between its switching instants, c1 its
    sup norm, c2 the sup norm of the reconstructed controller output over
    the interval.  ``y_norm_at_next_event`` is the plant output norm at the
    firing instant that closes the gap, or an array of them, one per gap,
    which gives one bound per gap.
    """
    if p.rho_p <= 0:
        raise ValueError("plant bound requires rho_p > 0")
    apex = cone_apex_angle(p.nu_p, p.rho_p)
    return _interevent_bound(p.delta_p, p.rho_p, apex, c0, c1, c2,
                             y_norm_at_next_event)


def interevent_bound_controller(p: DesignParams, c0p: float, c1p: float,
                                c2p: float, y_norm_at_next_event):
    """Controller-side analogue of interevent_bound_plant.

    c0p/c1p bound the controller-side disturbance (zero when absent, which
    reduces the bound to sqrt(delta_c)*||y|| / (apex*(1/rho_c^2+1)*c2p));
    c2p bounds the held quantized plant sample feeding the controller.
    """
    apex = cone_apex_angle(p.nu_c, p.rho_c)
    return _interevent_bound(p.delta_c, p.rho_c, apex, c0p, c1p, c2p,
                             y_norm_at_next_event)


def _budget(base: float, log_argument: float) -> int:
    """floor(log_base(argument) - 1), clamped at zero."""
    if log_argument <= 1.0:
        return 0
    return max(0, math.floor(math.log(log_argument) / math.log(base) - 1.0))


def plant_budget_report(p: DesignParams, nu_c_tilde: float) -> BudgetReport:
    """Maximum consecutive dropouts tolerated on the plant-to-controller link."""
    base = 1.0 + math.sqrt(p.delta_p)
    if nu_c_tilde >= 0.0:
        radicand = 2.0 * (p.rho_p - 1.0 / (4.0 * p.gamma)) / p.alpha
    else:
        radicand = 2.0 * (p.rho_p + 2.0 * nu_c_tilde - 1.0 / (4.0 * p.gamma)) \
            / (p.alpha - 4.0 * nu_c_tilde)
    if radicand <= 0.0:
        return BudgetReport(0, note="plant-link budget is 0: damping headroom "
                                    "radicand is nonpositive")
    arg = math.sqrt(radicand) + 1.0
    return BudgetReport(_budget(base, arg))


def controller_budget_report(p: DesignParams, gains: TransformGains) -> BudgetReport:
    """Maximum consecutive dropouts tolerated on the controller-to-plant link.

    Evaluated in exact double precision.  Hand calculations often truncate
    the log base to two decimals, which shrinks the base and can inflate the
    floor; when it does, the report carries a note with both values.
    """
    base = 1.0 + math.sqrt(p.delta_c)
    denom = (1.0 / (2.0 * p.alpha) + abs(p.nu_p) - p.nu_p) * 2.0 * p.b_c ** 2 * (1.0 + p.d2)
    if denom <= 0.0:
        raise ValueError("controller budget undefined: nonpositive denominator")
    ratio = gains.m22 ** 2 * p.rho_c / denom
    if ratio <= 0.0:
        return BudgetReport(0, note="controller-link budget is 0: nonpositive ratio")
    arg = math.sqrt(ratio) + 1.0
    budget = _budget(base, arg)
    trunc_base = math.floor(base * 100.0) / 100.0
    budget_trunc = _budget(trunc_base, arg) if trunc_base > 1.0 else 0
    note = None
    if budget_trunc != budget:
        note = (f"controller-link budget is {budget} by exact evaluation "
                f"(log base {base:.6f}); two-decimal truncation of the base "
                f"to {trunc_base:.2f} would give {budget_trunc} instead")
    return BudgetReport(budget, note=note)
