"""The row-level checks of a run, merged one block of rows at a time.

A ``RunChecks`` takes the blocks of a run in row order, from the executor as
it fills them or from trace.csv as it is parsed, and keeps only what the
verdicts need: counts, the time of the first failing row, maxima, and the
two trapezoid energy terms of each step (16 B per row), which are summed
once at the end so that the empirical L2 gain keeps the bits of one
pairwise sum.  The energy terms and the dissipation residuals span two rows,
so each block is joined to the last row of the block before (``joined``,
which ``verify`` also calls for its time-grid and ``u_r`` checks).  This is a
module of its own, imported by the steps that check a run, so that design
and report do not compile it.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from . import core, trigger
from .design import (DesignParams, DesignResult, interevent_bound_controller,
                     interevent_bound_plant)
from .signals import Signal
from .sim import (EventTable, ScenarioConfig, TraceLog, _accum_ratio_excess, _gap_stats,
                  dropout_spans, held_samples, max_consecutive_drops)

__all__ = ["RunChecks", "RunMetrics", "verdicts", "metrics"]

_SIDES = ("plant", "controller")
# the columns whose last row a block carries over to the next
_JOINED = ("t", "w1", "y_p", "x_p", "u_p", "u_r")


class RunChecks:
    """The merged row-level results of one run's shared verdicts.

    Feed every block of the run, in row order, to ``add``; then set
    ``events`` to the run's whole event table.  A block's own event table
    need only hold every attempt up to its last row, and is not kept.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.events: Optional[EventTable] = None
        self.rows = 0
        self.trigger_count = dict.fromkeys(_SIDES, 0)   # rows violating the rule
        self.trigger_first: Dict[str, float] = {}       # time of the first one
        self.bound_first: Dict[str, float] = {}         # time of the first bound violation
        self.excluded = dict.fromkeys(_SIDES, 0)        # dropout spans left out
        # the trapezoid terms of ||w1||^2 and ||y_p||^2, the first ``terms`` of
        # arrays allocated once for the config's rows
        self.energy = [np.empty(max(config.n_rows - 1, 0)) for _ in range(2)]
        self.terms = 0
        self.steps = 0                                  # dissipation residuals so far
        self.dissip_max = self.dissip_norm_max = -math.inf
        self.dissip_ok = True
        self._last: Optional[Dict[str, np.ndarray]] = None

    def joined(self, block: TraceLog, name: str) -> np.ndarray:
        """A column of the block after the last row of the block before;
        called before ``add`` merges the block."""
        rows = getattr(block, name)
        return rows if self._last is None else np.concatenate((self._last[name], rows))

    def add(self, block: TraceLog) -> None:
        """Merge the next block; its held samples are derived from its event
        table unless it carries them."""
        cfg, ev, t, held = self.config, block.events, block.t, block.held
        first, stop = block.first_row, block.first_row + len(t)
        for side, delta, y in (("plant", cfg.trigger_p.delta, block.y_p),
                               ("controller", cfg.trigger_c.delta, block.y_c)):
            held_side = held_samples(ev, side, stop, first) if held is None else held[side]
            fired = ev.sample_index[ev.on(side)]
            fired = fired[(fired >= first) & (fired < stop)] - first
            _, bad = trigger.trigger_inequality_check(t, y, held_side, delta, fired)
            if bad:
                self.trigger_first.setdefault(side, t[bad[0]])
                self.trigger_count[side] += len(bad)
            spans = tuple(np.clip(rows, first, stop) - first for rows in dropout_spans(block, side))
            rep = trigger.sampled_output_bound_check(t, y, held_side, delta, spans)
            if not rep.ok:
                self.bound_first.setdefault(side, rep.violations[0][0])
            self.excluded[side] = rep.excluded_spans   # the last block sees every attempt
            del held_side, rep   # free one side's arrays before the next
        times = self.joined(block, "t")
        for i, name in enumerate(("w1", "y_p")):
            terms = core.energy_terms(self.joined(block, name), times)
            kept, stop_terms = self.energy[i], self.terms + len(terms)
            if stop_terms > len(kept):   # a trace file with more rows than the config's
                kept = self.energy[i] = np.concatenate((kept[:self.terms], np.empty(stop_terms)))
            kept[self.terms:stop_terms] = terms
        self.terms = stop_terms
        plant = cfg.plant
        if plant.storage is not None:
            x = self.joined(block, "x_p")
            res = core.dissipativity_residuals(plant, times, x, self.joined(block, "u_p"))
            if len(res):
                # tolerance 1e-6 * (1 + max(|V_k|, |V_{k+1}|)) scales the
                # quadrature error allowance with the storage at either end
                v = np.abs(plant.storage(x.T))
                tol = np.maximum(v[:-1], v[1:])
                tol += 1.0
                tol *= 1e-6
                self.steps += len(res)
                self.dissip_max = np.maximum(self.dissip_max, np.max(res))
                self.dissip_norm_max = np.maximum(self.dissip_norm_max, np.max(res / tol))
                self.dissip_ok &= bool(np.all(res <= tol))
        self._last = {name: getattr(block, name)[-1:].copy() for name in _JOINED}
        self.rows = stop


class RunMetrics(RunChecks):
    """RunChecks with the row maxima ``metrics`` reports: sup_x_p and the
    sup-norm constants c1, c2, c1_prime and c2_prime of the disturbance and
    reconstructed-output signals on each side."""

    def __init__(self, config: ScenarioConfig):
        super().__init__(config)
        self.maxima = dict.fromkeys(("sup_x_p", "c1", "c2", "c1_prime", "c2_prime"), -math.inf)
        self._w2 = Signal(config.w2)

    def add(self, block: TraceLog) -> None:
        super().add(block)
        w2 = self._w2(block.t)
        for key, rows in (("sup_x_p", block.x_p), ("c1", block.w1), ("c2", block.y_tilde_c),
                          ("c1_prime", w2), ("c2_prime", block.u_c - w2)):
            self.maxima[key] = np.maximum(self.maxima[key],
                                          np.max(np.linalg.norm(rows, axis=1)))


def verdicts(run: RunChecks, design: Optional[DesignResult] = None
             ) -> Tuple[Dict[str, Tuple[bool, str]], Dict[str, float]]:
    """The verdicts metrics.kv and verify.kv share, as name -> (pass, detail),
    and the values metrics.kv prints with them: ``l2_gain_emp`` (NaN without
    input energy) and the dissipation maxima.  A verdict whose premise fails
    is left out: ``trigger_ineq_*`` (||y - held||^2 <= delta*||y||^2 where
    the detector did not fire) and ``held_norm_bound_*`` (||held|| <=
    (1+sqrt(delta))*||y|| outside dropout spans) need only the triggering
    rule; ``dissipativity_p`` needs a storage function; ``l2_gain_bound``
    (gain <= ``gamma_bound``) needs positive input energy and a feasible
    design; ``dropout_budget_*`` need a feasible design.
    """
    checks: Dict[str, Tuple[bool, str]] = {}
    for side, key in zip(_SIDES, "pc"):
        count = run.trigger_count[side]
        checks[f"trigger_ineq_{key}"] = (
            count == 0, "holds at all non-firing samples" if count == 0
            else f"violated at {count} samples, first at t={run.trigger_first[side]:.6f}")
        ok = side not in run.bound_first
        checks[f"held_norm_bound_{key}"] = (
            ok, f"{run.excluded[side]} dropout spans excluded" if ok
            else f"violated at t={run.bound_first[side]:.6f}")
    try:
        gain = core.l2_gain_estimate(*(terms[:run.terms] for terms in run.energy))
    except ValueError:   # zero input energy: the gain is undefined
        gain = math.nan
    values = {"l2_gain_emp": gain}
    if run.config.plant.storage is not None:
        worst = float(run.dissip_norm_max) if run.steps else 0.0
        values["dissip_residual_max_p"] = float(run.dissip_max) if run.steps else 0.0
        values["dissip_norm_residual_max_p"] = worst
        checks["dissipativity_p"] = (run.dissip_ok, f"worst residual at {worst:.3e} of tolerance")
    if design is not None:
        if not math.isnan(gain):
            checks["l2_gain_bound"] = (
                bool(gain <= design.gamma_bound),
                f"empirical {gain:.4f} vs certified {design.gamma_bound:.4f}")
        for side, key, budget in (("plant", "p", design.d_p_max),
                                  ("controller", "c", design.d_c_max)):
            drops = max_consecutive_drops(run, side)
            checks[f"dropout_budget_{key}"] = (
                drops <= budget, f"observed {drops} consecutive vs budget {budget}")
    return checks, values


def metrics(run: RunMetrics, design: Optional[DesignResult] = None,
            params: Optional[DesignParams] = None) -> Dict[str, object]:
    """Aggregate the quantities the design formulas talk about.

    Extracts event statistics, the inter-switch slope and sup-norm constants,
    the empirical L2 gain of the disturbance-to-plant-output map, energy
    residuals against the plant storage, and, when a design result is
    supplied, boolean comparisons of the observed trace against its bounds.
    A comparison with nothing to compare is left out: ``accum_ratio_*`` for
    a side with no re-commit, ``interevent_*`` for a side with no gap.
    """
    cfg, ev = run.config, run.events
    checks, values = verdicts(run, design)
    me: Dict[str, object] = {}
    for side, key in zip(_SIDES, "pc"):
        attempts = int(np.count_nonzero(ev.on(side)))
        drops = int(np.count_nonzero(ev.on(side) & ev.dropped))
        me[f"attempts_{key}"] = attempts
        me[f"events_{key}"] = attempts - drops
        # the paper's lower communication rate: commits per simulated second,
        # against 1/h for a periodic link
        me[f"commit_rate_{key}"] = (attempts - drops) / cfg.t_end
        me[f"drops_{key}"] = drops
        me[f"max_consec_drops_{key}"] = max_consecutive_drops(run, side)
        me[f"min_gap_{key}"], _, _ = _gap_stats(run, side)

    maxima = {key: float(value) for key, value in run.maxima.items()}
    me["sup_x_p"] = maxima.pop("sup_x_p")
    me["l2_gain_emp"] = values.pop("l2_gain_emp")
    me.update(c0=Signal(cfg.w1).slope_bound, c1=maxima["c1"], c2=maxima["c2"],
              c0_prime=Signal(cfg.w2).slope_bound, c1_prime=maxima["c1_prime"],
              c2_prime=maxima["c2_prime"])
    me.update(values)   # the dissipation maxima, with a storage function
    if "dissipativity_p" in checks:
        me["dissip_ok_p"] = checks["dissipativity_p"][0]
    for side, key, tcfg in (("plant", "p", cfg.trigger_p),
                            ("controller", "c", cfg.trigger_c)):
        me[f"trigger_ok_{key}"] = checks[f"trigger_ineq_{key}"][0]
        me[f"sampled_bound_ok_{key}"] = checks[f"held_norm_bound_{key}"][0]
        if me[f"events_{key}"] > 1:   # a re-commit to compare
            worst_excess = _accum_ratio_excess(run, side, tcfg.delta)
            me[f"accum_ratio_excess_{key}"] = worst_excess
            me[f"accum_ratio_ok_{key}"] = worst_excess <= 1e-9

    for name, key in (("l2_gain_bound", "within_l2_bound"), ("dropout_budget_p", "budget_ok_p"),
                      ("dropout_budget_c", "budget_ok_c")):
        if name in checks:
            me[key] = checks[name][0]
    if design is not None and params is not None:
        me.update(_interevent_comparison(run, params, me))
    return me


def _interevent_comparison(run: RunChecks, params: DesignParams,
                           me: Dict[str, object]) -> Dict[str, object]:
    """Each gap between a side's commits against its conic-sector lower
    bound.  The bound needs an output-strictly passive side (rho > 0), and
    the comparison a gap; a side without both gets no ``interevent_*``
    entries."""
    h = run.config.h
    out: Dict[str, object] = {}
    for side, key, rho, fn, consts in (
            ("plant", "p", params.rho_p, interevent_bound_plant,
             (me["c0"], me["c1"], me["c2"])),
            ("controller", "c", params.rho_c, interevent_bound_controller,
             (me["c0_prime"], me["c1_prime"], me["c2_prime"]))):
        _, gaps, y_norms = _gap_stats(run, side)
        if rho <= 0 or not len(gaps):
            continue
        slack = gaps - (fn(params, *consts, y_norms) - h)
        out[f"interevent_ok_{key}"] = not np.any(slack < -1e-12)
        out[f"interevent_worst_slack_{key}"] = float(
            np.fmin.reduce(slack, initial=math.inf))
    return out
