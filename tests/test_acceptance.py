"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with its measured quantities (run with ``pytest -v -s`` to see them).

Criterion 6 checks the conic-sector inter-event lower bounds against the
reference scenario's trace.  Its plant-side premise (the instantaneous
input-output pair stays inside the declared cone) does not hold while the
large initial-condition transient dissipates stored energy, so that check
fails there; the test states the measured violation rather than widening
the tolerance.  See the README's limitations note.
"""

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from etncs import core, trigger
from etncs.cli import main
from etncs.config import build_scenario, load_config, run_design
from etncs.design import (DesignParams, DesignResult, interevent_bound_controller,
                          interevent_bound_plant, synthesize)
from etncs.models import cubic_nl2, firstorder_lead
from etncs.network import Channel, DelayProfile, DropoutModel, rate_bound_check
from etncs.quantizer import QuantizerSpec, quantize
from etncs.signals import SignalSpec
from etncs.sim import ChannelConfig, ScenarioConfig, TraceLog, dropout_spans
from etncs.trigger import TriggerConfig

import whole

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "worked_example.cfg"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


@dataclass
class GoldenRun:
    params: DesignParams
    result: DesignResult
    scenario: ScenarioConfig
    trace: TraceLog
    metrics: dict
    sim_seconds: float


@pytest.fixture(scope="module")
def golden() -> GoldenRun:
    cfg = load_config(CONFIG)
    params, result = run_design(cfg)
    scenario = build_scenario(cfg)
    t0 = time.perf_counter()
    trace = whole.run(scenario)
    elapsed = time.perf_counter() - t0
    metrics = whole.metrics(trace, result, params)
    return GoldenRun(params, result, scenario, trace, metrics, elapsed)


def test_criterion_01_design_reproduction(golden):
    p = golden.params
    m22, m11 = math.sqrt(49.46), 0.16
    synthesize(p, m22, m11)  # warm
    best = min(_timed_synthesize(p, m22, m11) for _ in range(5))
    r = golden.result
    checks = {
        "rho_c_tilde": abs(r.rho_c_tilde - 0.72) <= 0.01,
        "m21": abs(r.gains.m21 - (-4.86)) <= 0.01,
        "nu_c_tilde": abs(r.nu_c_tilde - 0.03) <= 0.005,
        "stability_ok": r.stability_ok is True,
        "margin_damping": abs(r.margins["damping"] - 1.599) <= 1e-3,
        "margin_coupling": abs(r.margins["coupling"] - 0.22) <= 0.01,
        "runtime": best < 1e-3,
    }
    ok = all(checks.values())
    _report(1, "design reproduction", ok,
            f"rho_c_tilde={r.rho_c_tilde:.4f} m21={r.gains.m21:.4f} "
            f"nu_c_tilde={r.nu_c_tilde:.4f} margins=({r.margins['damping']:.4f}, "
            f"{r.margins['coupling']:.4f}) synth={best * 1e6:.1f}us")
    assert ok, checks


def _timed_synthesize(p, m22, m11) -> float:
    t0 = time.perf_counter()
    synthesize(p, m22, m11)
    return time.perf_counter() - t0


def test_criterion_02_dropout_budgets(golden, tmp_path):
    r = golden.result
    note_in_result = any("would give 2" in n and "1.38" in n for n in r.notes)
    assert main(["design", "--config", str(CONFIG), "--out", str(tmp_path)]) == 0
    report = (tmp_path / "design_report.txt").read_text()
    kv = (tmp_path / "design.kv").read_text()
    note_in_files = ("would give 2" in report) and ("would give 2" in kv)
    ok = (r.d_p_max == 1 and r.d_c_max == 1 and note_in_result and note_in_files)
    _report(2, "dropout budgets", ok,
            f"d_p_max={r.d_p_max} d_c_max={r.d_c_max} "
            f"discrepancy note emitted={note_in_result and note_in_files}")
    assert ok


def test_criterion_03_closed_loop_boundedness(golden):
    me = golden.metrics
    sup = me["sup_x_p"]
    gain = me["l2_gain_emp"]
    ok = (np.isfinite(sup)
          and gain <= 156.35
          and gain <= golden.result.gamma_bound
          and golden.sim_seconds < 30.0)
    _report(3, "closed-loop boundedness", ok,
            f"sup||x_p||={sup:.3f} l2_gain={gain:.4f} (bound "
            f"{golden.result.gamma_bound:.2f}) runtime={golden.sim_seconds:.2f}s")
    assert ok


def test_criterion_04_dissipativity(golden):
    trace = golden.trace
    plant = golden.scenario.plant
    res = core.dissipativity_residuals(plant, trace.t, trace.x_p, trace.u_p)
    v = np.array([plant.storage(x) for x in trace.x_p])
    tol = 1e-6 * (1.0 + np.abs(v[:-1]))  # storage at the step start
    ok = bool(np.all(res <= tol))
    _report(4, "dissipativity residuals", ok,
            f"max residual {np.max(res):.3e}, max ratio to tolerance "
            f"{np.max(res / tol):.3f} over {len(res)} steps")
    assert ok


def test_criterion_05_triggering_properties(golden):
    trace = golden.trace
    results = []
    for side, ycol, held, tcfg in (
            ("plant", trace.y_p, trace.u_tilde_c, golden.scenario.trigger_p),
            ("controller", trace.y_c, trace.y_c - trace.e_c,
             golden.scenario.trigger_c)):
        attempt_rows = trace.events_on(side).sample_index
        ineq_ok, bad = trigger.trigger_inequality_check(
            trace.t, ycol, held, tcfg.delta, attempt_rows)
        rep = trigger.sampled_output_bound_check(
            trace.t, ycol, held, tcfg.delta, dropout_spans(trace, side))
        results.append((side, ineq_ok, rep.ok, len(bad)))
    ok = all(i and b for _, i, b, _ in results)
    _report(5, "triggering properties", ok,
            "; ".join(f"{s}: ineq={i} held-bound={b}" for s, i, b, _ in results))
    assert ok


def test_criterion_06_interevent_lower_bounds(golden):
    trace = golden.trace
    me = golden.metrics
    h = golden.scenario.h
    lines = []
    all_ok = True
    for side, fn, consts in (
            ("plant", interevent_bound_plant, (me["c0"], me["c1"], me["c2"])),
            ("controller", interevent_bound_controller,
             (me["c0_prime"], me["c1_prime"], me["c2_prime"]))):
        commits = trace.commits_on(side)
        worst = (0.0, 0.0, 0.0)  # (slack, gap, bound)
        violations = 0
        for prev, cur in zip(commits, commits[1:]):
            gap = cur.t - prev.t
            bound = fn(golden.params, *consts, cur.y_norm)
            slack = gap - (bound - h)
            if slack < worst[0]:
                worst = (slack, gap, bound)
            if slack < -1e-12:
                violations += 1
        side_ok = violations == 0
        all_ok &= side_ok
        lines.append(f"{side}: {len(commits) - 1} gaps, {violations} below bound"
                     + (f" (worst gap {worst[1]:.4f}s vs bound {worst[2]:.4f}s)"
                        if violations else ""))
    # diagnostic for the known plant-side failure mode: the bound's premise
    # needs the input-output pair inside the cone (u*y >= 0 for these
    # indices), which the stored-energy transient violates
    uy = np.sum(trace.u_p * trace.y_p, axis=1)
    outside = float(np.mean(uy[:1000] < 0.0))
    _report(6, "inter-event lower bounds", all_ok,
            "; ".join(lines) + f"; first-second u*y<0 fraction={outside:.2f}")
    assert all_ok, ("conic-sector premise fails during the initial transient; "
                    + "; ".join(lines))


IDEAL_DELTA_P = 0.4


def _ideal_burst_scenario(d: int, seed: int, gains) -> ScenarioConfig:
    identity = QuantizerSpec(kind="identity", sector=(1.0, 1.0))
    no_delay = DelayProfile(t0=0.0, d=0.0, form="constant")
    return ScenarioConfig(
        plant=cubic_nl2(), controller=firstorder_lead(),
        x0_plant=np.array([10.0, -14.0]), x0_controller=np.array([0.0]),
        trigger_p=TriggerConfig(IDEAL_DELTA_P), trigger_c=TriggerConfig(0.15),
        quant_p=identity, quant_c=identity,
        chan_pc=ChannelConfig(no_delay, DropoutModel(kind="pattern",
                                                     pattern=(1,) + (0,) * d)),
        chan_cp=ChannelConfig(no_delay, DropoutModel()),
        gains=gains,
        w1=SignalSpec(kind="piecewise_uniform", lo=0.0, hi=2.0, dwell=0.1,
                      seed=seed),
        t_end=0.3, h=1e-3)


def test_criterion_07_dropout_accumulation(golden):
    worst = {d: 0.0 for d in (1, 2, 3)}
    for d in (1, 2, 3):
        bound = (1.0 + math.sqrt(IDEAL_DELTA_P)) ** (d + 1) - 1.0
        for seed in range(100):
            trace = whole.run(_ideal_burst_scenario(d, seed, golden.result.gains))
            commits = trace.commits_on("plant")
            recommit = np.flatnonzero(commits.drops_before == d)[0]
            ratio = commits.e_norm[recommit] / commits.y_norm[recommit]
            worst[d] = max(worst[d], ratio)
        assert worst[d] <= bound, (d, worst[d], bound)
    ok = all(worst[d] <= (1.0 + math.sqrt(IDEAL_DELTA_P)) ** (d + 1) - 1.0
             for d in worst)
    _report(7, "dropout accumulation", ok,
            "; ".join(f"d={d}: worst ratio {worst[d]:.3f} vs bound "
                      f"{(1 + math.sqrt(IDEAL_DELTA_P)) ** (d + 1) - 1:.3f}"
                      for d in worst))
    assert ok


def test_criterion_08_channel_properties():
    rng = np.random.default_rng(20240817)
    n_sequences = 100_000
    rates = (0.0, 0.3, 0.9)
    checked = 0
    for i in range(n_sequences):
        d = rates[i % 3]
        profile = DelayProfile(t0=float(rng.uniform(0.0, 1.0)), d=d, form="affine")
        ch = Channel(profile, [DropoutModel()], f"seq{i}", [0.0])
        t = float(rng.uniform(0.0, 0.5))
        last_arrival = -math.inf
        for _ in range(int(rng.integers(3, 8))):
            arrival = ch.send(t, (0.0,))
            assert arrival >= t               # causality
            assert arrival > last_arrival     # send order preserved
            last_arrival = arrival
            checked += 1
            t += float(rng.uniform(1e-4, 0.4))
    violating = DelayProfile(t0=0.6, d=0.3, form="table",
                             table=((0.0, 0.6), (0.1, 1.1), (1.0, 1.2)))
    rejected = not rate_bound_check(violating, np.linspace(0.0, 1.0, 101))
    ok = rejected
    _report(8, "channel properties", ok,
            f"{n_sequences} sequences / {checked} packets causal and in order; "
            f"rate-violating table rejected={rejected}")
    assert ok


def test_criterion_09_quantizer_properties():
    spec = QuantizerSpec(kind="uniform-mid-tread", step=0.5, sector=(0.0, 2.0))
    v = np.linspace(-10.0, 10.0, 1_000_000)
    q = quantize(spec, v)
    sector_hi = bool(np.all(v * q <= 2.0 * v * v))
    sector_lo = bool(np.all(v * q >= 0.0))
    odd = bool(np.all(quantize(spec, -v) == -q))
    ok = sector_hi and sector_lo and odd
    _report(9, "quantizer properties", ok,
            f"1e6-point grid: v*q<=2v^2 {sector_hi}, v*q>=0 {sector_lo}, "
            f"odd symmetry exact {odd}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    cfg = load_config(CONFIG)
    blobs = []
    for i in range(2):
        trace = whole.run(build_scenario(cfg))
        path = tmp_path / f"trace_{i}.csv"
        whole.write_trace(trace, path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    _report(10, "determinism", ok,
            f"two full runs, byte-identical trace.csv={ok} "
            f"({len(blobs[0])} bytes)")
    assert ok
