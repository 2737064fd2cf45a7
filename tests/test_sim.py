import math
from pathlib import Path

import numpy as np
import pytest

from etncs.config import load_config, run_design, build_scenario
from etncs.design import TransformGains
from etncs.models import cubic_nl2, firstorder_lead, lti_siso
from etncs.network import DelayProfile, DropoutModel
from etncs.quantizer import QuantizerSpec
from etncs.signals import SignalSpec, build_signal
from etncs.sim import (ChannelConfig, DivergenceError, ScenarioConfig,
                       compute_metrics, dropout_spans, run_scenario,
                       write_trace_csv)
from etncs.trigger import TriggerConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

IDENTITY_Q = QuantizerSpec(kind="identity", sector=(1.0, 1.0))


def _ideal_channel(**kw):
    return ChannelConfig(DelayProfile(t0=0.0, d=0.0, form="constant"),
                         DropoutModel(), **kw)


def _scenario(**overrides) -> ScenarioConfig:
    base = dict(
        plant=cubic_nl2(), controller=firstorder_lead(),
        x0_plant=np.array([1.0, -1.0]), x0_controller=np.array([0.0]),
        trigger_p=TriggerConfig(0.4), trigger_c=TriggerConfig(0.15),
        quant_p=IDENTITY_Q, quant_c=IDENTITY_Q,
        chan_pc=_ideal_channel(), chan_cp=_ideal_channel(),
        gains=TransformGains(m11=0.16, m21=-4.865, m22=7.033),
        w1=SignalSpec(kind="zero"), w2=SignalSpec(kind="zero"),
        t_end=1.0, h=1e-3)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_zero_scenario_stays_at_rest():
    sc = _scenario(x0_plant=np.zeros(2), x0_controller=np.zeros(1))
    trace = run_scenario(sc)
    for arr in (trace.y_p, trace.u_p, trace.y_c, trace.u_c, trace.y_tilde_c):
        assert np.all(arr == 0.0)
    # only the unconditional t=0 transmissions
    assert len(trace.commits_on("plant")) == 1
    assert len(trace.commits_on("controller")) == 1
    me = compute_metrics(trace)
    assert me["min_gap_p"] == sc.t_end
    assert me["min_gap_c"] == sc.t_end


def test_row_count_matches_grid():
    trace = run_scenario(_scenario(t_end=0.01))
    assert len(trace.t) == 11
    assert trace.t[0] == 0.0
    assert trace.t[-1] == pytest.approx(0.01)


def test_deterministic_reruns_bit_identical(tmp_path):
    cfg = load_config(CONFIG_DIR / "worked_example.cfg")
    cfg["sim.t_end"] = "1.0"
    traces = [run_scenario(build_scenario(cfg)) for _ in range(2)]
    for name in ("y_p", "x_p", "u_r", "y_qc", "w1"):
        assert np.array_equal(getattr(traces[0], name), getattr(traces[1], name))
    paths = []
    for i, tr in enumerate(traces):
        p = tmp_path / f"t{i}.csv"
        write_trace_csv(tr, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_events_lie_on_sample_grid():
    trace = run_scenario(_scenario(w1=SignalSpec(kind="constant", value=1.0)))
    for e in trace.events:
        assert abs(e.t / trace.config.h - round(e.t / trace.config.h)) < 1e-9


def test_error_resets_only_on_success():
    # pattern: keep the initial send, drop the next two plant attempts
    chan = ChannelConfig(DelayProfile(t0=0.0, d=0.0, form="constant"),
                         DropoutModel(kind="pattern", pattern=(1, 0, 0)))
    trace = run_scenario(_scenario(chan_pc=chan, x0_plant=np.array([1.0, -4.0]),
                                   w1=SignalSpec(kind="constant", value=1.0)))
    drops = [e for e in trace.events_on("plant") if e.dropped]
    assert len(drops) == 2
    # the two drops are consecutive samples: the violation persists
    assert drops[1].sample_index == drops[0].sample_index + 1
    k = drops[0].sample_index
    assert np.linalg.norm(trace.e_p[k]) > 0.0
    recommit = next(e for e in trace.commits_on("plant") if e.t > drops[0].t)
    assert recommit.drops_before == 2
    # after the successful commit the logged error is zero again
    assert np.linalg.norm(trace.e_p[recommit.sample_index]) == 0.0


def test_budget_exceeded_flagged_in_metrics():
    cfg = load_config(CONFIG_DIR / "worked_example.cfg")
    params, result = run_design(cfg)
    assert result.d_p_max == 1
    chan = ChannelConfig(DelayProfile(t0=0.5, d=0.3, form="affine"),
                         DropoutModel(kind="pattern", pattern=(1, 0, 0)))
    trace = run_scenario(_scenario(chan_pc=chan,
                                   x0_plant=np.array([10.0, -14.0]),
                                   w1=SignalSpec(kind="constant", value=1.0),
                                   gains=result.gains))
    me = compute_metrics(trace, result, params)
    assert me["max_consec_drops_p"] == 2
    assert me["budget_ok_p"] is False


def test_trigger_inequality_between_events():
    trace = run_scenario(_scenario(
        x0_plant=np.array([5.0, -8.0]),
        w1=SignalSpec(kind="piecewise_uniform", lo=0.0, hi=2.0, dwell=0.1, seed=3),
        t_end=2.0))
    me = compute_metrics(trace)
    assert me["trigger_ok_p"] and me["trigger_ok_c"]
    assert me["sampled_bound_ok_p"] and me["sampled_bound_ok_c"]


def test_zoh_piecewise_constant_between_arrivals():
    trace = run_scenario(_scenario(
        chan_cp=ChannelConfig(DelayProfile(t0=0.6, d=0.2, form="affine")),
        x0_plant=np.array([5.0, -8.0]),
        w1=SignalSpec(kind="constant", value=1.0), t_end=2.0))
    arrivals = sorted(trace.config.chan_cp.delay.arrival(e.t)
                      for e in trace.commits_on("controller"))
    changes = [k for k in range(1, len(trace.t))
               if not np.array_equal(trace.u_r[k], trace.u_r[k - 1])]
    assert changes, "the held link value never updated"
    for k in changes:
        assert any(trace.t[k - 1] < a <= trace.t[k] + 1e-12 for a in arrivals)


def test_committed_sample_equals_output_row():
    trace = run_scenario(_scenario(x0_plant=np.array([5.0, -8.0]),
                                   w1=SignalSpec(kind="constant", value=1.0)))
    for e in trace.commits_on("plant"):
        assert np.array_equal(e.committed, trace.y_p[e.sample_index])
    for e in trace.commits_on("controller"):
        assert np.array_equal(e.committed, trace.y_c[e.sample_index])


def test_energy_audit_closed_loop():
    trace = run_scenario(_scenario(x0_plant=np.array([10.0, -14.0]),
                                   w1=SignalSpec(kind="piecewise_uniform",
                                                 lo=0.0, hi=2.0, dwell=0.1, seed=5),
                                   t_end=2.0))
    me = compute_metrics(trace)
    assert me["dissip_ok_p"]
    assert me["dissip_norm_residual_max_p"] < 1.0


def test_divergence_aborts_with_row_index():
    plant = lti_siso(5.0, 1.0, 1.0, 0.0, nu=0.0, rho=0.0, name="unstable")
    sc = _scenario(plant=plant, x0_plant=np.array([1.0]),
                   divergence_limit=1e6, t_end=5.0)
    with pytest.raises(DivergenceError) as err:
        run_scenario(sc)
    assert err.value.row > 0
    assert "row" in str(err.value)


def test_approximates_continuous_feedback():
    # tiny thresholds, pass-through quantizers, zero delay and near-zero
    # coupling gain reduce the loop to u_p = w1 - y_c, u_c = y_p up to one
    # sample of transport lag
    h, t_end = 1e-3, 2.0
    sc = _scenario(gains=TransformGains(m11=1.0, m21=-1e-9, m22=1.0),
                   trigger_p=TriggerConfig(1e-8), trigger_c=TriggerConfig(1e-8),
                   w1=SignalSpec(kind="constant", value=1.0), t_end=t_end)
    trace = run_scenario(sc)

    def coupled(z, t):
        xp1, xp2, xc = z
        u_c = xp2
        y_c = 7.0 * xc + u_c
        u_p = 1.0 - y_c
        return np.array([-3.0 * xp1 ** 3 + xp1 * xp2,
                         -3.6 * xp2 + 2.0 * u_p,
                         -3.0 * xc + u_c])

    z = np.array([1.0, -1.0, 0.0])
    ref = []
    for k in range(int(t_end / h) + 1):
        ref.append(z[1])
        t = k * h
        k1 = coupled(z, t)
        k2 = coupled(z + h / 2 * k1, t)
        k3 = coupled(z + h / 2 * k2, t)
        k4 = coupled(z + h * k3, t)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(trace.y_p[:, 0] - np.array(ref))) < 0.02


def test_dropout_spans_cover_drops():
    chan = ChannelConfig(DelayProfile(t0=0.0, d=0.0, form="constant"),
                         DropoutModel(kind="pattern", pattern=(1, 0)))
    trace = run_scenario(_scenario(chan_pc=chan,
                                   x0_plant=np.array([5.0, -8.0]),
                                   w1=SignalSpec(kind="constant", value=1.0)))
    spans = dropout_spans(trace, "plant")
    drops = [e for e in trace.events_on("plant") if e.dropped]
    assert len(spans) == 1 and len(drops) == 1
    a, b = spans[0]
    assert a == drops[0].t
    recommit = next(e for e in trace.commits_on("plant") if e.t > a)
    assert b == recommit.t


def test_logarithmic_quantizers_in_the_loop():
    log_q = QuantizerSpec(kind="logarithmic", density=0.5, u0=16.0,
                          sector=(0.0, 4.0 / 3.0))
    trace = run_scenario(_scenario(quant_p=log_q, quant_c=log_q,
                                   x0_plant=np.array([5.0, -8.0]),
                                   w1=SignalSpec(kind="constant", value=1.0),
                                   t_end=2.0))
    assert np.all(np.isfinite(trace.y_p))
    # wire values are actual quantizer outputs of the held transformed sample
    from etncs.quantizer import quantize
    g = trace.config.gains
    assert np.array_equal(trace.y_qp,
                          quantize(log_q, g.m11 * trace.u_tilde_c))
    me = compute_metrics(trace)
    assert me["trigger_ok_p"] and me["trigger_ok_c"]


def test_signal_generators():
    pw = build_signal(SignalSpec(kind="piecewise_uniform", lo=0.0, hi=2.0,
                                 dwell=0.1, seed=9))
    vals = np.array([pw(t)[0] for t in np.arange(0.0, 1.0, 1e-3)])
    assert np.all((vals >= 0.0) & (vals <= 2.0))
    # constant within each dwell window, and reproducible
    assert len(np.unique(vals[:100])) == 1
    assert len(np.unique(np.round(vals, 12))) == 10
    pw2 = build_signal(SignalSpec(kind="piecewise_uniform", lo=0.0, hi=2.0,
                                  dwell=0.1, seed=9))
    assert pw2(0.55) == pw(0.55)
    assert pw.slope_bound == 0.0
    sine = build_signal(SignalSpec(kind="sine", amplitude=2.0, freq=3.0))
    assert sine.slope_bound == pytest.approx(2.0 * 2.0 * math.pi * 3.0)
    assert sine(0.25 / 3.0)[0] == pytest.approx(2.0)


def _dropout_run():
    pc = ChannelConfig(DelayProfile(t0=0.01, d=0.0, form="constant"),
                       DropoutModel(kind="pattern", pattern=(1, 0, 0, 1, 0)))
    cp = ChannelConfig(DelayProfile(t0=0.02, d=0.0, form="constant"),
                       DropoutModel(kind="pattern", pattern=(1, 1, 0)))
    return run_scenario(_scenario(chan_pc=pc, chan_cp=cp,
                                  x0_plant=np.array([5.0, -8.0]),
                                  w1=SignalSpec(kind="constant", value=1.0)))


def test_read_trace_round_trip_equals_run(tmp_path):
    from dataclasses import fields

    from etncs.sim import read_trace, write_events_csv
    trace = _dropout_run()
    assert any(e.dropped for e in trace.events_on("plant"))
    assert any(e.dropped for e in trace.events_on("controller"))
    write_trace_csv(trace, tmp_path / "trace.csv")
    write_events_csv(trace, tmp_path / "events.csv")
    back = read_trace(trace.config, tmp_path / "trace.csv", tmp_path / "events.csv")
    for f in fields(trace):
        if f.name not in ("config", "events"):
            assert np.array_equal(getattr(back, f.name), getattr(trace, f.name)), f.name
    assert len(back.events) == len(trace.events)
    for got, want in zip(back.events, trace.events):
        for f in fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert (np.array_equal(a, b) if isinstance(b, np.ndarray)
                    else a == b and type(a) is type(b)), f.name


def test_held_samples_match_logged_hold():
    from etncs.sim import held_samples
    trace = _dropout_run()
    assert np.array_equal(held_samples(trace, "plant"), trace.u_tilde_c)
    assert np.allclose(held_samples(trace, "controller"), trace.y_c - trace.e_c,
                       rtol=0, atol=1e-12)
