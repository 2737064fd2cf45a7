import dataclasses
import decimal
import functools
import hashlib
import math
import re
import tracemalloc
from pathlib import Path
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etncs import sim
from etncs.config import load_config, run_design, build_scenario
from etncs.core import PassivityIndices, SystemModel
from etncs.design import TransformGains
from etncs.models import cubic_nl2, firstorder_lead, lti_siso
from etncs.network import DelayProfile, DropoutModel
from etncs.quantizer import QuantizerSpec
from etncs.signals import Signal, SignalSpec, hash_uniform
from etncs.sim import (_BLOCK_ROWS, TRACE_COLUMNS, ChannelConfig, DivergenceError, EventTable,
                       ScenarioConfig, compute_metrics, dropout_spans, format_blocks,
                       read_trace_csv, run_scenario, text_bytes, write_trace_csv)
from etncs.trigger import TriggerConfig

import whole

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
    trace = whole.run(sc)
    for arr in (trace.y_p, trace.u_p, trace.y_c, trace.u_c, trace.y_tilde_c):
        assert np.all(arr == 0.0)
    # only the unconditional t=0 transmissions
    assert len(trace.commits_on("plant")) == 1
    assert len(trace.commits_on("controller")) == 1
    me = whole.metrics(trace)
    assert me["min_gap_p"] == sc.t_end
    assert me["min_gap_c"] == sc.t_end


def test_row_count_matches_grid():
    trace = whole.run(_scenario(t_end=0.01))
    assert len(trace.t) == 11
    assert trace.t[0] == 0.0
    assert trace.t[-1] == pytest.approx(0.01)


def test_deterministic_reruns_bit_identical(tmp_path):
    cfg = load_config(CONFIG_DIR / "worked_example.cfg")
    cfg["sim.t_end"] = "1.0"
    traces = [whole.run(build_scenario(cfg)[0]) for _ in range(2)]
    for name in ("y_p", "x_p", "u_r", "y_qc", "w1"):
        assert np.array_equal(getattr(traces[0], name), getattr(traces[1], name))
    paths = []
    for i, tr in enumerate(traces):
        p = tmp_path / f"t{i}.csv"
        whole.write_trace(tr, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_events_lie_on_sample_grid():
    trace = whole.run(_scenario(w1=SignalSpec(kind="constant", value=1.0)))
    k = trace.events.t / trace.config.h
    assert len(k) and np.all(np.abs(k - np.round(k)) < 1e-9)


def test_error_resets_only_on_success():
    # pattern: keep the initial send, drop the next two plant attempts
    chan = ChannelConfig(DelayProfile(t0=0.0, d=0.0, form="constant"),
                         DropoutModel(kind="pattern", pattern=(1, 0, 0)))
    trace = whole.run(_scenario(chan_pc=chan, x0_plant=np.array([1.0, -4.0]),
                                w1=SignalSpec(kind="constant", value=1.0)))
    plant = trace.events_on("plant")
    drops = plant[plant.dropped]
    assert len(drops) == 2
    # the two drops are consecutive samples: the violation persists
    assert drops.sample_index[1] == drops.sample_index[0] + 1
    k = drops.sample_index[0]
    assert np.linalg.norm(trace.e_p[k]) > 0.0
    commits = trace.commits_on("plant")
    recommit = np.flatnonzero(commits.t > drops.t[0])[0]
    assert commits.drops_before[recommit] == 2
    # after the successful commit the logged error is zero again
    assert np.linalg.norm(trace.e_p[commits.sample_index[recommit]]) == 0.0


def test_budget_exceeded_flagged_in_metrics():
    cfg = load_config(CONFIG_DIR / "worked_example.cfg")
    params, result = run_design(cfg)
    assert result.d_p_max == 1
    chan = ChannelConfig(DelayProfile(t0=0.5, d=0.3, form="affine"),
                         DropoutModel(kind="pattern", pattern=(1, 0, 0)))
    trace = whole.run(_scenario(chan_pc=chan,
                                x0_plant=np.array([10.0, -14.0]),
                                w1=SignalSpec(kind="constant", value=1.0),
                                gains=result.gains))
    me = whole.metrics(trace, result, params)
    assert me["max_consec_drops_p"] == 2
    assert me["budget_ok_p"] is False
    assert me["commit_rate_p"] == np.count_nonzero(trace.events.commits("plant")) / trace.config.t_end


def test_trigger_inequality_between_events():
    trace = whole.run(_scenario(
        x0_plant=np.array([5.0, -8.0]),
        w1=SignalSpec(kind="piecewise_uniform", lo=0.0, hi=2.0, dwell=0.1, seed=3),
        t_end=2.0))
    me = whole.metrics(trace)
    assert me["trigger_ok_p"] and me["trigger_ok_c"]
    assert me["sampled_bound_ok_p"] and me["sampled_bound_ok_c"]


def test_zoh_piecewise_constant_between_arrivals():
    trace = whole.run(_scenario(
        chan_cp=ChannelConfig(DelayProfile(t0=0.6, d=0.2, form="affine")),
        x0_plant=np.array([5.0, -8.0]),
        w1=SignalSpec(kind="constant", value=1.0), t_end=2.0))
    arrivals = trace.config.chan_cp.delay.arrival(trace.commits_on("controller").t)
    changes = [k for k in range(1, len(trace.t))
               if not np.array_equal(trace.u_r[k], trace.u_r[k - 1])]
    assert changes, "the held link value never updated"
    for k in changes:
        assert any(trace.t[k - 1] < a <= trace.t[k] + 1e-12 for a in arrivals)


def test_committed_sample_equals_output_row():
    trace = whole.run(_scenario(x0_plant=np.array([5.0, -8.0]),
                                w1=SignalSpec(kind="constant", value=1.0)))
    for side, y in (("plant", trace.y_p), ("controller", trace.y_c)):
        commits = trace.commits_on(side)
        assert len(commits) > 1
        assert np.array_equal(commits.committed, y[commits.sample_index])


def test_energy_audit_closed_loop():
    trace = whole.run(_scenario(x0_plant=np.array([10.0, -14.0]),
                                w1=SignalSpec(kind="piecewise_uniform",
                                              lo=0.0, hi=2.0, dwell=0.1, seed=5),
                                t_end=2.0))
    me = whole.metrics(trace)
    assert me["dissip_ok_p"]
    assert me["dissip_norm_residual_max_p"] < 1.0


def test_divergence_aborts_with_row_index():
    plant = lti_siso(5.0, 1.0, 1.0, 0.0, nu=0.0, rho=0.0, name="unstable")
    sc = _scenario(plant=plant, x0_plant=np.array([1.0]),
                   divergence_limit=1e6, t_end=5.0)
    with pytest.raises(DivergenceError) as err:
        whole.run(sc)
    assert err.value.row > 0
    assert "row" in str(err.value)


def _constant_from(t_first, value, model, name):
    """``model`` whose dynamics return ``value`` everywhere at every stage
    time from ``t_first`` on.  Step k evaluates at k*h, k*h + h/2 and
    (k+1)*h, so 0.2502 is first reached inside step 250, which fills row 251."""
    def f(x, u, t):
        return np.full_like(x, value) if t >= t_first else model.dynamics(x, u, t)
    return dataclasses.replace(model, dynamics=f, name=name)


def _third_stage_inf_at_step_100():
    """The plant x' = 1 whose RK4 stage k3 alone is infinite, in step 100."""
    calls = []

    def f(x, u, t):
        calls.append(t)
        return np.array([np.inf if len(calls) == 4 * 100 + 3 else 1.0])
    return dict(plant=dataclasses.replace(lti_siso(-1.0, 1.0, 1.0, 0.0), dynamics=f,
                                          name="bad_k3"), x0_plant=np.array([1.0]))


@pytest.mark.parametrize("make, row, detail", [
    (lambda: dict(plant=_constant_from(0.2502, math.nan, cubic_nl2(), "nan_late")),
     251, "non-finite step at t=0.25 (model 'nan_late')"),
    (_third_stage_inf_at_step_100, 101, "non-finite step at t=0.1 (model 'bad_k3')"),
    # in one row the plant passes the limit and the controller turns NaN:
    # the controller's non-finite state is named
    (lambda: dict(plant=_constant_from(0.2502, 1e12, lti_siso(-1.0, 1.0, 1.0, 0.0), "jump"),
                  x0_plant=np.array([1.0]), divergence_limit=1e6,
                  controller=_constant_from(0.2502, math.nan, firstorder_lead(), "nan_ctrl")),
     251, "non-finite step at t=0.25 (model 'nan_ctrl')"),
], ids=["nan-from-a-row", "inf-third-stage", "nonfinite-outranks-norm"])
def test_nonfinite_step_diverges_at_its_row(make, row, detail):
    with pytest.raises(DivergenceError) as err:
        whole.run(_scenario(**make()))
    assert err.value.row == row
    assert str(err.value) == f"divergence at row {row} (t={row * 1e-3:.6f}): {detail}"


def test_approximates_continuous_feedback():
    # tiny thresholds, pass-through quantizers, zero delay and near-zero
    # coupling gain reduce the loop to u_p = w1 - y_c, u_c = y_p up to one
    # sample of transport lag
    h, t_end = 1e-3, 2.0
    sc = _scenario(gains=TransformGains(m11=1.0, m21=-1e-9, m22=1.0),
                   trigger_p=TriggerConfig(1e-8), trigger_c=TriggerConfig(1e-8),
                   w1=SignalSpec(kind="constant", value=1.0), t_end=t_end)
    trace = whole.run(sc)

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
    trace = whole.run(_scenario(chan_pc=chan,
                                x0_plant=np.array([5.0, -8.0]),
                                w1=SignalSpec(kind="constant", value=1.0)))
    starts, ends = dropout_spans(trace, "plant")
    plant = trace.events_on("plant")
    drops = plant.sample_index[plant.dropped]
    assert len(starts) == len(ends) == 1 and len(drops) == 1
    a, b = starts[0], ends[0]
    assert a == drops[0]
    commits = trace.commits_on("plant").sample_index
    assert b == commits[commits > a][0]


def test_logarithmic_quantizers_in_the_loop():
    log_q = QuantizerSpec(kind="logarithmic", density=0.5, u0=16.0,
                          sector=(0.0, 4.0 / 3.0))
    trace = whole.run(_scenario(quant_p=log_q, quant_c=log_q,
                                x0_plant=np.array([5.0, -8.0]),
                                w1=SignalSpec(kind="constant", value=1.0),
                                t_end=2.0))
    assert np.all(np.isfinite(trace.y_p))
    # wire values are actual quantizer outputs of the held transformed sample
    from etncs.quantizer import quantize
    g = trace.config.gains
    assert np.array_equal(trace.y_qp,
                          quantize(log_q, g.m11 * trace.u_tilde_c))
    me = whole.metrics(trace)
    assert me["trigger_ok_p"] and me["trigger_ok_c"]


def test_signal_generators():
    pw = Signal(SignalSpec(kind="piecewise_uniform", lo=0.0, hi=2.0,
                           dwell=0.1, seed=9))
    vals = np.array([pw(t)[0] for t in np.arange(0.0, 1.0, 1e-3)])
    assert np.all((vals >= 0.0) & (vals <= 2.0))
    # constant within each dwell window, and reproducible
    assert len(np.unique(vals[:100])) == 1
    assert len(np.unique(np.round(vals, 12))) == 10
    pw2 = Signal(SignalSpec(kind="piecewise_uniform", lo=0.0, hi=2.0,
                            dwell=0.1, seed=9))
    assert pw2(0.55) == pw(0.55)
    assert pw.slope_bound == 0.0
    sine = Signal(SignalSpec(kind="sine", amplitude=2.0, freq=3.0))
    assert sine.slope_bound == pytest.approx(2.0 * 2.0 * math.pi * 3.0)
    assert sine(0.25 / 3.0)[0] == pytest.approx(2.0)


@pytest.mark.parametrize("key", ["sig/7/0", "101/pc/0", "202/cp/12345", "", "sig/\u00e9/\u2603"])
def test_hash_uniform_is_the_hashlib_sha256_draw(key):
    """The built-in sha256 the draws bind gives hashlib's digest."""
    digest = hashlib.sha256(key.encode()).digest()
    assert hash_uniform(key) == int.from_bytes(digest[:8], "big") / 2 ** 64


def _dropout_run():
    pc = ChannelConfig(DelayProfile(t0=0.01, d=0.0, form="constant"),
                       DropoutModel(kind="pattern", pattern=(1, 0, 0, 1, 0)))
    cp = ChannelConfig(DelayProfile(t0=0.02, d=0.0, form="constant"),
                       DropoutModel(kind="pattern", pattern=(1, 1, 0)))
    return whole.run(_scenario(chan_pc=pc, chan_cp=cp,
                               x0_plant=np.array([5.0, -8.0]),
                               w1=SignalSpec(kind="constant", value=1.0)))


def test_read_trace_round_trip_equals_run(tmp_path):
    from dataclasses import fields

    from etncs.sim import write_events_csv
    trace = _dropout_run()
    assert trace.events_on("plant").dropped.any()
    assert trace.events_on("controller").dropped.any()
    whole.write_trace(trace, tmp_path / "trace.csv")
    write_events_csv(trace, tmp_path / "events.csv")
    back = whole.read(trace.config, tmp_path / "trace.csv", tmp_path / "events.csv")
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(back, name), getattr(trace, name)), name
    for f in fields(EventTable):
        a, b = getattr(back.events, f.name), getattr(trace.events, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name


_MODELS = dict(plant=cubic_nl2(), controller=firstorder_lead())   # lanes share models


def _bernoulli_lane(seed: int, w1: SignalSpec) -> ScenarioConfig:
    chan = ChannelConfig(DelayProfile(t0=0.01, d=0.0, form="constant"),
                         DropoutModel(kind="bernoulli", p=0.5, seed=seed))
    return _scenario(chan_pc=chan, chan_cp=chan, x0_plant=np.array([5.0, -8.0]), w1=w1,
                     **_MODELS)


def test_event_table_holds_equal_the_loops_live_holds():
    """With identity quantizers the loop logs y_qp = m11 * its live plant
    hold and y_qc = its live controller hold; held_samples reads the holds
    back from the event table, and they agree bit for bit, on a single run
    and on each lane of a batch."""
    from etncs.sim import held_samples
    solo = whole.run(_bernoulli_lane(11, SignalSpec(kind="constant", value=1.0)))
    batch = whole.lanes([_bernoulli_lane(seed, SignalSpec(kind="sine", amplitude=a, freq=2.0))
                         for seed, a in ((21, 1.0), (22, 2.0), (24, 3.0))])
    for trace in (solo, *batch):
        ev, rows, m11 = trace.events, len(trace.t), trace.config.gains.m11
        assert (ev.on("plant") & ev.dropped).any() and (ev.on("controller") & ev.dropped).any()
        for logged, held in ((trace.y_qc, held_samples(ev, "controller", rows)),
                             (trace.y_qp, m11 * held_samples(ev, "plant", rows))):
            assert logged.view(np.int64).tolist() == held.view(np.int64).tolist()


_SIGNAL_SPECS = st.one_of(
    st.just(SignalSpec(kind="zero")),
    st.builds(SignalSpec, kind=st.just("constant"),
              value=st.floats(-1e3, 1e3)),
    st.builds(lambda lo, width, dwell, seed: SignalSpec(
        kind="piecewise_uniform", lo=lo, hi=lo + width, dwell=dwell, seed=seed),
              st.floats(-10, 10), st.floats(0, 10), st.floats(1e-3, 2.0),
              st.integers(0, 2 ** 32)),
    st.builds(SignalSpec, kind=st.just("sine"), amplitude=st.floats(-5, 5),
              freq=st.floats(0, 50), phase=st.floats(-4, 4)),
)


@given(spec=_SIGNAL_SPECS,
       times=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40),
       h=st.sampled_from([1e-3, 1e-2, 0.05]), n=st.integers(1, 300))
def test_signal_on_times_equals_per_time_calls(spec, times, h, n):
    sig = Signal(spec)
    for ts in (np.array(times), np.arange(n) * h):
        got = sig(ts)
        assert got.shape == (len(ts), 1)
        assert np.array_equal(got, np.array([sig(float(t)) for t in ts]))


_ONE, _TWO = "%.16e" % 1, "%.16e" % 2
# id -> (text, message after "trace file <path>"); the first nine ids are
# those the cases had when they named np.loadtxt's messages
_MALFORMED = {
    "-is empty": ("", " is empty"),
    "t,x\n-no data rows": ("t,x\n", " has no data rows"),
    "t,x\n\n \n-no data rows": ("t,x\n\n \n", " line 2: expected 2 fields, got 1"),
    "t,x\n1,2\n3\n-columns": (f"t,x\n{_ONE},{_TWO}\n{_ONE}\n",
                               " line 3: expected 2 fields, got 1"),
    "t,x\n1,2\n3,4,5\n-columns": (f"t,x\n{_ONE},{_TWO}\n{_ONE},{_ONE},{_ONE}\n",
                                   " line 3: expected 2 fields, got 3"),
    "t,x,y\n1,2\n-ragged rows": (f"t,x,y\n{_ONE},{_TWO}\n", " line 2: expected 3 fields, got 2"),
    "t,x\n1,abc\n-convert": (f"t,x\n{_ONE},abc\n",
                             " line 2 field 2: b'abc' is not in the writer's layout"),
    "t,x\n1,\n-convert": (f"t,x\n{_ONE},\n", " line 2 field 2: b'' is not in the writer's layout"),
    "t,x\n1,2#3\n-convert": (f"t,x\n{_ONE},2#3\n",
                             " line 2 field 2: b'2#3' is not in the writer's layout"),
    "short value": (f"t,x\n{_ONE},2\n", " line 2 field 2: b'2' is not in the writer's layout"),
    "signed nan": (f"t,x\n{_ONE},-nan\n", " line 2 field 2: b'-nan' is not in the writer's layout"),
    "CRLF header": (f"t,x\r\n{_ONE},{_TWO}\n", " line 1: b't,x\\r\\n' is not a header line"),
    "blank header": (f"\n{_ONE},{_TWO}\n", " line 1: b'\\n' is not a header line"),
    "no final newline": (f"t,x\n{_ONE},{_TWO}\n{_ONE},{_TWO}",
                         " line 3: no newline at the end of the file"),
    "long line": (f"t,x\n{_ONE},{_TWO}\n{'1' * 20_000},{_TWO}\n",
                  " line 3: longer than the writer's lines"),
}


@pytest.mark.parametrize("text, message", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_read_trace_csv_rejects_malformed(tmp_path, text, message):
    """Text outside the writer's layout is a ValueError naming the file and
    the line, and the field where one is at fault."""
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'trace file {path}{message}')}$"):
        whole.matrix(path)


_BITS = np.array([0x7FF8000000000123, 0x7FF0000000000001, -0x0007FFFFFFFFFF00],
                 dtype=np.int64).view(np.float64).tolist()   # NaN payloads
_EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, *_BITS]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@given(rows=st.sampled_from([1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                             2 * _BLOCK_ROWS + 1]),
       cols=st.integers(1, 3),
       runs=st.lists(st.tuples(_EDGE_VALUES, st.integers(1, 2 * _BLOCK_ROWS + 1)),
                     min_size=1, max_size=6))
@example(rows=_BLOCK_ROWS + 1, cols=1, runs=[(0.0, _BLOCK_ROWS - 1), (-0.0, 2)])
def test_format_blocks_text_equals_per_value_format(rows, cols, runs):
    values, lengths = zip(*runs)
    # runs of one value go down each column, so some cross a block edge
    seq = np.resize(np.repeat(np.array(values, dtype=np.float64), lengths),
                    rows * cols)
    mat = np.ascontiguousarray(seq.reshape(cols, rows).T)
    blocks = list(format_blocks(mat))
    assert len(blocks) == -(-rows // _BLOCK_ROWS)
    assert _decode(np.vstack(blocks)) == [["%.16e" % v for v in row]
                                          for row in mat.tolist()]


def _decode(slots):
    """The text in each slot of ``format_blocks`` output, NULs dropped."""
    marked = slots.copy()
    marked[..., -1] = ord(",")
    cells = text_bytes(marked).decode().split(",")[:-1]
    return np.array(cells, dtype=object).reshape(slots.shape[:2]).tolist()


def _halfway_candidates():
    """Values m * 2^-(p+s) whose 17-digit mantissa N = m * 5^p / 2^s lies
    r / 2^s past a half-integer: exact ties (s = 1), and near ties the
    double-double arithmetic cannot tell from one."""
    out = []
    for p in range(90):
        five = 5 ** p
        for s in range(1, 54):
            inverse = pow(five, -1, 1 << s)
            for r in ((0,) if s == 1 else (-1, 1)):
                m = ((1 << (s - 1)) + r) * inverse % (1 << s)
                low = -(-(10 ** 16 << s) // five)   # the least m with N >= 1e16
                m += max(0, -(-(low - m) >> s)) << s
                if m < 2 ** 53 and m * five < 10 ** 17 << s:
                    out.append(math.ldexp(m, -(p + s)))
    return out


def _hard_values() -> np.ndarray:
    """Random bit patterns (NaN payloads, infinities, subnormals among them),
    each 10^k with its neighbours, exact and near halfway cases and signed
    zeros, each with its negation."""
    rng = np.random.default_rng(16)
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    ties = np.array(_halfway_candidates())
    values = np.concatenate([
        rng.integers(-2 ** 63, 2 ** 63, 10 ** 5, dtype=np.int64).view(np.float64),
        powers, np.nextafter(powers, 0), np.nextafter(powers, math.inf),
        ties, np.nextafter(ties, 0), np.nextafter(ties, math.inf),
        np.array([0.0, -0.0, -0.0, 0.0, math.inf, -math.inf, *_BITS])])
    assert len(ties) > 1000
    return np.concatenate([values, -values])


def test_format_blocks_is_exact_on_hard_values():
    """Every kind of value the fast path takes or hands to the per-value
    format, against ``"%.16e" % v``: the hard values and runs of equal bits."""
    values = _hard_values()
    # consecutive values go down a column, so the signed zeros make runs
    mat = np.ascontiguousarray(values[:len(values) // 4 * 4].reshape(4, -1).T)
    assert _decode(np.vstack(list(format_blocks(mat)))) == [
        ["%.16e" % v for v in row] for row in mat.tolist()]


def _write_body(path: Path, mat: np.ndarray) -> None:
    """A trace file of ``mat`` as ``write_trace_csv`` writes one."""
    names = [f"c{j}" for j in range(mat.shape[1])]
    seps = np.frombuffer(b"," * (len(names) - 1) + b"\n", np.uint8)
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for text in format_blocks(mat):
            text[:, :, -1] = seps
            fh.write(text_bytes(text))


def _loadtxt(path: Path) -> np.ndarray:
    with open(path) as fh:
        fh.readline()
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def test_read_trace_csv_equals_loadtxt_on_the_hard_values(tmp_path, monkeypatch):
    """The finite hard values, written as a trace body, read back bit-equal
    to np.loadtxt of the same file, without np.loadtxt: every field is in
    the writer's layout, and those outside the numpy path's range or near a
    tie go through float()."""
    values = _hard_values()
    values = values[np.isfinite(values)]
    mat = np.ascontiguousarray(values[:len(values) // 4 * 4].reshape(4, -1).T)
    path = tmp_path / "trace.csv"
    _write_body(path, mat)
    want = _loadtxt(path)

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called on text in the writer's layout")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    names, got = whole.matrix(path)
    assert names == ["c0", "c1", "c2", "c3"]
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(got), _bits(mat))


def _midpoint_texts(rng, n: int) -> List[str]:
    """The 17-digit decimals nearest the midpoints between n random positive
    doubles and the next double up, and between 2^k and its neighbours, in
    the writer's layout; about half negated."""
    xs = np.abs(rng.integers(-2 ** 63, 2 ** 63, n, dtype=np.int64).view(np.float64))
    xs = [x for x in xs.tolist() if 0 < x < math.inf]
    pairs = [(x, math.nextafter(x, math.inf)) for x in xs]
    for k in range(-1070, 1024, 11):
        two = math.ldexp(1.0, k)
        pairs += [(math.nextafter(two, 0), two), (two, math.nextafter(two, math.inf))]
    texts = []
    with decimal.localcontext() as ctx:
        ctx.prec = 1200   # every sum of two doubles exactly
        for i, (a, b) in enumerate(pairs):
            mantissa, exp = format((decimal.Decimal(a) + decimal.Decimal(b)) / 2,
                                   ".16e").split("e")
            texts.append(("-" if i % 2 else "") + f"{mantissa}e{int(exp):+03d}")
    return texts


def test_read_trace_csv_reads_midpoint_decimals_as_float_does(tmp_path):
    """17-digit decimals nearest the midpoints between adjacent doubles, the
    inputs the numpy path's 0.499 margin is for, read as float() reads them."""
    texts = _midpoint_texts(np.random.default_rng(19), 6000)
    texts = texts[:len(texts) // 4 * 4]
    path = tmp_path / "trace.csv"
    path.write_text("a,b,c,d\n" + "".join(",".join(texts[i:i + 4]) + "\n"
                                          for i in range(0, len(texts), 4)))
    names, got = whole.matrix(path)
    want = np.array([float(t) for t in texts]).reshape(-1, 4)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_read_trace_csv_of_a_non_finite_value_takes_loadtxt(tmp_path, monkeypatch, value):
    """NaN and the infinities, which the writer spells nan, inf and -inf,
    are in its layout: the file reads without np.loadtxt, bit-equal to
    np.loadtxt of it."""
    mat = np.linspace(-1.0, 1.0, 3 * _BLOCK_ROWS * 2).reshape(-1, 2)
    mat[_BLOCK_ROWS + 7, 1] = value
    path = tmp_path / "trace.csv"
    _write_body(path, mat)
    assert ("%.16e" % value).encode() in path.read_bytes().splitlines()[_BLOCK_ROWS + 8]
    want = _loadtxt(path)

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called on text in the writer's layout")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    names, got = whole.matrix(path)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(got), _bits(mat))


def test_read_trace_csv_peak_memory_is_one_block(tmp_path):
    """The reader parses a block of rows at a time into one block matrix,
    reused for every block: its tracemalloc peak on a 20 001 x 17 trace,
    read through, is at most one block's bytes plus 1 MiB.  So is its peak
    on the same trace with one value of a late block respelled ('e' as
    'E'), which ends the read with a ValueError naming that line."""
    from etncs.sim import _RUN_BLOCK

    rng = np.random.default_rng(20)
    mat = rng.standard_normal((20_001, 17)) * 10.0 ** rng.integers(-3, 4, (20_001, 17))
    path = tmp_path / "trace.csv"
    _write_body(path, mat)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[18_001] = lines[18_001].replace(b"e", b"E", 1)
    respelled = tmp_path / "respelled.csv"
    respelled.write_bytes(b"".join(lines))
    for _ in read_trace_csv(path)[1]:   # loads the reader's module and tables first
        pass
    rows = 0
    tracemalloc.start()
    try:
        names, blocks = read_trace_csv(path)
        for block in blocks:
            assert np.array_equal(_bits(block), _bits(mat[rows:rows + len(block)]))
            rows += len(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == len(mat)
    assert peak <= _RUN_BLOCK * 17 * 8 + 2 ** 20
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{re.escape(str(respelled))} line 18002 field 1: "):
            for _ in read_trace_csv(respelled)[1]:
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _RUN_BLOCK * 17 * 8 + 2 ** 20


@pytest.mark.parametrize("rows", [0, 1])
def test_report_files_of_zero_and_one_row(tmp_path, rows):
    """An empty column pair writes an empty file, one row writes one line."""
    from etncs.cli import _write_dat_blocks

    x, y = np.arange(rows, dtype=float) + 0.5, -np.arange(rows, dtype=float)
    _write_dat_blocks(tmp_path, ["a.dat", "b.dat"], [(x, y, 2 * y)])
    assert len(list(format_blocks(x))) == rows
    assert (tmp_path / "a.dat").read_text() == "".join(
        "%.16e %.16e\n" % (a, b) for a, b in zip(x, y))
    assert (tmp_path / "b.dat").read_text() == "".join(
        "%.16e %.16e\n" % (a, 2 * b) for a, b in zip(x, y))


def _same_run(a, b):
    """Every signal column and every event column with the same dtype, shape
    and bytes, so NaN payloads and the sign of zero count too."""
    for name in TRACE_COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    for f in dataclasses.fields(EventTable):
        x, y = getattr(a.events, f.name), getattr(b.events, f.name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


def test_lockstep_lanes_match_solo_runs_and_a_diverging_lane_retires():
    # lanes share the model objects and differ in w1, w2 and the dropout
    # seeds; the second lane's w1 drives the plant state past the limit and
    # the last one's makes the first step non-finite
    plant, controller = lti_siso(-1.0, 1.0, 1.0, 0.0), firstorder_lead()

    def lane(w1, seed):
        drop = DropoutModel(kind="bernoulli", p=0.5, seed=seed, max_consecutive=1)
        return _scenario(plant=plant, controller=controller, x0_plant=np.array([1.0]),
                         w1=w1, w2=SignalSpec(kind="sine", amplitude=0.1 * seed),
                         chan_pc=ChannelConfig(DelayProfile(t0=0.05, d=0.2), drop),
                         chan_cp=ChannelConfig(DelayProfile(t0=0.02, d=0.1), drop),
                         divergence_limit=1e6, t_end=0.5)

    lanes = [lane(SignalSpec(kind="piecewise_uniform", lo=0.0, hi=2.0, seed=3), 1),
             lane(SignalSpec(kind="constant", value=1e8), 2),
             lane(SignalSpec(kind="constant", value=1.0), 3),
             lane(SignalSpec(kind="constant", value=math.nan), 4)]
    runs = whole.lanes(lanes)
    for i, detail in ((1, "plant state norm"), (3, "non-finite step")):
        with pytest.raises(DivergenceError) as solo:
            whole.run(lanes[i])
        assert detail in str(solo.value)
        assert str(runs[i]) == str(solo.value) and runs[i].row == solo.value.row
    assert runs[3].row == 1 < runs[1].row
    for i in (0, 2):
        _same_run(runs[i], whole.run(lanes[i]))
        assert len(runs[i].t) == 501


# constant disturbances that stay below the limit, ones that drive the plant
# state past it near rows 238, 109, 35, 11 and 2 of the lanes below, and NaN,
# which ends the first step
_LANE_W1 = [0.0, -3.0, 2e6, 5e6, -1e7, 3e7, -1e8, 1e9, math.nan]
# both sides logarithmic: levels from a log and a power, quantized one row
# at a time in a batch and as one array in a single run
LOG_Q = QuantizerSpec(kind="logarithmic", density=0.5, u0=16.0, sector=(0.0, 4.0 / 3.0))


@settings(max_examples=25, deadline=None)
@given(draws=st.lists(st.tuples(st.sampled_from(_LANE_W1), st.integers(0, 2 ** 31)),
                      min_size=2, max_size=5),
       quant=st.sampled_from([IDENTITY_Q, LOG_Q]))
@example(draws=[(5e6, 1), (0.0, 2), (1e9, 3), (math.nan, 4), (-3.0, 5)], quant=IDENTITY_Q)
@example(draws=[(0.0, 6), (-3.0, 7), (3e7, 8)], quant=LOG_Q)
def test_retired_lanes_leave_every_lane_as_its_solo_run(draws, quant):
    """Lanes retired at different rows, or all of them, change no other
    lane's bytes, and each retired lane reports its solo run's row and text."""
    plant, controller = lti_siso(-1.0, 1.0, 1.0, 0.0), firstorder_lead()

    def lane(w1, seed):
        drop = DropoutModel(kind="bernoulli", p=0.5, seed=seed)
        return _scenario(plant=plant, controller=controller, x0_plant=np.array([1.0]),
                         w1=SignalSpec(kind="constant", value=w1),
                         quant_p=quant, quant_c=quant,
                         chan_pc=ChannelConfig(DelayProfile(t0=0.05, d=0.2), drop),
                         chan_cp=ChannelConfig(DelayProfile(t0=0.02, d=0.1), drop),
                         divergence_limit=1e6, t_end=0.3)

    lanes = [lane(w1, seed) for w1, seed in draws]
    for run, sc in zip(whole.lanes(lanes), lanes):
        try:
            solo = whole.run(sc)
        except DivergenceError as err:
            assert isinstance(run, DivergenceError)
            assert (str(run), run.row) == (str(err), err.row)
            continue
        _same_run(run, solo)


def _two_port(a: float, b: float, c: float, d: float, indices: PassivityIndices,
              name: str) -> SystemModel:
    """x' = a*x + b*u, y = c*x + d*u on each of two decoupled ports."""
    def f(x, u, t):
        return (a * x[0] + b * u[0], a * x[1] + b * u[1])

    def h(x, u, t):
        return (c * x[0] + d * u[0], c * x[1] + d * u[1])

    return SystemModel(state_dim=2, input_dim=2, output_dim=2, dynamics=f, output=h,
                       indices=indices, name=name)


def _two_port_lanes() -> List[ScenarioConfig]:
    """Two m = 2 lanes, Bernoulli drops on both links, seeds 3 and 4."""
    plant = _two_port(-3.6, 2.0, 1.0, 0.0, PassivityIndices(nu=0.0, rho=1.8), "diagonal2")
    controller = _two_port(-3.0, 1.0, 7.0, 1.0, PassivityIndices(nu=0.49, rho=0.27), "lead2")
    mid_tread = QuantizerSpec(kind="uniform-mid-tread", step=0.25)

    def lane(seed):
        drop = DropoutModel(kind="bernoulli", p=0.5, seed=seed)
        return _scenario(plant=plant, controller=controller, x0_plant=np.array([5.0, -8.0]),
                         x0_controller=np.array([0.5, 0.0]), quant_p=mid_tread, quant_c=LOG_Q,
                         w1=SignalSpec(kind="piecewise_uniform", lo=-2.0, hi=2.0,
                                       dwell=0.05, seed=seed),
                         chan_pc=ChannelConfig(DelayProfile(t0=0.01, d=0.2), drop),
                         chan_cp=ChannelConfig(DelayProfile(t0=0.02, d=0.1), drop),
                         t_end=0.5)

    return [lane(seed) for seed in (3, 4)]


def test_two_port_lanes_match_their_solo_runs():
    """With m = 2 every row quantity is two rows, through the detectors'
    fold, both quantizers and the link holds; each lane of a Bernoulli
    batch keeps its solo run's bytes in every trace column and event field."""
    lanes = _two_port_lanes()
    for run, sc in zip(whole.lanes(lanes), lanes):
        ev = run.events
        assert run.y_p.shape == (501, 2) and ev.committed.shape[1] == 2
        assert (ev.on("plant") & ev.dropped).any() and (ev.on("controller") & ev.dropped).any()
        # every attempt's norm is numpy's row norm of the sample it sent
        assert ev.y_norm.tolist() == np.linalg.norm(ev.committed, axis=1).tolist()
        _same_run(run, whole.run(sc))


def test_two_port_files_read_back_bit_for_bit_and_verify(tmp_path):
    """Each m = 2 lane written to trace.csv and events.csv reads back with
    every trace column and event field bit for bit, and verify passes every
    check on the files."""
    from etncs.verify import verify_trace_files

    lanes = _two_port_lanes()
    for n, (run, sc) in enumerate(zip(whole.lanes(lanes), lanes)):
        trace, events = tmp_path / f"trace{n}.csv", tmp_path / f"events{n}.csv"
        whole.write_trace(run, trace)
        sim.write_events_csv(run, events)
        _same_run(whole.read(sc, trace, events), run)
        checks = verify_trace_files(sc, None, trace, events)
        assert len(checks) == 11 and all(ok for ok, _ in checks.values()), checks


def _bookkeeping_by_loop(ev: EventTable) -> list:
    """Each attempt's (attempt_index, drops_before, e_norm, y_norm) by a loop
    over the attempts that keeps, per side, an attempt counter, a count of
    consecutive drops that each commit resets, and the last commit (zeros
    before the first); a norm is the sqrt of a left fold of squares, which
    numpy's row reduction of two elements also is."""
    def norm(v):
        return math.sqrt(functools.reduce(lambda total, x: total + x * x, v, 0.0))

    count, drops = {True: 0, False: 0}, {True: 0, False: 0}
    last = {side: [0.0] * ev.committed.shape[1] for side in (True, False)}
    rows = []
    for plant, dropped, sample in zip(ev.plant.tolist(), ev.dropped.tolist(),
                                      ev.committed.tolist()):
        rows.append((count[plant], drops[plant],
                     norm([a - b for a, b in zip(sample, last[plant])]), norm(sample)))
        count[plant] += 1
        if dropped:
            drops[plant] += 1
        else:
            drops[plant], last[plant] = 0, sample
    return rows


@pytest.mark.parametrize("m", [1, 2])
def test_verify_rederives_the_executors_event_bookkeeping(m, tmp_path):
    """Every attempt's attempt_index, drops_before, e_norm and y_norm are
    those a per-attempt loop gives, with drops on both links, and verify
    fails committed_samples alone, naming that attempt, on a file whose
    later drop has a drops_before one off."""
    from etncs.verify import verify_trace_files

    drop = DropoutModel(kind="bernoulli", p=0.5, seed=3)
    ports = {} if m == 1 else dict(
        plant=_two_port(-3.6, 2.0, 1.0, 0.0, PassivityIndices(nu=0.0, rho=1.8), "diagonal2"),
        controller=_two_port(-3.0, 1.0, 7.0, 1.0, PassivityIndices(nu=0.49, rho=0.27), "lead2"),
        x0_controller=np.array([0.5, 0.0]))
    sc = _scenario(x0_plant=np.array([5.0, -8.0]), t_end=2.0,
                   w1=SignalSpec(kind="piecewise_uniform", lo=-2.0, hi=2.0, dwell=0.05, seed=3),
                   chan_pc=ChannelConfig(DelayProfile(t0=0.01, d=0.0), drop),
                   chan_cp=ChannelConfig(DelayProfile(t0=0.02, d=0.0), drop), **ports)
    run = whole.run(sc)
    ev = run.events
    assert ev.committed.shape[1] == m and (ev.drops_before > 1).any()
    assert list(zip(ev.attempt_index.tolist(), ev.drops_before.tolist(), ev.e_norm.tolist(),
                    ev.y_norm.tolist())) == _bookkeeping_by_loop(ev)

    trace, events = tmp_path / "trace.csv", tmp_path / "events.csv"
    whole.write_trace(run, trace)
    sim.write_events_csv(run, events)
    kept = verify_trace_files(sc, None, trace, events)
    drops_before = ev.drops_before.copy()
    (later,) = np.flatnonzero(ev.dropped & (ev.drops_before > 1))[-1:]
    drops_before[later] += 1
    sim.write_events_csv(dataclasses.replace(
        run, events=dataclasses.replace(ev, drops_before=drops_before)), events)
    checks = verify_trace_files(sc, None, trace, events)
    side = "plant" if ev.plant[later] else "controller"
    assert checks.pop("committed_samples") == (False, (
        f"{side} attempt at t={ev.t[later]:.6f} has an attempt_index, drops_before, "
        "e_norm or y_norm that its side's attempts do not give"))
    assert kept.pop("committed_samples")[0] and checks == kept


def test_one_lane_executor_memory_is_bounded():
    """A single run holds one block of log arrays, the rows of the current
    256-row chunk as tuples of floats and its event buffers, so a 20 s run
    of the worked example whose sink keeps nothing peaks under 768 KB
    (measured 474 KB; rows kept as floats for a whole 2 048-row block took
    about 1 MB)."""
    cfg, _, _ = build_scenario(load_config(CONFIG_DIR / "worked_example.cfg"))
    assert cfg.n_rows == 20_001
    run_scenario([cfg], [lambda block: None])   # loads and compiles every module first
    tracemalloc.start()
    try:
        run_scenario([cfg], [lambda block: None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768 * 1024


def test_a_model_returning_an_ndarray_runs_as_one_returning_rows():
    """dynamics may return its rows as a float ndarray, as models did before
    they worked on rows: a single run and a batch's lanes keep their bits."""
    def as_array(model):
        f = model.dynamics
        return dataclasses.replace(model, dynamics=lambda x, u, t: np.array(f(x, u, t)))

    def lane(plant, controller, seed):
        drop = DropoutModel(kind="bernoulli", p=0.3, seed=seed)
        return _scenario(plant=plant, controller=controller, x0_plant=np.array([5.0, -8.0]),
                         w1=SignalSpec(kind="piecewise_uniform", lo=-2.0, hi=2.0, seed=seed),
                         chan_pc=ChannelConfig(DelayProfile(t0=0.02, d=0.05), drop),
                         chan_cp=ChannelConfig(DelayProfile(t0=0.01, d=0.05), drop))

    rows = (cubic_nl2(), firstorder_lead())
    arrays = tuple(as_array(model) for model in rows)
    _same_run(whole.run(lane(*arrays, 1)), whole.run(lane(*rows, 1)))
    for a, b in zip(whole.lanes([lane(*arrays, s) for s in (1, 2)]),
                    whole.lanes([lane(*rows, s) for s in (1, 2)])):
        _same_run(a, b)


@pytest.mark.parametrize("field, override", [
    ("plant", {"plant": cubic_nl2(rho=1.7)}), ("h", {"h": 2e-3}), ("t_end", {"t_end": 0.5})])
def test_lockstep_lanes_share_all_but_disturbances_and_dropouts(field, override):
    shared = dict(plant=cubic_nl2(), controller=firstorder_lead())
    first = _scenario(**shared)
    second = _scenario(**{**shared, "w1": SignalSpec(kind="constant", value=1.0), **override})
    assert len(whole.lanes([first, _scenario(**shared)])) == 2
    with pytest.raises(ValueError, match=f"lane 1 differs from lane 0 in {field}; "
                                         "lanes may differ only"):
        whole.lanes([first, second])


def test_compute_metrics_reads_its_verdicts_from_checks_verdicts():
    """metrics.kv's shared booleans are checks.verdicts' pass flags, also
    when they fail: with the plant's commits after t=0 removed from the
    event table, the plant's held sample no longer follows its output."""
    trace = whole.run(_scenario(x0_plant=np.array([5.0, -8.0]),
                                w1=SignalSpec(kind="constant", value=1.0)))
    ev = trace.events
    tampered = dataclasses.replace(trace, events=ev[~ev.plant | (ev.sample_index == 0)])
    checks, _ = whole.verdicts(tampered)
    assert not checks["trigger_ineq_p"][0] and checks["trigger_ineq_c"][0]
    me = whole.metrics(tampered)
    for side in ("p", "c"):
        assert me[f"trigger_ok_{side}"] is checks[f"trigger_ineq_{side}"][0]
        assert me[f"sampled_bound_ok_{side}"] is checks[f"held_norm_bound_{side}"][0]
    assert me["dissip_ok_p"] is checks["dissipativity_p"][0]


def _value_bits(items: dict) -> dict:
    """The values of a dict, floats by their bits, so that NaN equals NaN."""
    return {k: np.float64(v).tobytes() if isinstance(v, float) else v for k, v in items.items()}


def test_blocks_merge_to_the_whole_runs_file_metrics_and_verdicts(tmp_path):
    """A run handed on one block at a time writes the whole run's trace.csv
    and merges to the whole run's metrics bit for bit, and the run read
    back a block at a time merges to its verdicts.  The run spans three
    blocks, with drops on both links and a dropout span across a block's
    edge on each side."""
    from etncs.checks import RunChecks, verdicts
    from etncs.sim import _RUN_BLOCK, read_events_csv, write_events_csv
    from etncs.tracecsv import read_run

    pc = ChannelConfig(DelayProfile(t0=0.01, d=0.0, form="constant"),
                       DropoutModel(kind="bernoulli", p=0.6, seed=5))
    cp = ChannelConfig(DelayProfile(t0=0.02, d=0.0, form="constant"),
                       DropoutModel(kind="bernoulli", p=0.6, seed=6))
    sc = _scenario(chan_pc=pc, chan_cp=cp, x0_plant=np.array([5.0, -8.0]), t_end=5.0,
                   w1=SignalSpec(kind="piecewise_uniform", lo=-2.0, hi=2.0, dwell=0.05, seed=3),
                   w2=SignalSpec(kind="sine", amplitude=0.5, freq=2.0))
    trace = whole.run(sc)
    whole.write_trace(trace, tmp_path / "trace.csv")
    write_events_csv(trace, tmp_path / "events.csv")
    for side in ("plant", "controller"):
        starts, ends = dropout_spans(trace, side)
        assert ((starts < 2 * _RUN_BLOCK) & (ends > 2 * _RUN_BLOCK)).any() or \
            ((starts < _RUN_BLOCK) & (ends > _RUN_BLOCK)).any()

    merged, sizes = RunChecks(sc), []
    with open(tmp_path / "blocks.csv", "wb") as fh:
        def sink(block):
            sizes.append(len(block.t))
            write_trace_csv(block, fh)
            merged.add(block)
        (merged.events,) = run_scenario([sc], [sink])
    assert sizes == [_RUN_BLOCK, _RUN_BLOCK, sc.n_rows - 2 * _RUN_BLOCK]
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "trace.csv").read_bytes()
    assert _value_bits(compute_metrics(merged)) == _value_bits(whole.metrics(trace))

    read = RunChecks(sc)
    read.events, blocks = read_run(sc, tmp_path / "trace.csv", tmp_path / "events.csv")
    for block in blocks:
        read.add(block)
    for got, want in zip(verdicts(read), whole.verdicts(trace)):
        assert _value_bits(got) == _value_bits(want)
    assert read_events_csv(tmp_path / "events.csv", 1).t.tobytes() == trace.events.t.tobytes()


@pytest.mark.parametrize("text", ["respelled", "garbled"])
def test_read_trace_csv_in_blocks_falls_back_where_the_layout_ends(tmp_path, text):
    """Read a block at a time, a trace gives its matrix's rows.  Text
    outside the writer's layout in the third block, a respelled or a
    garbled value, ends the read after two blocks were given, with a
    ValueError naming its line and field; the file reads in whole again
    once the value is written back."""
    from etncs.sim import _RUN_BLOCK

    mat = np.linspace(-1.0, 1.0, (3 * _RUN_BLOCK + 5) * 2).reshape(-1, 2)
    path = tmp_path / "trace.csv"
    _write_body(path, mat)
    lines = path.read_text().splitlines(keepends=True)
    row = 2 * _RUN_BLOCK + 100
    cell = lines[row + 1].split(",")[0]
    bad = cell.replace("e", "E") if text == "respelled" else "1.0x"
    lines[row + 1] = lines[row + 1].replace(cell, bad, 1)
    path.write_text("".join(lines))
    names, blocks = read_trace_csv(path)
    got = [next(blocks).copy(), next(blocks).copy()]
    assert np.array_equal(_bits(np.vstack(got)), _bits(mat[:2 * _RUN_BLOCK]))
    message = (f"trace file {path} line {row + 2} field 1: {bad.encode()!r} "
               "is not in the writer's layout")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        next(blocks)
    _write_body(path, mat)
    names, blocks = read_trace_csv(path)
    got = [block.copy() for block in blocks]
    assert [len(block) for block in got] == [_RUN_BLOCK] * 3 + [5]
    assert np.array_equal(_bits(np.vstack(got)), _bits(mat))
