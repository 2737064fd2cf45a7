import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etncs.trigger import (DetectorState, TriggerConfig, check_violation,
                           commit_transmission, sampled_output_bound_check,
                           trigger_inequality_check)


def _state(value, t=-np.inf):
    return DetectorState(last_sent_value=np.atleast_1d(np.asarray(value, float)),
                         last_sent_time=t)


def test_no_violation_when_error_zero():
    assert not check_violation(_state(1.0), [1.0], TriggerConfig(0.4))


def test_violation_arithmetic():
    # e^2 = 0.49 > 0.4 * 1.0
    assert check_violation(_state(0.3), [1.0], TriggerConfig(0.4))
    # e^2 = 0.36 < 0.4
    assert not check_violation(_state(0.4), [1.0], TriggerConfig(0.4))


def test_zero_output_zero_error_never_fires():
    assert not check_violation(_state(0.0), [0.0], TriggerConfig(0.4))


def test_zero_output_nonzero_error_fires():
    # strict inequality: any nonzero error over zero output fires
    assert check_violation(_state(0.5), [0.0], TriggerConfig(1.0))


def test_commit_resets_error_and_counts():
    s = _state(0.0)
    s = commit_transmission(s, [1.0], 1.0)
    assert not check_violation(s, [1.0], TriggerConfig(0.4))
    s = commit_transmission(s, [2.0], 2.0)
    assert s.event_count == 2
    assert s.last_sent_time == 2.0


def test_commit_rejects_time_travel():
    s = commit_transmission(_state(0.0), [1.0], 2.0)
    with pytest.raises(ValueError):
        commit_transmission(s, [1.0], 1.0)


@settings(max_examples=100)
@given(y=st.lists(st.floats(-100, 100), min_size=1, max_size=4),
       delta=st.floats(0.01, 1.0))
def test_commit_then_same_sample_never_violates(y, delta):
    s = commit_transmission(_state(np.zeros(len(y))), y, 0.0)
    assert not check_violation(s, y, TriggerConfig(delta))


def test_constant_output_fires_at_most_once():
    # delta = 1 with a fixed output: after one transmission the error stays
    # at zero, so the detector never fires again
    cfg = TriggerConfig(1.0)
    y = np.array([3.0])
    s = _state(-1.0)
    fires = 0
    for k in range(50):
        if check_violation(s, y, cfg):
            fires += 1
            s = commit_transmission(s, y, k * 0.1)
    assert fires == 1


def test_trigger_config_domain():
    TriggerConfig(1.0)
    with pytest.raises(ValueError):
        TriggerConfig(0.0)
    with pytest.raises(ValueError):
        TriggerConfig(1.5)


def test_inequality_check_flags_tampered_sample():
    times = np.arange(5) * 0.1
    y = np.ones((5, 1))
    held = np.ones((5, 1))
    held[3] = 3.0  # error 2 at a non-firing sample
    ok, bad = trigger_inequality_check(times, y, held, 0.4, attempt_times=[0.0])
    assert not ok and bad == [3]
    held[3] = 1.0
    ok, bad = trigger_inequality_check(times, y, held, 0.4, attempt_times=[0.0])
    assert ok and bad == []


def test_bound_check_constant_output_delta_one():
    times = np.arange(10) * 0.1
    y = np.full((10, 1), 2.0)
    held = np.full((10, 1), 2.0)
    rep = sampled_output_bound_check(times, y, held, delta=1.0)
    assert rep.ok


def test_bound_check_dropout_interval_excluded():
    # a dropped update leaves a stale large held value while the output
    # decays: the bound fails there, and the span exclusion recovers it
    times = np.arange(6) * 0.1
    y = np.array([[4.0], [2.0], [1.0], [0.5], [4.0], [4.0]])
    held = np.array([[4.0], [4.0], [4.0], [4.0], [4.0], [4.0]])
    rep = sampled_output_bound_check(times, y, held, delta=0.4)
    assert not rep.ok
    rep = sampled_output_bound_check(times, y, held, delta=0.4,
                                     dropout_spans=[(0.1, 0.4)])
    assert rep.ok
    assert rep.excluded_spans == ((0.1, 0.4),)


@settings(max_examples=200)
@given(y=st.lists(st.floats(-3, 3), min_size=1, max_size=40),
       scale=st.floats(0.5, 3.0),
       spans=st.lists(st.tuples(st.integers(-2, 42), st.integers(-2, 42)),
                      max_size=8),
       delta=st.floats(0.01, 1.0))
def test_bound_check_spans_match_reference_loop(y, scale, spans, delta):
    # unsorted, overlapping and empty spans on a 0.1 grid, with zero outputs
    times = np.arange(len(y)) * 0.1
    y = np.array(y)[:, None]
    held = np.roll(y, 1) * scale
    spans = [(a * 0.1, b * 0.1) for a, b in spans]
    rep = sampled_output_bound_check(times, y, held, delta, spans)
    factor = 1.0 + np.sqrt(delta)
    want = []
    for k, t in enumerate(times):
        if any(a <= t < b for a, b in spans):
            continue
        y_norm = float(np.linalg.norm(y[k]))
        s_norm = float(np.linalg.norm(held[k]))
        if s_norm > factor * y_norm + 1e-12 * (1.0 + y_norm):
            want.append((float(t), s_norm / y_norm if y_norm else np.inf))
    assert rep.ok == (not want)
    assert rep.violations == tuple(want)
