import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etncs.trigger import (TriggerConfig, check_violation,
                           sampled_output_bound_check, trigger_inequality_check)


def _held(value):
    return np.atleast_1d(np.asarray(value, float))


def test_no_violation_when_error_zero():
    assert not check_violation(_held(1.0), np.array([1.0]), TriggerConfig(0.4))


def test_violation_arithmetic():
    # e^2 = 0.49 > 0.4 * 1.0
    assert check_violation(_held(0.3), np.array([1.0]), TriggerConfig(0.4))
    # e^2 = 0.36 < 0.4
    assert not check_violation(_held(0.4), np.array([1.0]), TriggerConfig(0.4))


def test_zero_output_zero_error_never_fires():
    assert not check_violation(_held(0.0), np.array([0.0]), TriggerConfig(0.4))


def test_zero_output_nonzero_error_fires():
    # strict inequality: any nonzero error over zero output fires
    assert check_violation(_held(0.5), np.array([0.0]), TriggerConfig(1.0))


@settings(max_examples=100)
@given(y=st.lists(st.floats(-100, 100), min_size=1, max_size=4),
       delta=st.floats(0.01, 1.0))
def test_commit_then_same_sample_never_violates(y, delta):
    assert not check_violation(np.array(y), np.array(y), TriggerConfig(delta))


def test_constant_output_fires_at_most_once():
    # delta = 1 with a fixed output: after one transmission the error stays
    # at zero, so the detector never fires again
    cfg = TriggerConfig(1.0)
    y = np.array([3.0])
    held = _held(-1.0)
    fires = 0
    for _ in range(50):
        if check_violation(held, y, cfg):
            fires += 1
            held = y.copy()
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
    ok, bad = trigger_inequality_check(times, y, held, 0.4, firing_rows=[0])
    assert not ok and bad == [3]
    held[3] = 1.0
    ok, bad = trigger_inequality_check(times, y, held, 0.4, firing_rows=[0])
    assert ok and bad == []


def test_inequality_check_joins_firing_rows_on_index():
    # rows 1e-13 apart: a join on times rounded to 12 digits would take row 2
    # for the firing row 0 and excuse its tampered held value
    times = np.arange(5) * 1e-13
    y = np.ones((5, 1))
    held = np.ones((5, 1))
    held[2] = 3.0
    ok, bad = trigger_inequality_check(times, y, held, 0.4, firing_rows=[0])
    assert not ok and bad == [2]
    # indices that name no row are ignored, not raised on
    ok, bad = trigger_inequality_check(times, y, held, 0.4, firing_rows=[-1, 5, 2 ** 40])
    assert bad == [2]
    assert trigger_inequality_check(times, y, held, 0.4, firing_rows=[2]) == (True, [])


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
                                     dropout_spans=(np.array([1]), np.array([4])))
    assert rep.ok
    assert rep.excluded_spans == 1


@settings(max_examples=200)
@given(data=st.data(), y=st.lists(st.floats(-3, 3), min_size=1, max_size=40),
       scale=st.floats(0.5, 3.0), delta=st.floats(0.01, 1.0))
def test_bound_check_spans_match_reference_loop(data, y, scale, delta):
    # unsorted, overlapping, empty, reversed and out-of-range row spans, with
    # zero outputs
    n = len(y)
    row = st.integers(-2, n + 2)
    spans = data.draw(st.lists(st.tuples(row, row), max_size=8))
    times = np.arange(n) * 0.1
    y = np.array(y)[:, None]
    held = np.roll(y, 1) * scale
    rep = sampled_output_bound_check(times, y, held, delta,
                                     ([a for a, _ in spans], [b for _, b in spans]))
    factor = 1.0 + np.sqrt(delta)
    want = []
    for k, t in enumerate(times):
        if any(a <= k < b for a, b in spans):
            continue
        y_norm = float(np.linalg.norm(y[k]))
        s_norm = float(np.linalg.norm(held[k]))
        if s_norm > factor * y_norm + 1e-12 * (1.0 + y_norm):
            want.append((float(t), s_norm / y_norm if y_norm else np.inf))
    assert rep.ok == (not want)
    assert rep.violations == tuple(want)
    assert rep.excluded_spans == len(spans)


def test_violation_check_on_columns_gives_one_verdict_per_lane():
    # four lanes as rows of (4,) arrays against each lane's one-sample floats
    held = np.array([[1.0, 0.3, 0.0, 0.5], [0.0, 0.2, 0.0, -0.5]])
    y = np.array([[1.0, 1.0, 0.0, 0.5], [0.1, -0.4, 0.0, 0.5]])
    verdicts = check_violation(list(held), list(y), TriggerConfig(0.4))
    assert verdicts.tolist() == [
        check_violation(held[:, i].tolist(), y[:, i].tolist(), TriggerConfig(0.4))
        for i in range(4)]
    assert verdicts.tolist() == [False, True, False, True]
