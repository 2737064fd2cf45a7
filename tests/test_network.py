import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etncs.network import (Channel, DelayProfile, DropoutModel, rate_bound_check)


def _channel(delay=None, dropout=None, hold=(0.0,)):
    return Channel(delay or DelayProfile(t0=0.0, d=0.0, form="constant"),
                   [dropout or DropoutModel()], "test", list(hold))


def _dropped(arrival):
    return math.isnan(arrival)


def test_affine_delay_arrival():
    # T(t) = 0.5 + 0.3 t: a send at t=1.0 arrives at 1.8
    ch = _channel(delay=DelayProfile(t0=0.5, d=0.3, form="affine"))
    arrival = ch.send(1.0, [2.5])
    assert arrival == pytest.approx(1.8)
    assert not _dropped(arrival)


def test_zero_delay_arrival_equals_send():
    ch = _channel()
    assert ch.send(0.7, [1.0]) == 0.7


def test_pattern_first_dropped_second_delivered():
    ch = _channel(dropout=DropoutModel(kind="pattern", pattern=(0, 1)))
    assert _dropped(ch.send(0.0, [1.0]))
    assert not _dropped(ch.send(0.1, [2.0]))
    # attempts beyond the pattern are delivered
    assert not _dropped(ch.send(0.2, [3.0]))


def test_poll_before_arrival_returns_initial_hold():
    ch = _channel(delay=DelayProfile(t0=1.0, d=0.0, form="constant"),
                  hold=[42.0])
    ch.send(0.0, [7.0])
    assert ch.poll(0.5)[0] == 42.0
    assert ch.poll(1.0)[0] == 7.0


def test_poll_delivers_in_arrival_order():
    ch = _channel(delay=DelayProfile(t0=0.5, d=0.3, form="affine"))
    ch.send(1.0, [1.0])   # arrives 1.8
    ch.send(1.25, [2.0])  # arrives 2.125
    assert ch.poll(2.0)[0] == 1.0
    assert ch.poll(2.2)[0] == 2.0


def test_send_monotonicity_enforced():
    ch = _channel()
    ch.send(1.0, [0.0])
    with pytest.raises(ValueError, match="non-monotone"):
        ch.send(0.5, [0.0])


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([0.0, 0.3, 0.9]),
       t0=st.floats(0.0, 2.0),
       gaps=st.lists(st.floats(1e-4, 1.0), min_size=2, max_size=12))
def test_fifo_and_causality_under_rate_bound(d, t0, gaps):
    ch = _channel(delay=DelayProfile(t0=t0, d=d, form="affine"))
    t = 0.0
    arrivals = []
    for i, gap in enumerate(gaps):
        t += gap
        arrival = ch.send(t, [float(i)])
        assert arrival >= t  # causality
        arrivals.append(arrival)
    assert all(a < b for a, b in zip(arrivals, arrivals[1:]))  # FIFO


def test_bernoulli_reproducible_and_counter_based():
    model = DropoutModel(kind="bernoulli", p=0.5, seed=11)
    ch1 = _channel(dropout=model)
    ch2 = _channel(dropout=model)
    ch2.channel_id = ch1.channel_id  # same identity -> same stream
    flags1 = [_dropped(ch1.send(i * 0.1, [0.0])) for i in range(50)]
    flags2 = [_dropped(ch2.send(i * 0.1, [0.0])) for i in range(50)]
    assert flags1 == flags2
    assert any(flags1) and not all(flags1)


def test_packet_records_bit_identical_across_runs():
    def run():
        ch = _channel(delay=DelayProfile(t0=0.5, d=0.3, form="affine"),
                      dropout=DropoutModel(kind="bernoulli", p=0.4, seed=21))
        ch.channel_id = "fixed"
        return [_attempt(ch, 0, i * 0.05, [float(i)]) for i in range(40)]

    a, b = run(), run()
    assert a == b
    assert [r[0] for r in a] == list(range(40))


def test_bernoulli_different_seed_differs():
    flags = {}
    for seed in (1, 2):
        ch = _channel(dropout=DropoutModel(kind="bernoulli", p=0.5, seed=seed))
        flags[seed] = [_dropped(ch.send(i * 0.1, [0.0])) for i in range(64)]
    assert flags[1] != flags[2]


def test_max_consecutive_forces_delivery():
    ch = _channel(dropout=DropoutModel(kind="bernoulli", p=0.95, seed=3,
                                       max_consecutive=1))
    run = worst = drops = 0
    for i in range(300):
        if _dropped(ch.send(i * 0.01, [0.0])):
            run += 1
            drops += 1
            worst = max(worst, run)
        else:
            run = 0
    assert worst == 1
    # a delivery resets the run: every other attempt can drop again
    assert drops == 145


def test_force_success_bypasses_model():
    ch = _channel(dropout=DropoutModel(kind="pattern", pattern=(0, 0)))
    assert not _dropped(ch.send(0.0, [0.0], force_success=True))
    assert _dropped(ch.send(0.1, [0.0]))


def test_rate_bound_check_examples():
    grid = np.linspace(0.0, 5.0, 200)
    assert rate_bound_check(DelayProfile(t0=0.6, d=0.0, form="constant"), grid)
    assert rate_bound_check(DelayProfile(t0=0.5, d=0.3, form="affine"), grid)
    # a jump of 0.5 s over 0.1 s has slope 5 > 0.3
    bad = DelayProfile(t0=0.6, d=0.3, form="table",
                       table=((0.0, 0.6), (0.1, 1.1), (1.0, 1.2)))
    assert not rate_bound_check(bad, np.linspace(0.0, 1.0, 101))
    with pytest.raises(ValueError, match="rate bound"):
        Channel(bad, [DropoutModel()], "bad", [0.0])


def test_table_profile_interpolates():
    prof = DelayProfile(t0=0.6, d=0.3, form="table",
                        table=((0.0, 0.6), (1.0, 0.8), (2.0, 0.7)))
    assert prof.delay(0.5) == pytest.approx(0.7)
    assert prof.delay(5.0) == pytest.approx(0.7)  # held flat past the table
    assert rate_bound_check(prof, np.linspace(0, 3, 61))


def test_delay_profile_validation():
    with pytest.raises(ValueError):
        DelayProfile(t0=-0.1)
    with pytest.raises(ValueError):
        DelayProfile(t0=0.0, d=1.0)
    with pytest.raises(ValueError):
        DelayProfile(form="table", table=((0.0, 0.1),))


_TABLE = ((0.0, 0.6), (1.0, 0.8), (2.0, 0.7), (3.5, 1.1))


@settings(max_examples=100, deadline=None)
@given(form=st.sampled_from(["constant", "affine", "table"]),
       t0=st.floats(0.0, 2.0), d=st.sampled_from([0.0, 0.3, 0.9]),
       times=st.lists(st.floats(-1.0, 5.0), max_size=20))
def test_delay_and_arrival_take_arrays(form, t0, d, times):
    prof = DelayProfile(t0=t0, d=d, form=form,
                        table=_TABLE if form == "table" else ())
    for fn in (prof.delay, prof.arrival):
        scalars = [fn(t) for t in times]
        assert all(np.ndim(v) == 0 for v in scalars)
        assert np.array_equal(fn(np.array(times)), np.array(scalars, dtype=float))


_DROPOUTS = st.one_of(
    st.just(DropoutModel()),
    st.builds(lambda p, seed, cap: DropoutModel(kind="bernoulli", p=p, seed=seed,
                                                max_consecutive=cap),
              st.floats(0.0, 1.0), st.integers(0, 2 ** 31),
              st.one_of(st.none(), st.integers(0, 3))),
    st.builds(lambda pattern: DropoutModel(kind="pattern", pattern=tuple(pattern)),
              st.lists(st.integers(0, 1), max_size=12)))


def _attempt(ch, lane, t, payload, force=False):
    """(index, send time, arrival or None, dropped, payload) of one send:
    its index is the lane's attempt count before it."""
    index = ch.attempts[lane]
    arrival = ch.send(t, payload, force_success=force, lane=lane)
    assert ch.attempts[lane] == index + 1
    dropped = _dropped(arrival)
    return index, t, None if dropped else arrival, dropped, tuple(payload)


@settings(max_examples=200, deadline=None)
@given(models=st.lists(_DROPOUTS, min_size=1, max_size=4),
       delay=st.sampled_from([DelayProfile(t0=0.0, d=0.0, form="constant"),
                              DelayProfile(t0=0.3, d=0.3, form="affine"),
                              DelayProfile(t0=0.1, d=0.9, form="table",
                                           table=((0.0, 0.1), (1.0, 0.5)))]),
       data=st.data())
def test_lane_channel_matches_solo_channels(models, delay, data):
    # every lane of one channel behaves as a one-lane channel with its model,
    # through sends (forced or not) and polls; each lane holds the last
    # delivered payload that has arrived, and a hold once returned never
    # changes, since a delivery replaces it
    hold0 = np.array([0.5, -1.5])
    rows0 = hold0.tolist() if len(models) == 1 else [np.full(len(models), v) for v in hold0]
    lanes = Channel(delay, models, "link", rows0)
    solos = [Channel(delay, [m], "link", hold0.tolist()) for m in models]
    ops = data.draw(st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, 0.2),
                                       st.booleans(), st.booleans()), max_size=60))
    delivered = [[] for _ in models]
    returned = []   # (a hold poll returned, a copy of its values then)
    t = 0.0
    for n, (lane, gap, force, poll) in enumerate(ops):
        t += gap
        lane %= len(solos)
        if poll:
            rows = lanes.poll(t)   # floats for one lane, else (B,) arrays
            held = np.array(rows).reshape(2, -1)
            returned.append((rows, held.copy()))
            for j, solo in enumerate(solos):
                assert np.array_equal(held[:, j], solo.poll(t))
                landed = [payload for arrival, payload in delivered[j] if arrival <= t]
                assert np.array_equal(held[:, j], landed[-1] if landed else hold0)
        else:
            payload = [float(n), -float(n)]
            got = _attempt(lanes, lane, t, payload, force)
            want = _attempt(solos[lane], 0, t, payload, force)
            assert got == want
            if not got[3]:
                delivered[lane].append((got[2], payload))
            assert lanes.consecutive_drops[lane] == solos[lane].consecutive_drops[0]
    for rows, then in returned:
        assert np.array_equal(np.array(rows).reshape(2, -1), then)
