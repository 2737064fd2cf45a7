import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etncs.core import (PassivityIndices, default_frequency_grid,
                        dissipativity_residuals, energy_terms, l2_gain_estimate, power,
                        rk4_step, supply_rate, verify_lti_indices)
from etncs.models import FIRSTORDER_LEAD_SS, cubic_nl2, firstorder_lead, lti_siso


def _open_loop(model, x0, input_fn, t_end, h):
    """(times, states, inputs) of ``model`` under ``input_fn(t)`` by fixed-step
    RK4, each input sampled at its step's start and held across it."""
    n_steps = int(np.floor(t_end / h + 1e-9))
    times = np.arange(n_steps + 1) * h
    states = np.empty((n_steps + 1, model.state_dim))
    inputs = np.array([np.atleast_1d(input_fn(t)) for t in times], dtype=float)
    states[0] = x0
    for k in range(n_steps):
        states[k + 1] = rk4_step(model, states[k], inputs[k], times[k], h)
    return times, states, inputs


def test_indices_domain_accepts_boundary():
    PassivityIndices(nu=0.5, rho=0.5)  # rho*nu == 1/4 with rho >= 0
    PassivityIndices(nu=0.0, rho=1.8)
    PassivityIndices(nu=-2.0, rho=3.0)  # product negative


def test_indices_domain_rejects():
    with pytest.raises(ValueError):
        PassivityIndices(nu=1.0, rho=1.0)
    with pytest.raises(ValueError):
        PassivityIndices(nu=-0.5, rho=-0.5)  # product 1/4 with rho < 0


@given(nu=st.floats(-3, 3), rho=st.floats(-3, 3))
def test_indices_domain_matches_definition(nu, rho):
    admissible = rho * nu < 0.25 or (rho * nu == 0.25 and rho >= 0)
    if admissible:
        PassivityIndices(nu=nu, rho=rho)
    else:
        with pytest.raises(ValueError):
            PassivityIndices(nu=nu, rho=rho)


def test_rk4_zero_dynamics_is_identity():
    model = lti_siso(0.0, 0.0, 1.0, 0.0)
    x = np.array([3.7])
    out = rk4_step(model, x, np.array([0.0]), t=0.0, h=1e-2)
    assert np.array_equal(out, x)


def test_rk4_exponential_decay():
    # x' = -3x from x(0)=1 has x(1) = e^-3
    model = lti_siso(-3.0, 1.0, 7.0, 1.0)
    _, states, _ = _open_loop(model, [1.0], lambda t: np.array([0.0]),
                              t_end=1.0, h=1e-3)
    assert abs(states[-1, 0] - math.exp(-3.0)) < 1e-6


def test_rk4_order_four():
    model = lti_siso(-3.0, 1.0, 1.0, 0.0)
    errs = []
    for h in (0.02, 0.01):
        _, states, _ = _open_loop(model, [1.0], lambda t: np.array([0.0]),
                                  t_end=1.0, h=h)
        errs.append(abs(states[-1, 0] - math.exp(-3.0)))
    assert errs[0] / errs[1] >= 14.0


def test_plant_derivative_hand_values():
    plant = cubic_nl2()
    x = np.array([10.0, -14.0])
    dx = plant.dynamics(x, np.array([0.0]), 0.0)
    assert dx[0] == pytest.approx(-3.0 * 10.0 ** 3 + 10.0 * (-14.0))  # -3140
    assert dx[1] == pytest.approx(-3.6 * (-14.0))  # 50.4
    # one RK4 step: x1 decreases, x2 increases
    x1 = rk4_step(plant, x, np.array([0.0]), 0.0, 1e-3)
    assert x1[0] < x[0] and x1[1] > x[1]


def test_supply_rate_examples():
    assert supply_rate(np.zeros(1), np.zeros(1), PassivityIndices(0.0, 1.8)) == 0.0
    assert supply_rate([1.0], [1.0], PassivityIndices(0.0, 1.8)) == pytest.approx(-0.8)
    assert supply_rate([1.0], [2.0], PassivityIndices(0.49, 0.27)) == pytest.approx(0.43)
    with pytest.raises(ValueError):
        supply_rate([1.0, 2.0], [1.0], PassivityIndices(0.0, 0.0))


def test_dissipativity_constant_zero_trajectory():
    plant = cubic_nl2()
    n = 50
    res = dissipativity_residuals(plant, np.arange(n) * 1e-3, np.zeros((n, 2)),
                                  np.zeros((n, 1)))
    assert np.allclose(res, 0.0, atol=1e-15)


def test_dissipativity_plant_under_excitation():
    # the shipped storage makes the supply-rate inequality an identity, so
    # residuals reduce to quadrature error
    plant = cubic_nl2()

    def u(t):
        return np.array([1.5 * math.sin(3.0 * t)])

    times, states, inputs = _open_loop(plant, [10.0, -14.0], u, t_end=3.0, h=1e-3)
    res = dissipativity_residuals(plant, times, states, inputs)
    v = np.array([plant.storage(x) for x in states])
    tol = 1e-6 * (1.0 + np.maximum(np.abs(v[:-1]), np.abs(v[1:])))
    assert np.all(res <= tol)


def test_dissipativity_requires_storage():
    ctrl = firstorder_lead()
    traj = _open_loop(ctrl, [0.0], lambda t: np.array([1.0]), t_end=0.1, h=1e-3)
    with pytest.raises(ValueError, match="storage"):
        dissipativity_residuals(ctrl, *traj)


def _rich_input(t: float) -> np.ndarray:
    # zero first (exposes the pure-decay direction), then a seeded
    # piecewise-constant drive
    if t < 0.3:
        return np.array([0.0])
    seg = int(t / 0.1)
    return np.array([2.0 * math.sin(seg * 12.9898) ])


def test_controller_storage_line_search():
    # scan quadratic storages V = p*x^2/2 for the lead controller with the
    # candidate pair shrunk until the frequency condition verifies; the
    # feasible band is interior to the scanned grid
    feasible = []
    for p in np.arange(0.5, 10.01, 0.5):
        model = lti_siso(-3.0, 1.0, 7.0, 1.0, nu=0.49, rho=0.25, storage_p=p)
        times, states, inputs = _open_loop(model, [1.0], _rich_input, t_end=1.5, h=1e-3)
        res = dissipativity_residuals(model, times, states, inputs)
        v = np.array([model.storage(x) for x in states])
        tol = 1e-6 * (1.0 + np.maximum(np.abs(v[:-1]), np.abs(v[1:])))
        if np.all(res <= tol):
            feasible.append(float(p))
    assert {4.5, 5.0, 5.5} <= set(feasible)
    assert 0.5 not in feasible and 1.0 not in feasible


def _l2_gain(w, y, t):
    """l2_gain_estimate of two scalar signals sampled at ``t``."""
    return l2_gain_estimate(energy_terms(w[:, None], t), energy_terms(y[:, None], t))


def test_l2_gain_proportional_signals():
    t = np.linspace(0.0, 1.0, 200)
    w = np.sin(5 * t) + 0.3
    assert _l2_gain(w, 0.5 * w, t) == pytest.approx(0.5)
    assert _l2_gain(w, np.zeros_like(w), t) == 0.0
    with pytest.raises(ValueError, match="zero energy"):
        _l2_gain(np.zeros_like(w), w, t)


@settings(max_examples=50)
@given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 1000))
def test_l2_gain_time_rescale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.01, 0.1, size=50))
    w = rng.normal(size=50)
    y = rng.normal(size=50)
    g1 = _l2_gain(w, y, t)
    g2 = _l2_gain(w, y, scale * t)
    assert g1 == pytest.approx(g2, rel=1e-12)


def test_lti_indices_pure_gain():
    rep = verify_lti_indices(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                             [[1.0]], PassivityIndices(0.5, 0.25),
                             default_frequency_grid())
    assert rep.min_residual == pytest.approx(0.25)
    assert rep.verified


def test_lti_indices_lead_controller_passive():
    A, B, C, D = FIRSTORDER_LEAD_SS
    rep = verify_lti_indices(A, B, C, D, PassivityIndices(0.0, 0.0),
                             default_frequency_grid())
    # min of (30 + w^2)/(9 + w^2) approaches 1 from above at high frequency
    assert rep.verified
    assert rep.min_residual == pytest.approx(1.0, abs=1e-3)


def test_lti_indices_declared_pair_has_negative_margin():
    # the declared (0.49, 0.27) pair fails the simultaneous frequency
    # condition at low frequency: 30/9 - 0.49 - 0.27*100/9 = -0.1566...
    A, B, C, D = FIRSTORDER_LEAD_SS
    rep = verify_lti_indices(A, B, C, D, PassivityIndices(0.49, 0.27),
                             default_frequency_grid())
    assert not rep.verified
    assert rep.min_residual == pytest.approx(30.0 / 9.0 - 0.49 - 27.0 / 9.0, abs=1e-4)
    assert rep.worst_frequency == pytest.approx(1e-3)


def test_lti_indices_imaginary_pole_rejected():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # poles at +-j
    with pytest.raises(ValueError, match="imaginary axis"):
        verify_lti_indices(A, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]],
                           PassivityIndices(0.0, 0.0), default_frequency_grid())


def _residuals_by_row(model, times, states, inputs):
    """Reference: the dissipation residuals with one model call per sample."""
    res = []
    for k in range(len(times) - 1):
        t0, t1 = times[k], times[k + 1]
        u = inputs[k]
        w0 = supply_rate(u, model.output(states[k], u, t0), model.indices)
        w1 = supply_rate(u, model.output(states[k + 1], u, t1), model.indices)
        dv = model.storage(states[k + 1]) - model.storage(states[k])
        res.append(dv - 0.5 * (t1 - t0) * (w0 + w1))
    return np.array(res)


@pytest.mark.parametrize("model, x0", [
    (cubic_nl2(), [10.0, -14.0]),
    (lti_siso(-3.0, 1.0, 7.0, 1.0, nu=0.49, rho=0.25, storage_p=5.0), [1.0]),
])
def test_dissipativity_residuals_match_per_row_loop(model, x0):
    traj = _open_loop(model, x0, _rich_input, t_end=1.5, h=1e-3)
    assert np.array_equal(dissipativity_residuals(model, *traj),
                          _residuals_by_row(model, *traj))


def test_dissipativity_negative_storage_names_first_sample():
    base = lti_siso(-1.0, 1.0, 1.0, 0.0)
    model = type(base)(state_dim=1, input_dim=1, output_dim=1,
                       dynamics=base.dynamics, output=base.output,
                       indices=base.indices, storage=lambda x: x[0] - 0.5)
    n = 5
    times, inputs = np.arange(n) * 1e-3, np.zeros((n, 1))
    states = np.array([[1.0], [0.8], [0.2], [-0.1], [0.9]])
    with pytest.raises(ValueError, match="negative at sample 2$"):
        dissipativity_residuals(model, times, states, inputs)
    with pytest.raises(ValueError, match="negative at sample 0$"):
        dissipativity_residuals(model, times, states[::-1] - 0.5, inputs)


def test_cubic_dynamics_on_columns_match_per_sample_calls():
    # an ndarray ``** 3`` can round differently from the scalar pow() of a
    # one-sample call; lockstep lanes rely on the two agreeing bit for bit
    rng = np.random.default_rng(11)
    x = rng.normal(scale=3.0, size=(2, 20_000))
    u = rng.normal(size=(1, 20_000))
    f = cubic_nl2().dynamics
    per_sample = np.column_stack([f(x[:, i], u[:, i], 0.0) for i in range(x.shape[1])])
    assert np.array_equal(f(x, u, 0.0), per_sample)


def test_rk4_batched_lanes_match_one_sample_steps():
    # three lanes as rows of (3,) arrays against each lane's one-sample floats
    model = cubic_nl2()
    x = np.array([[1.0, -2.0, 0.5], [-1.0, 3.0, 0.25]])
    u = np.array([[0.1, -0.2, 0.3]])
    batched = rk4_step(model, list(x), list(u), 0.0, 1e-3)
    assert all(type(row) is np.ndarray and row.shape == (3,) for row in batched)
    for i in range(3):
        one = rk4_step(model, x[:, i].tolist(), u[:, i].tolist(), 0.0, 1e-3)
        assert np.array(batched)[:, i].tobytes() == np.array(one).tobytes()


_WIDE = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e200, max_value=1e200)
# magnitudes over 24 binades, so that the order of a sum of squares shows
_SPREAD = st.builds(lambda sign, frac, exp: sign * frac * 2.0 ** exp, st.sampled_from([1.0, -1.0]),
                    st.floats(1.0, 2.0), st.integers(-12, 12))
_STEPS = (0.5, 0.25, 1.0 / 3.0, 1e-300)
# ±0, exact ties (k + 1/2) * step for the steps 0.5 and 0.25, NaN, ±inf and
# magnitudes whose quotient by a small step overflows
_QUANT_EDGES = st.sampled_from([0.0, -0.0, 0.25, -0.75, 1.125, -2.375, 0.375, math.nan,
                                math.inf, -math.inf, 1e308, -1.7e308, 5e-324])


def _one_lane(f, *arrays):
    """f on the floats of 1-D arrays as lists, as a single run carries one
    sample, and on the rows of a 2-lane batch, a list of (2,) arrays, whose
    lane 0 they are (lane 1 holds them reversed); the second as lane 0 of
    f's rows, with every floating-point warning off."""
    with np.errstate(all="ignore"):
        batch = (list(np.stack((a, a[::-1]), axis=-1)) for a in arrays)
        return f(*(a.tolist() for a in arrays)), np.asarray(f(*batch))[..., 0]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_lane_float_paths_give_the_lane_axis_bits(data):
    """On one sample's lists of floats, rk4_step, the models' output,
    check_violation and the mid-tread quantizer compute on Python floats and
    give lists (the detector a bool); each gives the bits of a lane of a
    batch, the detector on either side of the 8 elements from which numpy
    sums a 1-D array pairwise, and the quantizer at its edges."""
    from etncs.quantizer import QuantizerSpec, quantize
    from etncs.trigger import TriggerConfig, check_violation

    model = data.draw(st.sampled_from([cubic_nl2(), firstorder_lead()]))
    x = np.array(data.draw(st.lists(_WIDE | st.floats(-20.0, 20.0), min_size=model.state_dim,
                                    max_size=model.state_dim)))
    u = np.array([data.draw(_WIDE | st.floats(-20.0, 20.0))])
    t, h = data.draw(st.floats(0.0, 1e3)), data.draw(st.floats(1e-6, 1.0))
    one, lanes = _one_lane(lambda x, u: rk4_step(model, x, u, t, h), x, u)
    assert type(one) is list
    assert np.array(one).tobytes() == lanes.tobytes()
    one, lanes = _one_lane(lambda x, u: model.output(x, u, t), x, u)
    assert np.array(one).tobytes() == lanes.tobytes()

    m = data.draw(st.integers(1, 12))
    y, e = (np.array(data.draw(st.lists(_SPREAD, min_size=m, max_size=m))) for _ in range(2))
    held = y - e / 16.0
    e2, y2 = np.add.reduce((y - held) ** 2), np.add.reduce(y * y)
    # a delta with delta * y2 just at or just below e2 flips the verdict on a
    # one-ulp change in either sum; any other draw takes a plain delta
    target = e2 if data.draw(st.booleans()) else np.nextafter(e2, 0.0)
    delta = target / y2
    for _ in range(4):
        if delta * y2 == target:
            break
        delta = np.nextafter(delta, math.inf if delta * y2 < target else 0.0)
    if not (0.0 < delta <= 1.0 and delta * y2 == target):
        delta = data.draw(st.floats(1e-3, 1.0))
    cfg = TriggerConfig(float(delta))
    one, lanes = _one_lane(lambda held, y: check_violation(held, y, cfg), held, y)
    assert type(one) is bool
    assert one == lanes

    spec = QuantizerSpec(kind="uniform-mid-tread", step=data.draw(st.sampled_from(_STEPS)))
    v = np.array(data.draw(st.lists(_QUANT_EDGES | _WIDE, min_size=1, max_size=9)))
    one, lanes = _one_lane(lambda v: quantize(spec, v), v)
    assert type(one) is list
    assert np.array(one).tobytes() == lanes.tobytes()


# ±0, subnormals, ±inf, NaN of either sign, and magnitudes whose square or
# cube overflows
_POWER_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, math.inf,
                                -math.inf, math.nan, -math.nan, 1e103, -6e102, 1.4e154,
                                -1e155, 1.7e308])


@settings(max_examples=400, deadline=None)
@given(v=_POWER_EDGES | st.floats(), p=st.sampled_from([2, 3]))
def test_power_gives_the_bits_of_float_power(v, p):
    """core.power takes math.pow on a Python float and gives
    np.float_power's bits, on an array's elements and on the float alone."""
    with np.errstate(all="ignore"):
        want = np.float_power(v, p)
        assert np.float64(power(v, p)).tobytes() == want.tobytes()
        assert power(np.array([v, v]), p).tobytes() == np.float_power([v, v], p).tobytes()


@pytest.mark.parametrize("model", [cubic_nl2(), firstorder_lead(),
                                   lti_siso(-2.0, 1.0, 3.0, 0.5)], ids=lambda model: model.name)
def test_output_is_a_float_array_of_the_port_shape(model):
    """output works on rows, as dynamics does: one sample's lists of floats
    give output_dim floats, and N samples as columns give rows that
    np.asarray stacks into a float64 (output_dim, N) array, each column with
    the bits of its one-sample call."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(model.state_dim, 7))
    u = rng.normal(size=(model.input_dim, 7))
    columns = np.asarray(model.output(x, u, np.zeros(7)))
    assert columns.dtype == np.float64
    assert columns.shape == (model.output_dim, 7)
    for i in range(7):
        one = model.output(x[:, i].tolist(), u[:, i].tolist(), 0.0)
        assert len(one) == model.output_dim and all(type(v) is float for v in one)
        assert np.array(one).tobytes() == columns[:, i].tobytes()
