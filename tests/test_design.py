import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etncs.design import (DesignParams, InfeasibleDesign, TransformGains,
                          cone_apex_angle, controller_budget_report,
                          effective_damping, interevent_bound_controller,
                          interevent_bound_plant, l2_gain_bounds, min_m22_sq,
                          plant_budget_report, stability_margins, synthesize,
                          transformed_indices)

# the worked example's parameter set
WE = DesignParams(rho_p=1.8, nu_p=0.0, rho_c=0.27, nu_c=0.49,
                  delta_p=0.4, delta_c=0.15, alpha=1.0, gamma=250.0,
                  b_p=2.0, b_c=2.0, d1=0.3, d2=0.2)
WE_M22 = math.sqrt(49.46)
WE_M11 = 0.16


def test_damping_worked_example():
    assert effective_damping(0.03, WE) == pytest.approx(1.6)


def test_damping_branches_agree_at_zero():
    for p in (WE, DesignParams(rho_p=1.0, nu_p=0.2, rho_c=0.3, nu_c=-0.1,
                               delta_p=1.0, delta_c=0.5, alpha=2.0)):
        pos = effective_damping(0.0, p)
        neg = p.rho_p + 2 * 0.0 - p.delta_p * (p.alpha / 2 - 2 * 0.0)
        assert pos == pytest.approx(neg)


def test_damping_negative_branch():
    p = DesignParams(rho_p=1.0, nu_p=0.0, rho_c=0.3, nu_c=0.0,
                     delta_p=1.0, delta_c=0.5, alpha=2.0)
    # 1 - 0.2 - (1 + 0.2) = -0.4
    assert effective_damping(-0.1, p) == pytest.approx(-0.4)


def test_stability_margins_worked_example():
    ok, margins = stability_margins(WE, nu_c_tilde=0.034, rho_c_tilde=0.7227813)
    assert ok
    assert margins["damping"] == pytest.approx(1.599, abs=1e-12)
    assert margins["coupling"] == pytest.approx(0.2227813, abs=1e-7)


def test_stability_margin_gamma_limit():
    big = DesignParams(rho_p=1.8, nu_p=0.0, rho_c=0.27, nu_c=0.49,
                       delta_p=0.4, delta_c=0.15, alpha=1.0, gamma=1e12)
    _, margins = stability_margins(big, 0.03, 0.72)
    assert margins["damping"] == pytest.approx(effective_damping(0.03, big), rel=1e-9)


def test_stability_strict_at_coupling_boundary():
    ok, margins = stability_margins(WE, nu_c_tilde=0.03,
                                    rho_c_tilde=1.0 / (2.0 * WE.alpha))
    assert margins["coupling"] == 0.0
    assert not ok


def test_min_m22_sq_simplified_case():
    p = DesignParams(rho_p=1.0, nu_p=0.0, rho_c=1.0, nu_c=0.0,
                     delta_p=0.5, delta_c=1e-12, alpha=1.0, b_p=1.0, b_c=1.0,
                     d1=0.0, d2=0.0)
    assert min_m22_sq(p) == pytest.approx(1.0, abs=1e-5)


def test_synthesize_worked_example():
    r = synthesize(WE, WE_M22, WE_M11)
    assert r.rho_c_tilde == pytest.approx(0.72, abs=0.01)
    assert r.gains.m21 == pytest.approx(-4.86, abs=0.01)
    assert r.nu_c_tilde == pytest.approx(0.03, abs=0.005)
    assert r.gains.m21 * r.gains.m22 < 0
    assert r.stability_ok
    assert r.margins["damping"] == pytest.approx(1.599, abs=1e-3)
    assert r.margins["coupling"] == pytest.approx(0.22, abs=0.01)


def test_synthesize_rejects_small_m22():
    with pytest.raises(InfeasibleDesign, match="m22\\^2"):
        synthesize(WE, math.sqrt(30.0), WE_M11)


def test_transformed_indices_with_zero_m11():
    # the feed-forward term vanishes and the input index is the positive
    # coupling term alone
    k = WE.b_c ** 2 * (1 + math.sqrt(WE.delta_c)) ** 2 * (1 + WE.d2)
    rho_t, nu_t = transformed_indices(WE, WE_M22, 0.0)
    assert nu_t == pytest.approx(k / (2 * WE.rho_c * 49.46))
    assert nu_t > 0
    # ...but it sits exactly on the index-domain boundary, so a full
    # synthesis at m11 = 0 is rejected
    assert rho_t * nu_t == pytest.approx(0.25, abs=1e-12)
    with pytest.raises((InfeasibleDesign, ValueError)):
        synthesize(WE, WE_M22, 0.0)


@settings(max_examples=150)
@given(rho_c=st.floats(0.05, 3.0), nu_c=st.floats(-1.0, 1.0),
       nu_p=st.floats(-1.0, 1.0), delta_c=st.floats(0.01, 1.0),
       d1=st.floats(0.0, 0.9), d2=st.floats(0.0, 0.9),
       b_p=st.floats(0.5, 3.0), b_c=st.floats(0.5, 3.0),
       m22_scale=st.floats(1.01, 10.0), m11=st.floats(-2.0, 2.0))
def test_synthesis_roundtrip(rho_c, nu_c, nu_p, delta_c, d1, d2, b_p, b_c,
                             m22_scale, m11):
    assume(abs(m11) > 1e-6)
    p = DesignParams(rho_p=1.8, nu_p=nu_p, rho_c=rho_c, nu_c=nu_c,
                     delta_p=0.4, delta_c=delta_c, alpha=1.0, gamma=250.0,
                     b_p=b_p, b_c=b_c, d1=d1, d2=d2)
    m22 = math.sqrt(min_m22_sq(p) * m22_scale)
    try:
        r = synthesize(p, m22, m11)
    except InfeasibleDesign:
        assume(False)
        return
    # the coupling identity rho_c*|m21|*|m22| = k re-derives the transformed
    # indices from the gains alone, without the channel constants
    g = r.gains
    rho_t = abs(g.m22) / (2.0 * abs(g.m21))
    nu_t = abs(g.m21) / (2.0 * abs(g.m22)) \
        - (1.0 / (2.0 * p.rho_c) + abs(p.nu_c)) * p.b_p ** 2 * (1.0 + p.d1) * g.m11 ** 2
    assert rho_t == pytest.approx(r.rho_c_tilde, abs=1e-12, rel=1e-12)
    assert nu_t == pytest.approx(r.nu_c_tilde, abs=1e-12, rel=1e-12)


def test_l2_gain_bounds_worked_example():
    linear, root = l2_gain_bounds(WE, damping=1.6)
    assert linear == pytest.approx(250.0 / 1.599)
    assert linear == pytest.approx(156.35, abs=0.01)
    assert root == pytest.approx(12.50, abs=0.01)
    assert root == pytest.approx(math.sqrt(linear))


def test_l2_gain_bound_positive_nu_p_numerator():
    p = DesignParams(rho_p=1.8, nu_p=0.7, rho_c=0.27, nu_c=0.49,
                     delta_p=0.4, delta_c=0.15, gamma=100.0)
    linear, _ = l2_gain_bounds(p, damping=1.6)
    assert linear == pytest.approx(100.0 / (1.6 - 1.0 / 400.0))


def test_l2_gain_bound_pole():
    with pytest.raises(InfeasibleDesign):
        l2_gain_bounds(WE, damping=1.0 / (4.0 * WE.gamma))


def test_monotone_gain_bound_in_rho_p():
    # a larger plant output index tightens both bound forms
    bounds = []
    for rho_p in (1.2, 1.5, 1.8, 2.4):
        p = DesignParams(rho_p=rho_p, nu_p=0.0, rho_c=0.27, nu_c=0.49,
                         delta_p=0.4, delta_c=0.15, alpha=1.0, gamma=250.0)
        bounds.append(l2_gain_bounds(p, effective_damping(0.03, p)))
    assert all(a[0] >= b[0] and a[1] >= b[1] for a, b in zip(bounds, bounds[1:]))


def test_cone_apex_passive_origin():
    assert cone_apex_angle(0.0, 0.0) == pytest.approx(math.pi / 2.0)


def test_cone_apex_worked_example_pairs():
    # high-precision reference values of the arccos expression
    assert cone_apex_angle(0.0, 1.8) == pytest.approx(0.5070985043923369, abs=1e-12)
    assert cone_apex_angle(0.49, 0.27) == pytest.approx(0.7343748966796667, abs=1e-12)


def test_cone_apex_rejects_bad_domain():
    with pytest.raises(ValueError):
        cone_apex_angle(1.0, 1.0)


@settings(max_examples=200)
@given(nu=st.floats(-2.0, 2.0), rho=st.floats(-2.0, 2.0))
def test_cone_apex_range_and_sign(nu, rho):
    assume(rho * nu < 0.25 - 1e-9)
    apex = cone_apex_angle(nu, rho)
    assert 0.0 < apex <= math.pi
    if nu + rho > 1e-9:
        assert math.cos(apex) > 0.0
    elif nu + rho < -1e-9:
        assert math.cos(apex) < 0.0


def test_interevent_plant_zero_output():
    assert interevent_bound_plant(WE, 0.0, 2.0, 10.0, 0.0) == 0.0


def test_interevent_plant_sqrt_delta_scaling():
    p2 = DesignParams(rho_p=1.8, nu_p=0.0, rho_c=0.27, nu_c=0.49,
                      delta_p=0.8, delta_c=0.15, alpha=1.0, gamma=250.0,
                      b_p=2.0, b_c=2.0, d1=0.3, d2=0.2)
    b1 = interevent_bound_plant(WE, 0.0, 2.0, 10.0, 5.0)
    b2 = interevent_bound_plant(p2, 0.0, 2.0, 10.0, 5.0)
    assert b2 == pytest.approx(math.sqrt(2.0) * b1)


def test_interevent_zero_denominator():
    with pytest.raises(ValueError, match="denominator"):
        interevent_bound_plant(WE, 0.0, 0.0, 0.0, 1.0)


def _per_gap_interevent_bound(delta, rho, apex, c0, c1, c2, y):
    """The bound of one gap in float arithmetic, as it was taken gap by gap."""
    if y == 0.0:
        return 0.0
    return math.sqrt(delta) * y / (c0 / rho + apex * (1.0 / rho ** 2 + 1.0) * (c1 + c2))


_SIDE_BOUNDS = (
    (interevent_bound_plant, (WE.delta_p, WE.rho_p, cone_apex_angle(WE.nu_p, WE.rho_p))),
    (interevent_bound_controller,
     (WE.delta_c, WE.rho_c, cone_apex_angle(WE.nu_c, WE.rho_c))),
)


@settings(max_examples=200)
@given(side=st.sampled_from(_SIDE_BOUNDS),
       consts=st.tuples(*[st.floats(0.0, 1e3)] * 3).filter(lambda c: sum(c) > 0),
       ys=st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                             st.floats(-1e300, 1e300, allow_nan=False)), max_size=12))
def test_interevent_bound_of_a_column_equals_the_scalar_form(side, consts, ys):
    fn, shape = side
    if any(y < 0 for y in ys):   # a negative norm is rejected, in either form
        with pytest.raises(ValueError, match="nonnegative"):
            fn(WE, *consts, np.array(ys))
        with pytest.raises(ValueError, match="nonnegative"):
            fn(WE, *consts, min(ys))
        ys = [abs(y) for y in ys]
    column = fn(WE, *consts, np.array(ys, dtype=float))
    assert column.shape == (len(ys),)
    for got, y in zip(column.tolist(), ys):
        scalar = fn(WE, *consts, y)
        assert type(scalar) is float
        want = _per_gap_interevent_bound(*shape, *consts, y)
        assert got.hex() == scalar.hex() == want.hex()


def test_interevent_bound_column_at_rest_needs_no_denominator():
    assert interevent_bound_plant(WE, 0.0, 0.0, 0.0, np.zeros(3)).tolist() == [0.0] * 3
    with pytest.raises(ValueError, match="denominator"):
        interevent_bound_plant(WE, 0.0, 0.0, 0.0, np.array([0.0, 1.0]))


def test_interevent_controller_reduction_without_disturbance():
    apex = cone_apex_angle(WE.nu_c, WE.rho_c)
    c2p, y = 2.0, 5.0
    expected = math.sqrt(WE.delta_c) * y / (apex * (1.0 / WE.rho_c ** 2 + 1.0) * c2p)
    assert interevent_bound_controller(WE, 0.0, 0.0, c2p, y) == pytest.approx(expected)


def test_dropout_budget_plant_worked_example():
    assert plant_budget_report(WE, nu_c_tilde=0.03).budget == 1


def test_dropout_budget_plant_nonpositive_radicand():
    p = DesignParams(rho_p=0.0005, nu_p=0.0, rho_c=0.27, nu_c=0.49,
                     delta_p=0.4, delta_c=0.15, gamma=250.0)
    assert plant_budget_report(p, 0.03).budget == 0


def test_dropout_budget_boundary_argument_equals_base():
    # rho_p chosen so sqrt(2(rho_p - 1/(4 gamma))/alpha) + 1 == 1 + sqrt(delta_p)
    p = DesignParams(rho_p=0.4 / 2.0 + 1.0 / 1000.0, nu_p=0.0, rho_c=0.27,
                     nu_c=0.49, delta_p=0.4, delta_c=0.15, alpha=1.0, gamma=250.0)
    assert plant_budget_report(p, 0.03).budget == 0


def test_dropout_budget_controller_exact_vs_truncated_base():
    gains = synthesize(WE, WE_M22, WE_M11).gains
    rep = controller_budget_report(WE, gains)
    assert rep.budget == 1
    assert rep.note is not None
    assert "1.38" in rep.note and "would give 2" in rep.note


def test_dropout_budget_controller_note_absent_when_floors_agree():
    p = DesignParams(rho_p=1.8, nu_p=0.0, rho_c=0.27, nu_c=0.49,
                     delta_p=0.4, delta_c=0.25, alpha=1.0, gamma=250.0,
                     b_p=2.0, b_c=2.0, d1=0.3, d2=0.2)
    gains = synthesize(p, math.sqrt(min_m22_sq(p) * 1.5), 0.05).gains
    rep = controller_budget_report(p, gains)
    assert (rep.note is None) or ("truncation" not in rep.note)


@settings(max_examples=100)
@given(rho_lo=st.floats(0.3, 2.0), bump=st.floats(0.01, 3.0))
def test_budget_plant_monotone_in_rho_p(rho_lo, bump):
    base = dict(nu_p=0.0, rho_c=0.27, nu_c=0.49, delta_p=0.4, delta_c=0.15,
                alpha=1.0, gamma=250.0)
    lo = plant_budget_report(DesignParams(rho_p=rho_lo, **base), 0.01).budget
    hi = plant_budget_report(DesignParams(rho_p=rho_lo + bump, **base), 0.01).budget
    assert hi >= lo


@settings(max_examples=100)
@given(scale=st.floats(1.05, 4.0), bump=st.floats(1.0, 4.0))
def test_budget_controller_monotone_in_m22(scale, bump):
    m22a = math.sqrt(min_m22_sq(WE) * scale)
    m22b = m22a * bump
    ga = TransformGains(m11=0.1, m21=-1.0, m22=m22a)
    gb = TransformGains(m11=0.1, m21=-1.0, m22=m22b)
    assert controller_budget_report(WE, gb).budget >= controller_budget_report(WE, ga).budget


def test_gains_validation():
    with pytest.raises(ValueError):
        TransformGains(m11=1.0, m21=1.0, m22=1.0)  # same sign
    with pytest.raises(ValueError):
        TransformGains(m11=1.0, m21=0.0, m22=1.0)
    with pytest.raises(ValueError):
        TransformGains(m11=0.0, m21=-1.0, m22=1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        DesignParams(rho_p=1.8, nu_p=0.0, rho_c=0.0, nu_c=0.49,
                     delta_p=0.4, delta_c=0.15)  # rho_c must be positive
    with pytest.raises(ValueError):
        DesignParams(rho_p=1.8, nu_p=0.0, rho_c=0.27, nu_c=0.49,
                     delta_p=0.0, delta_c=0.15)
    with pytest.raises(ValueError):
        DesignParams(rho_p=1.8, nu_p=0.0, rho_c=0.27, nu_c=0.49,
                     delta_p=0.4, delta_c=0.15, d1=1.0)


def test_design_tradeoff_sweep_writes_one_row_per_grid_point(tmp_path):
    path = Path(__file__).resolve().parent.parent / "scripts" / "design_tradeoff_sweep.py"
    spec = importlib.util.spec_from_file_location("design_tradeoff_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(str(tmp_path)) == 0
    header, *rows = (tmp_path / "design_sweep.dat").read_text().splitlines()
    assert header == ("# delta_c m22_sq rho_c_tilde nu_c_tilde margin_coupling "
                      "gamma_bound d_p_max d_c_max")
    # 4 values of delta_c times 5 scales of the m22^2 floor, all feasible
    assert len(rows) == 20
    assert all(len(r.split()) == 8 for r in rows)
    assert len({tuple(r.split()[:2]) for r in rows}) == 20
