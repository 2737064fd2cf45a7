import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etncs.quantizer import (QuantizerSpec, SectorViolation, quantize,
                             sector_certificate)

MID_TREAD = QuantizerSpec(kind="uniform-mid-tread", step=0.5, sector=(0.0, 2.0))
LOG_HALF = QuantizerSpec(kind="logarithmic", density=0.5, u0=4.0,
                         sector=(0.0, 4.0 / 3.0))
IDENTITY = QuantizerSpec(kind="identity", sector=(1.0, 1.0))

finite_vals = st.floats(-1e6, 1e6, allow_nan=False)


def test_mid_tread_examples():
    assert quantize(MID_TREAD, 0.0) == 0.0
    assert quantize(MID_TREAD, 0.26) == 0.5
    assert quantize(MID_TREAD, -0.26) == -0.5
    # exact tie rounds away from zero
    assert quantize(MID_TREAD, 0.25) == 0.5
    assert quantize(MID_TREAD, -0.25) == -0.5
    assert quantize(MID_TREAD, 0.24) == 0.0


def test_mid_tread_sector_two():
    v = np.linspace(-5.0, 5.0, 20001)
    q = quantize(MID_TREAD, v)
    assert np.all(v * q <= 2.0 * v * v + 1e-15)
    assert np.all(v * q >= 0.0)


@settings(max_examples=200)
@given(v=finite_vals)
def test_odd_symmetry_all_kinds(v):
    for spec in (MID_TREAD, LOG_HALF, IDENTITY):
        assert quantize(spec, -v) == -quantize(spec, v)


@settings(max_examples=200)
@given(v=finite_vals, step=st.sampled_from([0.5, 0.1, 1.0 / 3.0]))
def test_mid_tread_idempotent(v, step):
    spec = QuantizerSpec(kind="uniform-mid-tread", step=step, sector=(0.0, 2.0))
    q = quantize(spec, v)
    assert quantize(spec, q) == q


@settings(max_examples=200)
@given(v=st.lists(finite_vals, min_size=1, max_size=5))
def test_output_norm_bound(v):
    # ||q(v)|| <= b*||v|| follows from the sector and sign agreement
    v = np.array(v)
    for spec in (MID_TREAD, LOG_HALF, IDENTITY):
        q = quantize(spec, v)
        b = spec.sector[1]
        assert np.linalg.norm(q) <= b * np.linalg.norm(v) + 1e-12


def test_vector_componentwise():
    v = np.array([0.26, -0.26, 0.0, 3.14])
    assert np.array_equal(quantize(MID_TREAD, v),
                          np.array([0.5, -0.5, 0.0, 3.0]))


def test_identity_certificate():
    a, b = sector_certificate(IDENTITY, np.linspace(-3, 3, 101))
    assert a == 1.0 and b == 1.0


def test_mid_tread_certificate_tightens_toward_two():
    coarse = np.linspace(-5.0, 5.0, 1001)
    a_c, b_c = sector_certificate(MID_TREAD, coarse)
    assert 0.0 <= a_c and b_c <= 2.0
    # refine near the dead-zone edge from above: ratio -> 2
    fine = np.linspace(0.2500001, 0.26, 2001)
    _, b_f = sector_certificate(MID_TREAD, fine)
    assert b_f > 2.0 - 1e-3
    assert b_f <= 2.0


def test_log_certificate_matches_density():
    # within the covered range the ratio stays in [1-d, 1+d] with
    # d = (1-density)/(1+density) = 1/3
    covered = np.concatenate([np.linspace(0.01, 4.0, 4001),
                              -np.linspace(0.01, 4.0, 4001)])
    a, b = sector_certificate(LOG_HALF, covered)
    assert a >= 2.0 / 3.0 - 1e-9
    assert b <= 4.0 / 3.0 + 1e-9
    assert b > 4.0 / 3.0 - 1e-3
    # including the dead zone pulls the lower bound to 0
    with_dead = np.concatenate([covered, [LOG_HALF.u0 * 0.5 ** 60]])
    a0, _ = sector_certificate(LOG_HALF, with_dead)
    assert a0 == 0.0


def test_certificate_raises_on_escape():
    bad = QuantizerSpec(kind="uniform-mid-tread", step=0.5, sector=(0.0, 1.5))
    with pytest.raises(SectorViolation):
        sector_certificate(bad, np.linspace(0.251, 0.3, 50))


def test_spec_validation():
    with pytest.raises(ValueError):
        QuantizerSpec(kind="uniform-mid-tread", step=0.0)
    with pytest.raises(ValueError):
        QuantizerSpec(kind="logarithmic", density=1.5)
    with pytest.raises(ValueError):
        QuantizerSpec(kind="identity", sector=(2.0, 1.0))
    with pytest.raises(ValueError):
        QuantizerSpec(kind="nope")
    with pytest.raises(ValueError):
        QuantizerSpec(kind="uniform-mid-riser", step=0.5)
