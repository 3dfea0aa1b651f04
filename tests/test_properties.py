"""Invariants checked on random points of the whole ``ModelParams`` domain.

``r_q`` and ``r_t`` are drawn independently, so the doubly accelerated
scenario is exercised with unequal accelerations too; a scenario that
leaves a subsystem inertial ignores its ``r``, and ``none`` is the
identity channel on both routes.
"""

from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from unruh_steering.measures import Convention, steering_report
from unruh_steering.model import (
    ModelParams,
    R_MAX,
    RegionIState,
    Scenario,
    accelerate_closed,
    accelerate_oracle,
)
from unruh_steering.sweep import format_value

finite = st.floats(allow_nan=False, allow_infinity=False)
any_params = st.builds(
    ModelParams,
    p=st.floats(0.0, 0.5),
    r_q=st.floats(0.0, R_MAX),
    r_t=st.floats(0.0, R_MAX),
    phi=finite,
    scenario=st.sampled_from(list(Scenario)),
)


def assert_physical(state):
    m = state.matrix
    assert isinstance(state, RegionIState) and m.shape == (8, 8)
    assert abs(m.trace() - 1.0) < 1e-12
    assert np.abs(m - m.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(m).min() > -1e-10


@settings(max_examples=100, deadline=None)
@given(params=any_params)
def test_both_routes_build_valid_states(params):
    assert_physical(accelerate_closed(params))
    assert_physical(accelerate_oracle(params))


@settings(max_examples=100, deadline=None)
@given(params=any_params)
def test_closed_and_oracle_routes_agree(params):
    closed, oracle = accelerate_closed(params).matrix, accelerate_oracle(params).matrix
    assert np.abs(closed - oracle).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(params=any_params, other_phi=finite)
def test_oracle_does_not_depend_on_phi(params, other_phi):
    base = accelerate_oracle(params).matrix
    other = accelerate_oracle(ModelParams(params.p, params.r_q, params.r_t, other_phi, params.scenario)).matrix
    assert np.abs(base - other).max() <= 1e-14


@settings(max_examples=60, deadline=None)
@given(params=any_params)
def test_degrees_lie_in_the_unit_interval_under_both_conventions(params):
    state = accelerate_closed(params)
    for convention in Convention:
        report = steering_report(state, convention)
        assert 0.0 <= report.steer_ab <= 1.0
        assert 0.0 <= report.steer_ba <= 1.0


@settings(max_examples=500, deadline=None)
@given(value=finite)
def test_format_value_keeps_twelve_significant_digits(value):
    text = format_value(value)
    assert text.startswith("-") == (value < 0.0)
    if value == 0.0:
        assert text == "0.000000000000"
        return
    digits = text.lstrip("-").replace(".", "").lstrip("0")
    exponent = Decimal(text).adjusted()  # position of the first significant digit
    # Twelve significant digits; past the twelfth, an integer part is padded with zeros.
    assert digits[:12].isdigit() and len(digits) == max(12, exponent + 1)
    assert set(digits[12:]) <= {"0"}
    assert ("." in text) == (exponent < 11)
    half_unit = Decimal(10) ** (exponent - 11) / 2
    assert abs(Decimal(text) - Decimal(value)) <= half_unit
