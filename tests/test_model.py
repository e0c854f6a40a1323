import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracbinom.analytics import mean
from fracbinom.model import ProcessParams, Regime, classify, equilibrium_p
from fracbinom.reference import master_equation_classical, ml_series_highprec, subordination_pmf_mc
from fracbinom.sampler import fractional_values_at, inverse_subordinator_sample, pure_birth_states_at


def test_classify_general():
    assert classify(ProcessParams(1, 1, 10, 5, 0.5)) is Regime.GENERAL


def test_classify_pure_birth():
    assert classify(ProcessParams(1, 0, 10, 5, 0.5)) is Regime.PURE_BIRTH


def test_classify_pure_death():
    assert classify(ProcessParams(0, 1, 10, 5, 0.5)) is Regime.PURE_DEATH


def test_equilibrium_p_values():
    assert equilibrium_p(ProcessParams(1, 1, 100, 40, 0.7)) == pytest.approx(0.5)
    assert equilibrium_p(ProcessParams(1, 3, 100, 40, 0.7)) == pytest.approx(0.25)
    assert equilibrium_p(ProcessParams(0, 1, 100, 40, 0.7)) == 0.0


def test_state_rates():
    p = ProcessParams(2, 3, 10, 4, 1.0)
    assert p.state_birth_rate(4) == pytest.approx(12.0)
    assert p.state_death_rate(4) == pytest.approx(12.0)
    assert p.total_rate == pytest.approx(5.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(birth_rate=-1, death_rate=1, ceiling=10, initial=5),
        dict(birth_rate=1, death_rate=-0.5, ceiling=10, initial=5),
        dict(birth_rate=0, death_rate=0, ceiling=10, initial=5),
        dict(birth_rate=1, death_rate=1, ceiling=0, initial=0),
        dict(birth_rate=1, death_rate=1, ceiling=10, initial=0),
        dict(birth_rate=1, death_rate=1, ceiling=10, initial=11),
        dict(birth_rate=1, death_rate=1, ceiling=10, initial=5, order=0.0),
        dict(birth_rate=1, death_rate=1, ceiling=10, initial=5, order=1.5),
        dict(birth_rate=1, death_rate=1, ceiling=10, initial=5, order=-0.1),
        dict(birth_rate=math.nan, death_rate=1, ceiling=10, initial=5),
        dict(birth_rate=math.inf, death_rate=1, ceiling=10, initial=5),
        dict(birth_rate=1, death_rate=1, ceiling=10.5, initial=5),
        dict(birth_rate=1, death_rate=1, ceiling=True, initial=1),
        dict(birth_rate=1e308, death_rate=1e308, ceiling=10, initial=3),
        dict(birth_rate=1, death_rate=1, ceiling=10, initial=5, order=5e-5),
        dict(birth_rate=1, death_rate=1, ceiling=10, initial=5, order=1e-20),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        ProcessParams(**kwargs)


_rate_values = st.one_of(
    st.floats(min_value=-10, max_value=10),
    st.just(math.nan),
    st.just(math.inf),
)


@given(
    birth=_rate_values,
    death=_rate_values,
    ceiling=st.integers(min_value=-5, max_value=50),
    initial=st.integers(min_value=-5, max_value=60),
    order=st.one_of(st.floats(min_value=-1, max_value=2), st.just(math.nan)),
)
def test_construction_never_admits_invalid_tuples(birth, death, ceiling, initial, order):
    valid = (
        birth >= 0
        and death >= 0
        and math.isfinite(birth)
        and math.isfinite(death)
        and birth + death > 0
        and ceiling >= 1
        and 1 <= initial <= ceiling
        and 1e-4 <= order <= 1
    )
    if valid:
        p = ProcessParams(birth, death, ceiling, initial, order)
        assert p.initial <= p.ceiling
    else:
        with pytest.raises(ValueError):
            ProcessParams(birth, death, ceiling, initial, order)


@pytest.mark.parametrize("t", [0.3, 1.0, 5.0, 1e3])
def test_mean_at_the_smallest_order_matches_the_oracle(t):
    # mean = M E + N p (1 - E) with E = E_nu(-(lambda + mu) t**nu), p = 1/3
    e = ml_series_highprec(1e-4, 1.0, -3.0 * t**1e-4)
    want = 3 * e + 10 * (1 - e) / 3
    assert mean(ProcessParams(1, 2, 10, 3, 1e-4), t) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_params_are_frozen():
    p = ProcessParams(1, 1, 10, 5, 0.5)
    with pytest.raises(AttributeError):
        p.birth_rate = 2.0


_PURE_BIRTH = ProcessParams(1, 0, 5, 1, 0.6)


@pytest.mark.parametrize(
    "call",
    [
        lambda t: mean(_PURE_BIRTH, t),
        lambda t: fractional_values_at(_PURE_BIRTH, t, 10, np.random.default_rng(0)),
        lambda t: pure_birth_states_at(_PURE_BIRTH, t, 10, np.random.default_rng(0)),
        lambda t: inverse_subordinator_sample(0.6, t, np.random.default_rng(0), size=10),
        lambda t: subordination_pmf_mc(_PURE_BIRTH, t, 1000, seed=0),
        lambda t: master_equation_classical(_PURE_BIRTH, t),
    ],
    ids=[
        "mean",
        "fractional_values_at",
        "pure_birth_states_at",
        "inverse_subordinator_sample",
        "subordination_pmf_mc",
        "master_equation_classical",
    ],
)
@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_time_check_is_shared(call, t):
    # analytics, the samplers and the oracles refuse the same times with the same message
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        call(t)
