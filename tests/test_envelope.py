"""Property tests over the supported envelope: N <= 150, any rates >= 0,
order in [0.05, 1], t = 0 or 10**k for k in [-12, 12].

Examples are derandomized, so every run checks the same inputs.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracbinom.analytics import extinction_probability, mean, pgf, variance
from fracbinom.model import ProcessParams, Regime, classify
from fracbinom.sampler import fractional_path, fractional_values_at

_rates = st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda k: 10.0**k))
_times = st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda k: 10.0**k))


@st.composite
def _params(draw):
    birth, death = draw(_rates), draw(_rates)
    assume(birth + death > 0.0)
    n_cap = draw(st.integers(1, 150))
    initial = draw(st.integers(1, n_cap))
    return ProcessParams(birth, death, n_cap, initial, draw(st.floats(0.05, 1.0)))


def _envelope(examples=150):
    return settings(max_examples=examples, deadline=None, derandomize=True)


@given(params=_params(), t=_times)
@_envelope()
def test_mean_between_start_and_limit(params, t):
    target = params.ceiling * params.birth_rate / params.total_rate
    slack = 1e-12 * (1 + params.ceiling)
    got = mean(params, t)
    assert min(params.initial, target) - slack <= got <= max(params.initial, target) + slack


@given(params=_params(), t=_times)
@_envelope()
def test_variance_within_binomial_bounds(params, t):
    slack = 1e-12 * (1 + params.ceiling) ** 2
    assert -slack <= variance(params, t) <= params.ceiling**2 / 4 + slack


@given(params=_params(), t=_times)
@_envelope()
def test_extinction_is_the_transform_at_one(params, t):
    got = extinction_probability(params, t)
    assert 0.0 <= got <= 1.0
    assert got == min(1.0, pgf(params, 1.0, t))
    if classify(params) is Regime.PURE_BIRTH:
        assert got == 0.0


@given(params=_params(), t=_times, seed=st.integers(0, 2**32 - 1))
@_envelope()
def test_marginal_draws_stay_in_range(params, t, seed):
    draws = fractional_values_at(params, t, 64, np.random.default_rng(seed))
    assert draws.min() >= 0 and draws.max() <= params.ceiling
    if t == 0.0:
        assert np.all(draws == params.initial)
    regime = classify(params)
    if regime is Regime.PURE_BIRTH:
        assert draws.min() >= params.initial
    elif regime is Regime.PURE_DEATH:
        assert draws.max() <= params.initial


@given(
    params=_params(),
    relaxation_times=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@_envelope(100)
def test_path_stays_in_range_and_window(params, relaxation_times, seed):
    horizon = relaxation_times * params.total_rate ** (-1.0 / params.order)
    path = fractional_path(params, horizon, rng=np.random.default_rng(seed))
    assert path.states[0] == params.initial
    assert path.states.min() >= 0 and path.states.max() <= params.ceiling
    assert np.all(np.diff(path.times) > 0.0)
    assert path.times[-1] <= horizon
