import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracbinom.analytics import (
    _finalize_pmf,
    AccuracyError,
    classical_pgf,
    equilibrium_pmf,
    extinction_probability,
    mean,
    pgf,
    pmf,
    pure_birth_pmf,
    second_factorial_moment,
    variance,
    waiting_time_density,
)
from fracbinom import analytics
from fracbinom.mittag_leffler import ml_one
from fracbinom.model import ProcessParams
from fracbinom.reference import master_equation_classical, ml_series_highprec

FIG1_LEFT = ProcessParams(1, 1, 100, 40, 0.7)
FIG1_RIGHT = ProcessParams(1, 3, 100, 40, 0.7)
SMALL = ProcessParams(1, 2, 12, 5, 1.0)


def _moments_from_pmf(dist):
    n = np.arange(len(dist.probs))
    m1 = float(n @ dist.probs)
    m2f = float((n * (n - 1.0)) @ dist.probs)
    return m1, m2f


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_mean_at_zero_is_exact():
    assert mean(FIG1_LEFT, 0.0) == 40.0


def test_mean_long_time_limit():
    assert mean(FIG1_LEFT, 1e9) == pytest.approx(50.0, abs=1e-3)
    assert mean(FIG1_RIGHT, 1e9) == pytest.approx(25.0, abs=1e-3)


def test_mean_constant_when_started_at_equilibrium():
    p = ProcessParams(1, 1, 80, 40, 0.6)
    for t in (0.0, 0.3, 2.0, 50.0):
        assert mean(p, t) == pytest.approx(40.0, abs=1e-12)


def test_moments_at_one_time_share_one_relaxation_pair(monkeypatch):
    calls = []

    def spy(alpha, z):
        calls.append(z)
        return ml_one(alpha, z)

    monkeypatch.setattr(analytics, "ml_one", spy)
    analytics._relaxation.cache_clear()
    params, t = ProcessParams(1, 2, 10, 4, 0.8), 1.3
    mean(params, t), variance(params, t), second_factorial_moment(params, t)
    assert len(calls) == 2
    assert calls[1] == 2.0 * calls[0]


def test_mean_pure_death_closed_form():
    p = ProcessParams(0, 1, 100, 40, 0.7)
    t = 2.0
    assert mean(p, t) == pytest.approx(40.0 * ml_one(0.7, -(t**0.7)), rel=1e-12)


def test_second_factorial_moment_at_zero():
    for p in (FIG1_LEFT, SMALL):
        assert second_factorial_moment(p, 0.0) == p.initial * (p.initial - 1)


def test_second_factorial_moment_long_time():
    p = FIG1_LEFT
    want = p.birth_rate**2 * 100 * 99 / p.total_rate**2
    assert second_factorial_moment(p, 1e12) == pytest.approx(want, rel=1e-6)


def test_second_factorial_moment_vs_ode_oracle():
    p = ProcessParams(1, 1, 100, 40, 1.0)
    ode = master_equation_classical(p, 1.0, method="dop853")
    n = np.arange(101)
    want = float((n * (n - 1.0)) @ ode.probs)
    assert second_factorial_moment(p, 1.0) == pytest.approx(want, abs=1e-6)


def test_variance_zero_at_start_and_limit():
    assert variance(FIG1_LEFT, 0.0) == 0.0
    assert variance(FIG1_LEFT, 1e9) == pytest.approx(25.0, abs=1e-3)


def test_variance_vs_ode_oracle_classical():
    p = ProcessParams(1, 1, 100, 40, 1.0)
    ode = master_equation_classical(p, 0.5, method="dop853")
    m1, m2f = _moments_from_pmf(ode)
    assert variance(p, 0.5) == pytest.approx(m2f + m1 - m1 * m1, abs=1e-6)


def test_pure_death_variance_classical_form():
    p = ProcessParams(0, 1.3, 60, 33, 1.0)
    for t in np.linspace(0.1, 6.0, 13):
        want = 33 * math.exp(-1.3 * t) * (1.0 - math.exp(-1.3 * t))
        assert variance(p, t) == pytest.approx(want, abs=1e-10)


def test_pure_birth_variance_specialization():
    # mu=0 reduction of the general variance: (N-M)(N-M-1)E2 + (N-M)E1 - (N-M)^2 E1^2
    p = ProcessParams(1.0, 0.0, 20, 5, 0.8)
    for t in (0.2, 1.0, 5.0):
        e1 = ml_one(0.8, -(t**0.8))
        e2 = ml_one(0.8, -2.0 * t**0.8)
        gap = 15.0
        want = gap * (gap - 1.0) * e2 + gap * e1 - gap * gap * e1 * e1
        assert variance(p, t) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# pmf
# ---------------------------------------------------------------------------


def test_pmf_initial_condition_is_exact_delta():
    dist = pmf(SMALL, 0.0)
    want = np.zeros(13)
    want[5] = 1.0
    assert np.array_equal(dist.probs, want)


def test_pmf_matches_ode_oracle_multiple_times():
    for t in (0.1, 0.7, 3.0):
        dist = pmf(SMALL, t)
        ode = master_equation_classical(SMALL, t)
        assert np.abs(dist.probs - ode.probs).max() <= 1e-7


def test_pmf_normalization_and_bounds():
    for nu in (0.4, 0.7, 1.0):
        p = ProcessParams(1.5, 0.7, 25, 10, nu)
        for t in (0.05, 0.8, 12.0):
            dist = pmf(p, t)
            assert abs(dist.probs.sum() - 1.0) <= 1e-9
            assert dist.probs.min() >= 0.0
            assert dist.probs.max() <= 1.0


def test_pmf_moment_consistency():
    for nu in (0.5, 0.9):
        p = ProcessParams(1, 2, 40, 15, nu)
        for t in (0.3, 2.0):
            dist = pmf(p, t)
            m1, m2f = _moments_from_pmf(dist)
            assert m1 == pytest.approx(mean(p, t), abs=1e-7)
            assert m2f == pytest.approx(second_factorial_moment(p, t), abs=1e-7)


def test_pmf_entry_zero_equals_extinction_probability():
    for nu in (0.5, 1.0):
        p = ProcessParams(1, 2, 15, 6, nu)
        for t in (0.4, 2.5, 20.0):
            dist = pmf(p, t)
            assert float(dist.probs[0]) == pytest.approx(
                extinction_probability(p, t), abs=1e-9
            )


def test_pmf_long_time_binomial_limit():
    p = ProcessParams(1, 1, 30, 10, 0.7)
    eq = equilibrium_pmf(p).probs
    sup = [np.abs(pmf(p, t).probs - eq).max() for t in (10.0, 1e3, 1e6, 1e9)]
    assert sup[0] > sup[1] > sup[2] > sup[3]
    assert sup[-1] <= 1e-6


def test_pmf_pure_death_support():
    p = ProcessParams(0, 1, 10, 7, 0.6)
    dist = pmf(p, 1.0)
    assert np.all(dist.probs[8:] == 0.0)
    assert dist.probs[:8].sum() == pytest.approx(1.0, abs=1e-12)


def test_pmf_large_ceiling_normalised_without_warning():
    for n_cap in (151, 300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = pmf(ProcessParams(1, 1, n_cap, 5, 0.5), 1.0)
        assert len(dist) == n_cap + 1
        assert dist.probs.min() >= 0.0
        assert abs(dist.probs.sum() - 1.0) <= 1e-12


def _assert_matches_moments(params, t, probs):
    n = np.arange(params.ceiling + 1)
    m1 = float(probs @ n)
    var = float(probs @ (n * n)) - m1 * m1
    assert abs(m1 - mean(params, t)) <= 1e-9 * (1 + params.ceiling)
    assert abs(var - variance(params, t)) <= 1e-9 * (1 + params.ceiling) ** 2


@pytest.mark.parametrize(
    "args,t",
    [
        ((1.0, 0.0, 40, 1, 0.8), 0.1),  # pure birth far from its ceiling
        ((1.0, 1e-3, 60, 3, 0.6), 4.0),  # near-pure birth
        ((0.25, 2.5, 80, 67, 0.87), 1.0),  # M far above N p
        ((1.426, 0.803, 147, 45, 0.883), 0.1),  # M far below N p
        ((1.0, 2.0, 150, 10, 0.7), 0.01),
        ((0.5, 1.5, 100, 90, 1.0), 0.01),
    ],
)
def test_pmf_far_from_equilibrium(args, t):
    # inputs whose alternating-sum weights cancelled to negative entries
    params = ProcessParams(*args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = pmf(params, t).probs
    assert probs.min() >= 0.0
    assert abs(probs.sum() - 1.0) <= 1e-12
    _assert_matches_moments(params, t, probs)
    if params.order == 1.0:
        ode = master_equation_classical(params, t, method="expm")
        assert np.abs(probs - ode.probs).max() <= 1e-12


@given(
    birth=st.floats(0.0, 5.0),
    death=st.floats(0.0, 5.0),
    n_cap=st.integers(1, 150),
    start=st.floats(0.0, 1.0),
    order=st.floats(0.3, 1.0),
    log_t=st.floats(-3.0, 3.0),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_pmf_envelope(birth, death, n_cap, start, order, log_t):
    assume(birth + death > 0.0)
    params = ProcessParams(birth, death, n_cap, 1 + round(start * (n_cap - 1)), order)
    t = 10.0**log_t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = pmf(params, t).probs
    assert probs.min() >= 0.0
    assert abs(probs.sum() - 1.0) <= 1e-12
    _assert_matches_moments(params, t, probs)
    assert abs(probs[0] - extinction_probability(params, t)) <= 1e-13


def _alternating_pmf(params, t):
    """p_n = sum_s W[n, s] E_{order,1}(-s (birth+death) t**order), the weights W
    expanded exactly from the classical generating function, the relaxation
    values from the extended-precision series."""
    with mp.workdps(40):
        p = mp.mpf(params.birth_rate) / (params.birth_rate + params.death_rate)
        q = 1 - p
        vacant = {(0, 0): q, (0, 1): p, (1, 0): p, (1, 1): -p}  # (state, e-power)
        occupied = {(0, 0): q, (0, 1): -q, (1, 0): p, (1, 1): q}
        weights = {(0, 0): mp.mpf(1)}
        factors = [vacant] * (params.ceiling - params.initial) + [occupied] * params.initial
        for factor in factors:
            product = {}
            for (n, s), c in weights.items():
                for (dn, ds), f in factor.items():
                    product[n + dn, s + ds] = product.get((n + dn, s + ds), 0) + c * f
            weights = product
        rate_time = params.total_rate * t**params.order
        relax = []
        for s in range(params.ceiling + 1):
            # the series, not its contour fallback, must answer
            assert (s * rate_time) ** (1 / params.order) / math.log(10) + 45 <= 150
            relax.append(mp.mpf(ml_series_highprec(params.order, 1.0, -s * rate_time)))
        probs = [mp.mpf(0)] * (params.ceiling + 1)
        for (n, s), c in weights.items():
            probs[n] += c * relax[s]
        return np.array([float(x) for x in probs])


@pytest.mark.parametrize("order", [0.3, 0.7, 0.95, 0.999])
@pytest.mark.parametrize("u_max", [3.0, 60.0])
@pytest.mark.parametrize("base", [(1.0, 2.0, 12, 5), (0.6, 0.3, 9, 8), (0.8, 0.0, 10, 3)])
def test_pmf_matches_exact_alternating_sum(base, u_max, order):
    # t puts the largest relaxation argument at |z|**(1/order) = u_max
    params = ProcessParams(*base, order)
    t = u_max * (params.ceiling * params.total_rate) ** (-1.0 / order)
    want = _alternating_pmf(params, t)
    assert np.abs(pmf(params, t).probs - want).max() <= 1e-13


def test_pmf_finalization_guards():
    # the mixture has no negative terms, so any negative entry, a broken
    # normalization or a NaN is an accuracy failure; roundoff in the total
    # is renormalized away
    for raw in ([0.5, 0.5, -1e-10], [0.5, 0.5, -1e-6], [0.4, 0.4], [0.5, math.nan, 0.5]):
        with pytest.raises(AccuracyError):
            _finalize_pmf(1.0, np.array(raw))
    fixed = _finalize_pmf(1.0, np.array([0.5, 0.5 + 1e-12]))
    assert fixed.probs.sum() == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# pure birth pmf
# ---------------------------------------------------------------------------


def test_pure_birth_pmf_dispatch_and_lowest_entry():
    p = ProcessParams(1, 0, 20, 5, 0.8)
    t = 1.0
    dist = pmf(p, t)  # dispatches
    assert float(dist.probs[5]) == pytest.approx(
        ml_one(0.8, -15.0 * t**0.8), rel=1e-9
    )
    assert np.all(dist.probs[:5] == 0.0)


def test_pure_birth_pmf_initial_and_absorbing_limits():
    p = ProcessParams(1, 0, 20, 5, 0.8)
    at0 = pure_birth_pmf(p, 0.0)
    assert at0.probs[5] == 1.0
    late = pure_birth_pmf(p, 1e8)
    assert late.probs[20] == pytest.approx(1.0, abs=1e-5)


def test_pure_birth_pmf_moment_consistency():
    p = ProcessParams(1.2, 0.0, 18, 4, 0.7)
    for t in (0.5, 2.0):
        dist = pure_birth_pmf(p, t)
        m1, m2f = _moments_from_pmf(dist)
        assert m1 == pytest.approx(mean(p, t), abs=1e-8)
        assert m2f + m1 - m1 * m1 == pytest.approx(variance(p, t), abs=1e-8)


def test_pure_birth_pmf_rejects_other_regimes():
    with pytest.raises(ValueError):
        pure_birth_pmf(SMALL, 1.0)


# ---------------------------------------------------------------------------
# extinction probability
# ---------------------------------------------------------------------------


def test_extinction_zero_at_start():
    assert extinction_probability(SMALL, 0.0) == 0.0


def test_extinction_long_time_limit():
    p = ProcessParams(1, 2, 12, 5, 0.7)
    want = (2.0 / 3.0) ** 12
    assert extinction_probability(p, 1e12) == pytest.approx(want, rel=1e-4)


def test_extinction_pure_birth_is_zero():
    assert extinction_probability(ProcessParams(1, 0, 10, 2, 0.5), 5.0) == 0.0


def test_extinction_pure_death_full_start_alternating_form():
    # direct alternating-sum evaluation of the same closed form
    p = ProcessParams(0, 1.0, 8, 8, 0.6)
    t = 1.7
    want = sum(
        math.comb(8, h) * (-1) ** h * ml_one(0.6, -h * t**0.6) for h in range(9)
    )
    assert extinction_probability(p, t) == pytest.approx(want, abs=1e-11)


def test_extinction_classical_product_form():
    # order=1: p0 = (q + p e^-ct)^(N-M) (q - q e^-ct)^M with c = lam+mu
    p = ProcessParams(1, 2, 12, 5, 1.0)
    for t in (0.3, 1.0, 4.0):
        decay = math.exp(-3.0 * t)
        want = (2 / 3 + decay / 3) ** 7 * (2 / 3 - 2 / 3 * decay) ** 5
        assert extinction_probability(p, t) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("t", [0.01, 0.1])
def test_extinction_far_from_equilibrium_is_relatively_exact(t):
    # (q (1-e))^M (q + p e)^(N-M) is ~1e-165 at t = 0.01
    params = ProcessParams(0.5, 1.5, 100, 90, 1.0)
    with mp.workdps(30):
        e = mp.exp(-2 * mp.mpf(t))
        want = float((0.75 * (1 - e)) ** 90 * (0.75 + 0.25 * e) ** 10)
    assert extinction_probability(params, t) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


def test_classical_pgf_normalization_and_initial():
    assert classical_pgf(SMALL, 0.0, 3.0) == pytest.approx(1.0, abs=1e-14)
    for u in (0.2, 0.9, 1.7):
        assert classical_pgf(SMALL, u, 0.0) == pytest.approx((1 - u) ** 5, rel=1e-12)


def test_classical_pgf_long_time():
    p = SMALL
    u = 0.6
    want = (1.0 - u / 3.0) ** 12
    assert classical_pgf(p, u, 200.0) == pytest.approx(want, rel=1e-10)


def test_pgf_matches_classical_at_order_one():
    # classical_pgf is pgf at order 1, so both are checked against the
    # master equation
    for order in (1.0, 0.6):
        p = ProcessParams(1, 2, 15, 6, order)
        for t in (0.2, 1.0, 5.0):
            ode = master_equation_classical(p, t, method="expm").probs
            for u in (0.0, 0.35, 1.0, 1.6):
                want = np.polynomial.polynomial.polyval(1.0 - u, ode)
                assert classical_pgf(p, u, t) == pytest.approx(want, abs=1e-13)
                if order == 1.0:
                    assert pgf(p, u, t) == pytest.approx(want, abs=1e-13)


def test_pgf_edge_values():
    p = ProcessParams(1, 2, 15, 6, 0.7)
    assert pgf(p, 0.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    for params in (p, ProcessParams(0.5, 1.5, 100, 90, 0.8), ProcessParams(0, 1, 10, 3, 1.0)):
        for t in (0.0, 0.01, 2.0, 1e3):
            assert pgf(params, 1.0, t) == extinction_probability(params, t)


@pytest.mark.parametrize(
    "args", [(1, 2, 15, 6, 0.7), (1, 0, 20, 5, 0.8), (0.4, 1.1, 60, 50, 0.35), (2, 1, 9, 1, 1.0)]
)
def test_pgf_matches_pmf_transform(args):
    params = ProcessParams(*args)
    for t in (0.05, 1.0, 30.0):
        probs = pmf(params, t).probs
        for u in (0.0, 0.3, 1.0, 1.5, 2.0):
            want = np.polynomial.polynomial.polyval(1.0 - u, probs)
            assert abs(pgf(params, u, t) - want) <= 1e-13


def test_pgf_rejects_out_of_range_u():
    with pytest.raises(ValueError):
        pgf(SMALL, -0.1, 1.0)
    with pytest.raises(ValueError):
        classical_pgf(SMALL, 2.4, 1.0)


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------


def test_equilibrium_pmf_fair_case():
    dist = equilibrium_pmf(ProcessParams(1, 1, 2, 1, 1.0))
    assert np.allclose(dist.probs, [0.25, 0.5, 0.25], atol=1e-14)


def test_equilibrium_pmf_degenerate_cases():
    dead = equilibrium_pmf(ProcessParams(0, 1, 5, 3, 1.0))
    assert dead.probs[0] == 1.0
    full = equilibrium_pmf(ProcessParams(1, 0, 5, 3, 1.0))
    assert full.probs[5] == 1.0


def test_equilibrium_pmf_extreme_entry():
    dist = equilibrium_pmf(ProcessParams(1, 1, 100, 40, 1.0))
    assert float(dist.probs[0]) == pytest.approx(2.0**-100, rel=1e-10)


# ---------------------------------------------------------------------------
# waiting-time density
# ---------------------------------------------------------------------------


def test_waiting_time_density_exponential_at_order_one():
    p = ProcessParams(1.5, 0.0, 10, 4, 1.0)
    rate = 1.5 * (10 - 6)
    for s in (0.1, 0.5, 2.0):
        assert waiting_time_density(p, 6, s) == pytest.approx(
            rate * math.exp(-rate * s), rel=1e-12
        )


def test_waiting_time_density_integrates_to_one():
    # substitute w = s^nu so the s^(nu-1) singularity disappears exactly
    p = ProcessParams(1.0, 0.0, 10, 4, 0.75)
    j = 5  # rate 5
    nu = 0.75
    val, err = quad(
        lambda w: waiting_time_density(p, j, w ** (1 / nu))
        * (1 / nu)
        * w ** (1 / nu - 1),
        0.0,
        np.inf,
        limit=200,
    )
    assert val == pytest.approx(1.0, abs=1e-6)


def test_waiting_time_density_power_law_tail():
    # log-log slope of the tail approaches -(nu+1)
    p = ProcessParams(1.0, 0.0, 6, 5, 0.6)
    s1, s2 = 1e4, 1e6
    f1 = waiting_time_density(p, 5, s1)
    f2 = waiting_time_density(p, 5, s2)
    slope = (math.log(f2) - math.log(f1)) / (math.log(s2) - math.log(s1))
    assert slope == pytest.approx(-1.6, abs=0.01)


def test_waiting_time_density_domain_checks():
    p = ProcessParams(1.0, 0.0, 10, 4, 0.75)
    with pytest.raises(ValueError):
        waiting_time_density(p, 3, 1.0)  # below initial
    with pytest.raises(ValueError):
        waiting_time_density(p, 10, 1.0)  # ceiling is absorbing
    with pytest.raises(ValueError):
        waiting_time_density(SMALL, 6, 1.0)  # wrong regime
    assert waiting_time_density(p, 4, 0.0) == math.inf  # pointwise divergence
