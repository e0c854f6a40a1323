import math

import numpy as np
import pytest
from scipy import stats as sps

from fracbinom import analytics
from fracbinom.model import ProcessParams
from fracbinom.sampler import (
    Path,
    classical_path,
    ensemble,
    fractional_path,
    fractional_value_at,
    fractional_values_at,
    inverse_subordinator_sample,
    ml_waiting_time,
    pure_birth_states_at,
    stable_subordinator_unit,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def chi_square_stat(draws, probs, minlength, min_expected=5.0):
    """Pearson statistic with sparse cells pooled; returns (stat, dof).

    States with exactly zero probability must stay unobserved (the statistic
    is infinite otherwise); remaining cells below min_expected are pooled.
    """
    expected = probs * len(draws)
    observed = np.bincount(draws, minlength=minlength).astype(float)
    impossible = expected == 0.0
    if observed[impossible].sum() > 0:
        return math.inf, max(1, int((~impossible).sum()) - 1)
    expected, observed = expected[~impossible], observed[~impossible]
    keep = expected >= min_expected
    if (~keep).any():
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
    stat = ((observed - expected) ** 2 / expected).sum()
    return float(stat), len(expected) - 1


# ---------------------------------------------------------------------------
# stable subordinator
# ---------------------------------------------------------------------------


def test_stable_draws_positive():
    rng = rng_for(0)
    draws = stable_subordinator_unit(0.6, rng, size=10_000)
    assert np.all(draws > 0.0)


def test_stable_laplace_transform():
    # E[exp(-S)] = exp(-1) for the unit draw, any stability index
    rng = rng_for(1)
    for nu in (0.35, 0.5, 0.8):
        draws = stable_subordinator_unit(nu, rng, size=1_000_000)
        vals = np.exp(-draws)
        err = abs(vals.mean() - math.exp(-1.0))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert err <= 3.0 * se, (nu, err, se)


def test_stable_degenerate_limit():
    rng = rng_for(2)
    draws = stable_subordinator_unit(0.99, rng, size=100_000)
    assert 0.9 <= draws.mean() <= 1.1


def test_stable_rejects_bad_index():
    with pytest.raises(ValueError):
        stable_subordinator_unit(1.0, rng_for(0))
    with pytest.raises(ValueError):
        stable_subordinator_unit(0.0, rng_for(0))


# ---------------------------------------------------------------------------
# inverse subordinator
# ---------------------------------------------------------------------------


def test_inverse_subordinator_zero_time():
    assert inverse_subordinator_sample(0.5, 0.0, rng_for(0)) == 0.0


def test_inverse_subordinator_first_moment():
    # E[V_t] = t^nu / Gamma(1+nu); at nu=0.5, t=1 this is 1/Gamma(1.5)
    rng = rng_for(3)
    draws = inverse_subordinator_sample(0.5, 1.0, rng, size=1_000_000)
    want = 1.0 / math.gamma(1.5)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - want) <= 3.0 * se


def test_inverse_subordinator_self_similarity():
    # V at time t equals t^nu * (V at time 1) in law
    rng = rng_for(4)
    nu, t = 0.7, 3.5
    a = inverse_subordinator_sample(nu, t, rng, size=20_000)
    b = t**nu * inverse_subordinator_sample(nu, 1.0, rng, size=20_000)
    d = sps.ks_2samp(a, b)
    assert d.pvalue > 0.01


# ---------------------------------------------------------------------------
# classical Gillespie
# ---------------------------------------------------------------------------


def test_classical_path_structure():
    p = ProcessParams(1, 1, 30, 10, 1.0)
    path = classical_path(p, 5.0, rng_for(5))
    assert path.times[0] == 0.0 and path.states[0] == 10
    assert np.all(np.abs(np.diff(path.states)) == 1)
    assert path.states.min() >= 0 and path.states.max() <= 30
    assert path.horizon == 5.0


def test_classical_path_pure_death_monotone():
    p = ProcessParams(0, 1, 20, 15, 1.0)
    path = classical_path(p, 50.0, rng_for(6))
    assert np.all(np.diff(path.states) == -1)
    assert path.states[-1] == 0  # absorbed


def test_classical_path_pure_birth_monotone():
    p = ProcessParams(1, 0, 20, 3, 1.0)
    path = classical_path(p, 100.0, rng_for(7))
    assert np.all(np.diff(path.states) == 1)
    assert path.states[-1] == 20


def test_classical_path_state_at():
    p = ProcessParams(1.0, 0.5, 10, 5, 1.0)
    path = classical_path(p, 3.0, rng_for(8))
    assert path.state_at(0.0) == 5
    mid = float(path.times[len(path.times) // 2])
    assert path.state_at(mid) == path.states[len(path.times) // 2]
    assert path.state_at(3.0) == path.states[-1]


def test_classical_mc_mean_matches_formula():
    p = ProcessParams(1, 1, 100, 40, 1.0)
    t = 1.0
    draws = fractional_values_at(p, t, 10_000, rng_for(9))
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - analytics.mean(p, t)) <= 3.0 * se


# ---------------------------------------------------------------------------
# fractional marginals
# ---------------------------------------------------------------------------


def test_fractional_value_at_zero_time():
    p = ProcessParams(1, 1, 100, 40, 0.7)
    assert fractional_value_at(p, 0.0, rng_for(10)) == 40


def test_fractional_mc_mean_matches_formula():
    p = ProcessParams(1, 1, 100, 40, 0.7)
    t = 5.0
    draws = fractional_values_at(p, t, 10_000, rng_for(11))
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - analytics.mean(p, t)) <= 3.0 * se


def test_fractional_equilibrium_chi_square():
    p = ProcessParams(1, 1, 12, 5, 0.7)
    t = 400.0
    draws = fractional_values_at(p, t, 50_000, rng_for(12))
    stat, dof = chi_square_stat(draws, analytics.equilibrium_pmf(p).probs, 13)
    assert stat <= sps.chi2.ppf(0.99, df=dof)


def test_time_change_routes_agree_pure_birth():
    # direct ML-renewal construction vs subordinated Gillespie: the marginal
    # laws must coincide (the package's central representation property,
    # checked as a two-sample test at 1e5 draws per route)
    p = ProcessParams(1, 0, 12, 3, 0.6)
    t = 1.0
    a = pure_birth_states_at(p, t, 100_000, rng_for(13))
    b = fractional_values_at(p, t, 100_000, rng_for(14))
    table = np.array(
        [np.bincount(a - 3, minlength=10), np.bincount(b - 3, minlength=10)]
    )
    table = table[:, table.sum(axis=0) > 0]
    _, pvalue, _, _ = sps.chi2_contingency(table)
    assert pvalue > 0.01


# ---------------------------------------------------------------------------
# fractional paths
# ---------------------------------------------------------------------------


def test_fractional_path_invariants():
    p = ProcessParams(1, 1, 40, 10, 0.75)
    path = fractional_path(p, 10.0, rng=rng_for(15))
    assert path.times[0] == 0.0
    assert np.all(np.diff(path.times) > 0.0)
    assert np.all(np.abs(np.diff(path.states)) == 1)
    assert path.states.min() >= 0 and path.states.max() <= 40
    assert path.times.max() <= 10.0


def test_fractional_path_at_order_one_is_classical():
    p = ProcessParams(1, 0, 30, 5, 1.0)
    a = fractional_path(p, 8.0, rng=rng_for(16))
    b = classical_path(p, 8.0, rng_for(16))
    assert np.array_equal(a.states, b.states)
    assert np.allclose(a.times, b.times)


def test_fractional_path_sojourns_heavier_than_exponential():
    # pooled rate-normalized sojourns: classical ones pass an exponential KS
    # test, fractional ones fail it decisively (heavy tails)
    nu = 0.75
    classical = ProcessParams(1, 0, 100, 5, 1.0)
    fractional = ProcessParams(1, 0, 100, 5, nu)

    def pooled_sojourns(params, power, seed, n_paths=40):
        rng = rng_for(seed)
        out = []
        for _ in range(n_paths):
            path = fractional_path(params, 60.0, rng=rng)
            rates = params.birth_rate * (params.ceiling - path.states[:-1])
            out.append(np.diff(path.times) * rates ** (1.0 / power))
        return np.concatenate(out)

    classical_pool = pooled_sojourns(classical, 1.0, 17)
    fractional_pool = pooled_sojourns(fractional, nu, 18)
    assert sps.kstest(classical_pool, "expon").pvalue > 0.01
    assert sps.kstest(fractional_pool, "expon").pvalue < 0.01


@pytest.mark.parametrize("nu", [0.3, 0.75])
def test_fractional_path_first_sojourn_is_mittag_leffler(nu):
    # pure birth leaves M = 4 at rate q = N - M = 11, so the first jump time
    # T has q**(1/nu) T with survival E_nu(-s**nu), whatever the horizon
    from fracbinom.mittag_leffler import ml

    p = ProcessParams(1, 0, 15, 4, nu)
    rng = rng_for(24)
    n_paths = 4000
    first = np.empty(n_paths)
    for i in range(n_paths):
        times = fractional_path(p, 1e7, rng=rng).times
        first[i] = times[1] if len(times) > 1 else math.inf
    scaled = first * 11.0 ** (1.0 / nu)
    s = np.array([0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0])
    want = np.array([ml(nu, 1.0, -(x**nu)) for x in s])
    emp = (scaled[:, None] > s).mean(axis=0)
    se = np.sqrt(want * (1.0 - want) / n_paths)
    assert np.all(np.abs(emp - want) <= 4.0 * se), (emp, want)


def test_fractional_path_marginal_matches_pmf_chi_square():
    p = ProcessParams(1, 1, 20, 5, 0.6)
    rng = rng_for(25)
    draws = np.array([fractional_path(p, 1.0, rng=rng).states[-1] for _ in range(20_000)])
    stat, dof = chi_square_stat(draws, analytics.pmf(p, 1.0).probs, 21)
    assert stat <= sps.chi2.ppf(0.99, df=dof)


@pytest.mark.parametrize("horizon", [1e-3, 10.0, 1e6])
def test_fractional_path_small_order_strict_and_bounded(horizon):
    # at nu = 0.05 most sojourns fall below one ulp of the current time (or
    # underflow to 0); each jump must still get its own, later time
    p = ProcessParams(2, 1, 30, 3, 0.05)
    rng = rng_for(26)
    for _ in range(50):
        path = fractional_path(p, horizon, rng=rng)
        assert np.all(np.isfinite(path.times)) and path.times[-1] <= horizon
        assert np.all(np.diff(path.times) > 0.0)
        assert path.states.min() >= 0 and path.states.max() <= 30


# ---------------------------------------------------------------------------
# Mittag-Leffler waiting times
# ---------------------------------------------------------------------------


def test_ml_waiting_time_exponential_case():
    draws = ml_waiting_time(1.0, 2.0, rng_for(19), size=1_000_000)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 0.5) <= 3.0 * se


def test_ml_waiting_time_survival_matches_relaxation():
    from fracbinom.mittag_leffler import ml_one

    nu = 0.75
    draws = ml_waiting_time(nu, 1.0, rng_for(20), size=100_000)
    for s in (0.1, 0.5, 1.0, 3.0, 10.0):
        emp = (draws > s).mean()
        want = ml_one(nu, -(s**nu))
        se = math.sqrt(want * (1 - want) / len(draws))
        assert abs(emp - want) <= 4.0 * se, s


def test_ml_waiting_time_heavy_tail_growing_mean():
    # no first moment for nu < 1: the running mean keeps growing with the
    # sample size in the vast majority of repetitions (the true frequency of
    # this comparison is ~94-95%)
    rng = rng_for(21)
    grew = 0
    for _ in range(20):
        draws = ml_waiting_time(0.6, 1.0, rng, size=1_000_000)
        grew += draws.mean() > draws[:10_000].mean()
    assert grew >= 17


def test_ml_waiting_time_tiny_rate_gives_infinite_sojourns():
    # rate**(-1/nu) = 1e500 is beyond the float range
    draws = ml_waiting_time(0.02, 1e-10, rng_for(22), size=1000)
    assert not np.isnan(draws).any()
    assert np.isinf(draws).mean() > 0.99
    assert ml_waiting_time(0.02, 1e-10, rng_for(22)) == math.inf
    states = pure_birth_states_at(ProcessParams(1e-10, 0, 5, 1, 0.02), 1.0, 10, rng_for(23))
    assert np.array_equal(states, np.ones(10, dtype=np.int64))


def test_ml_waiting_time_validates():
    with pytest.raises(ValueError):
        ml_waiting_time(0.0, 1.0, rng_for(0))
    with pytest.raises(ValueError):
        ml_waiting_time(0.5, 0.0, rng_for(0))


# ---------------------------------------------------------------------------
# pure-birth renewal paths
# ---------------------------------------------------------------------------


def test_pure_birth_path_structure_and_absorption():
    p = ProcessParams(1, 0, 15, 4, 0.8)
    path = fractional_path(p, 1e7, rng=rng_for(22))
    assert np.all(np.diff(path.states) == 1)
    assert path.states[-1] == 15  # absorbed eventually


def test_pure_birth_marginal_matches_pmf_chi_square():
    p = ProcessParams(1, 0, 20, 5, 0.8)
    t = 1.0
    draws = pure_birth_states_at(p, t, 50_000, rng_for(23))
    stat, dof = chi_square_stat(draws, analytics.pure_birth_pmf(p, t).probs, 21)
    assert stat <= sps.chi2.ppf(0.99, df=dof)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_ensemble_deterministic_for_seed():
    p = ProcessParams(1, 1, 30, 10, 0.7)
    grid = [0.5, 1.0, 2.0]
    a = ensemble(p, grid, 500, seed=99)
    b = ensemble(p, grid, 500, seed=99)
    assert np.array_equal(a.mean_est, b.mean_est)
    assert np.array_equal(a.var_est, b.var_est)
    c = ensemble(p, grid, 500, seed=100)
    assert not np.array_equal(a.mean_est, c.mean_est)


def test_ensemble_chunking_invariant():
    # 3000 draws span two chunks, each with its own stream; the estimate
    # must not depend on where the chunks split
    p = ProcessParams(1, 1, 20, 5, 0.8)
    a = ensemble(p, [1.0], 3000, seed=5)
    m = analytics.mean(p, 1.0)
    assert abs(a.mean_est[0] - m) <= 4.0 * a.se_mean[0]


def test_ensemble_minimal_and_validation():
    p = ProcessParams(1, 1, 10, 5, 0.7)
    stats = ensemble(p, [0.5], 2, seed=1)
    assert np.isfinite(stats.se_mean).all()
    with pytest.raises(ValueError):
        ensemble(p, [0.5], 1, seed=1)
    with pytest.raises(ValueError):
        ensemble(p, [], 10, seed=1)
    with pytest.raises(ValueError):
        ensemble(p, [2.0, 1.0], 10, seed=1)


def test_ensemble_matches_mean_and_equilibrium_variance():
    p = ProcessParams(1, 1, 100, 40, 0.7)
    stats = ensemble(p, [2.0, 500.0], 10_000, seed=2024)
    for j, t in enumerate([2.0, 500.0]):
        want = analytics.mean(p, t)
        assert abs(stats.mean_est[j] - want) <= 3.0 * stats.se_mean[j]
    # variance at large t near N p (1-p) = 25; SE of a variance estimate of a
    # near-binomial sample: sqrt(2/(n-1)) var is a good scale
    var_se = math.sqrt(2.0 / (stats.n_paths - 1)) * 25.0
    assert abs(stats.var_est[1] - 25.0) <= 4.0 * var_se


def test_path_type_validation():
    with pytest.raises(ValueError):
        Path(np.array([0.0, 1.0]), np.array([5, 7]), horizon=2.0)  # jump of 2
    with pytest.raises(ValueError):
        Path(np.array([0.5, 1.0]), np.array([5, 6]), horizon=2.0)  # no t=0
    with pytest.raises(ValueError):
        Path(np.array([0.0, 0.0]), np.array([5, 6]), horizon=2.0)  # not strict
