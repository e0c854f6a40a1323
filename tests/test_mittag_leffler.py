import math

import numpy as np
import pytest

from fracbinom.mittag_leffler import ml, ml_one
from fracbinom.reference import ml_series_highprec

# High-precision values frozen from the extended-precision series oracle
# (tests/test_reference.py re-derives them independently).
E_HALF_AT_MINUS_ONE = 0.42758357615580700441  # equals e * erfc(1)
E_07_07_AT_MINUS_TWO = 0.077358224338521222028
E_07_AT_MINUS_2_POW_07 = 0.26319000679909246423


def test_empty_sum_case():
    assert ml(0.7, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_classical_exponential_case():
    assert ml(1.0, 1.0, -1.0) == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_half_order_erfc_identity():
    assert ml(0.5, 1.0, -1.0) == pytest.approx(E_HALF_AT_MINUS_ONE, abs=1e-12)
    # E_{1/2,1}(-x) = e^(x^2) erfc(x), evaluated independently
    for x in (2.0, 4.0):
        assert ml(0.5, 1.0, -x) == pytest.approx(
            math.exp(x * x) * math.erfc(x), abs=1e-12
        )


def test_pinned_general_beta_value():
    assert ml(0.7, 0.7, -2.0) == pytest.approx(E_07_07_AT_MINUS_TWO, abs=1e-12)


def test_pinned_value_used_by_pure_death_mean():
    assert ml(0.7, 1.0, -(2.0**0.7)) == pytest.approx(
        E_07_AT_MINUS_2_POW_07, abs=1e-12
    )


def test_ml_one_delegates():
    assert ml_one(0.7, -1.0) == ml(0.7, 1.0, -1.0)
    assert ml_one(1.0, 0.0) == 1.0
    assert ml_one(1.0, -2.0) == pytest.approx(math.exp(-2.0), abs=1e-15)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.95, 1.0])
def test_monotone_decreasing_in_z(alpha):
    # for alpha=1 the tail underflows the absolute tolerance quickly, so the
    # strict-monotonicity grid stops where values are still representable
    far = 300.0 if alpha < 1.0 else 30.0
    zs = -np.geomspace(1e-3, far, 60)
    vals = np.array([ml_one(alpha, z) for z in zs])
    assert vals[0] < 1.0
    assert np.all(np.diff(vals) < 0.0)  # more negative z, smaller value
    assert vals[-1] < 1e-2
    assert np.all(vals > 0.0)


def test_classical_limit_matches_exp():
    zs = np.linspace(-50.0, 0.0, 101)
    worst = max(abs(ml(1.0, 1.0, z) - math.exp(z)) for z in zs)
    assert worst <= 1e-12


@pytest.mark.parametrize("x", [36.0, 40.0, 100.0, 700.0])
def test_classical_exponential_keeps_relative_accuracy(x):
    # from x = 36 on lies the asymptotic regime, each of whose terms is 0 at
    # alpha = beta = 1
    assert ml(1.0, 1.0, -x) == pytest.approx(math.exp(-x), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("nu", [0.4, 0.6, 0.8, 0.99])
@pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
def test_second_parameter_shift_identity(nu, t):
    # t^nu E_{nu,nu+1}(a t^nu) == (E_{nu,1}(a t^nu) - 1)/a  for a = -(lam+mu)
    a = -2.0
    arg = a * t**nu
    lhs = t**nu * ml(nu, nu + 1.0, arg)
    rhs = (ml(nu, 1.0, arg) - 1.0) / a
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_alpha_one_general_beta_against_closed_forms():
    # E_{1,2}(z) = (e^z - 1)/z
    for x in [0.5, 3.0, 12.0, 40.0, 200.0]:
        want = (math.exp(-x) - 1.0) / (-x)
        assert ml(1.0, 2.0, -x) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.9, 0.999])
@pytest.mark.parametrize("beta_kind", ["alpha", "one", "alpha_plus_one", "odd"])
def test_agreement_with_highprec_series_across_regimes(alpha, beta_kind):
    beta = {"alpha": alpha, "one": 1.0, "alpha_plus_one": alpha + 1.0, "odd": 1.37}[
        beta_kind
    ]
    # u values straddling both regime boundaries (series<->contour<->asymptotic),
    # on the edges of the series and asymptotic tables, and far enough out that
    # alpha = 0.05 falls back from the asymptotic series to the contour
    for u in [0.5, 3.0, 4.0, 4.5, 10.0, 30.0, 36.0, 40.0, 80.0, 1e3, 1e4]:
        z = -(u**alpha)
        got = ml(alpha, beta, z)
        want = ml_series_highprec(alpha, beta, z, digits=16)
        assert got == pytest.approx(want, abs=5e-12), (alpha, beta, u)


def test_huge_argument_tail():
    # deep asymptotic regime used by the long-time process formulas
    for alpha in [0.3, 0.7, 0.9]:
        for x in [1e3, 5e4]:
            got = ml_one(alpha, -x)
            want = ml_series_highprec(alpha, 1.0, -x, digits=16)
            assert got == pytest.approx(want, abs=1e-12)
            assert 0.0 < got < 1e-2


@pytest.mark.parametrize(
    "alpha,beta,z",
    [
        (0.0, 1.0, -1.0),
        (-0.5, 1.0, -1.0),
        (1.5, 1.0, -1.0),
        (0.5, 0.0, -1.0),
        (0.5, -2.0, -1.0),
        (0.5, 1.0, 0.5),
        (0.5, 1.0, math.inf),
        (0.5, 1.0, -math.inf),
    ],
)
def test_domain_rejection(alpha, beta, z):
    with pytest.raises(ValueError):
        ml(alpha, beta, z)
