import math
import pathlib

import mpmath as mp
import numpy as np
import pytest

from fracbinom import reference
from fracbinom.model import ProcessParams
from fracbinom.reference import (
    classical_pmf_batch,
    fractional_pmf_laplace,
    generator_matrix,
    master_equation_classical,
    ml_series_highprec,
    subordination_pmf_mc,
)

SMALL = ProcessParams(1, 2, 12, 5, 1.0)


def test_reference_module_is_independent_of_main_formulas():
    # the whole point of the oracle: it must not share code with the paths it
    # validates, so agreement is evidence rather than tautology
    import ast

    tree = ast.parse(pathlib.Path(reference.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names)
    for forbidden in ("mittag_leffler", "analytics", "_mwright"):
        assert not any(forbidden in name for name in imported)


def test_generator_columns_conserve_probability():
    a = generator_matrix(ProcessParams(1.3, 0.4, 17, 3, 1.0))
    assert np.abs(a.sum(axis=0)).max() <= 1e-12


def test_master_equation_initial_condition():
    sol = master_equation_classical(SMALL, 0.0)
    assert sol.probs[5] == 1.0
    assert sol.probs.sum() == 1.0


def test_master_equation_methods():
    default = master_equation_classical(SMALL, 1.0).probs
    assert np.array_equal(default, master_equation_classical(SMALL, 1.0, method="expm").probs)
    for method in ("auto", "dop853"):
        with pytest.raises(ValueError):
            master_equation_classical(SMALL, 1.0, method=method)


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.full(13, 1.0 / 12.0), "probability not conserved"),
        (np.r_[-1e-9, np.zeros(4), 1.0 + 1e-9, np.zeros(7)], "negative probability"),
    ],
)
def test_master_equation_refuses_bad_output(monkeypatch, bad, message):
    import scipy.linalg

    monkeypatch.setattr(scipy.linalg, "expm", lambda a: np.outer(bad, np.ones(len(bad))))
    with pytest.raises(ArithmeticError, match=message):
        master_equation_classical(SMALL, 1.0)


def test_master_equation_default_route_at_large_ceiling():
    # an adaptive Runge-Kutta solve leaves a -1.2e-12 entry here; the
    # matrix exponential stays within the negativity tolerance
    params = ProcessParams(0.2629475049850304, 1.7136068122318835, 98, 17, 1.0)
    sol = master_equation_classical(params, 1.45057454660817)
    assert sol.probs.min() >= -1e-12
    assert abs(sol.probs.sum() - 1.0) <= 1e-10


def test_master_equation_long_time_binomial():
    sol = master_equation_classical(SMALL, 60.0)
    n = np.arange(13)
    want = np.array(
        [math.comb(12, k) * (1 / 3) ** k * (2 / 3) ** (12 - k) for k in n]
    )
    assert np.abs(sol.probs - want).max() <= 1e-10


def test_spectral_batch_matches_expm():
    ts = np.array([0.1, 0.2, 0.6, 1.0, 2.5, 4.0, 9.0])
    batch = classical_pmf_batch(SMALL, ts)
    for row, t in zip(batch, ts):
        direct = master_equation_classical(SMALL, t, method="expm")
        assert np.abs(row - direct.probs).max() <= 1e-11


def test_spectral_batch_pure_regimes():
    birth = ProcessParams(1, 0, 10, 3, 1.0)
    death = ProcessParams(0, 1, 10, 7, 1.0)
    ts = np.array([0.3, 1.5])
    for params in (birth, death):
        batch = classical_pmf_batch(params, ts)
        for row, t in zip(batch, ts):
            direct = master_equation_classical(params, t, method="expm")
            assert np.abs(row - direct.probs).max() <= 1e-8


def test_spectral_batch_falls_back_to_expm():
    # the eigenvectors of this non-symmetric generator lose conservation by ~45
    params = ProcessParams(1, 0, 40, 1, 1.0)
    ts = np.array([2.0, 0.05, 0.7, 0.7])
    batch = classical_pmf_batch(params, ts)
    for row, t in zip(batch, ts):
        direct = master_equation_classical(params, t, method="expm")
        assert np.abs(row - direct.probs).max() <= 1e-12


@pytest.mark.parametrize(
    "args,t", [((1, 0, 40, 1, 0.8), 0.1), ((1, 1e-3, 60, 3, 0.6), 4.0)]
)
def test_subordination_mc_with_ill_conditioned_spectrum(args, t):
    from fracbinom.analytics import pmf

    params = ProcessParams(*args)
    mc = subordination_pmf_mc(params, t, 2000, seed=5)
    assert mc.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.abs(mc.probs - pmf(params, t).probs) <= 6.0 * mc.se + 1e-10)


@pytest.mark.parametrize(
    "args,t", [((1.0, 2.0, 12, 5, 1.0), 0.7), ((0.5, 1.5, 30, 25, 1.0), 4.0), ((1.0, 0.0, 10, 2, 1.0), 0.3)]
)
def test_laplace_oracle_matches_master_equation_at_order_one(args, t):
    params = ProcessParams(*args)
    want = master_equation_classical(params, t).probs
    assert np.abs(fractional_pmf_laplace(params, t).probs - want).max() <= 1e-14


@pytest.mark.parametrize("args,t", [((1.0, 2.0, 12, 5, 0.7), 0.7), ((0.6, 0.3, 9, 8, 0.3), 1e4)])
def test_laplace_oracle_does_not_move_with_precision(args, t):
    params = ProcessParams(*args)
    probs = fractional_pmf_laplace(params, t).probs
    assert np.array_equal(probs, fractional_pmf_laplace(params, t, digits=45).probs)
    assert abs(probs.sum() - 1.0) <= 1e-15


def test_laplace_oracle_start_and_arguments():
    params = ProcessParams(1.0, 2.0, 6, 3, 0.5)
    assert np.array_equal(fractional_pmf_laplace(params, 0.0).probs, np.eye(7)[3])
    for digits in (0, 61):
        with pytest.raises(ValueError):
            fractional_pmf_laplace(params, 1.0, digits=digits)
    with pytest.raises(ValueError):
        fractional_pmf_laplace(params, -1.0)


def test_highprec_series_classical_value():
    got = ml_series_highprec(1.0, 1.0, -1.0, digits=30)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_highprec_series_erfc_identity():
    got = ml_series_highprec(0.5, 1.0, -1.0, digits=30)
    want = float(mp.e ** 1 * mp.erfc(1))
    assert got == pytest.approx(want, abs=1e-15)


def test_highprec_series_known_value():
    value = ml_series_highprec(0.7, 0.7, -2.0, digits=30)
    assert value == pytest.approx(0.077358224338521222028, abs=1e-15)


def test_highprec_contour_fallback_consistent_with_series(monkeypatch):
    # pick arguments where the series is feasible but past the default cap
    # used by the fallback criterion: compare both routes directly
    alpha, z = 0.5, -17.0  # u = 289, dps ~ 160 -> fallback
    calls = []
    contour = reference._ml_contour_highprec

    def spy(*args):
        calls.append(args)
        return contour(*args)

    monkeypatch.setattr(reference, "_ml_contour_highprec", spy)
    via_fallback = ml_series_highprec(alpha, 1.0, z, digits=20)
    assert len(calls) == 1
    # series at forced precision (bypass the cap through a tiny helper call)
    x = -z
    need = 20 + int(x ** (1 / alpha) / math.log(10)) + 15
    with mp.workdps(need):
        aa, bb, zz = mp.mpf(alpha), mp.mpf(1.0), mp.mpf(z)
        total = mp.mpf(0)
        r = 0
        while True:
            term = zz**r / mp.gamma(aa * r + bb)
            total += term
            if r > 4 and abs(term) < mp.mpf(10) ** (-(need - 10)):
                break
            r += 1
        brute = float(total)
    assert via_fallback == pytest.approx(brute, abs=1e-14)


@pytest.mark.parametrize("alpha,x", [(0.001, 10.0), (0.01, 50.0), (0.001, 0.5)])
def test_highprec_series_at_small_alpha_matches_laplace_oracle(alpha, x):
    # u = x**(1/alpha) leaves the float range at (0.001, 10), so the precision
    # is sized in log space; the contour answers there and at (0.01, 50)
    want = fractional_pmf_laplace(ProcessParams(0, x, 1, 1, alpha), 1.0).probs[1]
    assert ml_series_highprec(alpha, 1.0, -x) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_highprec_series_validates_arguments():
    with pytest.raises(ValueError):
        ml_series_highprec(1.2, 1.0, -1.0)
    with pytest.raises(ValueError):
        ml_series_highprec(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        ml_series_highprec(0.5, 1.0, -1.0, digits=80)


def test_subordination_mc_collapses_at_order_one():
    mc = subordination_pmf_mc(SMALL, 0.7, 1000, seed=1)
    direct = master_equation_classical(SMALL, 0.7)
    assert np.array_equal(mc.probs, direct.probs)
    assert np.all(mc.se == 0.0)


def test_subordination_mc_reproducible_and_sane():
    params = ProcessParams(1, 2, 12, 5, 0.6)
    a = subordination_pmf_mc(params, 1.0, 2000, seed=7)
    b = subordination_pmf_mc(params, 1.0, 2000, seed=7)
    assert np.array_equal(a.probs, b.probs)
    assert a.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(a.se >= 0.0)


def test_subordination_mc_entry_zero_matches_extinction_formula():
    from fracbinom.analytics import extinction_probability

    params = ProcessParams(1, 2, 12, 5, 0.6)
    t = 1.0
    mc = subordination_pmf_mc(params, t, 50_000, seed=11)
    want = extinction_probability(params, t)
    assert abs(mc.probs[0] - want) <= 4.0 * mc.se[0]


def test_subordination_mc_needs_enough_samples():
    with pytest.raises(ValueError):
        subordination_pmf_mc(SMALL, 1.0, 10, seed=1)
