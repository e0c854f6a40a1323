"""Independent reference implementations used only for validation.

Nothing in this module may import the mittag_leffler or analytics modules:
agreement between the main formulas and these reference routes is the
package's primary correctness evidence, so the two sides have to stay
algorithmically disjoint.  The classical master equation is solved
numerically, by a scaling-and-squaring matrix exponential at one time, and
at many times by interpolating in exp(-(lambda+mu) t) between exponentials
taken at its Chebyshev points (the tests check each against the other); the
Mittag-Leffler series is summed in software extended precision, and past its
precision cap the value is mpmath's fixed Talbot inversion, a different
contour from the parabola of `mittag_leffler`; and the fractional state
probabilities are computed by inverting the Laplace transform of the paper's
fractional forward equation in extended precision, and estimated by direct
Monte Carlo over the random time change, never through the closed-form
Mittag-Leffler expressions or the subordination rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Pmf, ProcessParams, _check_integer, _check_time
from .sampler import RngSeed, inverse_subordinator_sample

__all__ = [
    "McPmf",
    "generator_matrix",
    "master_equation_classical",
    "classical_pmf_batch",
    "fractional_pmf_laplace",
    "ml_series_highprec",
    "subordination_pmf_mc",
]

# mpmath and scipy are imported where they are used: only validation needs
# them, and they cost an importer ~55 MB and 0.6 s.

_CONSERVATION_TOL = 1e-10
_NEGATIVE_TOL = 1e-12

# Beyond this working precision the plain series is wasteful; mpmath's fixed
# Talbot inversion takes over.  The cap keeps the series in charge everywhere
# the main path uses its parabolic contour (|z|**(1/alpha) < 36 needs < ~100
# dps), so the two sides never share an algorithm: series-zone and
# contour-zone values are checked against the extended series, and
# asymptotic-zone values against the Talbot contour.
_SERIES_DPS_CAP = 150


@dataclass(frozen=True)
class McPmf:
    """Monte Carlo estimate of the fractional state probabilities."""

    t: float
    probs: np.ndarray
    se: np.ndarray
    n_samples: int


def generator_matrix(params: ProcessParams) -> np.ndarray:
    """Dense generator A with dp/dt = A p for the classical chain."""
    levels = np.arange(params.ceiling + 1)
    birth, death = params.state_birth_rate(levels), params.state_death_rate(levels)
    return np.diag(birth[:-1], -1) + np.diag(death[1:], 1) - np.diag(birth + death)


def _initial_vector(params: ProcessParams) -> np.ndarray:
    p0 = np.zeros(params.ceiling + 1)
    p0[params.initial] = 1.0
    return p0


def master_equation_classical(params: ProcessParams, t, method="expm") -> Pmf:
    """Solve the classical master equation from the deterministic start.

    The probabilities are the scaling-and-squaring matrix exponential of the
    generator applied to the initial state; method="expm" names that route
    and is the only value accepted.  `classical_pmf_batch` reads the same
    exponential at fixed times and interpolates, and the test suite checks
    the two against each other.  An ArithmeticError is raised if the total
    is off 1 by more than 1e-10 or an entry is below -1e-12.
    """
    if method != "expm":
        raise ValueError(f"unknown method {method!r}")
    t = _check_time(t)
    probs = _initial_vector(params)
    if t > 0.0:
        from scipy.linalg import expm
        probs = expm(generator_matrix(params) * t) @ probs
    _check_rows(probs[None], [t])
    return Pmf(t=t, probs=probs)


def _check_rows(probs, ts):
    """An ArithmeticError unless each row of probs, the law at the matching
    time of ts, sums to 1 within 1e-10 and has no entry below -1e-12."""
    lost = ~(np.abs(probs.sum(axis=1) - 1.0) <= _CONSERVATION_TOL)
    low = probs.min(axis=1, initial=0.0) < -_NEGATIVE_TOL
    for i in np.flatnonzero(lost | low)[:1]:
        if lost[i]:
            raise ArithmeticError(f"probability not conserved: sum={probs[i].sum()!r} at t={ts[i]}")
        raise ArithmeticError(f"negative probability {probs[i].min():.3e} at t={ts[i]}")


def classical_pmf_batch(params: ProcessParams, ts) -> np.ndarray:
    """Classical probabilities at many times, shape (len(ts), ceiling+1).

    Each slot relaxes on its own at rate lambda + mu, so the law is a
    polynomial of degree N in Z = exp(-(lambda+mu) t), which lies in [0, 1].
    The generator's matrix exponential is taken at the N+1 Chebyshev points
    of Z in (0, 1), in one stacked call, and read at each time by barycentric
    interpolation (Berrut & Trefethen, SIAM Review 2004), whose Lebesgue
    constant is below 1 + (2/pi) log(N+1).  The times and rows are checked
    as by `master_equation_classical`.  The Monte Carlo oracle reads it at
    10^4-10^5 sampled operational times.  The stacked exponentials hold
    (N+1)**3 doubles, 28 MB at N = 150.
    """
    from scipy.linalg import expm
    ts = np.asarray(ts, dtype=float).reshape(-1)
    for end in (ts.min(initial=0.0), ts.max(initial=0.0)):  # a NaN reaches both
        _check_time(end)
    angle = (np.arange(params.ceiling + 1) + 0.5) * math.pi / (params.ceiling + 1)
    nodes = np.cos(0.5 * angle) ** 2  # (1 + cos(angle)) / 2
    weights = np.sin(angle) * (-1.0) ** np.arange(params.ceiling + 1)
    values = expm(generator_matrix(params) * (-np.log(nodes) / params.total_rate)[:, None, None])
    coeff = np.exp(-params.total_rate * ts)[:, None] - nodes
    hit = coeff == 0.0
    coeff[hit] = 1.0
    np.divide(weights, coeff, out=coeff)
    coeff /= coeff.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    coeff[rows] = hit[rows]
    probs = coeff @ values[:, :, params.initial]
    _check_rows(probs, ts)
    return probs


def fractional_pmf_laplace(params: ProcessParams, t, digits: int = 30) -> Pmf:
    """Fractional state probabilities from the paper's forward equation.

    The Caputo equation D**order p = A p, with A the classical generator and
    p(0) = e_M, has the transform p^(s) = s**(order-1) (s**order I - A)**-1 e_M.
    It is inverted on the fixed Talbot contour of Abate & Valko (2004):
    m = 1.7 digits + 4 nodes, r = 2m/(5t), s(theta) = r theta (cot theta + i),
    at m + 15 decimal digits.  s**order I - A is tridiagonal, so each node
    costs one Thomas sweep; its diagonal is the exact sum of each state's
    outflow rates, so no probability leaks over long times.  No
    Mittag-Leffler value, quadrature rule or sampler is used.  The error is
    absolute rather than relative: at 30 digits an entry near 3e-59 came out
    3e-4 off relative to the 45-digit value, so raise digits for entries
    that small.
    """
    import mpmath as mp
    t = _check_time(t)
    digits = _check_integer("digits", digits)
    if not (1 <= digits <= 60):
        raise ValueError(f"digits must be in [1, 60], got {digits}")
    if t == 0.0:
        return Pmf(t=t, probs=_initial_vector(params))
    a = generator_matrix(params)
    nodes = int(1.7 * digits) + 4
    with mp.workdps(nodes + 15):
        birth = [mp.mpf(v) for v in np.diag(a, -1)] + [0]  # state n -> n + 1
        death = [0] + [mp.mpf(v) for v in np.diag(a, 1)] + [0]  # state n -> n - 1
        outflow = [b + d for b, d in zip(birth, death)]
        coupling = [0] + [b * d for b, d in zip(birth, death[1:])]
        order, start = mp.mpf(params.order), params.initial
        r = mp.mpf(2 * nodes) / (5 * mp.mpf(t))
        total = [mp.mpf(0)] * len(outflow)
        for k in range(nodes):
            if k == 0:
                s, scale = r, mp.mpf(0.5)
            else:
                theta = k * mp.pi / nodes
                cot = mp.cot(theta)
                s = r * theta * mp.mpc(cot, 1)
                scale = mp.mpc(1, theta + (theta * cot - 1) * cot)
            s_order = s**order
            # Thomas sweep on (s**order I - A) x = e_M: inverse pivots, then
            # the eliminated right-hand side, which is 0 above row M
            inverse, rhs, prev = [], [], 0
            for n in range(len(outflow)):
                inverse.append(1 / (s_order + outflow[n] - coupling[n] * prev))
                prev = inverse[-1]
                if n < start:
                    rhs.append(0)
                else:
                    rhs.append(((1 if n == start else 0) + birth[n - 1] * rhs[-1]) * prev)
            factor = scale * mp.exp(s * t) * s ** (order - 1)
            x = 0
            for n in reversed(range(len(outflow))):
                x = rhs[n] + death[n + 1] * inverse[n] * x
                total[n] += (factor * x).real
        probs = np.array([float(r * v / nodes) for v in total])
    return Pmf(t=t, probs=probs)


def ml_series_highprec(alpha, beta, z, digits: int = 30):
    """Mittag-Leffler value from the defining series in extended precision.

    The working precision adapts to the cancellation of the alternating
    series (the largest term is ~exp(|z|**(1/alpha))).  Where that would
    exceed the feasible cap the value is mpmath's fixed Talbot inversion of
    s**(alpha-beta) / (s**alpha - z) at digits + 15 decimal digits, a
    different contour from the main path's parabola.
    """
    import mpmath as mp
    alpha = float(alpha)
    beta = float(beta)
    z = float(z)
    digits = _check_integer("digits", digits)
    if not (0.0 < alpha <= 1.0 and beta > 0.0 and z <= 0.0):
        raise ValueError(f"unsupported arguments alpha={alpha}, beta={beta}, z={z}")
    if not (1 <= digits <= 60):
        raise ValueError(f"digits must be in [1, 60], got {digits}")
    x = -z
    if x == 0.0:
        return float(1.0 / mp.gamma(beta))
    # the largest term is about exp(x**(1/alpha)), sized in log space: at small
    # alpha x**(1/alpha) leaves the float range, and the contour answers
    log10_maxterm = math.exp(min(math.log(x) / alpha, 709.0)) / math.log(10.0)
    need = digits + int(log10_maxterm) + 15
    if need > _SERIES_DPS_CAP:
        return _ml_contour_highprec(alpha, beta, x, digits)
    with mp.workdps(need):
        aa, bb, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        total = mp.mpf(0)
        tail = mp.mpf(10) ** (-(digits + 8))
        r = 0
        while True:
            term = zz**r / mp.gamma(aa * r + bb)
            total += term
            if r > 4 and abs(term) < tail:
                break
            r += 1
            if r > 500_000:
                raise ArithmeticError("series iteration cap exceeded")
        return float(total)


def _ml_contour_highprec(alpha, beta, x, digits):
    # E_{alpha,beta}(-x) inverts s**(alpha-beta) / (s**alpha + x) at time 1;
    # mpmath's fixed Talbot contour, not the main path's parabola
    import mpmath as mp
    with mp.workdps(digits + 15):
        a, b, xx = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        return float(mp.invertlaplace(lambda s: s ** (a - b) / (s**a + xx), 1, method="talbot"))


def subordination_pmf_mc(
    params: ProcessParams, t, n_samples: int, seed: RngSeed
) -> McPmf:
    """Monte Carlo estimate of the fractional state probabilities.

    Averages the classical probabilities at sampled operational times:
    p_n(t) ~ mean_k p_n(V_k) with V_k independent draws of the inverse
    subordinator.  The law of V is sampled, never evaluated pointwise.
    """
    t = _check_time(t)
    n_samples = _check_integer("n_samples", n_samples)
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    if params.order == 1.0 or t == 0.0:
        probs = master_equation_classical(params, t).probs
        return McPmf(t=t, probs=probs, se=np.zeros_like(probs), n_samples=n_samples)
    v = inverse_subordinator_sample(params.order, t, np.random.default_rng(seed), size=n_samples)
    samples = classical_pmf_batch(params, v)
    probs = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(n_samples)
    return McPmf(t=t, probs=probs, se=se, n_samples=n_samples)
