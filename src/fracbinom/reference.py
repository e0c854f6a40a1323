"""Independent reference implementations used only for validation.

Nothing in this module may import the mittag_leffler or analytics modules:
agreement between the main formulas and these reference routes is the
package's primary correctness evidence, so the two sides have to stay
algorithmically disjoint.  The classical master equation is solved
numerically, by a scaling-and-squaring matrix exponential at one time and
at many times at once through one eigendecomposition of the generator (the
two routes check each other); the Mittag-Leffler series is summed in
software extended precision; and the fractional state probabilities are
computed by inverting the Laplace transform of the paper's fractional
forward equation in extended precision, and estimated by direct Monte Carlo
over the random time change, never through the closed-form Mittag-Leffler
expressions or the subordination rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Pmf, ProcessParams, Regime, classify, equilibrium_p, _check_time
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

# Beyond this working precision the plain series is wasteful; the
# high-precision contour integral takes over.  The cap keeps the series in
# charge everywhere the main path uses its own contour (|z|**(1/alpha) < 36
# needs < ~100 dps), so the two sides never share an algorithm: series-zone
# and contour-zone values are checked against the extended series, and
# asymptotic-zone values against the extended contour.
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
    and is the only value accepted.  `classical_pmf_batch` reaches the same
    probabilities through an eigendecomposition, and the test suite checks
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
    if not abs(probs.sum() - 1.0) <= _CONSERVATION_TOL:
        raise ArithmeticError(f"probability not conserved: sum={probs.sum()!r} at t={t}")
    if probs.min() < -_NEGATIVE_TOL:
        raise ArithmeticError(f"negative probability {probs.min():.3e} at t={t}")
    return Pmf(t=t, probs=probs)


def _spectral_factors(params: ProcessParams):
    """Eigen-factorization of the generator, via the reversible symmetrization
    when both rates are positive (orthogonal, numerically stable)."""
    from scipy.linalg import eig, eigh
    from scipy.special import gammaln
    a = generator_matrix(params)
    n_cap = params.ceiling
    if classify(params) is Regime.GENERAL:
        p = equilibrium_p(params)
        n = np.arange(n_cap + 1)
        log_pi = (
            gammaln(n_cap + 1)
            - gammaln(n + 1)
            - gammaln(n_cap - n + 1)
            + n * math.log(p)
            + (n_cap - n) * math.log1p(-p)
        )
        d = np.exp(0.5 * log_pi)
        sym = a * (d[None, :] / d[:, None])
        eigvals, q = eigh(sym)
        left = q.T @ (_initial_vector(params) / d)
        right = d[:, None] * q
        return eigvals, right, left
    eigvals, vecs = eig(a)
    eigvals = eigvals.real
    coeff = np.linalg.solve(vecs, _initial_vector(params))
    return eigvals, vecs.real, coeff.real


def classical_pmf_batch(params: ProcessParams, ts) -> np.ndarray:
    """Classical probabilities at many times via one eigen-factorization.

    Returns an array of shape (len(ts), ceiling+1).  Intended for the Monte
    Carlo subordination oracle where the master equation must be read at
    10^5 random operational times.  Where the factorization is too
    ill-conditioned to conserve probability (pure birth, or one rate far
    below the other), the times are visited in increasing order and the
    state is propagated by the matrix exponential of each increment.
    """
    ts = np.asarray(ts, dtype=float)
    eigvals, right, left = _spectral_factors(params)
    decay = np.exp(np.outer(eigvals, ts))
    probs = (right @ (decay * left[:, None])).T
    if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-8:
        from scipy.linalg import expm
        a = generator_matrix(params)
        state, now = _initial_vector(params), 0.0
        for i in np.argsort(ts):
            state = expm(a * (ts[i] - now)) @ state
            probs[i], now = state, ts[i]
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
    digits = int(digits)
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
    exceed the feasible cap the value comes from an extended-precision
    contour integral instead, which in that regime is still independent of
    the main evaluation path.
    """
    import mpmath as mp
    alpha = float(alpha)
    beta = float(beta)
    z = float(z)
    digits = int(digits)
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
    # Bromwich integral over a left-opening parabola evaluated by a
    # trapezoidal rule in extended precision; node count and endpoint decay
    # scale with the requested digits.  The integrand satisfies
    # f(-w) = -conj(f(w)), so only w >= 0 is evaluated.
    import mpmath as mp
    dps = digits + 15
    with mp.workdps(dps):
        aa, bb, xx = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        mu = mp.mpf(12)
        tail = mp.log(mp.mpf(10)) * (digits + 8) + 8
        half_width = mp.sqrt(1 + tail / mu)
        nodes = int(7 * float(half_width) * math.sqrt(digits)) + 8
        h = half_width / nodes

        def f(w):
            s = mu * (1 + 1j * w) ** 2
            return mp.exp(s) * s ** (aa - bb) / (s**aa + xx) * (2j * mu * (1 + 1j * w))

        total = f(mp.mpf(0))
        for k in range(1, nodes + 1):
            fk = f(k * h)
            total += fk - mp.conj(fk)
        return float(mp.re(total * h / (2j * mp.pi)))


def subordination_pmf_mc(
    params: ProcessParams, t, n_samples: int, seed: RngSeed
) -> McPmf:
    """Monte Carlo estimate of the fractional state probabilities.

    Averages the classical probabilities at sampled operational times:
    p_n(t) ~ mean_k p_n(V_k) with V_k independent draws of the inverse
    subordinator.  The law of V is sampled, never evaluated pointwise.
    """
    t = _check_time(t)
    n_samples = int(n_samples)
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
