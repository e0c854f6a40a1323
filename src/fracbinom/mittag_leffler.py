"""Two-parameter Mittag-Leffler function E_{alpha,beta}(z) on the negative real axis.

The supported domain is 0 < alpha <= 1, beta > 0, z <= 0, which is all the
relaxation formulas of the binomial birth-death model ever need.  Target
absolute accuracy is 1e-10; the three evaluation regimes below were
calibrated against an extended-precision series oracle and individually
stay below ~5e-13 on the calibration grid.

Evaluation regimes, keyed on u = |z|**(1/alpha) (the magnitude that controls
both series cancellation and asymptotic truncation):

* u <= 4: Taylor series, summed exactly rounded.  The largest term is
  bounded by e**4, so cancellation costs at most ~e4*eps.
* u >= 36: asymptotic power series in 1/z, truncated at the minimum of a
  monotone term envelope.  The achievable bound is checked at runtime and
  the contour method below is used as a fallback if it is inadequate
  (tiny alpha with |z| near 1).
* otherwise: Laplace inversion along a parabolic contour evaluated by the
  trapezoidal rule.  72 nodes on each side of the vertex (145 in all) give
  ~1e-13 uniformly in alpha, including alpha -> 1 where classical kernel
  representations degrade.

Everything that depends on (alpha, beta) alone is tabulated once per pair
and kept for the last few pairs: the signed reciprocal Gamma of every series
term the regime can need, the log envelope and sign factor of every
asymptotic term, and s**alpha and the rest of the contour integrand at the
nodes.  An evaluation is then a few vector operations and one exactly
rounded sum.  Gamma values come from the standard library, so this module
needs numpy only.

alpha == 1 bypasses all of this: beta == 1 is exp(z) at every z, and
general beta is summed through the Kummer-transformed confluent series,
which has only positive terms, or by the asymptotic series from u = 36 on.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

__all__ = ["ml", "ml_one", "ConvergenceError"]


class ConvergenceError(ArithmeticError):
    """Internal tolerance could not be met for the requested arguments."""


# Regime boundaries in u = |z|**(1/alpha); see module docstring.
_SERIES_MAX_U = 4.0
_ASYMP_MIN_U = 36.0

# Parabolic contour s = mu (1 + i w)**2 (vertex, node count, endpoint decay
# exponent), its trapezoid nodes and ds/dw.
_CONTOUR_MU = 8.0
_CONTOUR_NODES = 72
_CONTOUR_TAIL = 36.0
_CONTOUR_STEP = math.sqrt(1.0 + _CONTOUR_TAIL / _CONTOUR_MU) / _CONTOUR_NODES
_CONTOUR_W = np.arange(-_CONTOUR_NODES, _CONTOUR_NODES + 1) * _CONTOUR_STEP
_CONTOUR_S = _CONTOUR_MU * (1.0 + 1j * _CONTOUR_W) ** 2
_CONTOUR_DS = 2j * _CONTOUR_MU * (1.0 + 1j * _CONTOUR_W)

_ABS_TOL = 1e-13
# Terms whose size (series) or envelope (asymptotic) is below these are not summed.
_SERIES_TAIL = 1e-17
_LOG_ASYMP_TAIL = math.log(1e-18)
_ASYMP_TERMS = 319

_TABLES = 32  # (alpha, beta) pairs whose tables are kept, per regime

# math.gamma is finite on this interval, and log(gamma) is more accurate
# there than math.lgamma, which loses a few ulps.
_GAMMA_RANGE = (1e-300, 171.0)


def ml(alpha: float, beta: float, z: float) -> float:
    """Evaluate E_{alpha,beta}(z) for 0 < alpha <= 1, beta > 0, z <= 0."""
    alpha = float(alpha)
    beta = float(beta)
    z = float(z)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not (z <= 0.0) or math.isinf(z):
        raise ValueError(f"z must be a finite nonpositive real, got {z}")

    x = -z
    if x == 0.0:
        return _rgamma(beta)
    if alpha == 1.0:
        # beta == 1 is exp(-x) everywhere: past u = 36 every asymptotic term
        # sits on a pole of Gamma and the series would sum to 0
        if beta != 1.0 and x >= _ASYMP_MIN_U:
            value, _ = _asymptotic(alpha, beta, x)
            return value
        return _exp_regime(beta, x)

    log_u = math.log(x) / alpha
    if log_u <= math.log(_SERIES_MAX_U):
        return _series(alpha, beta, x)
    if log_u >= math.log(_ASYMP_MIN_U):
        value, bound = _asymptotic(alpha, beta, x)
        if bound <= _ABS_TOL * (1.0 + abs(value)):
            return value
        if x <= 1e6:
            return _contour(alpha, beta, x)
        raise ConvergenceError(
            f"asymptotic tail bound {bound:.2e} too large at alpha={alpha}, z={z}"
        )
    return _contour(alpha, beta, x)


def ml_one(alpha: float, z: float) -> float:
    """E_{alpha,1}(z), the relaxation-function case used by all moments."""
    return ml(alpha, 1.0, z)


def _log_gamma(a):
    """log Gamma(a) for a > 0."""
    low, high = _GAMMA_RANGE
    return math.log(math.gamma(a)) if low < a < high else math.lgamma(a)


def _rgamma(a):
    """1 / Gamma(a) for a > 0."""
    low, high = _GAMMA_RANGE
    return 1.0 / math.gamma(a) if low < a < high else math.exp(-math.lgamma(a))


def _sin_pi(w):
    """sin(pi w), exactly 0 at the integers: w is reduced to [-1/2, 1/2] without rounding."""
    r = math.remainder(w, 2.0)
    if abs(r) > 0.5:
        r = math.copysign(1.0, r) - r
    return math.sin(math.pi * r)


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=_TABLES)
def _series_table(alpha, beta):
    """r and (-1)**r / Gamma(alpha r + beta) for every term that reaches 1e-17
    at u = 4, the largest argument of the series regime."""
    x_max = _SERIES_MAX_U**alpha
    coef = []
    # the term count scales like 1/alpha before the Gamma growth takes over
    for r in range(max(600, int(60.0 / alpha))):
        coef.append(_rgamma(alpha * r + beta))
        if r > 3 and coef[-1] * x_max**r < _SERIES_TAIL:
            r = np.arange(len(coef), dtype=float)
            return _frozen(r, np.array(coef) * (1.0 - 2.0 * (r % 2)))
    raise ConvergenceError(f"series did not converge at alpha={alpha}, beta={beta}")


def _series(alpha: float, beta: float, x: float) -> float:
    # sum_r (-x)^r / Gamma(alpha r + beta).  x**r times a reciprocal Gamma
    # is a few ulps off each term; exp(r log x - log Gamma) is off by up to
    # |r log x| + |log Gamma| ulps, which doubles the error near u = 4.
    r, coef = _series_table(alpha, beta)
    return math.fsum((coef * np.power(x, r)).tolist())


def _exp_regime(beta: float, x: float) -> float:
    # alpha == 1.  E_{1,beta}(-x) = e^-x * M(beta-1, beta, x); the Kummer
    # transform makes every term of the 1F1 series carry the same sign
    # pattern, so there is no cancellation blow-up.
    if beta == 1.0:
        return math.exp(-x)
    total = 1.0
    term = 1.0
    a = beta - 1.0
    b = beta
    for r in range(0, 10_000):
        term *= (a + r) * x / ((b + r) * (r + 1.0))
        total += term
        if abs(term) < 1e-17 * abs(total) and r > 2:
            return math.exp(-x) * total * _rgamma(beta)
    raise ConvergenceError(f"confluent series did not converge at beta={beta}, z={-x}")


@functools.lru_cache(maxsize=_TABLES)
def _asymptotic_table(alpha, beta):
    """k, c_k and f_k for k = 1, 2, ..., where term k is f_k exp(c_k - k log x)
    and exp(c_k - k log x) is its envelope; and the running maximum of
    c_k - c_(k-1), whose first entry above log x is where the envelope
    turns up.

    1/Gamma oscillates through pole zeros, so truncation is controlled by
    the smooth envelope x**-k / Gamma(w) for w = beta - alpha k > 1/2, and by
    the reflection envelope x**-k Gamma(1 - w)/pi below, where the term is
    the envelope times sin(pi w).  The table stops at the first term whose
    envelope is below 1e-18 for every x of the regime.
    """
    log_x_min = alpha * math.log(_ASYMP_MIN_U)
    log_env, factor = [], []
    for k in range(1, _ASYMP_TERMS + 1):
        w = beta - alpha * k
        if w > 0.5:
            log_env.append(-_log_gamma(w))
            factor.append(1.0)
        else:
            log_env.append(_log_gamma(1.0 - w) - math.log(math.pi))
            factor.append(_sin_pi(w))
        if k & 1 == 0:
            factor[-1] = -factor[-1]
        if log_env[-1] - k * log_x_min < _LOG_ASYMP_TAIL:
            break
    rise = np.maximum.accumulate(np.diff(log_env)).tolist()
    k = np.arange(1.0, len(log_env) + 1.0)
    return _frozen(k, np.array(log_env), np.array(factor)) + (rise,)


def _asymptotic(alpha: float, beta: float, x: float) -> tuple[float, float]:
    # E_{alpha,beta}(-x) ~ sum_{k>=1} (-1)^(k+1) x^-k / Gamma(beta - alpha k),
    # summed up to the envelope's minimum or to its 1e-18 tail.  Returns
    # (value, envelope of the last term) so the caller can judge whether
    # optimal truncation reached the target.
    k, log_env, factor, rise = _asymptotic_table(alpha, beta)
    log_x = math.log(x)
    n = bisect.bisect_right(rise, log_x) + 1  # terms before the envelope turns up
    env = log_env[:n] - k[:n] * log_x  # decreasing
    n -= max(int(np.count_nonzero(env < _LOG_ASYMP_TAIL)) - 1, 0)
    terms = factor[:n] * np.exp(env[:n])
    return math.fsum(terms.tolist()), math.exp(env[n - 1])


@functools.lru_cache(maxsize=_TABLES)
def _contour_table(alpha, beta):
    """s**alpha at the contour nodes, and h e^s s**(alpha-beta) ds / (2 pi i)."""
    s = _CONTOUR_S
    numer = (_CONTOUR_STEP / (2j * math.pi)) * np.exp(s) * s ** (alpha - beta) * _CONTOUR_DS
    return _frozen(s**alpha, numer)


def _contour(alpha: float, beta: float, x: float) -> float:
    # E_{alpha,beta}(-x) = (1/2 pi i) int_G e^s s^(alpha-beta)/(s^alpha + x) ds
    # with G the parabola s = mu (1 + i w)^2.  For alpha < 1 the resolvent
    # poles sit off the principal sheet, so the trapezoid rule converges
    # geometrically in the node count.
    s_alpha, numer = _contour_table(alpha, beta)
    return float((numer / (s_alpha + x)).sum().real)
