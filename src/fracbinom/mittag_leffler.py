"""Two-parameter Mittag-Leffler function E_{alpha,beta}(z) on the negative real axis.

The supported domain is 0 < alpha <= 1, beta > 0, z <= 0, which is all the
relaxation formulas of the binomial birth-death model ever need.  Target
absolute accuracy is 1e-10; the three evaluation regimes below were
calibrated against an extended-precision series oracle and individually
stay below ~5e-13 on the calibration grid.

Evaluation regimes, keyed on u = |z|**(1/alpha) (the magnitude that controls
both series cancellation and asymptotic truncation):

* u <= 4: Taylor series with compensated summation.  The largest term is
  bounded by e**4, so cancellation costs at most ~e4*eps.
* u >= 36: asymptotic power series in 1/z, truncated at the minimum of a
  monotone term envelope.  The achievable bound is checked at runtime and
  the contour method below is used as a fallback if it is inadequate
  (tiny alpha with |z| near 1).
* otherwise: Laplace inversion along a parabolic contour evaluated by the
  trapezoidal rule.  72 nodes on each side of the vertex (145 in all) give
  ~1e-13 uniformly in alpha, including alpha -> 1 where classical kernel
  representations degrade.

alpha == 1 bypasses all of this: beta == 1 is exp(z) and general beta is
summed through the Kummer-transformed confluent series, which has only
positive terms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, rgamma

__all__ = ["ml", "ml_one", "ConvergenceError"]


class ConvergenceError(ArithmeticError):
    """Internal tolerance could not be met for the requested arguments."""


# Regime boundaries in u = |z|**(1/alpha); see module docstring.
_SERIES_MAX_U = 4.0
_ASYMP_MIN_U = 36.0

# Parabolic contour parameters (vertex, node count, endpoint decay exponent).
_CONTOUR_MU = 8.0
_CONTOUR_NODES = 72
_CONTOUR_TAIL = 36.0

_ABS_TOL = 1e-13


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
        return float(rgamma(beta))
    if alpha == 1.0:
        if x >= _ASYMP_MIN_U:
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


def _series(alpha: float, beta: float, x: float) -> float:
    # sum_r (-x)^r / Gamma(alpha r + beta), Kahan-compensated.  The term
    # count scales like 1/alpha before the Gamma growth takes over.
    log_x = math.log(x)
    total = 0.0
    comp = 0.0
    r_cap = max(600, int(60.0 / alpha))
    for r in range(0, r_cap):
        term = math.exp(r * log_x - gammaln(alpha * r + beta))
        if r & 1:
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if r > 3 and abs(term) < 1e-17 * (1.0 + abs(total)):
            return total
    raise ConvergenceError(
        f"series did not converge at alpha={alpha}, beta={beta}, z={-x}"
    )


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
            return math.exp(-x) * total * float(rgamma(beta))
    raise ConvergenceError(f"confluent series did not converge at beta={beta}, z={-x}")


def _asymptotic(alpha: float, beta: float, x: float) -> tuple[float, float]:
    # E_{alpha,beta}(-x) ~ sum_{k>=1} (-1)^(k+1) x^-k / Gamma(beta - alpha k).
    # 1/Gamma oscillates through pole zeros, so truncation is controlled by
    # the smooth reflection envelope Gamma(1 - beta + alpha k)/pi instead of
    # the raw terms.  Returns (value, envelope at stop) so the caller can
    # judge whether optimal truncation reached the target.
    log_x = math.log(x)
    total = 0.0
    comp = 0.0
    best_env = math.inf
    for k in range(1, 320):
        w = beta - alpha * k
        if w > 0.5:
            env = math.exp(-k * log_x - gammaln(w))
        else:
            env = math.exp(-k * log_x + gammaln(1.0 - w)) / math.pi
        if env > best_env:
            return total, best_env
        best_env = env
        term = math.exp(-k * log_x) * float(rgamma(w))
        if k & 1 == 0:
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if env < 1e-18 * (1.0 + abs(total)):
            return total, env
    return total, best_env


def _contour(alpha: float, beta: float, x: float) -> float:
    # E_{alpha,beta}(-x) = (1/2 pi i) int_G e^s s^(alpha-beta)/(s^alpha + x) ds
    # with G the parabola s = mu (1 + i w)^2.  For alpha < 1 the resolvent
    # poles sit off the principal sheet, so the trapezoid rule converges
    # geometrically in the node count.
    half_width = math.sqrt(1.0 + _CONTOUR_TAIL / _CONTOUR_MU)
    h = half_width / _CONTOUR_NODES
    w = np.arange(-_CONTOUR_NODES, _CONTOUR_NODES + 1) * h
    s = _CONTOUR_MU * (1.0 + 1j * w) ** 2
    ds = 2j * _CONTOUR_MU * (1.0 + 1j * w)
    integrand = np.exp(s) * s ** (alpha - beta) / (s**alpha + x) * ds
    return float((h * integrand.sum() / (2j * math.pi)).real)
