"""Closed-form quantities of the fractional binomial process.

The fractional process is the classical chain read at the inverse stable
subordinator, whose value at time t is V = t**order X with X = S**-order for
a unit stable draw S.  Given V every slot relaxes on its own, so the
population is Bin(M, p + q Z) + Bin(N - M, p (1 - Z)) with
Z = exp(-(birth+death) V): state probabilities are a mixture with no
negative terms.  Every distribution quantity here averages that law over one
cached positive quadrature rule for X, built from Kanter's representation of
S; at order 1 the rule is the single atom X = 1, which gives the classical
chain.  `pmf` first reduces the rule to a Gauss rule in Z with
ceil((N+1)/2) nodes, which is exact for the degree-N polynomial the
conditional law is in Z; `pgf` reads the conditional generating function,
a product of one factor per slot, at every atom, and `extinction_probability`
is `pgf` at u = 1; `equilibrium_pmf` is the law at Z = 0.

Moments reduce to Mittag-Leffler relaxation values
E_{order,1}(-k (birth+death) t**order), k = 1, 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from .mittag_leffler import ml, ml_one
from .model import Pmf, ProcessParams, Regime, classify, equilibrium_p, _check_time, _occupancy

__all__ = [
    "AccuracyError",
    "Pmf",
    "mean",
    "second_factorial_moment",
    "variance",
    "extinction_probability",
    "pmf",
    "pure_birth_pmf",
    "classical_pgf",
    "pgf",
    "equilibrium_pmf",
    "waiting_time_density",
]

# Tolerated roundoff on the total of a probability vector; anything worse is
# an accuracy failure.
EPS_NUM = 1e-9


class AccuracyError(ArithmeticError):
    """A probability vector failed its internal normalization check."""


def _finalize_pmf(t, raw):
    """The mixture's entries, renormalized; AccuracyError unless every one is
    >= 0 and they sum to 1 within EPS_NUM (a NaN fails both)."""
    raw = np.asarray(raw, dtype=float)
    worst, total = raw.min(), raw.sum()
    if not (worst >= 0.0 and abs(total - 1.0) <= EPS_NUM):
        raise AccuracyError(
            f"pmf(t={t}): smallest entry {worst:.3e}, total {total!r}; "
            f"expected entries >= 0 summing to 1 within {EPS_NUM}"
        )
    return Pmf(t=float(t), probs=raw / total)


# ---------------------------------------------------------------------------
# subordination mixture
#
# Kanter: X = sin(U) sin(order U)**-order sin((1-order) U)**(order-1)
# W**(1-order), U uniform on (0, pi), W standard exponential (the formula
# sampler.stable_subordinator_unit draws S from).  The rule is tanh-sinh in
# U times a trapezoid in tau with log W = tau - exp(-tau).  Against the
# extended-precision series, sum_i w_i exp(-y x_i) matches E_{order,1}(-y)
# within 1e-14 for order in [0.05, 0.9999], y in [1e-3, 1e3]; order -> 1 sets
# the U step.
# ---------------------------------------------------------------------------

_U_STEP = 0.04
_U_NODES = 82  # tanh-sinh nodes on each side of U = pi/2
_LOGW_STEP = 0.08
_LOGW_NODES = (-52, 46)  # tau = k * _LOGW_STEP for k in this range
_ATOM_FLOOR = 1e-18  # lighter atoms are dropped (~2e-16 of mass in all)
_EXHAUSTED = 1e-15  # Stieltjes stops when the atoms are spent to rounding


@functools.lru_cache(maxsize=2)  # callers use one order at a time
def _subordination_rule(order):
    """Atoms (x, w) of a positive rule for the law of X = S**-order; sum w = 1."""
    if order == 1.0:
        return np.ones(1), np.ones(1)
    k = _U_STEP * np.arange(-_U_NODES, _U_NODES + 1)
    s = 0.5 * math.pi * np.sinh(k)
    u = math.pi / (1.0 + np.exp(-2.0 * s))
    u_rest = math.pi / (1.0 + np.exp(2.0 * s))  # pi - u, exact near U = pi
    u_weight = 0.25 * math.pi * _U_STEP * np.cosh(k) / np.cosh(s) ** 2
    # sin(order U) through pi - order U = (1-order) pi + order (pi - U) near pi
    sin_order = np.sin(np.minimum(order * u, (1.0 - order) * math.pi + order * u_rest))
    log_x_u = (
        np.log(np.sin(np.minimum(u, u_rest)))
        - order * np.log(sin_order)
        - (1.0 - order) * np.log(np.sin((1.0 - order) * u))
    )
    tau = _LOGW_STEP * np.arange(*_LOGW_NODES)
    log_w = tau - np.exp(-tau)
    w_weight = _LOGW_STEP * (1.0 + np.exp(-tau)) * np.exp(log_w - np.exp(log_w))
    x = np.exp(log_x_u[:, None] + (1.0 - order) * log_w[None, :]).ravel()
    weight = np.outer(u_weight, w_weight).ravel()
    keep = weight > _ATOM_FLOOR
    x, weight = x[keep], weight[keep] / weight[keep].sum()
    x.setflags(write=False)
    weight.setflags(write=False)
    return x, weight


def _relaxed_atoms(params, t):
    """Z = exp(-(birth+death) t**order X) and 1 - Z at the atoms, with their weights."""
    x, weight = _subordination_rule(params.order)
    exponent = -params.total_rate * t**params.order * x
    return np.exp(exponent), -np.expm1(exponent), weight


def _gauss_rule(values, weights, count):
    """Gauss rule of at most `count` nodes for the atoms (values, weights).

    Stieltjes' procedure, in its orthonormal (Lanczos) form, gives the
    Jacobi matrix of the discrete measure; its eigenvalues are the nodes and
    the squared first components of its eigenvectors the weights, which
    therefore sum to 1 to rounding.  It stops early once the atoms are spent
    to rounding (all at one point, say).
    """
    diag, off = [], []
    # three buffers rotate; prev also holds beta * prev and then alpha * vec
    vec, prev, nxt = np.sqrt(weights), np.zeros_like(weights), np.empty_like(weights)
    beta = 0.0
    for _ in range(count):
        np.multiply(values, vec, out=nxt)
        alpha = nxt @ vec
        prev *= beta
        nxt -= prev
        np.multiply(vec, alpha, out=prev)
        nxt -= prev
        diag.append(alpha)
        beta = math.sqrt(nxt @ nxt)
        if beta <= _EXHAUSTED:
            break
        off.append(beta)
        nxt /= beta
        prev, vec, nxt = vec, nxt, prev
    size = len(diag)
    jacobi = np.diag(diag)
    jacobi[np.arange(1, size), np.arange(size - 1)] = off[: size - 1]
    nodes, vecs = np.linalg.eigh(jacobi)  # reads the lower triangle
    return np.clip(nodes, 0.0, 1.0), vecs[0] ** 2


@functools.lru_cache(maxsize=16)
def _log_factorials(bits):
    """log k! for k < 2**bits, one table for every n of that bit length: the
    log of the exact factorial up to 170!, the largest that is a finite
    double, and lgamma above."""
    table = np.array(
        [math.log(float(math.factorial(k))) if k <= 170 else math.lgamma(k + 1.0)
         for k in range(1 << bits)]
    )
    table.setflags(write=False)
    return table


def _binomial_rows(n, success, failure):
    """Bin(n, .) probabilities of 0..n, one row per node, in log space (0 log 0 = 0)."""
    log_fact = _log_factorials(n.bit_length())[: n + 1]
    k = np.arange(n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = k * np.log(success)[:, None]
        rest = (n - k) * np.log(failure)[:, None]
    rows[:, 0] = rest[:, n] = 0.0  # 0 log 0, NaN above where a probability is 0
    rows += log_fact[n] - log_fact - log_fact[::-1]
    rows += rest
    return np.exp(rows, out=rows)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _relaxation(order, rate_time):
    """(E1, E2) = E_{order,1}(-k rate_time) for k = 1, 2, the pair every moment
    reads; kept for the last few times, since one time is usually asked for
    its mean, variance and factorial moment in turn."""
    return ml_one(order, -rate_time), ml_one(order, -2.0 * rate_time)


def mean(params: ProcessParams, t: float) -> float:
    """Expected population at time t."""
    t = _check_time(t)
    m0 = params.initial
    if t == 0.0:
        return float(m0)
    target = params.ceiling * equilibrium_p(params)
    e1, _ = _relaxation(params.order, params.total_rate * t**params.order)
    return (m0 - target) * e1 + target


def second_factorial_moment(params: ProcessParams, t: float) -> float:
    """E[X(t) (X(t) - 1)]."""
    t = _check_time(t)
    n_cap, m0 = params.ceiling, params.initial
    if t == 0.0:
        return float(m0 * (m0 - 1))
    e1, e2 = _relaxation(params.order, params.total_rate * t**params.order)
    p = equilibrium_p(params)
    h_inf = p * p * n_cap * (n_cap - 1)
    cross = 2.0 * p * m0 * (n_cap - 1)
    return h_inf + e2 * (h_inf - cross + m0 * (m0 - 1)) - e1 * (2.0 * h_inf - cross)


def variance(params: ProcessParams, t: float) -> float:
    """Population variance at time t; 0 at t=0, N p (1-p) in the long run."""
    t = _check_time(t)
    if t == 0.0:
        return 0.0
    m = mean(params, t)
    return second_factorial_moment(params, t) + m - m * m


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def extinction_probability(params: ProcessParams, t: float) -> float:
    """P(population == 0 at time t); exactly 0 for the pure-birth regime.

    `pgf` at u = 1: the rule's average of the n = 0 term
    (q (1-Z))**M (q + p Z)**(N-M), with no cancellation however small it
    is.  Its relative accuracy is that of the rule's tails, which can be
    lost far from equilibrium at small t.
    """
    return pgf(params, 1.0, t)


def pmf(params: ProcessParams, t: float) -> Pmf:
    """Distribution of the population at time t over states 0..ceiling.

    The two-binomial law averaged over a Gauss rule in Z (or in 1 - Z), with
    nonnegative weights (see the module docstring): nothing cancels, and the
    ceiling has no limit.
    """
    t = _check_time(t)
    decay, growth, weight = _relaxed_atoms(params, t)
    count = params.ceiling // 2 + 1
    if len(weight) > count:
        # the smaller of Z and 1 - Z keeps its relative accuracy at the nodes
        if weight @ growth < 0.5:
            growth, weight = _gauss_rule(growth, weight, count)
            decay = 1.0 - growth
        else:
            decay, weight = _gauss_rule(decay, weight, count)
            growth = 1.0 - decay
    p = equilibrium_p(params)
    stay, fill = _occupancy(p, decay, growth)
    vacant, leave = _occupancy(1.0 - p, decay, growth)
    n_cap, m0 = params.ceiling, params.initial
    kept = _binomial_rows(m0, stay, leave)
    gained = _binomial_rows(n_cap - m0, fill, vacant)
    gained *= weight[:, None]
    joint = kept.T @ gained
    # probs[n] sums joint[k, n - k]: padding each row by one and reading the
    # block with rows one shorter shifts row k right by k
    skew = np.zeros((m0 + 1, n_cap + 2))
    skew[:, : n_cap - m0 + 1] = joint
    probs = skew.ravel()[: (m0 + 1) * (n_cap + 1)].reshape(m0 + 1, n_cap + 1).sum(axis=0)
    return _finalize_pmf(t, probs)


def pure_birth_pmf(params: ProcessParams, t: float) -> Pmf:
    """Distribution for the saturating pure-birth regime (death_rate == 0).

    Support is {initial..ceiling}; the ceiling state is absorbing.
    """
    if classify(params) is not Regime.PURE_BIRTH:
        raise ValueError("pure_birth_pmf requires death_rate == 0")
    return pmf(params, t)


def equilibrium_pmf(params: ProcessParams) -> Pmf:
    """Long-run binomial distribution over 0..ceiling."""
    p = equilibrium_p(params)
    probs = _binomial_rows(params.ceiling, np.array([p]), np.array([1.0 - p]))[0]
    return Pmf(t=math.inf, probs=probs / probs.sum())


# ---------------------------------------------------------------------------
# generating functions and waiting times
# ---------------------------------------------------------------------------


def _check_u(u):
    u = float(u)
    if not (0.0 <= u <= 2.0):
        raise ValueError(f"u must satisfy |1-u| <= 1 (u in [0, 2]), got {u}")
    return u


def classical_pgf(params: ProcessParams, u: float, t: float) -> float:
    """Transform sum_n (1-u)^n p_n(t) of the classical (order=1) chain."""
    return pgf(replace(params, order=1.0), u, t)


def pgf(params: ProcessParams, u: float, t: float) -> float:
    """Transform sum_n (1-u)^n p_n(t) of the fractional process.

    Given Z each slot contributes one factor, (1-u) + u P(vacant at t), so
    the transform is the rule's average of their product; u = 1 gives
    extinction_probability.  The average is kept in [-1, 1]: the weights
    sum to 1 only to rounding.
    """
    u = _check_u(u)
    t = _check_time(t)
    decay, growth, weight = _relaxed_atoms(params, t)
    vacant, leave = _occupancy(1.0 - equilibrium_p(params), decay, growth)
    n_cap, m0 = params.ceiling, params.initial
    base = 1.0 - u
    value = float(weight @ ((base + u * leave) ** m0 * (base + u * vacant) ** (n_cap - m0)))
    return min(1.0, max(-1.0, value))


def waiting_time_density(params: ProcessParams, j: int, s: float) -> float:
    """Density of the sojourn in state j of the pure-birth regime.

    Diverges like s**(order-1) at s=0 when order < 1; evaluated pointwise.
    """
    if classify(params) is not Regime.PURE_BIRTH:
        raise ValueError("waiting_time_density requires the pure-birth regime")
    if not (params.initial <= j < params.ceiling):
        raise ValueError(
            f"state j must satisfy initial <= j < ceiling, got j={j}"
        )
    s = float(s)
    if s < 0.0:
        raise ValueError(f"s must be >= 0, got {s}")
    rate = params.state_birth_rate(j)
    nu = params.order
    if s == 0.0:
        return rate if nu == 1.0 else math.inf
    return rate * s ** (nu - 1.0) * ml(nu, nu, -rate * s**nu)
