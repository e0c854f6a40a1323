"""Closed-form quantities of the fractional binomial process.

The fractional process is the classical chain read at the inverse stable
subordinator, whose value at time t is V = t**order X with X = S**-order for
a unit stable draw S.  Given V every slot relaxes on its own, so the
population is Bin(M, p + q Z) + Bin(N - M, p (1 - Z)) with
Z = exp(-(birth+death) V): state probabilities are a mixture with no
negative terms.  Every distribution quantity here averages that law over one
cached positive rule for X: a trapezoid in log X over the M-Wright density
of X, 1024 atoms for most orders; at order 1 it is the single atom X = 1,
which gives the classical chain.  `pmf` sums the two-binomial law over every
atom; `pgf` reads the conditional generating function, a product of one
factor per slot, at every atom, and `extinction_probability` is `pgf` at
u = 1; `equilibrium_pmf` is the law at Z = 0.

The moments average the mean and variance given Z over the same rule, and
add the spread of the mean given Z; the pure-birth sojourn density reads
E_{order,order}(-y) = order E X exp(-y X) off it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from . import _mwright
from .model import Pmf, ProcessParams, Regime, classify, equilibrium_p, _check_integer, _check_time, _occupancy

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
# ---------------------------------------------------------------------------

# pmf sums over blocks of atoms whose binomial rows hold about this many
# entries (64 KB, below glibc's mmap threshold; larger temporaries are
# faulted in anew on every call), and at least 64 atoms
_BLOCK = 1 << 13

# pmf scales its weights by _SCALE and sets factors below 2**-961 to 0 (see pmf)
_SCALE = 2.0**900
_LOG_FLOOR = -961.0 * math.log(2.0)

# _reach lowers its floors by this many nats, more than the rows' roundoff,
# which is below 1e-14 (700 + log n!) nats, for every n up to ~6e6: far
# beyond any pmf that fits in memory
_SLACK = 1e-6

# _log's stand-in for log 0: k log 0 is then far below any floor for every k
# >= 1 (up to ~1e58), 0 log 0 = 0, and no NaN or warning arises
_LOG_ZERO = -1e250


def _relaxed_atoms(order, rate_time):
    """Z = exp(-rate_time X) and G = 1 - Z at the atoms of the rule for X (see
    _mwright), with their weights; rate_time is (birth+death) t**order."""
    x, weight = _mwright.rule(order)
    exponent = -rate_time * x
    return np.exp(exponent), -np.expm1(exponent), weight


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


def _log(x):
    """log x, with log 0 taken as _LOG_ZERO (see there)."""
    with np.errstate(divide="ignore"):
        logs = np.log(x)
    return np.maximum(logs, _LOG_ZERO, out=logs)


@functools.lru_cache(maxsize=4)
def _binomial_terms(n):
    """k, n - k and log C(n, k) for k = 0..n, kept for the few n in use (a
    pmf call reads two)."""
    log_fact = _log_factorials(n.bit_length())[: n + 1]
    k = np.arange(n + 1.0)  # floats: an int array's products cost a cast
    terms = k, n - k, log_fact[n] - log_fact - log_fact[::-1]
    for term in terms:
        term.setflags(write=False)
    return terms


def _log_binomial(n, log_success, log_failure, start=0, stop=None):
    """log Bin(n, .) at start..stop-1 (by default 0..n), one row per node,
    from the logs of each node's success and failure chances (see _log)."""
    k, rest, log_choose = _binomial_terms(n)
    cols = slice(start, stop)
    rows = k[cols] * log_success[:, None]
    rows += log_choose[cols]
    rows += rest[cols] * log_failure[:, None]
    return rows


def _binomial_rows(n, log_success, log_failure, floor=-700.0, start=0, stop=None):
    """Bin(n, .) probabilities of start..stop-1 (by default 0..n), as
    _log_binomial; entries whose log is below floor, a number or a column
    with one value per node, are 0."""
    rows = _log_binomial(n, log_success, log_failure, start, stop)
    # exp, and every product that reads its result, takes a slow path where
    # that is subnormal (below exp(-708)): the default floor, exp(-700) ~
    # 1e-304, keeps each entry 0 or normal, and pmf raises it (see there)
    tiny = rows < floor
    np.exp(np.maximum(rows, floor, out=rows), out=rows)
    np.copyto(rows, 0.0, where=tiny)
    return rows


def _reach(n, log_success, log_failure, floor, rising):
    """Per block of atoms, the columns start:stop of its Bin(n, .) rows that
    can hold an entry whose log is at least floor (a number, or a column with
    one per block), from the chances' logs at the blocks' first atoms, then
    at their last atoms; rising tells whether the success chance grows along
    a block or falls.

    At column k the entry is largest at chance k/n and falls away from it.
    So left of the mode of the block's least chance every atom's entry is at
    most that atom's, and right of the mode of its greatest chance at most
    that one's: their rows' first and last entries at or above the floor
    (lowered by _SLACK, far above the rows' roundoff) bound the columns that
    any atom of the block reaches.  An end row that reaches none bounds
    nothing on its side.
    """
    hit = _log_binomial(n, log_success, log_failure).reshape(2, -1, n + 1) >= floor - _SLACK
    low, high = hit if rising else hit[::-1]
    return low.argmax(axis=1), n + 1 - high[:, ::-1].argmax(axis=1)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _relaxation(order, rate_time):
    """(E Z, E G, E ZG) over the rule, the averages every moment reads, and
    exactly (1, 0, 0) at t = 0; kept for the last few times, since one time
    is usually asked for its mean, variance and factorial moment in turn."""
    if rate_time == 0.0:
        return 1.0, 0.0, 0.0
    decay, growth, weight = _relaxed_atoms(order, rate_time)
    return float(weight @ decay), float(weight @ growth), float(weight @ (decay * growth))


def mean(params: ProcessParams, t: float) -> float:
    """Expected population at time t: M Z + N p (1 - Z), averaged."""
    t = _check_time(t)
    decay, growth, _ = _relaxation(params.order, params.total_rate * t**params.order)
    return params.initial * decay + params.ceiling * equilibrium_p(params) * growth


def variance(params: ProcessParams, t: float) -> float:
    """Population variance at time t: the variance given Z, M stay leave +
    (N-M) fill vacant as in `pmf`, averaged, plus (M - N p)**2 Var Z.  Var Z =
    E Z E G - E ZG cancels where G is small, but is then second order in G."""
    t = _check_time(t)
    decay, growth, both = _relaxation(params.order, params.total_rate * t**params.order)
    n_cap, m0 = params.ceiling, params.initial
    p = equilibrium_p(params)
    q = 1.0 - p
    given_z = q * m0 * (p * growth + q * both) + p * (n_cap - m0) * (q * growth + p * both)
    return given_z + (m0 - n_cap * p) ** 2 * (decay * growth - both)


def second_factorial_moment(params: ProcessParams, t: float) -> float:
    """E[X(t) (X(t) - 1)]: given Z, M (M-1) stay**2 + 2 M (N-M) stay fill +
    (N-M) (N-M-1) fill**2, averaged term by term, since variance +
    mean (mean - 1) would cancel at M = 1; E stay**2 = (E stay)**2 + q**2 Var Z."""
    t = _check_time(t)
    n_cap, m0 = params.ceiling, params.initial
    decay, growth, both = _relaxation(params.order, params.total_rate * t**params.order)
    p = equilibrium_p(params)
    q = 1.0 - p
    stay_sq = (p + q * decay) ** 2 + q * q * (decay * growth - both)  # stay = p + q Z
    stay_fill = p * (p * growth + q * both)  # fill = p G
    fill_sq = p * p * (growth - both)
    gained = n_cap - m0
    return m0 * (m0 - 1) * stay_sq + 2 * m0 * gained * stay_fill + gained * (gained - 1) * fill_sq


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def extinction_probability(params: ProcessParams, t: float) -> float:
    """P(population == 0 at time t); exactly 0 for the pure-birth regime.

    `pgf` at u = 1: the rule's average of the n = 0 term
    (q (1-Z))**M (q + p Z)**(N-M), with no cancellation, down to the
    2**-1022 below which `pgf` drops an atom's term.  Its relative accuracy
    is that of the rule's tails; the tests hold it within 1e-10 of the
    Laplace-inversion oracle for N <= 150, at values down to 7e-44.
    """
    return pgf(params, 1.0, t)


def pmf(params: ProcessParams, t: float) -> Pmf:
    """Distribution of the population at time t over states 0..ceiling.

    The two-binomial law summed over every atom of the rule, whose weights
    are positive (see the module docstring): nothing cancels.  The sum runs
    over blocks of atoms, and each block builds and multiplies only the
    columns of its Bin(M, .) and Bin(N-M, .) rows in which some atom clears
    the floors below (see _reach): at most (atoms) (M+1) (N-M+1)
    multiply-adds, and far fewer at large N, where most atoms' rows are 0
    outside a few columns.  A subnormal operand or product costs 10-100
    times a normal one on x86, and tiny weights times entries near
    exp(-700) made most products subnormal: so each factor below 2**-961,
    the weight counted in, is set to 0 and the weights are scaled by 2**900,
    exactly, which puts every product in [2**-1022, 2**900].  What that
    drops is below ~1e-286 in every entry, so entries below ~1e-250 are
    accurate in absolute terms only.  The rule's step in log X resolves
    binomial laws up to N of about 150.  Past that the entries stay
    nonnegative and normalized but can be less accurate: one entry is
    2.5e-8 off the Laplace-inversion oracle at (7.97, 0.675, 600, 100, 0.1),
    t = 1.7e3.
    """
    t = _check_time(t)
    decay, growth, weight = _relaxed_atoms(params.order, params.total_rate * t**params.order)
    log_weight = _mwright.log_weights(params.order)
    p = equilibrium_p(params)
    stay, fill = _occupancy(p, decay, growth)
    vacant, leave = _occupancy(1.0 - p, decay, growth)
    logs = _log(np.concatenate((stay, leave, fill, vacant))).reshape(4, -1)
    log_stay, log_leave, log_fill, log_vacant = logs
    n_cap, m0 = params.ceiling, params.initial
    weighted_floor = (_LOG_FLOOR - log_weight)[:, None]
    scaled = weight * _SCALE
    # probs[n] sums joint[k, n - k]: padding each row of joint by one and
    # reading the block with rows one shorter shifts row k right by k
    skew = np.zeros((m0 + 1, n_cap + 2))
    block = max(64, _BLOCK // (n_cap + 1))
    first = range(0, len(weight), block)
    edges = logs.take([*first, *(min(start + block, len(weight)) - 1 for start in first)], axis=1)
    top = np.maximum.reduceat(log_weight, first)
    # the atoms ascend in x, so along a block stay falls and fill rises; a
    # gained entry counts from _LOG_FLOOR - log w, least at the heaviest atom
    kept_cols = _reach(m0, edges[0], edges[1], _LOG_FLOOR, rising=False)
    gained_cols = _reach(n_cap - m0, edges[2], edges[3], (_LOG_FLOOR - top)[:, None], rising=True)
    for start, top_weight, k0, k1, j0, j1 in zip(first, *(c.tolist() for c in (top, *kept_cols, *gained_cols))):
        if top_weight < _LOG_FLOOR - _SLACK:
            continue  # no atom of the block reaches the floor
        part = slice(start, start + block)
        kept = _binomial_rows(m0, log_stay[part], log_leave[part], _LOG_FLOOR, k0, k1)
        gained = _binomial_rows(n_cap - m0, log_fill[part], log_vacant[part], weighted_floor[part], j0, j1)
        gained *= scaled[part, None]
        skew[k0:k1, j0:j1] += kept.T @ gained
    probs = skew.ravel()[: (m0 + 1) * (n_cap + 1)].reshape(m0 + 1, n_cap + 1).sum(axis=0)
    return _finalize_pmf(t, probs / _SCALE)


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
    probs = _binomial_rows(params.ceiling, _log(np.array([p])), _log(np.array([1.0 - p])))[0]
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
    extinction_probability.  The weighted sum is divided by the weights'
    own sum, taken the same way, so u = 0 gives exactly 1, and since every
    factor lies in [-1, 1] the value does too.  A power of a factor that
    would fall below 2**-1022 counts as 0 (see _power), so the value is
    within 2**-1022 ~ 2.2e-308 of the full average, and one below that may
    come out as 0.
    """
    u = _check_u(u)
    t = _check_time(t)
    decay, growth, weight = _relaxed_atoms(params.order, params.total_rate * t**params.order)
    vacant, leave = _occupancy(1.0 - equilibrium_p(params), decay, growth)
    n_cap, m0 = params.ceiling, params.initial
    base = 1.0 - u
    factors = _power(base + u * leave, m0) * _power(base + u * vacant, n_cap - m0)
    return float(np.sum(weight * factors) / np.sum(weight))


def _power(base, k):
    """base**k, with 0 where it would fall below 2**-1022, by zeroing those
    entries of base in place: pow takes a slow path for a subnormal result,
    and most left-tail atoms gave one.  (At k = 0 every power is 1.)"""
    base[np.abs(base) < 0.5 ** (1022 / max(k, 1))] = 0.0
    return base**k


def waiting_time_density(params: ProcessParams, j: int, s: float) -> float:
    """Density of the sojourn in state j of the pure-birth regime.

    Diverges like s**(order-1) at s=0 when order < 1; evaluated pointwise.
    """
    if classify(params) is not Regime.PURE_BIRTH:
        raise ValueError("waiting_time_density requires the pure-birth regime")
    j = _check_integer("state j", j)
    if not (params.initial <= j < params.ceiling):
        raise ValueError(
            f"state j must satisfy initial <= j < ceiling, got j={j}"
        )
    s = float(s)
    if not (s >= 0.0):
        raise ValueError(f"s must be >= 0, got {s}")
    rate = params.state_birth_rate(j)
    nu = params.order
    if s == 0.0:
        return rate if nu == 1.0 else math.inf
    # E_{nu,nu}(-y) = nu E X exp(-y X), the derivative of E_{nu,1}(-y) = E exp(-y X)
    x, weight = _mwright.rule(nu)
    return rate * s ** (nu - 1.0) * nu * float(weight @ (x * np.exp(-rate * s**nu * x)))
