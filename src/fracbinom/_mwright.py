"""The M-Wright law of X = S**-order, S a unit positive stable variable, as
one positive quadrature rule.

X is the inverse stable subordinator at unit time (Mainardi, Mura & Pagnini
2010).  The rule is a trapezoid in l = log x with weights l'(j) x f(x), in
units where c = 1 - order and v0 = log a(0) = -order log order - c log c is
the right edge of Kanter's factor a below.  Right of v0 the density falls
like exp(-e**w) in w = (l - v0)/c, so the step there is _STEP c.  To the
left, where at order near 1 it falls only like c/(v0 - l)**2, the step grows
by e**_GROWTH per node up to _WIDEST: a Bin(150, .) law, read as a function
of l through exp(-y x), is about 0.1 wide in l, and the step must resolve
it.  The nodes reach l - v0 = _SPAN[0] on the left and _SPAN[1] c on the
right; their count is a multiple of _NODES, 1024 for all but the orders
nearest 1.

Below x = _SERIES_BELOW, x f(x) is the M-Wright series
sum_k (-1)**k x**(k+1) / (k! Gamma(1 - order (k+1))).  Above it comes from
Kanter's representation X = a(U) W**c, with U uniform on (0, pi), W standard
exponential (sampler.stable_subordinator_unit draws S this way) and
a(U) = sin U sin(order U)**-order sin(c U)**-c:

    x f(x) = (1/(pi c)) int_0^pi g(w) dU,  g(w) = exp(w - e**w),

with w = (l - log a(U))/c, which grows with U from (l - v0)/c.  Each node
integrates over its own window of w, from -42 (or that least value) to where
e**w has grown by 45, in tau = asinh(c tan(U/2)), by Gauss-Legendre on two
pieces split at w = -3 (or a quarter of the way along); Newton steps place
the window's ends, which are only c wide in log a.  So the cost does not
grow as order -> 1.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_STEP = 0.07
_GROWTH = 0.05
_WIDEST = 0.1
_SPAN = (-75.0, 6.0)
_NODES = 512
_SERIES_BELOW = 0.3
_SERIES_TERMS = 40
_WINDOW = (-42.0, -3.0, math.log(45.0))  # lowest w, split, growth of e**w
_GAUSS_NODES = 32
_NEWTON_STEPS = 3


@functools.lru_cache(maxsize=1)
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1]: Newton steps on the
    Legendre recurrence from the Tricomi guesses (numpy.polynomial's
    leggauss would add that package's ~2 MB to every importer)."""
    x = np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(6):
        prev, value = np.ones(n), x
        for k in range(2, n + 1):
            prev, value = value, ((2 * k - 1) * x * value - (k - 1) * prev) / k
        slope = n * (prev - x * value) / (1.0 - x * x)
        x = x - value / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def _log_kanter_factor(tau, c, slope=False):
    """log a(U) and dU/dtau at tau = asinh(c tan(U/2)); with slope, d log a/dtau
    in place of dU/dtau.

    With t = tan(U/2) and t_c = tan(c U/4) every sine is rational in them,
    and sin U - sin(order U) = 2 sin(c U/2) cos((1+order) U/2) is formed
    without cancelling, so log(sin U / sin(order U)) keeps its accuracy
    where it is of order c.
    """
    shift = np.sinh(tau)
    t = shift / c
    t_inv = 1.0 / (1.0 + t * t)
    sin_u, cos_u = 2.0 * t * t_inv, (1.0 - t) * (1.0 + t) * t_inv
    t_c = np.tan((0.5 * c) * np.arctan(t))
    t_c_inv = 1.0 / (1.0 + t_c * t_c)
    sin_half, cos_half = 2.0 * t_c * t_c_inv, (1.0 - t_c) * (1.0 + t_c) * t_c_inv  # of c U/2
    gap = 2.0 * sin_half * (sin_u * sin_half + cos_u * cos_half)  # sin U - sin(order U)
    sin_order = sin_u - gap
    sin_c = 2.0 * sin_half * cos_half  # sin(c U)
    log_a = np.log1p(gap / sin_order) + c * np.log(sin_order / sin_c)
    jacobian = (2.0 / c) * np.sqrt(1.0 + shift * shift) * t_inv
    if not slope:
        return log_a, jacobian
    cos_c = 1.0 - 2.0 * sin_half * sin_half
    cos_order = cos_u * cos_c + sin_u * sin_c
    d_log_a = cos_u / sin_u - (1.0 - c) ** 2 * cos_order / sin_order - c * c * cos_c / sin_c
    return log_a, d_log_a * jacobian


def _tau_where(depth, c, v0):
    """tau at which v0 - log a(U) equals depth >= 0: read off a table in
    sqrt(v0 - log a), which is smooth at both ends, then Newton steps, since
    a window of w is only c wide in log a."""
    table = 1e-3 * c * np.exp(np.linspace(0.0, math.log(3e4 / c), 120))  # up to tau = 30
    table_xi = np.sqrt(np.maximum(v0 - _log_kanter_factor(table, c)[0], 0.0))
    tau = np.interp(np.sqrt(depth), np.concatenate(([0.0], table_xi)), np.concatenate(([0.0], table)))
    inner = depth > 0.0
    for _ in range(_NEWTON_STEPS):
        value, slope = _log_kanter_factor(tau[inner], c, slope=True)
        tau[inner] -= (value - v0 + depth[inner]) / slope
    return tau


def _kanter_density(log_x, order, v0):
    """x f(x) at log x, by Kanter's conditional integral (see above)."""
    c = 1.0 - order
    w_start = (log_x - v0) / c
    lowest, split, spread = _WINDOW
    w_low = np.maximum(w_start, lowest)
    w_high = np.logaddexp(w_low, spread)
    w_split = np.maximum(split, w_low + 0.25 * (w_high - w_low))
    ends = _tau_where(c * (np.stack([w_low, w_split, w_high]) - w_start), c, v0)
    nodes, gauss_weight = _gauss_legendre(_GAUSS_NODES)
    total = np.zeros_like(log_x)
    for low, high in zip(ends[:-1], ends[1:]):
        half = 0.5 * (high - low)
        log_a, jacobian = _log_kanter_factor((low + half)[:, None] + half[:, None] * nodes, c)
        w = (log_x[:, None] - log_a) / c
        total += half * ((np.exp(w - np.exp(w)) * jacobian) @ gauss_weight)
    return total / (math.pi * c)


def _series_density(x, order):
    """x f(x) by the M-Wright series, 1/Gamma(1 - order (k+1)) by reflection;
    sin(pi (1 - order) m) is taken from the smaller of order and 1 - order."""
    c = 1.0 - order
    sines = [math.sin(math.pi * c * m) if order >= 0.5 else (-1) ** (m + 1) * math.sin(math.pi * order * m)
             for m in range(1, _SERIES_TERMS + 1)]
    coef = [sine * math.gamma(order * (k + 1)) / math.factorial(k) for k, sine in enumerate(sines)]
    total = np.zeros_like(x)
    for b in reversed(coef):
        total = total * x + b
    return total * x / math.pi


@functools.lru_cache(maxsize=2)  # callers use one order at a time
def rule(order):
    """Atoms (x, w) of the rule for the law of X = S**-order, sum w = 1; at
    order 1 the single atom X = 1, which gives the classical chain."""
    if order == 1.0:
        return np.ones(1), np.ones(1)
    c = 1.0 - order
    v0 = -order * math.log(order) - c * math.log(c)
    step, wide = _STEP * c, _WIDEST
    # l - v0 = int_0^j dl with dl/dj = step wide (1 + e**-gj) / (wide + step e**-gj),
    # which passes 6 c by j = 6/_STEP and lies below
    # -wide |j| + (wide - step) log(1 + wide/step) / g on the left.  A node count
    # shared by most orders lets each new order reuse the heap the last one freed.
    right = math.floor(_SPAN[1] / _STEP)
    left = (-_SPAN[0] + (wide - step) / _GROWTH * math.log1p(wide / step)) / wide
    count = _NODES * math.ceil((right + math.ceil(left) + 1) / _NODES)
    j = np.arange(right + 1.0 - count, right + 1.0)
    log_x = v0 + step * j - (wide - step) / _GROWTH * np.log1p(step * np.expm1(-_GROWTH * j) / (wide + step))
    grow = np.exp(-_GROWTH * j)
    x = np.exp(log_x)
    weight = step * wide * (1.0 + grow) / (wide + step * grow)
    series = x < _SERIES_BELOW
    weight[series] *= _series_density(x[series], order)
    weight[~series] *= _kanter_density(log_x[~series], order, v0)
    weight /= weight.sum()
    x.setflags(write=False)
    weight.setflags(write=False)
    return x, weight


@functools.lru_cache(maxsize=2)
def log_weights(order):
    """log w at the atoms of rule(order), -inf where a weight is 0."""
    with np.errstate(divide="ignore"):
        logs = np.log(rule(order)[1])
    logs.setflags(write=False)
    return logs
