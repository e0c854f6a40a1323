"""Monte Carlo simulation of the classical and fractional binomial process.

The fractional process is the classical chain read at the inverse of a
totally skewed positive stable subordinator.  One-point marginals are exact:
the inverse subordinator at a fixed time has the scaling law
V = (t/S)**order with S a unit stable draw, and given V the slots relax
independently, so the state is two binomial draws.  Whole trajectories are
exact too: the time change turns each exponential sojourn of the chain into
a Mittag-Leffler one with the same rate, and leaves the jump directions of
the classical embedded chain as they are.

All samplers are pure functions of (params, rng state); `ensemble` derives
independent child streams from one master seed so results are reproducible
regardless of how the work would be parallelized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ProcessParams, Regime, classify, equilibrium_p, _check_time, _occupancy

__all__ = [
    "RngSeed",
    "Path",
    "EnsembleStats",
    "stable_subordinator_unit",
    "inverse_subordinator_sample",
    "classical_path",
    "fractional_value_at",
    "fractional_values_at",
    "fractional_path",
    "ml_waiting_time",
    "pure_birth_states_at",
    "ensemble",
]

# 64-bit master seed; identical seed and params give bit-identical streams.
RngSeed = int

# Path sojourns and direction uniforms are drawn this many at a time.
_BLOCK = 128

# `ensemble` draws this many marginals per child stream.
_CHUNK = 2048


@dataclass(frozen=True)
class Path:
    """Piecewise-constant trajectory as jump records.

    times[0] == 0 with states[0] the initial population; each later record is
    one +-1 jump.  The trajectory continues at states[-1] up to `horizon`
    (absorbing states and jump-free tails are implicit).
    """

    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    horizon: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=np.int64)
        if times.ndim != 1 or times.shape != states.shape or len(times) == 0:
            raise ValueError("times and states must be equal-length 1-d arrays")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise ValueError("times must start at 0 and increase strictly")
        if len(states) > 1 and np.any(np.abs(np.diff(states)) != 1):
            raise ValueError("consecutive states must differ by exactly 1")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "horizon", float(self.horizon))

    def state_at(self, t):
        """State of the trajectory at time(s) t (right-continuous)."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right") - 1
        return self.states[np.maximum(idx, 0)]


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time-point Monte Carlo estimates over independent draws."""

    t_grid: np.ndarray
    mean_est: np.ndarray
    var_est: np.ndarray
    se_mean: np.ndarray
    n_paths: int


def stable_subordinator_unit(nu, rng, size=None):
    """Draw S(1) of the nu-stable subordinator, Laplace transform e^(-z^nu).

    Kanter's representation: with U uniform on (0, pi) and W standard
    exponential,

        S = (sin(nu U) / sin(U)^(1/nu)) * (sin((1-nu) U) / W)^((1-nu)/nu)

    Only 0 < nu < 1 is meaningful; nu == 1 is the degenerate S == 1 and is
    bypassed upstream.
    """
    nu = float(nu)
    if not (0.0 < nu < 1.0):
        raise ValueError(f"nu must be in (0, 1), got {nu}")
    u = rng.uniform(1e-14, math.pi * (1.0 - 1e-16), size=size)
    w = np.maximum(rng.standard_exponential(size=size), 1e-300)
    s = (np.sin(nu * u) / np.sin(u) ** (1.0 / nu)) * (
        np.sin((1.0 - nu) * u) / w
    ) ** ((1.0 - nu) / nu)
    return float(s) if size is None else s


def inverse_subordinator_sample(nu, t, rng, size=None):
    """Draw the inverse subordinator at time t via the scaling identity (t/S)^nu."""
    t = _check_time(t)
    if t == 0.0:
        return 0.0 if size is None else np.zeros(size)
    s = stable_subordinator_unit(nu, rng, size=size)
    return (t / s) ** nu


def classical_path(params: ProcessParams, horizon, rng) -> Path:
    """One Gillespie trajectory of the classical chain on [0, horizon]."""
    return _jump_path(params, 1.0, horizon, rng)


def fractional_value_at(params: ProcessParams, t, rng) -> int:
    """One exact draw of the fractional process at time t."""
    return int(fractional_values_at(params, t, 1, rng)[0])


def fractional_values_at(params: ProcessParams, t, size, rng):
    """`size` independent draws of the fractional process at time t."""
    t = _check_time(t)
    if t == 0.0:
        return np.full(size, params.initial, dtype=np.int64)
    if params.order == 1.0:
        v = np.full(size, t)
    else:
        v = inverse_subordinator_sample(params.order, t, rng, size=size)
    exponent = -params.total_rate * v
    stay, fill = _occupancy(equilibrium_p(params), np.exp(exponent), -np.expm1(exponent))
    kept = rng.binomial(params.initial, stay)
    return kept + rng.binomial(params.ceiling - params.initial, fill)


def fractional_path(params: ProcessParams, horizon, *, rng) -> Path:
    """Exact trajectory of the fractional process on [0, horizon].

    The chain stays in state n for a Mittag-Leffler time with survival
    E_order(-q_n s**order), q_n = birth (N-n) + death n, and then moves as
    the classical chain does.  At order 1 this is `classical_path`.
    """
    return _jump_path(params, params.order, horizon, rng)


def _jump_path(params: ProcessParams, nu, horizon, rng) -> Path:
    """The chain's jumps on [0, horizon] with ML(nu) sojourns (exponential at nu = 1).

    Exact for the time change: a classical sojourn J ~ Exp(q_n) in operational
    time spans the stable-subordinator increment D(s + J) - D(s), which in law
    is J**(1/nu) S(1), a Mittag-Leffler(nu) time with rate q_n.  So each
    sojourn is q_n**(-1/nu) G with G of unit rate, and the jump goes up with
    probability birth (N-n) / q_n.  The loop ends at an absorbing state
    (q_n == 0) or past the horizon.
    """
    horizon = float(horizon)
    if not (0.0 < horizon < math.inf):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    n_cap = params.ceiling
    levels = np.arange(n_cap + 1)
    up_rate = params.birth_rate * (n_cap - levels)
    total_rate = up_rate + params.death_rate * levels
    with np.errstate(divide="ignore", over="ignore"):
        scale = (total_rate ** (-1.0 / nu)).tolist()
    up_rate, total_rate = up_rate.tolist(), total_rate.tolist()
    t, n = 0.0, params.initial
    times, states = [t], [n]
    sojourns = coins = []
    while total_rate[n] > 0.0:
        if not sojourns:
            sojourns = ml_waiting_time(nu, 1.0, rng, size=_BLOCK).tolist()
            coins = rng.random(_BLOCK).tolist()
        step = t + sojourns.pop() * scale[n]
        # small-nu sojourns can fall below one ulp of t: keep times strict
        t = step if step > t else math.nextafter(t, math.inf)
        if t > horizon:
            break
        n += 1 if coins.pop() * total_rate[n] < up_rate[n] else -1
        times.append(t)
        states.append(n)
    return Path(np.array(times), np.array(states), horizon)


def ml_waiting_time(nu, rate, rng, size=None):
    """Draw from the Mittag-Leffler waiting-time law with survival E_{nu,1}(-rate s^nu).

    Kozubowski's mixture representation; reduces to Exponential(rate) at nu=1.
    The law is heavy tailed (index nu) with no finite mean for nu < 1.  At a
    rate so small that rate**(-1/nu) leaves the float range, almost every
    draw is infinite.
    """
    nu = float(nu)
    rate = float(rate)
    if not (0.0 < nu <= 1.0):
        raise ValueError(f"nu must be in (0, 1], got {nu}")
    if rate <= 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    if nu == 1.0:
        out = rng.exponential(1.0 / rate, size=size)
        return float(out) if size is None else out
    u = np.maximum(rng.random(size), 1e-300)
    v = rng.uniform(1e-14, 1.0 - 1e-16, size=size)
    mix = np.sin(nu * math.pi) / np.tan(nu * math.pi * v) - math.cos(nu * math.pi)
    # one power of mix / rate: rate**(-1/nu) can overflow where mix**(1/nu)
    # underflows, and their product would be inf * 0
    with np.errstate(over="ignore"):
        out = np.abs(np.log(u)) * (mix / rate) ** (1.0 / nu)
    return float(out) if size is None else out


def pure_birth_states_at(params: ProcessParams, t, size, rng):
    """Vectorized marginal of the direct pure-birth construction at time t."""
    if classify(params) is not Regime.PURE_BIRTH:
        raise ValueError("pure_birth_states_at requires death_rate == 0")
    t = _check_time(t)
    n_cap, m0, nu = params.ceiling, params.initial, params.order
    arrival = np.zeros(size)
    state = np.full(size, m0, dtype=np.int64)
    for j in range(m0, n_cap):
        arrival = arrival + ml_waiting_time(nu, params.state_birth_rate(j), rng, size=size)
        state += arrival <= t
    return state


def ensemble(
    params: ProcessParams,
    t_grid,
    n_paths: int,
    seed: RngSeed,
) -> EnsembleStats:
    """Marginal mean/variance estimates at each grid time from n_paths draws.

    Each (chunk, time-point) pair consumes its chunk's private stream in a
    fixed order, so the result is a pure function of (params, t_grid,
    n_paths, seed) and chunks could be evaluated in parallel.  Draws are
    independent across time points (one-dimensional marginals only).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be a nonempty ascending 1-d array")
    n_paths = int(n_paths)
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    sizes = [_CHUNK] * (n_paths // _CHUNK)
    if n_paths % _CHUNK:
        sizes.append(n_paths % _CHUNK)
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    values = np.empty((n_paths, len(t_grid)), dtype=np.int64)
    row = 0
    for size, stream in zip(sizes, streams):
        rng = np.random.default_rng(stream)
        for j, t in enumerate(t_grid):
            values[row : row + size, j] = fractional_values_at(params, t, size, rng)
        row += size
    mean_est = values.mean(axis=0)
    var_est = values.var(axis=0, ddof=1)
    se_mean = np.sqrt(var_est / n_paths)
    return EnsembleStats(
        t_grid=t_grid,
        mean_est=mean_est,
        var_est=var_est,
        se_mean=se_mean,
        n_paths=n_paths,
    )
