"""Monte Carlo simulation of the classical and fractional binomial process.

The fractional process is sampled through its time-change representation: a
classical chain read at the inverse of a totally skewed positive stable
subordinator.  One-point marginals are exact: the inverse subordinator at a
fixed time has the scaling law V = (t/S)**order with S a unit stable draw,
and given V the slots relax independently, so the state is two binomial
draws.  Whole trajectories run a Gillespie chain through a discretized
subordinator path and are therefore an approximate time-change
construction, accurate to the grid resolution in the placement of jump
times.

All samplers are pure functions of (params, rng state); `ensemble` derives
independent child streams from one master seed so results are reproducible
regardless of how the work would be parallelized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ProcessParams, Regime, classify, equilibrium_p, _occupancy

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
    "pure_birth_path_direct",
    "pure_birth_states_at",
    "ensemble",
]

# 64-bit master seed; identical seed and params give bit-identical streams.
RngSeed = int


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
    t = float(t)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 0.0 if size is None else np.zeros(size)
    s = stable_subordinator_unit(nu, rng, size=size)
    return (t / s) ** nu


def classical_path(params: ProcessParams, horizon, rng) -> Path:
    """One Gillespie trajectory of the classical chain on [0, horizon]."""
    horizon = float(horizon)
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    lam, mu, n_cap = params.birth_rate, params.death_rate, params.ceiling
    times = [0.0]
    states = [params.initial]
    t, n = 0.0, params.initial
    while True:
        up = lam * (n_cap - n)
        down = mu * n
        total = up + down
        if total == 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > horizon:
            break
        n += 1 if rng.random() * total < up else -1
        times.append(t)
        states.append(n)
    return Path(np.array(times), np.array(states), horizon)


def fractional_value_at(params: ProcessParams, t, rng) -> int:
    """One exact draw of the fractional process at time t."""
    return int(fractional_values_at(params, t, 1, rng)[0])


def fractional_values_at(params: ProcessParams, t, size, rng):
    """`size` independent draws of the fractional process at time t."""
    t = float(t)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
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


def fractional_path(params: ProcessParams, horizon, dt=None, *, rng) -> Path:
    """Approximate trajectory of the fractional process on [0, horizon].

    A classical path is simulated in operational time and its jump instants
    are mapped through a discretized subordinator path (linear interpolation
    inside grid cells).  `dt` sets the real-time jump-localization scale and
    defaults to horizon/1000; values are exact up to that resolution.
    """
    horizon = float(horizon)
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if params.order == 1.0:
        return classical_path(params, horizon, rng)
    if dt is None:
        dt = horizon / 1000.0
    dt = float(dt)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    nu = params.order
    # op-grid spacing such that the median real-time advance per cell ~ dt
    # (an increment over an op cell of width dt**nu is dt * S(1) in law)
    op_step = dt**nu
    block = max(64, int((horizon / dt) ** nu / math.gamma(1.0 + nu)) + 16)
    s_grid = [np.zeros(1)]
    s_last = 0.0
    total_cells = 0
    while s_last <= horizon:
        if total_cells > 1 << 22:
            raise RuntimeError("subordinator grid failed to reach the horizon")
        incr = dt * stable_subordinator_unit(nu, rng, size=block)
        chunk = s_last + np.cumsum(incr)
        s_grid.append(chunk)
        s_last = chunk[-1]
        total_cells += block
    s_vals = np.concatenate(s_grid)
    n_cells = np.searchsorted(s_vals, horizon, side="right")
    op_horizon = (n_cells + 1) * op_step
    base = classical_path(params, op_horizon, rng)
    if len(base.times) == 1:
        return Path(np.zeros(1), base.states[:1], horizon)
    sigma = base.times[1:]
    cell = np.minimum((sigma // op_step).astype(np.int64), len(s_vals) - 2)
    frac = sigma / op_step - cell
    real_times = s_vals[cell] + frac * (s_vals[cell + 1] - s_vals[cell])
    keep = real_times <= horizon
    times = np.concatenate([[0.0], real_times[keep]])
    states = np.concatenate([base.states[:1], base.states[1:][keep]])
    return Path(times, states, horizon)


def ml_waiting_time(nu, rate, rng, size=None):
    """Draw from the Mittag-Leffler waiting-time law with survival E_{nu,1}(-rate s^nu).

    Kozubowski's mixture representation; reduces to Exponential(rate) at nu=1.
    The law is heavy tailed (index nu) with no finite mean for nu < 1.
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
    out = rate ** (-1.0 / nu) * np.abs(np.log(u)) * mix ** (1.0 / nu)
    return float(out) if size is None else out


def pure_birth_path_direct(params: ProcessParams, horizon, rng) -> Path:
    """Renewal construction of the pure-birth regime: one ML sojourn per level."""
    if classify(params) is not Regime.PURE_BIRTH:
        raise ValueError("pure_birth_path_direct requires death_rate == 0")
    horizon = float(horizon)
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    n_cap, m0, nu = params.ceiling, params.initial, params.order
    times = [0.0]
    states = [m0]
    t = 0.0
    for j in range(m0, n_cap):
        t += ml_waiting_time(nu, params.state_birth_rate(j), rng)
        if t > horizon:
            break
        times.append(t)
        states.append(j + 1)
    return Path(np.array(times), np.array(states), horizon)


def pure_birth_states_at(params: ProcessParams, t, size, rng):
    """Vectorized marginal of the direct pure-birth construction at time t."""
    if classify(params) is not Regime.PURE_BIRTH:
        raise ValueError("pure_birth_states_at requires death_rate == 0")
    t = float(t)
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
    chunk_size: int = 2048,
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
    sizes = [chunk_size] * (n_paths // chunk_size)
    if n_paths % chunk_size:
        sizes.append(n_paths % chunk_size)
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
