"""Parameters, regimes and the distribution type of the binomial birth-death model.

The population lives on {0, ..., ceiling}: each vacancy fills at rate
birth_rate and each individual dies at rate death_rate, both per unit
time**order where order is the fractional memory exponent.  Rates carry an
implicit time**(-order) dimension; no unit system is enforced.  `Pmf`, the
population's distribution at one time, is what both the closed forms and the
reference master equation return.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

_MIN_ORDER = 1e-4  # also `ml`'s floor: the rule for X degrades below, where no oracle reaches


class Regime(Enum):
    GENERAL = "general"
    PURE_BIRTH = "pure_birth"
    PURE_DEATH = "pure_death"


@dataclass(frozen=True)
class ProcessParams:
    """Immutable model parameters.

    birth_rate: per-vacancy birth coefficient, >= 0
    death_rate: per-individual death coefficient, >= 0
    ceiling: population ceiling N >= 1
    initial: initial population M with 1 <= M <= N
    order: fractional order in [1e-4, 1]; 1 recovers the classical Markov chain
    """

    birth_rate: float
    death_rate: float
    ceiling: int
    initial: int
    order: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "birth_rate", float(self.birth_rate))
        object.__setattr__(self, "death_rate", float(self.death_rate))
        object.__setattr__(self, "order", float(self.order))
        for name in ("ceiling", "initial"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
        if not (self.birth_rate >= 0.0 and math.isfinite(self.birth_rate)):
            raise ValueError(f"birth_rate must be finite and >= 0, got {self.birth_rate}")
        if not (self.death_rate >= 0.0 and math.isfinite(self.death_rate)):
            raise ValueError(f"death_rate must be finite and >= 0, got {self.death_rate}")
        if not (0.0 < self.birth_rate + self.death_rate < math.inf):
            raise ValueError(f"birth_rate + death_rate must be positive and finite, got {self.total_rate}")
        if self.ceiling < 1:
            raise ValueError(f"ceiling must be >= 1, got {self.ceiling}")
        if not (1 <= self.initial <= self.ceiling):
            raise ValueError(
                f"initial must satisfy 1 <= initial <= ceiling, got initial={self.initial}, ceiling={self.ceiling}"
            )
        if not (_MIN_ORDER <= self.order <= 1.0):
            raise ValueError(f"order must be in [{_MIN_ORDER}, 1], got {self.order}")

    @property
    def total_rate(self) -> float:
        return self.birth_rate + self.death_rate

    def state_birth_rate(self, n):
        """Birth rate birth_rate (N - n) in state n; n may be an array of states."""
        return self.birth_rate * (self.ceiling - n)

    def state_death_rate(self, n):
        """Death rate death_rate n in state n; n may be an array of states."""
        return self.death_rate * n


@dataclass(frozen=True)
class Pmf:
    """Distribution of the population at a fixed time.

    probs[n] = P(population == n), n = 0..ceiling.
    """

    t: float
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        self.probs.setflags(write=False)

    def __len__(self) -> int:
        return len(self.probs)


def classify(params: ProcessParams) -> Regime:
    if params.death_rate == 0.0:
        return Regime.PURE_BIRTH
    if params.birth_rate == 0.0:
        return Regime.PURE_DEATH
    return Regime.GENERAL


def equilibrium_p(params: ProcessParams) -> float:
    """Long-run per-slot occupation probability birth_rate/(birth_rate+death_rate)."""
    return params.birth_rate / (params.birth_rate + params.death_rate)


def _check_time(t):
    """t as a float; a ValueError unless it is finite and >= 0."""
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return t


def _check_integer(name, value):
    """value as an int; a ValueError for a bool or anything that is not an integer."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _occupancy(p, decay, growth):
    """(p + (1-p) decay, p growth): the chances that a slot occupied at the
    start, and one vacant at the start, are occupied after operational time v.

    p is the long-run occupation probability, decay = exp(-(birth+death) v)
    and growth = 1 - decay, each passed so it stays accurate where it is
    small.  Passing 1 - p gives the complements, vacant-stays-vacant first.
    """
    return p + (1.0 - p) * decay, p * growth
