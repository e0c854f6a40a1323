"""Fractional binomial process: analytics, simulation, and validation tools."""

from .analytics import (
    AccuracyError,
    Pmf,
    classical_pgf,
    equilibrium_pmf,
    extinction_probability,
    mean,
    pgf,
    pmf,
    pure_birth_pmf,
    second_factorial_moment,
    variance,
    waiting_time_density,
)
from .mittag_leffler import ConvergenceError, ml, ml_one
from .model import ProcessParams, Regime, classify, equilibrium_p
from .sampler import (
    EnsembleStats,
    Path,
    classical_path,
    ensemble,
    fractional_path,
    fractional_value_at,
    fractional_values_at,
    inverse_subordinator_sample,
    ml_waiting_time,
    stable_subordinator_unit,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ConvergenceError",
    "EnsembleStats",
    "Path",
    "Pmf",
    "ProcessParams",
    "Regime",
    "classical_path",
    "classical_pgf",
    "classify",
    "ensemble",
    "equilibrium_p",
    "equilibrium_pmf",
    "extinction_probability",
    "fractional_path",
    "fractional_value_at",
    "fractional_values_at",
    "inverse_subordinator_sample",
    "mean",
    "ml",
    "ml_one",
    "ml_waiting_time",
    "pgf",
    "pmf",
    "pure_birth_pmf",
    "second_factorial_moment",
    "variance",
    "waiting_time_density",
]
