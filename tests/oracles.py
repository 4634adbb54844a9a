"""Test oracles of the portfolio module that no CLI stage reads.

Each was a package function or method. They are kept here, beside the tests
that read them, with the arithmetic unchanged.
"""

import math

import numpy as np

from volterra_control import ConfigurationError
from volterra_control.portfolio import (
    CalibrationResult,
    OptimalityReport,
    _inverse_marginal,
    _log_martingale,
    _terminal_martingale,
)


def y_martingale(theta: np.ndarray, paths, c: float) -> np.ndarray:
    """Exponential martingale Y(t_i) = c exp(int theta dB - 1/2 int theta^2 ds)."""
    if c <= 0.0:
        raise ConfigurationError("martingale initial value must be positive")
    return c * np.exp(_log_martingale(theta, paths))


def terminal_wealth(c: float, paths, utility, theta: np.ndarray) -> np.ndarray:
    """Candidate optimal terminal wealth: inverse marginal utility of c * martingale."""
    return _inverse_marginal(c, _terminal_martingale(theta, paths), utility)


def reproducible_within(a: CalibrationResult, b: CalibrationResult,
                        n_sigma: float = 2.0) -> bool:
    """The two calibrated constants agree within n_sigma of their combined stderr."""
    tol = n_sigma * math.hypot(a.stderr, b.stderr)
    return abs(a.c - b.c) <= tol


def max_interior_stationarity(report: OptimalityReport) -> float:
    """Largest normalized stationarity residual over the middle half of the nodes."""
    n = len(report.stationarity_normalized)
    lo, hi = n // 4, (3 * n) // 4
    return float(np.max(report.stationarity_normalized[lo:hi + 1]))
