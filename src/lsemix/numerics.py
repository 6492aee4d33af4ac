"""Shared numerical helpers: quadrature rules, integration bounds, inverse-CDF tables.

All routines here are deterministic: fixed node counts, fixed expansion rules,
no randomness.  Stochastic reproducibility elsewhere in the package relies on
that.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NonIntegrableError

__all__ = [
    "gauss_legendre",
    "build_inverse_cdf_table",
    "expand_log_bounds",
    "InverseCdfTable",
]

#: Default node count for fixed quadrature rules.
QUAD_NODES = 256

#: Default resolution of tabulated inverse CDFs.
CDF_TABLE_SIZE = 4096


def gauss_legendre(a: float, b: float, n: int = QUAD_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [a, b]."""
    x, w = leggauss(n)
    half = 0.5 * (b - a)
    return half * (x + 1.0) + a, half * w


class InverseCdfTable:
    """Piecewise-linear inverse CDF on a fixed grid.

    ``grid`` carries the support points and ``cdf`` the matching cumulative
    probabilities (strictly increasing, cdf[0] = 0, cdf[-1] = 1).
    """

    __slots__ = ("grid", "cdf")

    def __init__(self, grid: np.ndarray, cdf: np.ndarray):
        self.grid = grid
        self.cdf = cdf

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return np.interp(u, self.cdf, self.grid)


def build_inverse_cdf_table(
    log_density: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    size: int = CDF_TABLE_SIZE,
) -> InverseCdfTable:
    """Tabulate the inverse CDF of an (unnormalised) log density on [lo, hi].

    Uses a uniform grid with trapezoidal accumulation; the resulting table is
    monotone by construction because the density is positive on the interior.
    """
    grid = np.linspace(lo, hi, size + 1)
    logd = np.asarray(log_density(grid), dtype=float)
    dens = np.exp(logd - logd[np.isfinite(logd)].max())
    dens[~np.isfinite(dens)] = 0.0
    steps = 0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    total = cdf[-1]
    if not np.isfinite(total) or total <= 0.0:
        raise NonIntegrableError("density mass is not positive on the table interval")
    cdf /= total
    # Guard against repeated values in the far tail so np.interp stays stable.
    cdf = np.maximum.accumulate(cdf)
    return InverseCdfTable(grid, cdf)


def expand_log_bounds(
    log_f: Callable[[float], float],
    center: float,
    *,
    drop: float = 60.0,
    step: float = 1.0,
    max_steps: int = 4000,
) -> tuple[float, float]:
    """Find an interval around ``center`` outside which ``log_f`` has dropped
    by at least ``drop`` relative to its value at the center."""
    ref = log_f(center)
    lo = center - step
    n = 0
    while log_f(lo) > ref - drop:
        lo -= step
        n += 1
        if n > max_steps:
            raise NonIntegrableError("lower integration bound search did not terminate")
    hi = center + step
    n = 0
    while log_f(hi) > ref - drop:
        hi += step
        n += 1
        if n > max_steps:
            raise NonIntegrableError("upper integration bound search did not terminate")
    return lo, hi
