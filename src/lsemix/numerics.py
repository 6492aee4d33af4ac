"""Shared numerical helpers: quadrature rules, integration bounds, inverse-CDF
tables and the bucket index they look their knots up in.

All routines here are deterministic: fixed node counts, fixed expansion rules,
no randomness.  Stochastic reproducibility elsewhere in the package relies on
that.

Lookups in a sorted knot array go through ``_BucketIndex``, a guide table in
the style of Chen & Asau (1974): it answers ``np.searchsorted`` with the same
index in O(1) per query instead of a binary search.  ``InverseCdfTable``
reads its knots through it and then does ``np.interp``'s own arithmetic, so
tabulated draws are bit for bit those of ``np.interp``; the Monte Carlo scans
in :mod:`lsemix.empirical` bin their draws against the grid with it.

The matrix products on the Monte Carlo path go through ``blocked_matmul``,
which issues them in row blocks small enough for OpenBLAS to compute each on
the calling thread, so that they do not compete with the scans' own worker
threads.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NonIntegrableError

__all__ = [
    "gauss_legendre",
    "blocked_matmul",
    "nearly_symmetric",
    "build_inverse_cdf_table",
    "expand_log_bounds",
    "InverseCdfTable",
]

#: Default node count for fixed quadrature rules.
QUAD_NODES = 256

#: Default resolution of tabulated inverse CDFs.
CDF_TABLE_SIZE = 4096

#: OpenBLAS computes a matrix product of at most this many multiply-adds on
#: the calling thread, and larger ones on its own threads.
BLAS_SERIAL_MULTIPLY_ADDS = 2 ** 18


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    # leggauss(256) takes about 16 ms, and every Beta and GIG law maps the
    # same rule; the arrays are shared, so they are read-only.
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(a: float, b: float, n: int = QUAD_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [a, b]."""
    x, w = _legendre_rule(n)
    half = 0.5 * (b - a)
    return half * (x + 1.0) + a, half * w


def blocked_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for 2-D float arrays, bit for bit, in row blocks of at most
    ``BLAS_SERIAL_MULTIPLY_ADDS`` multiply-adds each.

    A matrix product (gemm) computes every element of the output with the
    same kernel order however the rows of ``a`` are split, so the blocks
    give the bytes of one call.  Two cases would not, and are avoided: a
    block of one row, which numpy sends to a matrix-vector product (gemv),
    and a ``b`` of one column, which numpy always multiplies by gemv, whose
    rounding depends on where the rows are split.  A lone last row joins the
    block before it (blocks are one row short of the limit, so it still
    fits), and a one-column ``b``, or one too wide for blocks of two rows,
    goes in one call.  ``out``, when given, receives the product.
    """
    rows = BLAS_SERIAL_MULTIPLY_ADDS // max(b.size, 1) - 1
    if b.shape[1] == 1 or rows < 2:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    stops = list(range(rows, a.shape[0], rows))
    if stops and a.shape[0] - stops[-1] == 1:
        stops.pop()
    start = 0
    for stop in stops + [a.shape[0]]:
        np.matmul(a[start:stop], b, out=out[start:stop])
        start = stop
    return out


def nearly_symmetric(a: np.ndarray) -> bool:
    """The input rule for a symmetric matrix: max|a_ij - a_ji| <= 1e-12 max|a_ij|.

    Relative to the largest entry with no floor, so a matrix and any
    multiple of it are accepted or rejected together."""
    return float(np.abs(a - a.T).max()) <= 1e-12 * float(np.abs(a).max())


class _BucketIndex:
    """``np.searchsorted(knots, x, side)`` in O(1) per query.

    ``knots`` is a nonempty sorted array of finite values, repeats allowed.
    The range [knots[0], knots[-1]] is cut into M = 4 len(knots) equal
    buckets, b(x) = floor((x - knots[0]) M / (knots[-1] - knots[0])), with x
    clipped to the range first and b clipped to M - 1 in float before the
    integer cast (which also sends NaN to the top bucket); a range too
    narrow for M buckets has one.  b is monotone in x, so every knot in a
    lower bucket than x lies below x and every knot in a higher one above
    it.  With ``first[b]`` the number of knots in buckets below b, the
    answer is ``first[b]``, plus one if k = knots[first[b]], the lowest knot
    in bucket b or above, lies below x (side ``left``) or at or below it
    (side ``right``).  That knot exists, because the last knot is in the top
    bucket, and it can count only if it is in x's bucket.  The test is
    written ``first[b] + 1 - (x <= k)`` (or ``x < k``) so that NaN, which
    compares false, counts every knot, as in ``np.searchsorted``.  A bucket
    that holds two or more knots, such as a flat run of a CDF or a repeated
    grid point, sends its queries to ``np.searchsorted``.
    """

    __slots__ = ("knots", "side", "lo", "hi", "scale", "top", "after", "edge", "crowded")

    def __init__(self, knots: np.ndarray, side: str = "left"):
        knots = np.asarray(knots, dtype=float)
        self.knots = knots
        self.side = side
        self.lo, self.hi = float(knots[0]), float(knots[-1])
        buckets = 4 * knots.size
        width = self.hi - self.lo
        self.scale = buckets / width if width > 0.0 else 0.0
        if not 0.0 < self.scale < math.inf:
            buckets, self.scale = 1, 0.0
        self.top = float(buckets - 1)
        counts = np.bincount(self.bucket(knots), minlength=buckets)
        first = np.cumsum(counts) - counts
        self.after = first + 1
        self.edge = knots[first]
        self.crowded = counts > 1

    def bucket(self, clipped: np.ndarray) -> np.ndarray:
        """b(x) from ``clipped = np.clip(x, knots[0], knots[-1])``."""
        t = np.subtract(clipped, self.lo)
        t *= self.scale
        np.fmin(t, self.top, out=t)
        return t.astype(np.intp)

    def search(self, x: np.ndarray, clipped: np.ndarray) -> np.ndarray:
        """``np.searchsorted(knots, x, side)`` for a float array ``x`` of any
        shape, given its clipped copy (callers that need the clipped values
        pass them)."""
        b = self.bucket(clipped)
        edge = self.edge[b]
        found = self.after[b]
        found -= np.less(x, edge) if self.side == "right" else np.less_equal(x, edge)
        crowded = self.crowded[b]
        if crowded.any():
            found[crowded] = np.searchsorted(self.knots, x[crowded], self.side)
        return found

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.search(x, np.clip(x, self.lo, self.hi))


class InverseCdfTable:
    """Piecewise-linear inverse CDF on a fixed grid.

    ``grid`` carries the support points (ascending, finite) and ``cdf`` the
    matching cumulative probabilities (nondecreasing, cdf[0] = 0,
    cdf[-1] = 1, at least two knots).  Calling the table gives
    ``np.interp(u, cdf, grid)`` bit for bit.  With j the last knot at or
    below u, np.interp returns grid[0] below cdf[0], grid[-1] at or above
    cdf[-1], grid[j] when u equals cdf[j], NaN for NaN, and otherwise
    slope[j] (u - cdf[j]) + grid[j], with slope[j] = (grid[j+1] - grid[j]) /
    (cdf[j+1] - cdf[j]).  Here the bucket index gives r = j + 1, which
    picks a row of three arrays padded by one row at each end, and one
    expression covers every branch: fall[r] (at[r] - v) + value[r], with v
    the clipped u, fall = -slope inside and -0.0 in the padding rows.
    Below and above the range, and at a knot, at[r] - v is +0.0, so the
    product is -0.0 and adding it leaves value[r] as it is; elsewhere
    (-slope) (cdf[j] - u) rounds exactly as slope (u - cdf[j]).  A rise of
    the CDF too small for a double can overflow its slope to inf (the
    subnormal lower tail of a high-dimensional radial); at that knot fall
    is set to -0.0, since inf 0 would be NaN.  np.interp's retry of a NaN
    from the right knot can only meet an infinite grid value, which is
    rejected.
    """

    __slots__ = ("grid", "cdf", "_index", "_at", "_fall", "_value", "_steep")

    def __init__(self, grid: np.ndarray, cdf: np.ndarray):
        if not (np.isfinite(grid).all() and np.isfinite(cdf).all()):
            raise ValueError("inverse-CDF table needs finite grid and cdf values")
        self.grid = grid
        self.cdf = cdf
        self._index = _BucketIndex(cdf, "right")
        rise = np.diff(cdf)
        # A flat run of the CDF is never interpolated: u < cdf[j + 1] there.
        with np.errstate(over="ignore"):
            slope = np.divide(np.diff(grid), rise, out=np.zeros(rise.size), where=rise > 0)
        self._steep = bool(np.isinf(slope).any())
        self._at = np.concatenate([cdf[:1], cdf])
        self._fall = np.concatenate([[-0.0], -slope, [-0.0]])
        self._value = np.concatenate([grid[:1], grid])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        shape = np.shape(u)
        u = np.asarray(u, dtype=float).reshape(-1)
        v = np.clip(u, self.cdf[0], self.cdf[-1])
        r = self._index.search(u, v)
        out = self._at[r]
        out -= v
        fall = self._fall[r]
        if self._steep:
            fall[out == 0.0] = -0.0
        out *= fall
        out += self._value[r]
        return out.reshape(shape)


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
    # Keep the knots sorted, as the lookup needs, whatever log_density
    # returns.  The far tails hold flat runs (steps too small to move the
    # running total); the bucket index sends those to np.searchsorted.
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
