"""Monte Carlo cross-validation of analytic order verdicts.

The decision engine in :mod:`lsemix.orders` is exact but conservative: it
reports Ordered/NotOrdered only when a proved condition applies.  This module
supplies the complementary evidence — sampled survival curves, stop-loss
transforms, convex test functionals, and orthant probabilities — so that a
verdict can be checked against simulation, and an Inconclusive pair can at
least be probed.

Design notes
------------
* Both distributions are sampled with common random numbers (the same mixing,
  radial, and spherical draws, via ``sample_coupled``).  The dominance checks
  below compare differences of monotone functionals, so coupling collapses
  most of the Monte Carlo variance; in particular two equal distributions
  produce *identical* samples and can never trigger a false failure.
* Seed streams go by index: stream ``i`` is the ``i``-th child of
  ``SeedSequence(seed)`` (``_stream``); stream 0 is the pilot's, which sets
  automatic grids and payoff thresholds, and stream j + 1 chunk j's.
* One engine, ``_coupled_totals``, samples each chunk once from its stream
  and hands it to the reduce step of every scan of the pass (st, icx, cx
  and orthant) on one of a pool of worker threads, one per usable CPU; each
  scan's partial sums are added in chunk order whichever worker ran it, so
  identical configs give bit-identical estimates on any number of CPUs.  A
  scan is three steps: validate its input, reduce a chunk, finish the
  totals into a result.  ``coupled_pass`` validates every requested scan,
  draws one shared pilot when a grid or the payoff thresholds need it, and
  runs them all in one pass; each ``verify_*`` function is that pass with a
  single scan, and ``lsemix check`` makes one pass for all its Monte Carlo
  blocks, so another battery costs a reduce step, not a second sampling.
  The bytes do not depend on which scans share a pass.  Peak memory is
  about the number of workers times one chunk's working set.  numpy holds
  the interpreter lock between calls, so the workers overlap only while a
  reduce makes few and large calls (see ``_cx_scan``).  The matrix products
  inside a chunk (the projections of ``verify_cx`` and the Cholesky factor
  applied in sampling) go through ``numerics.blocked_matmul``, in row blocks
  that OpenBLAS computes on the worker's own thread: a whole-chunk product
  would start OpenBLAS's threads, which then compete with the workers for
  the same CPUs.
* The st and icx scans make one binned pass over the draws.  Each draw x
  falls in bin k, the number of grid points strictly below it (what
  ``np.searchsorted(grid, x)`` returns), so x > t_j exactly when j < k; no
  sort is needed.  k comes from a bucket index over the grid
  (``numerics._BucketIndex``, built once per scan) in O(1) per draw, and is
  the same index for non-uniform and repeated-point grids.  Per
  bin, ``bincount`` sums the count and the offset x - t_{k-1}; the paired
  differences bin min(x1, x2), and a (G+1) x (G+1) table over the bins of
  (min, max) holds the offsets of the max.  After the pass the bins expand
  to the grid by suffix sums: (x - t_j) = (x - t_{k-1}) + (t_{k-1} - t_j)
  for k > j, and the squared payoff differences expand the same way.  Every
  accumulated term is a sum of nonnegative parts, so no (x - t)^2 expansion
  cancels; an identical pair still gives a difference of exactly zero, and
  the exceedance counts are integers, equal to a direct comparison.  The
  cost is O(N + G^2) for N draws and G grid points; no N x G array is
  formed.
* One pass yields a ``SurvivalCurve`` that carries both paired standard
  errors, so ``lsemix check`` reads the icx verdict off the curve of its st
  scan (``stoploss_dominance``) instead of sampling the pair a second time.
* A dominance failure on a grid is only *confirmed* when the statistical band
  is exceeded at two adjacent grid points; an isolated single-point excursion
  is treated as noise (it is still reported via ``max_violation``).  A
  one-point grid therefore cannot confirm a failure.  Under an ordered pair
  the false-alarm rate is at most about (G - 1)(1 - Phi(c)) for the
  multiplier c: the union bound over the G - 1 adjacent pairs, with each z
  taken as normal.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import LseDistribution, sample_coupled
from .errors import UsageError
from .numerics import _BucketIndex, blocked_matmul

__all__ = [
    "McConfig",
    "SurvivalCurve",
    "DominanceResult",
    "empirical_survival",
    "stop_loss",
    "verify_st",
    "verify_icx",
    "stoploss_dominance",
    "axis_pair_directions",
    "coupled_pass",
    "verify_cx",
    "verify_orthant",
]

DEFAULT_GRID_SIZE = 41
MIN_SAMPLE_COUNT = 10_000
_QUANTILE_RANGE = (0.001, 0.999)
_PILOT_CAP = 50_000
_PAYOFF_QUANTILES = (0.25, 0.5, 0.75)
#: verify_cx sums its one-sided functionals in slabs of at most about this
#: many doubles (1 MiB), whatever the number of directions (``_cx_scan``).
_CX_SLAB_DOUBLES = 2 ** 17
#: verify_cx forms the row max and payoff sums in blocks of this many draws,
#: whose arrays stay in a core's cache.
_CX_TAIL_ROWS = 8192


def _integral(value, name: str) -> int:
    """``value`` as an int; UsageError unless it is an integral number."""
    try:
        integral = int(value)
    except (TypeError, ValueError, OverflowError):
        integral = None
    if integral is None or integral != value:
        raise UsageError(f"{name} must be an integer; got {value!r}")
    return integral


@dataclass(frozen=True)
class McConfig:
    """Settings for one Monte Carlo verification run.

    ``grid=None`` asks for the automatic grid: ``DEFAULT_GRID_SIZE`` equally
    spaced points spanning the pooled 0.1%-99.9% quantile range of a pilot
    sample (the range where tail violations surface).  An explicit grid must
    be nonempty and ascending.

    ``chunk_size`` is the number of coupled draws sampled and reduced at a
    time.  The chunks are the unit of work of the worker threads: each is
    drawn once and reduced by every scan of the pass (``coupled_pass``).  A
    chunk in flight holds its draws and one scan's temporaries at a time,
    a few chunk-length rows per scan plus the cx battery's slab of at most
    ``_CX_SLAB_DOUBLES`` doubles, so peak memory grows with ``chunk_size``
    times the number of usable CPUs, not with the number of scans or cx
    directions.  The estimates depend on ``chunk_size`` (chunk i draws from
    its own stream), never on the number of workers.
    """

    sample_count: int
    seed: int
    grid: tuple[float, ...] | None = None
    confidence_multiplier: float = 3.0
    chunk_size: int = 65_536

    def __post_init__(self) -> None:
        for name in ("sample_count", "seed", "chunk_size"):
            object.__setattr__(self, name, _integral(getattr(self, name), name))
        if self.sample_count < MIN_SAMPLE_COUNT:
            raise UsageError(
                f"sample_count must be an integer >= {MIN_SAMPLE_COUNT} "
                f"for a dominance verdict; got {self.sample_count}"
            )
        if self.seed < 0:
            raise UsageError(f"seed must be nonnegative; got {self.seed}")
        if self.grid is not None:
            grid = tuple(float(t) for t in self.grid)
            if not grid:
                raise UsageError("grid must be nonempty when provided")
            if any(not math.isfinite(t) for t in grid):
                raise UsageError("grid points must be finite")
            if any(b < a for a, b in zip(grid, grid[1:])):
                raise UsageError("grid must be sorted ascending")
            object.__setattr__(self, "grid", grid)
        if not (math.isfinite(self.confidence_multiplier) and self.confidence_multiplier > 0):
            raise UsageError("confidence_multiplier must be positive")
        if self.chunk_size < 1_000:
            raise UsageError("chunk_size must be at least 1000")


@dataclass(frozen=True)
class SurvivalCurve:
    """Per-grid-point survival and stop-loss estimates for the two laws.

    ``survival_diff_se`` and ``stoploss_diff_se`` are the standard errors of
    the paired differences survival_1 - survival_2 and stoploss_1 -
    stoploss_2 under the coupling; the st and icx verdicts are read off them.
    """

    t: np.ndarray
    survival_1: np.ndarray
    survival_2: np.ndarray
    se_1: np.ndarray
    se_2: np.ndarray
    stoploss_1: np.ndarray
    stoploss_2: np.ndarray
    survival_diff_se: np.ndarray
    stoploss_diff_se: np.ndarray

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class DominanceResult:
    """Outcome of one dominance scan.

    ``max_violation`` holds the largest observed excess of the left estimate
    over the right (in the units of the compared statistic), taken at the
    point with the largest violation z-score; ``violation_point`` is that
    evaluation point when the excess is positive (``None`` otherwise; the
    orthant check stores a corner tuple there).  When a ``passed`` run still
    shows a positive ``max_violation``, it was an isolated single-point
    excursion suppressed by the adjacency rule.
    """

    passed: bool
    max_violation: float
    violation_point: float | tuple[float, ...] | None
    standard_error_at_violation: float
    curve: SurvivalCurve | None = field(default=None, repr=False)


# --------------------------------------------------------------------------
# Plain estimators on raw draws


def _as_draws(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size == 0:
        raise UsageError("samples must be nonempty")
    if not np.all(np.isfinite(x)):
        raise UsageError("samples must be finite")
    return x


def empirical_survival(samples, grid) -> list[tuple[float, float, float]]:
    """Fraction of draws exceeding each grid point, with binomial errors.

    Returns ``[(t, p_hat, se), ...]`` where ``se = sqrt(p_hat(1-p_hat)/N)``.
    """
    x = _as_draws(samples)
    out = []
    n = x.size
    for t in np.asarray(grid, dtype=float).reshape(-1):
        p = float(np.mean(x > t))
        out.append((float(t), p, math.sqrt(p * (1.0 - p) / n)))
    return out


def stop_loss(samples, t: float) -> tuple[float, float]:
    """Mean of (x - t)_+ with its sample standard error."""
    x = _as_draws(samples)
    payoff = np.maximum(x - float(t), 0.0)
    est = float(payoff.mean())
    if x.size < 2:
        return est, 0.0
    return est, float(payoff.std(ddof=1) / math.sqrt(x.size))


# --------------------------------------------------------------------------
# The Monte Carlo engine: seed streams, pilot, coupled chunk totals


def _stream(cfg: McConfig, i: int) -> np.random.Generator:
    """Generator of seed stream ``i``: the ``i``-th child of
    ``SeedSequence(cfg.seed)``, as ``spawn`` would return it.  Stream 0 is
    the pilot's and stream j + 1 chunk j's, so estimates do not depend on how
    the chunks are scheduled across workers."""
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _pilot(d1: LseDistribution, d2: LseDistribution, cfg: McConfig) -> np.ndarray:
    """The pooled pilot draws of both laws (stream 0), for automatic grids
    and thresholds."""
    y1, y2 = sample_coupled(d1, d2, _stream(cfg, 0), min(cfg.sample_count, _PILOT_CAP))
    return np.concatenate([y1.ravel(), y2.ravel()])


def _coupled_totals(d1: LseDistribution, d2: LseDistribution, cfg: McConfig, *reducers) -> list[list[np.ndarray]]:
    """Totals over the sample budget of the arrays each of ``reducers``
    returns for each chunk of coupled draws: one list of totals per reducer.

    Chunk j holds ``cfg.chunk_size`` draws (the last one the rest) from
    stream j + 1; it is sampled once and handed to every reducer on one of a
    pool of worker threads, one per usable CPU.  The pool lives for one call,
    so a forked child inherits no pool.  numpy's samplers, ufuncs, casts,
    integer-array gathers and ``searchsorted`` release the interpreter lock,
    so the chunks do run side by side.  An exception in one chunk cancels
    the chunks not yet started and propagates unchanged.  Each chunk's
    arrays are added to zeros in chunk order, so every float sum is the one
    a serial loop forms.
    """
    sizes = [min(cfg.chunk_size, cfg.sample_count - start)
             for start in range(0, cfg.sample_count, cfg.chunk_size)]

    def chunk(j):
        x1, x2 = sample_coupled(d1, d2, _stream(cfg, j + 1), sizes[j])
        return [reduce(x1, x2) for reduce in reducers]

    workers = min(_worker_count(), len(sizes))
    if workers <= 1:
        partials = list(map(chunk, range(len(sizes))))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(chunk, range(len(sizes))))
    totals = [[np.zeros_like(value) for value in part] for part in partials[0]]
    for partial in partials:
        for scan_totals, part in zip(totals, partial):
            for total, value in zip(scan_totals, part):
                total += value
    return totals


def _auto_grid(pooled: np.ndarray) -> np.ndarray:
    lo, hi = np.quantile(pooled, _QUANTILE_RANGE)
    if not hi - lo > 0:
        lo, hi = lo - 1.0, hi + 1.0
    return np.linspace(lo, hi, DEFAULT_GRID_SIZE)


def _points(d1: LseDistribution, d2: LseDistribution, values, name: str) -> np.ndarray:
    """``values`` as a nonempty finite (count, dim) array of points in the
    pair's dimension; UsageError otherwise."""
    if d1.dim != d2.dim:
        raise UsageError("dimensions must match")
    pts = np.atleast_2d(np.asarray(values, dtype=float))
    if pts.shape[1] != d1.dim:
        raise UsageError(f"{name} must have {d1.dim} columns; got {pts.shape}")
    if pts.shape[0] == 0 or not np.all(np.isfinite(pts)):
        raise UsageError(f"{name} must be a nonempty finite array")
    return pts


def _se(mean: np.ndarray, squares: np.ndarray, n: float) -> np.ndarray:
    """Standard error of a paired mean from its value and the sum of squares
    of its ``n`` terms."""
    return np.sqrt(np.clip(squares / n - np.square(mean), 0.0, None) / n)


def _indicator_se(p1: np.ndarray, p2: np.ndarray, p12: np.ndarray, n: float) -> np.ndarray:
    """Standard error of a paired indicator difference with marginal rates
    ``p1``, ``p2`` and joint rate ``p12``: var = p1 + p2 - 2 p12 - (p1 - p2)^2."""
    return np.sqrt(np.clip(p1 + p2 - 2.0 * p12 - np.square(p1 - p2), 0.0, None) / n)


def _summarize(
    points, diff: np.ndarray, se: np.ndarray, multiplier: float, *, adjacency: bool,
    curve: SurvivalCurve | None = None,
) -> DominanceResult:
    # se == 0 with diff > 0 is a certain violation; encode as a huge z.
    z = diff / np.maximum(se, 1e-300)
    flagged = z > multiplier
    if adjacency:
        flagged = flagged[:-1] & flagged[1:]
    confirmed = bool(np.any(flagged))
    j = int(np.argmax(z))
    max_violation = float(diff[j])
    point = points[j] if max_violation > 0 else None
    return DominanceResult(
        passed=not confirmed,
        max_violation=max_violation,
        violation_point=point,
        standard_error_at_violation=float(se[j]),
        curve=curve,
    )


# --------------------------------------------------------------------------
# The scans.  Each is built from its checked input as a pair (reduce, finish):
# ``reduce(x1, x2)`` turns one chunk of coupled draws into the scan's partial
# sums, and ``finish`` turns their totals into the scan's result.


def _require_univariate(d1: LseDistribution, d2: LseDistribution) -> None:
    if d1.dim != 1 or d2.dim != 1:
        raise UsageError(
            "dominance scans are univariate; project multivariate pairs first"
        )


def _survival_scan(grid: np.ndarray, cfg: McConfig):
    """The st scan on ``grid``: one binned pass over the draws whose bins
    hold everything the survival and stop-loss dominance checks need (see
    the design notes above).  ``finish`` gives the st result, which carries
    the curve."""
    bins = grid.size + 1
    # floor[k] = t_{k-1}, the grid point below bin k; bin 0 is never read.
    floor = np.concatenate([grid[:1], grid])
    binning = _BucketIndex(grid)

    def reduce(y1, y2):
        x1, x2 = y1.ravel(), y2.ravel()
        k1 = binning(x1)
        k2 = binning(x2)
        off1 = x1 - floor[k1]
        off2 = x2 - floor[k2]
        low = np.minimum(k1, k2)
        cell = low * bins + np.maximum(k1, k2)
        top = np.where(x1 >= x2, off1, off2)
        # Per bin: counts, offset sums, the pairs' joint count and squared
        # gaps; then the (bin of min(x1, x2), bin of max(x1, x2)) table of
        # the max's offset: counts, sums and squares.
        return (
            np.stack([np.bincount(k1, minlength=bins), np.bincount(k2, minlength=bins)]),
            np.stack([np.bincount(k1, off1, bins), np.bincount(k2, off2, bins)]),
            np.bincount(low, minlength=bins),
            np.bincount(low, np.square(x1 - x2), bins),
            np.bincount(cell, minlength=bins * bins),
            np.bincount(cell, top, bins * bins),
            np.bincount(cell, np.square(top), bins * bins),
        )

    def finish(counts, sums, joint, both_sq, split_counts, split_sums, split_squares):
        # Expand to the grid.  Bin i + 1 lies above t_j exactly when i >= j,
        # and its draws exceed t_j by their offset plus gap[j, i] = t_i - t_j.
        above = np.triu(np.ones((grid.size, grid.size), dtype=bool))
        gap = np.where(above, grid[None, :] - grid[:, None], 0.0)
        exceed = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1][:, 1:]
        joint = np.cumsum(joint[::-1])[::-1][1:]
        sl_sums = np.where(above, sums[:, None, 1:] + gap * counts[:, None, 1:], 0.0).sum(axis=-1)
        # Paired d = (x1 - t)+ - (x2 - t)+.  Where min(x1, x2) > t_j, d^2 is
        # (x1 - x2)^2; where only the max exceeds t_j (bin of the min <= j <
        # bin of the max), d^2 = (top + gap)^2, gathered over the min's bins
        # <= j.
        c, s, q = (np.cumsum(a.reshape(bins, bins), axis=0)[:-1, 1:]
                   for a in (split_counts, split_sums, split_squares))
        sld_sq = np.where(above, both_sq[1:] + q + gap * (2.0 * s + gap * c), 0.0).sum(axis=-1)

        n = float(cfg.sample_count)
        p1, p2, p12 = exceed[0] / n, exceed[1] / n, joint / n
        sl_mean = sl_sums / n
        curve = SurvivalCurve(
            t=grid,
            survival_1=p1,
            survival_2=p2,
            se_1=np.sqrt(p1 * (1.0 - p1) / n),
            se_2=np.sqrt(p2 * (1.0 - p2) / n),
            stoploss_1=sl_mean[0],
            stoploss_2=sl_mean[1],
            survival_diff_se=_indicator_se(p1, p2, p12, n),
            stoploss_diff_se=_se(sl_mean[0] - sl_mean[1], sld_sq, n),
        )
        return _summarize(
            curve.t, curve.survival_1 - curve.survival_2, curve.survival_diff_se,
            cfg.confidence_multiplier, adjacency=True, curve=curve,
        )

    return reduce, finish


def stoploss_dominance(curve: SurvivalCurve, multiplier: float) -> DominanceResult:
    """The stop-loss (icx) verdict of ``verify_icx``, read off a curve that a
    scan has already produced, such as ``verify_st(...).curve``: one pass
    then answers both st and icx."""
    return _summarize(
        curve.t, curve.stoploss_1 - curve.stoploss_2, curve.stoploss_diff_se,
        multiplier, adjacency=True, curve=curve,
    )


def _row_max(x: np.ndarray, out: np.ndarray) -> None:
    """``x.max(axis=1)`` into ``out``, taken column by column (exact in any
    order)."""
    np.copyto(out, x[:, 0])
    for j in range(1, x.shape[1]):
        np.maximum(out, x[:, j], out=out)


def _payoff_sums(x: np.ndarray, thresholds: np.ndarray, out: np.ndarray, part: np.ndarray) -> None:
    """``np.maximum(x - c, 0.0).sum(axis=1)`` for each threshold c, bit for
    bit, into the rows of ``out``; ``part`` is scratch of the same shape.
    numpy sums a row shorter than 8 in order, so there the columns of x are
    added one by one; longer rows it sums pairwise, so those keep
    ``.sum(axis=1)``."""
    if x.shape[1] >= 8:
        for row, c in zip(out, thresholds):
            np.maximum(x - c, 0.0).sum(axis=1, out=row)
        return
    np.maximum(np.subtract(x[:, 0], thresholds[:, None], out=out), 0.0, out=out)
    for i in range(1, x.shape[1]):
        out += np.maximum(np.subtract(x[:, i], thresholds[:, None], out=part), 0.0, out=part)


def axis_pair_directions(n: int, signed: bool) -> np.ndarray:
    """Axis vectors and the normalized pair sums (and, signed, differences)
    e_i +- e_j, i < j, one per row: n^2 rows signed, n(n+1)/2 unsigned."""
    eye = np.eye(n)
    directions = list(eye)
    for i in range(n):
        for j in range(i + 1, n):
            directions.append((eye[i] + eye[j]) / math.sqrt(2.0))
            if signed:
                directions.append((eye[i] - eye[j]) / math.sqrt(2.0))
    return np.array(directions)


def _cx_scan(dirs: np.ndarray, thresholds: np.ndarray, cfg: McConfig):
    """The cx battery of ``verify_cx`` along the rows of ``dirs``.

    A chunk's m = 2k + 1 + len(thresholds) one-sided functionals, (a_j'x)^2
    and |a_j'x| per direction, the row max and one payoff sum per threshold,
    are summed a slab of rows at a time.  The slab, of at most about
    ``_CX_SLAB_DOUBLES`` doubles, has two planes of m columns, the
    functionals and their squares, and row 0 of each plane holds its
    running column sums.  numpy sums the rows of a block at least two
    columns wide in order, so the slab's sum over its rows carries each
    column's sum on in draw order: the bytes of one (chunk, m) block.  Each
    plane's columns are contiguous, so the squares are formed in one pass.

    The row max and the payoff sums are formed in blocks of
    ``_CX_TAIL_ROWS`` draws, a column of x at a time, and copied into each
    slab.  numpy holds the interpreter lock between calls, so two workers
    run side by side only while the calls are few and large: the
    per-slab work is ten calls.  The projections are formed per slab, by
    gemm, whose elements do not depend on where the rows are split; a slab
    of one row would go to gemv, so a lone last row joins the slab before
    it.  A lone direction, which numpy always projects by gemv, whose
    rounding does depend on the split, is projected once per chunk.  The
    mean block stays a (chunk, n) block of its own: at n = 1 it is a lone
    column, which numpy sums pairwise.
    """
    k = dirs.shape[0]
    m = 2 * k + 1 + thresholds.size

    def reduce(x1, x2):
        size = x1.shape[0]
        rows = max(2, _CX_SLAB_DOUBLES // (2 * m) - 1)
        stops = list(range(rows, size, rows))
        if stops and size - stops[-1] == 1:
            stops.pop()
        # The row max and the payoff sums, one row each, formed a block of
        # draws at a time.
        tail = np.empty((1 + thresholds.size, size))
        block = min(size, _CX_TAIL_ROWS)
        other = np.empty((1 + thresholds.size, block))
        scratch = np.empty((thresholds.size, block))
        for lo in range(0, size, block):
            hi = min(lo + block, size)
            mine, theirs, temp = tail[:, lo:hi], other[:, :hi - lo], scratch[:, :hi - lo]
            _row_max(x1[lo:hi], mine[0])
            _payoff_sums(x1[lo:hi], thresholds, mine[1:], temp)
            _row_max(x2[lo:hi], theirs[0])
            _payoff_sums(x2[lo:hi], thresholds, theirs[1:], temp)
            mine -= theirs
        if k == 1:
            whole = np.stack([np.matmul(x1, dirs.T), np.matmul(x2, dirs.T)])
        # Buffers for this call alone (two workers reduce chunks at once),
        # reused by every slab: the slab, with one spare row for a joined
        # lone row, and the projections and their squares or magnitudes.
        height = min(rows + 1, size)
        slab = np.zeros((2, height + 1, m))
        proj = np.empty((2, height, k))
        spare = np.empty((2, height, k))
        start = 0
        for stop in stops + [size]:
            r = stop - start
            value = slab[0, 1:r + 1]
            if k == 1:
                both = whole[:, start:stop]
            else:
                both = proj[:, :r]
                blocked_matmul(x1[start:stop], dirs.T, out=both[0])
                blocked_matmul(x2[start:stop], dirs.T, out=both[1])
            part = np.square(both, out=spare[:, :r])
            np.subtract(part[0], part[1], out=value[:, :k])
            np.abs(both, out=part)
            np.subtract(part[0], part[1], out=value[:, k:2 * k])
            np.copyto(value[:, 2 * k:].T, tail[:, start:stop])
            np.square(value, out=slab[1, 1:r + 1])
            slab[:, 0] = slab[:, :r + 1].sum(axis=1)
            start = stop
        carried = slab[:, 0].copy()
        gaps = x1 - x2
        return carried[0], carried[1], gaps.sum(axis=0), np.square(gaps, out=gaps).sum(axis=0)

    def finish(sums, squares, mean_sums, mean_squares):
        n = float(cfg.sample_count)
        diff = np.concatenate([sums, mean_sums]) / n
        se = _se(diff, np.concatenate([squares, mean_squares]), n)
        np.abs(diff[m:], out=diff[m:])  # the mean checks are two-sided
        return _summarize(np.zeros(diff.size), diff, se, cfg.confidence_multiplier, adjacency=False)

    return reduce, finish


def _orthant_scan(pts: np.ndarray, cfg: McConfig):
    """The orthant scan of ``verify_orthant`` at the corners ``pts``."""

    def reduce(x1, x2):
        # One (draws, corners) comparison per coordinate: no 3-D temporary.
        e1 = x1[:, :1] > pts[:, 0]
        e2 = x2[:, :1] > pts[:, 0]
        for i in range(1, pts.shape[1]):
            e1 &= x1[:, i:i + 1] > pts[:, i]
            e2 &= x2[:, i:i + 1] > pts[:, i]
        return e1.sum(axis=0), e2.sum(axis=0), (e1 & e2).sum(axis=0)

    def finish(exceed1, exceed2, joint):
        n = float(cfg.sample_count)
        p1, p2 = exceed1 / n, exceed2 / n
        se = _indicator_se(p1, p2, joint / n, n)
        points = [tuple(float(v) for v in row) for row in pts]
        return _summarize(points, p1 - p2, se, cfg.confidence_multiplier, adjacency=False)

    return reduce, finish


# --------------------------------------------------------------------------
# One coupled pass for every scan


def coupled_pass(
    d1: LseDistribution, d2: LseDistribution, cfg: McConfig, *,
    survival: bool = False, directions=None, corners=None,
) -> dict[str, DominanceResult]:
    """Run every requested scan in one coupled pass over the sample budget.

    ``survival`` asks for the st and icx scans of a univariate pair (results
    ``"st"`` and ``"icx"``, both carrying the curve), ``directions`` for the
    cx battery (``"cx"``) and ``corners`` for the orthant scan
    (``"orthant"``).  Every input is checked before anything is drawn; one
    pilot is drawn when the automatic grid or the cx thresholds need it, and
    each chunk is then drawn once and handed to every scan.  Each result is
    the one the scan's own ``verify_*`` call gives, bit for bit.
    """
    if survival:
        _require_univariate(d1, d2)
    if directions is not None:
        dirs = _points(d1, d2, directions, "directions")
        if np.any(np.linalg.norm(dirs, axis=1) <= 0):
            raise UsageError("directions must be nonzero")
    if corners is not None:
        pts = _points(d1, d2, corners, "corners")
    pooled = None
    if directions is not None or (survival and cfg.grid is None):
        pooled = _pilot(d1, d2, cfg)
    scans = {}
    if survival:
        grid = _auto_grid(pooled) if cfg.grid is None else np.asarray(cfg.grid, dtype=float)
        scans["st"] = _survival_scan(grid, cfg)
    if directions is not None:
        scans["cx"] = _cx_scan(dirs, np.quantile(pooled, _PAYOFF_QUANTILES), cfg)
    if corners is not None:
        scans["orthant"] = _orthant_scan(pts, cfg)
    del pooled  # the pilot's draws are not held through the pass
    if not scans:
        return {}
    totals = _coupled_totals(d1, d2, cfg, *(reduce for reduce, _ in scans.values()))
    results = {name: finish(*scan_totals)
               for (name, (_, finish)), scan_totals in zip(scans.items(), totals)}
    if survival:
        results["icx"] = stoploss_dominance(results["st"].curve, cfg.confidence_multiplier)
    return results


def verify_st(d1: LseDistribution, d2: LseDistribution, cfg: McConfig) -> DominanceResult:
    """Check survival dominance F_bar_1(t) <= F_bar_2(t) across the grid."""
    return coupled_pass(d1, d2, cfg, survival=True)["st"]


def verify_icx(d1: LseDistribution, d2: LseDistribution, cfg: McConfig) -> DominanceResult:
    """Check stop-loss dominance E(Y1 - t)_+ <= E(Y2 - t)_+ across the grid."""
    return coupled_pass(d1, d2, cfg, survival=True)["icx"]


def verify_cx(d1: LseDistribution, d2: LseDistribution, cfg: McConfig, directions) -> DominanceResult:
    """Check E f(Y1) <= E f(Y2) for a battery of convex test functions.

    The battery contains, for every supplied direction ``a``, the functionals
    ``(a'x)^2`` and ``|a'x|``; plus ``max_i x_i`` and ``sum_i (x_i - c)_+`` at
    three pooled payoff thresholds; plus a two-sided mean-equality check per
    coordinate (linear functions and their negatives are convex).  Every
    functional is a single paired comparison, so any band exceedance fails.
    For k directions in dimension n and the multiplier c, a pair at the
    boundary (every E f equal) fails with probability at most about
    (2k + 4 + 2n)(1 - Phi(c)): the union bound over the 2k + 4 one-sided
    functionals and the n two-sided mean checks, with each z taken as
    normal.  That is 8.6 % for k = 25 signed axis-pair directions at n = 5
    and c = 3.

    Memory, per worker: besides the chunk's draws and their (chunk, n)
    differences, four chunk-length rows for the row max and the payoff
    sums, one slab of at most about ``_CX_SLAB_DOUBLES`` doubles (1 MiB)
    and the projections of one slab, whatever the number of directions; a
    lone direction is projected for the whole chunk at once.
    """
    return coupled_pass(d1, d2, cfg, directions=directions)["cx"]


def verify_orthant(d1: LseDistribution, d2: LseDistribution, cfg: McConfig, corners) -> DominanceResult:
    """Check P(Y1 > t) <= P(Y2 > t) at each supplied corner point ``t``.

    Corners are unordered, so the adjacency rule does not apply: any corner
    exceeding the band fails the scan.  ``violation_point`` holds the corner
    as a tuple.  For m corners and the multiplier c, a pair at the boundary
    (equal orthant probabilities) fails with probability at most about
    m (1 - Phi(c)): the union bound over the corners, with each z taken as
    normal.
    """
    return coupled_pass(d1, d2, cfg, corners=corners)["orthant"]
