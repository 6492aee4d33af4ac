"""Tests for the Monte Carlo verification module.

Statistical assertions use 3-standard-error tolerances or constructions
where common-random-number coupling makes the comparison exact.
"""

import dataclasses
import math
import multiprocessing
import re
import sys

import numpy as np
import pytest

from lsemix.distributions import LseDistribution
from scipy.stats import binom, norm

from lsemix import empirical
from lsemix.distributions import sample_coupled
from lsemix.empirical import (
    DEFAULT_GRID_SIZE,
    DominanceResult,
    McConfig,
    SurvivalCurve,
    _auto_grid,
    _pilot,
    _require_univariate,
    _stream,
    axis_pair_directions,
    coupled_pass,
    empirical_survival,
    stop_loss,
    stoploss_dominance,
    verify_cx,
    verify_icx,
    verify_orthant,
    verify_st,
)
from lsemix.errors import UsageError
from lsemix.generators import DensityGenerator, GeneratorFamily
from lsemix.mixing import AlphaBetaMap, BetaLambdaOne, Degenerate, DiscreteWeighted
from lsemix.orders import OrderKind, Verdict, check_order

NORMAL = DensityGenerator(GeneratorFamily.NORMAL)
CAUCHY = DensityGenerator(GeneratorFamily.CAUCHY)


def mk(mu, sigma, delta=None, ab=None, mix=None, gen=NORMAL):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    n = mu.size
    if delta is None:
        delta = np.zeros(n)
    return LseDistribution(mu, np.asarray(sigma, float).reshape(n, n),
                           np.atleast_1d(np.asarray(delta, float)),
                           gen, ab or AlphaBetaMap.plain(),
                           mix or Degenerate(1.0))


def ghss(mu, sigma, delta, lam=3.0):
    return mk(mu, sigma, delta, ab=AlphaBetaMap.skew_slash(),
              mix=BetaLambdaOne(lam))


CFG = McConfig(sample_count=100_000, seed=20240817)


# --- configuration validation ---------------------------------------------------


def test_config_rejects_small_sample_count():
    with pytest.raises(UsageError):
        McConfig(sample_count=5_000, seed=1)


def test_config_rejects_bad_grids():
    with pytest.raises(UsageError):
        McConfig(sample_count=10_000, seed=1, grid=())
    with pytest.raises(UsageError):
        McConfig(sample_count=10_000, seed=1, grid=(1.0, 0.5))
    with pytest.raises(UsageError):
        McConfig(sample_count=10_000, seed=1, grid=(0.0, float("nan")))


def test_config_stores_integral_values_as_int():
    cfg = McConfig(sample_count=1e5, seed=1.0, chunk_size=20_000.0)
    assert (cfg.sample_count, cfg.seed, cfg.chunk_size) == (100_000, 1, 20_000)
    assert all(type(v) is int for v in (cfg.sample_count, cfg.seed, cfg.chunk_size))


@pytest.mark.parametrize("field, value", [
    ("chunk_size", 20_000.5), ("sample_count", 10_000.5), ("seed", 1.5),
    ("seed", float("nan")), ("sample_count", float("inf")), ("seed", -3)])
def test_config_rejects_non_integral_values_and_negative_seeds(field, value):
    with pytest.raises(UsageError, match=field):
        McConfig(**{"sample_count": 10_000, "seed": 1, field: value})


def test_config_rejects_bad_multiplier():
    with pytest.raises(UsageError):
        McConfig(sample_count=10_000, seed=1, confidence_multiplier=0.0)


# --- raw estimators ---------------------------------------------------------------


def test_survival_constant_draws():
    rows = empirical_survival(np.full(100, 5.0), [0.0])
    assert rows == [(0.0, 1.0, 0.0)]


def test_survival_extreme_grid_points():
    x = np.array([1.0, 2.0, 3.0])
    rows = empirical_survival(x, [0.5, 3.5])
    assert rows[0][1] == 1.0
    assert rows[1][1] == 0.0


def test_survival_standard_normal_half():
    rng = np.random.default_rng(3)
    x = rng.normal(size=100_000)
    t, p, se = empirical_survival(x, [0.0])[0]
    assert abs(p - 0.5) <= 3 * se


def test_survival_binomial_standard_error():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    _, p, se = empirical_survival(x, [1.5])[0]
    assert p == 0.5
    assert se == pytest.approx(math.sqrt(0.25 / 4))


def test_stop_loss_far_left_threshold():
    rng = np.random.default_rng(4)
    x = rng.normal(size=10_000)
    t = x.min() - 10.0
    est, _ = stop_loss(x, t)
    assert est == pytest.approx(x.mean() - t, rel=1e-12)


def test_stop_loss_above_max():
    x = np.array([1.0, 2.0])
    assert stop_loss(x, 5.0) == (0.0, 0.0)


def test_stop_loss_standard_normal_at_zero():
    rng = np.random.default_rng(5)
    x = rng.normal(size=1_000_000)
    est, se = stop_loss(x, 0.0)
    assert abs(est - 1.0 / math.sqrt(2.0 * math.pi)) <= 3 * se


def test_estimators_reject_bad_samples():
    with pytest.raises(UsageError):
        empirical_survival([], [0.0])
    with pytest.raises(UsageError):
        stop_loss([1.0, float("inf")], 0.0)


# --- survival dominance ------------------------------------------------------------


def test_verify_st_identical_pair_passes():
    d = mk(0.3, [[1.7]])
    r = verify_st(d, d, CFG)
    assert r.passed
    # coupling makes the samples identical, so the difference is exactly zero
    assert r.max_violation == 0.0
    assert r.violation_point is None


def test_verify_st_location_ordered_pair_passes():
    r = verify_st(ghss(0.0, [[1.0]], [0.2]), ghss(0.3, [[1.0]], [0.5]), CFG)
    assert r.passed
    assert isinstance(r.curve, SurvivalCurve)
    assert r.curve.t.size == DEFAULT_GRID_SIZE


def test_verify_st_scale_mismatch_fails_in_tail():
    r = verify_st(mk(0.0, [[2.0]]), mk(0.0, [[1.0]]), CFG)
    assert not r.passed
    assert r.violation_point is not None
    assert r.max_violation > 3 * r.standard_error_at_violation
    # the survival functions cross; the wide distribution exceeds in a tail
    assert abs(r.violation_point) > 0.3


def test_verify_st_curve_is_consistent():
    r = verify_st(mk(0.0, [[1.0]]), mk(0.2, [[1.0]]), CFG)
    c = r.curve
    assert np.all(np.diff(c.t) > 0)
    assert np.all((c.survival_1 >= 0) & (c.survival_1 <= 1))
    assert np.all(np.diff(c.survival_1) <= 0)  # survival is nonincreasing
    assert np.all(c.stoploss_1 >= 0)
    assert np.all(np.diff(c.stoploss_1) <= 1e-12)
    with pytest.raises(ValueError):
        c.survival_1[0] = 2.0  # read-only


def test_verify_st_requires_univariate():
    d = mk([0.0, 0.0], np.eye(2))
    with pytest.raises(UsageError):
        verify_st(d, d, CFG)


def test_verify_st_explicit_grid_respected():
    cfg = McConfig(sample_count=20_000, seed=9, grid=(-1.0, 0.0, 1.0))
    r = verify_st(mk(0.0, [[1.0]]), mk(0.1, [[1.0]]), cfg)
    assert np.array_equal(r.curve.t, [-1.0, 0.0, 1.0])


def test_single_point_grid_never_confirms():
    # a genuine violation flagged at one isolated point is suppressed by the
    # adjacency rule; the excursion is still reported
    cfg = McConfig(sample_count=50_000, seed=11, grid=(2.5,))
    r = verify_st(mk(0.0, [[4.0]]), mk(0.0, [[1.0]]), cfg)
    assert r.passed
    assert r.max_violation > 3 * r.standard_error_at_violation


# --- stop-loss dominance -------------------------------------------------------------


def test_verify_icx_identical_pair_passes():
    d = ghss(0.0, [[1.0]], [0.4])
    r = verify_icx(d, d, CFG)
    assert r.passed and r.max_violation == 0.0


def test_verify_icx_dilation_passes():
    r = verify_icx(mk(0.0, [[1.0]]), mk(0.3, [[2.0]]), CFG)
    assert r.passed


def test_verify_icx_scale_shrink_fails_at_large_t():
    r = verify_icx(mk(0.0, [[2.0]]), mk(0.3, [[1.0]]), CFG)
    assert not r.passed
    assert r.violation_point is not None
    assert r.violation_point > 0.3  # violation surfaces in the upper tail


def test_stoploss_dominance_of_st_curve_matches_verify_icx():
    d1, d2 = mk(0.0, [[2.0]]), mk(0.3, [[1.0]])
    shared = stoploss_dominance(verify_st(d1, d2, CFG).curve, CFG.confidence_multiplier)
    alone = verify_icx(d1, d2, CFG)
    assert not shared.passed and not alone.passed
    assert shared.max_violation == alone.max_violation
    assert shared.violation_point == alone.violation_point
    assert shared.standard_error_at_violation == alone.standard_error_at_violation


# --- the binned scan against the N x G broadcast it replaced ---------------------------


def chunk_streams(cfg):
    """(generator, size) of every chunk, in chunk order: chunk j draws
    cfg.chunk_size values, the last one the rest, from stream j + 1."""
    starts = range(0, cfg.sample_count, cfg.chunk_size)
    return [(_stream(cfg, j + 1), min(cfg.chunk_size, cfg.sample_count - start))
            for j, start in enumerate(starts)]


def broadcast_scan(d1, d2, cfg):
    """Reference: every chunk broadcast against the whole grid, O(N G)."""
    _require_univariate(d1, d2)
    if cfg.grid is not None:
        grid = np.asarray(cfg.grid, dtype=float)
    else:
        grid = _auto_grid(_pilot(d1, d2, cfg))
    g = grid[None, :]

    exceed1 = np.zeros(grid.size, dtype=np.int64)
    exceed2 = np.zeros(grid.size, dtype=np.int64)
    joint = np.zeros(grid.size, dtype=np.int64)
    sl_sums = np.zeros((2, grid.size))
    sld_sum = np.zeros(grid.size)
    sld_sq = np.zeros(grid.size)

    for rng, size in chunk_streams(cfg):
        y1, y2 = sample_coupled(d1, d2, rng, size)
        x1, x2 = y1[:, 0], y2[:, 0]
        e1 = x1[:, None] > g
        e2 = x2[:, None] > g
        exceed1 += e1.sum(axis=0)
        exceed2 += e2.sum(axis=0)
        joint += (e1 & e2).sum(axis=0)
        pay1 = np.maximum(x1[:, None] - g, 0.0)
        pay2 = np.maximum(x2[:, None] - g, 0.0)
        sl_sums[0] += pay1.sum(axis=0)
        sl_sums[1] += pay2.sum(axis=0)
        d = pay1 - pay2
        sld_sum += d.sum(axis=0)
        sld_sq += np.square(d).sum(axis=0)

    n = float(cfg.sample_count)
    p1, p2, p12 = exceed1 / n, exceed2 / n, joint / n
    surv_var = np.clip(p1 + p2 - 2.0 * p12 - np.square(p1 - p2), 0.0, None)
    sld_mean = sld_sum / n
    sld_var = np.clip(sld_sq / n - np.square(sld_mean), 0.0, None)
    return SurvivalCurve(
        t=grid,
        survival_1=p1,
        survival_2=p2,
        se_1=np.sqrt(p1 * (1.0 - p1) / n),
        se_2=np.sqrt(p2 * (1.0 - p2) / n),
        stoploss_1=sl_sums[0] / n,
        stoploss_2=sl_sums[1] / n,
        survival_diff_se=np.sqrt(surv_var / n),
        stoploss_diff_se=np.sqrt(sld_var / n),
    )


TWO_ATOMS = DiscreteWeighted(((0.5, 0.5), (1.5, 0.5)))


def draws_as_grid(d1, d2, cfg):
    """Grid points taken from the first chunk's draws of both laws."""
    rng, size = chunk_streams(cfg)[0]
    y1, y2 = sample_coupled(d1, d2, rng, size)
    return tuple(np.sort(np.concatenate([y1[:15, 0], y2[:15, 0]])))


def scan_cases():
    cfg = McConfig(sample_count=10_000, seed=31, chunk_size=4_000)
    discrete = (mk(0.0, [[1.0]], [0.5], ab=AlphaBetaMap.location_mixture(), mix=TWO_ATOMS),
                mk(0.1, [[1.2]], [0.8], ab=AlphaBetaMap.location_mixture(), mix=TWO_ATOMS))
    return {
        "normal": (mk(0.0, [[1.0]]), mk(0.2, [[1.5]]), cfg),
        "cauchy": (mk(0.0, [[1.0]], gen=CAUCHY), mk(0.1, [[2.0]], gen=CAUCHY), cfg),
        "offset": (ghss(1e6, [[1.0]], [0.2]), ghss(1e6 + 0.3, [[1.0]], [0.5]), cfg),
        "repeated_grid": (mk(0.0, [[1.0]]), mk(0.2, [[1.5]]),
                          McConfig(sample_count=10_000, seed=32, grid=(-1.0, 0.0, 0.0, 0.5, 2.0))),
        "draws_on_grid": (*discrete, dataclasses.replace(cfg, grid=draws_as_grid(*discrete, cfg))),
    }


@pytest.mark.parametrize("case", sorted(scan_cases()))
def test_binned_scan_matches_broadcast_reference(case):
    d1, d2, cfg = scan_cases()[case]
    got, ref = verify_st(d1, d2, cfg).curve, broadcast_scan(d1, d2, cfg)
    for name in ("t", "survival_1", "survival_2", "se_1", "se_2", "survival_diff_se"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    for name in ("stoploss_1", "stoploss_2", "stoploss_diff_se"):
        np.testing.assert_allclose(getattr(got, name), getattr(ref, name), rtol=1e-9, atol=0,
                                   err_msg=name)


def test_draws_on_grid_case_hits_grid_points():
    d1, d2, cfg = scan_cases()["draws_on_grid"]
    rng, size = chunk_streams(cfg)[0]
    y1, _ = sample_coupled(d1, d2, rng, size)
    assert np.isin(np.asarray(cfg.grid), y1[:, 0]).sum() == 15


@pytest.mark.parametrize("case", sorted(scan_cases()))
def test_bucket_binning_matches_searchsorted(case, monkeypatch):
    # The scan bins through a bucket index; with np.searchsorted in its
    # place every array of the curve must come out bit for bit the same,
    # on repeated grid points and on draws that equal a grid point too.
    d1, d2, cfg = scan_cases()[case]
    got = verify_st(d1, d2, cfg).curve
    monkeypatch.setattr(empirical, "_BucketIndex", lambda grid: lambda x: np.searchsorted(grid, x))
    ref = verify_st(d1, d2, cfg).curve
    for name in SurvivalCurve.__dataclass_fields__:
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


# --- convex functionals ---------------------------------------------------------------


DIRS2 = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]


def test_verify_cx_identical_pair_passes():
    d = mk([0.0, 0.0], np.array([[1.0, 0.3], [0.3, 1.0]]))
    r = verify_cx(d, d, CFG, DIRS2)
    assert r.passed and r.max_violation == 0.0
    assert r.curve is None


def test_verify_cx_psd_growth_passes():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.0, 0.0], np.eye(2) + 0.5 * np.ones((2, 2)))
    assert verify_cx(d1, d2, CFG, DIRS2).passed


def test_verify_cx_mean_shift_fails():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.3, 0.0], np.eye(2))
    r = verify_cx(d1, d2, CFG, DIRS2)
    assert not r.passed
    assert r.max_violation == pytest.approx(0.3, abs=0.05)


def test_verify_cx_detects_reversed_psd():
    d1 = mk([0.0, 0.0], np.eye(2) + 0.5 * np.ones((2, 2)))
    d2 = mk([0.0, 0.0], np.eye(2))
    assert not verify_cx(d1, d2, CFG, DIRS2).passed


# --- orthant probabilities --------------------------------------------------------------


def corr(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


CORNERS = [[0.0, 0.0], [0.5, 0.5], [-0.5, 1.0], [1.0, -1.0]]


def test_verify_orthant_identical_pair_passes():
    d = mk([0.0, 0.0], corr(0.4))
    r = verify_orthant(d, d, CFG, CORNERS)
    assert r.passed and r.max_violation == 0.0


def test_verify_orthant_correlation_increase_passes():
    r = verify_orthant(mk([0.0, 0.0], corr(0.2)), mk([0.0, 0.0], corr(0.6)),
                       CFG, CORNERS)
    assert r.passed


def test_verify_orthant_reversed_fails_at_origin():
    r = verify_orthant(mk([0.0, 0.0], corr(0.6)), mk([0.0, 0.0], corr(0.2)),
                       CFG, [[0.0, 0.0]])
    assert not r.passed
    assert r.violation_point == (0.0, 0.0)


# --- point validation: verify_cx's directions and verify_orthant's corners ------------


POINT_SCANS = {"cx": (verify_cx, "directions"), "orthant": (verify_orthant, "corners")}
#: case: (dimension of the second law, points given to a bivariate first law, message)
BAD_POINTS = {
    "dimension-mismatch": (3, [[1.0, 0.0]], "dimensions must match"),
    "width": (2, [[1.0, 0.0, 0.0]], "{name} must have 2 columns; got (1, 3)"),
    "empty": (2, np.zeros((0, 2)), "{name} must be a nonempty finite array"),
    "non-finite": (2, [[1.0, 0.0], [np.inf, 0.5]], "{name} must be a nonempty finite array"),
    "zero-direction": (2, [[1.0, 0.0], [0.0, 0.0]], "{name} must be nonzero"),
}


@pytest.mark.parametrize("scan, case", [
    (scan, case) for scan in sorted(POINT_SCANS) for case in sorted(BAD_POINTS)
    if not (scan == "orthant" and case == "zero-direction")  # a zero corner is a corner
])
def test_point_validation_messages(scan, case):
    verify, name = POINT_SCANS[scan]
    dim2, points, message = BAD_POINTS[case]
    d1, d2 = mk(np.zeros(2), np.eye(2)), mk(np.zeros(dim2), np.eye(dim2))
    with pytest.raises(UsageError, match=f"^{re.escape(message.format(name=name))}$"):
        verify(d1, d2, CFG, points)


# --- determinism and calibration ------------------------------------------------------


def test_bit_identical_reruns():
    d1, d2 = mk(0.0, [[1.0]]), mk(0.2, [[1.5]])
    a = verify_st(d1, d2, CFG)
    b = verify_st(d1, d2, CFG)
    assert a.passed == b.passed
    assert a.max_violation == b.max_violation
    for name in ("t", "survival_1", "survival_2", "se_1", "se_2",
                 "stoploss_1", "stoploss_2"):
        assert np.array_equal(getattr(a.curve, name), getattr(b.curve, name))


def test_chunking_does_not_depend_on_remainder():
    # an uneven sample count exercises the short final chunk
    cfg = McConfig(sample_count=10_001, seed=3, chunk_size=4_000)
    r = verify_st(mk(0.0, [[1.0]]), mk(0.5, [[1.0]]), cfg)
    assert r.passed


def test_calibration_no_false_failures_under_coupling():
    # coupled streams make d1 = d2 draws identical, so across 100 seeds the
    # false-failure rate is exactly zero (spec allows up to 5%)
    d = mk(0.1, [[2.0]])
    failures = 0
    for seed in range(100):
        cfg = McConfig(sample_count=10_000, seed=seed, chunk_size=10_000)
        if not verify_st(d, d, cfg).passed:
            failures += 1
    assert failures == 0


def boundary_pair(eps):
    """Y2 = Y1 + eps in law, with coupled draws that are not ordered.

    Y1 = W + Z and Y2 = 3 + eps + W - Z with Z = 1 or 2 equally likely:
    both are the mixture (1 + W, 2 + W), so Y1 <=st Y2 and Y1 <=icx Y2, but
    the coupling pairs Z = 1 in Y1 with Z = 2 in Y2, so the paired
    differences are noisy at every grid point."""
    atoms = DiscreteWeighted(((1.0, 0.5), (2.0, 0.5)))
    ab = AlphaBetaMap.location_mixture()
    return (mk(0.0, [[1.0]], [1.0], ab=ab, mix=atoms),
            mk(3.0 + eps, [[1.0]], [-1.0], ab=ab, mix=atoms))


def test_false_alarm_rate_at_the_boundary():
    # A confirmed failure needs two adjacent flagged grid points, so some
    # point j < G - 1 is flagged; under an ordered pair each z_j > 3 has
    # chance at most 1 - Phi(3), and the union bound over those G - 1 points
    # bounds the false-alarm rate.  The failure count over K seeds must stay
    # within the 1e-6 upper quantile of Binomial(K, that bound).
    eps, draws, k = 0.01, 10_000, 200
    d1, d2 = boundary_pair(eps)
    p_alarm = (DEFAULT_GRID_SIZE - 1) * norm.sf(CFG.confidence_multiplier)
    limit = binom.isf(1e-6, k, p_alarm)

    # eps is small enough that the expected z is within 1 at every point
    curve = verify_st(d1, d2, McConfig(sample_count=draws, seed=0)).curve
    t = curve.t[:, None] - np.array([1.0, 2.0])
    survival_gap = 0.5 * (norm.sf(t) - norm.sf(t - eps)).sum(axis=1)

    def stoploss(u):
        return norm.pdf(u) - u * norm.sf(u)

    stoploss_gap = 0.5 * (stoploss(t) - stoploss(t - eps)).sum(axis=1)
    assert np.all(np.abs(survival_gap) < curve.survival_diff_se)
    assert np.all(np.abs(stoploss_gap) < curve.stoploss_diff_se)

    st_failures = icx_failures = 0
    for seed in range(k):
        cfg = McConfig(sample_count=draws, seed=seed)
        st_failures += not verify_st(d1, d2, cfg).passed
        icx_failures += not verify_icx(d1, d2, cfg).passed
    assert st_failures <= limit, (st_failures, limit)
    assert icx_failures <= limit, (icx_failures, limit)


def test_agreement_with_analytic_verdicts():
    pairs = [
        (mk(0.0, [[1.0]]), mk(0.4, [[1.0]])),
        (ghss(0.0, [[1.0]], [0.1]), ghss(0.2, [[1.0]], [0.3])),
    ]
    for d1, d2 in pairs:
        assert check_order(d1, d2, OrderKind.ST).verdict is Verdict.ORDERED
        assert verify_st(d1, d2, CFG).passed
    icx_pairs = [
        (mk(0.0, [[1.0]]), mk(0.2, [[1.8]])),
        (ghss(0.0, [[1.0]], [0.1]), ghss(0.1, [[1.5]], [0.1])),
    ]
    for d1, d2 in icx_pairs:
        assert check_order(d1, d2, OrderKind.ICX).verdict is Verdict.ORDERED
        assert verify_icx(d1, d2, CFG).passed


def test_result_fields_match_types():
    r = verify_st(mk(0.0, [[1.0]]), mk(0.1, [[1.0]]), CFG)
    assert isinstance(r, DominanceResult)
    assert isinstance(r.passed, bool)
    assert isinstance(r.max_violation, float)
    assert isinstance(r.standard_error_at_violation, float)


# --- chunks on worker threads -----------------------------------------------------------


# Three chunks, the last one short.
POOL_CFG = McConfig(sample_count=23_000, seed=99, chunk_size=10_000)


def result_fields(result):
    """Every field of a DominanceResult, its curve's arrays as bytes."""
    fields = dataclasses.asdict(dataclasses.replace(result, curve=None))
    if result.curve is not None:
        for name in SurvivalCurve.__dataclass_fields__:
            fields[name] = getattr(result.curve, name).tobytes()
    return fields


def cx_pair():
    """An n = 5 skewed pair; its projections and Cholesky products are
    row-blocked."""
    sigma = np.eye(5) + 0.2
    return (ghss(np.zeros(5), sigma, np.full(5, 0.2)),
            ghss(np.full(5, 0.05), 1.3 * sigma, np.full(5, 0.3)))


CX_DIRECTIONS = axis_pair_directions(5, signed=True)
TRIVARIATE_CORNERS = [[0.0, 0.0, 0.0], [0.5, -0.5, 0.2], [-1.0, 0.3, 0.8]]


def pooled_results():
    skewed = (ghss(0.0, [[1.0]], 0.2), ghss(0.1, [[1.4]], 0.4))
    bivariate = (mk([0.0, 0.0], corr(0.2)), mk([0.1, 0.0], corr(0.6)))
    sigma3 = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
    trivariate = (mk(np.zeros(3), sigma3), mk([0.1, 0.0, -0.1], 1.2 * sigma3))
    return [
        result_fields(verify_st(*skewed, POOL_CFG)),
        result_fields(verify_icx(*skewed, POOL_CFG)),
        result_fields(verify_orthant(*bivariate, POOL_CFG, CORNERS)),
        result_fields(verify_orthant(*trivariate, POOL_CFG, TRIVARIATE_CORNERS)),
        result_fields(verify_cx(*cx_pair(), POOL_CFG, CX_DIRECTIONS)),
    ]


def test_streams_are_the_spawned_children_of_the_seed(monkeypatch):
    # The golden fixtures rest on this derivation: stream i (_stream) draws
    # what child i of SeedSequence(seed).spawn(chunks + 1) draws.  The pilot
    # is child 0 and chunk j child j + 1; POOL_CFG's last chunk is short.
    d1, d2 = mk([0.0, 0.0], corr(0.2)), mk([0.1, 0.0], corr(0.6))
    children = np.random.SeedSequence(POOL_CFG.seed).spawn(4)
    sizes = (23_000, 10_000, 10_000, 3_000)
    spawned = [sample_coupled(d1, d2, np.random.default_rng(child), size)
               for child, size in zip(children, sizes)]
    pilot = np.concatenate([y.ravel() for y in spawned[0]])
    assert _pilot(d1, d2, POOL_CFG).tobytes() == pilot.tobytes()
    drawn = []

    def record(x1, x2):
        drawn.append((x1, x2))
        return (np.zeros(1),)

    monkeypatch.setattr(empirical, "_worker_count", lambda: 1)
    empirical._coupled_totals(d1, d2, POOL_CFG, record)
    assert len(drawn) == 3
    for j, chunk in enumerate(drawn):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(chunk, spawned[j + 1])), j


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    monkeypatch.setattr(empirical, "_worker_count", lambda: 1)
    serial = pooled_results()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for workers in (2, 3):
            monkeypatch.setattr(empirical, "_worker_count", lambda: workers)
            assert pooled_results() == serial
    finally:
        sys.setswitchinterval(interval)


def one_block_partial(x1, x2, dirs, thresholds):
    """verify_cx's partial sums of one chunk as they were formed before the
    directions were grouped: one (chunk, 2k) block, the (chunk, 4) block of
    the max and the payoffs, and the mean block.  Returns the one-sided sums
    and squares, then the mean block's."""
    size, k = x1.shape[0], dirs.shape[0]
    proj1, proj2 = x1 @ dirs.T, x2 @ dirs.T
    directional = np.empty((size, 2 * k))
    directional[:, :k] = np.square(proj1) - np.square(proj2)
    directional[:, k:] = np.abs(proj1) - np.abs(proj2)
    tail = np.empty((size, 1 + thresholds.size))
    tail[:, 0] = x1.max(axis=1) - x2.max(axis=1)
    for j, c in enumerate(thresholds, start=1):
        tail[:, j] = np.maximum(x1 - c, 0.0).sum(axis=1) - np.maximum(x2 - c, 0.0).sum(axis=1)
    dm = x1 - x2
    return (np.concatenate([directional.sum(axis=0), tail.sum(axis=0)]),
            np.concatenate([np.square(directional).sum(axis=0), np.square(tail).sum(axis=0)]),
            dm.sum(axis=0), np.square(dm).sum(axis=0))


def single_block_cx(d1, d2, cfg, dirs):
    """verify_cx's estimates from ``one_block_partial`` of every chunk."""
    thresholds = np.quantile(_pilot(d1, d2, cfg), (0.25, 0.5, 0.75))
    k = dirs.shape[0]
    sums = np.zeros(2 * k + 1 + thresholds.size)
    sqs = np.zeros_like(sums)
    mean_sum = np.zeros(d1.dim)
    mean_sq = np.zeros(d1.dim)
    for rng, size in chunk_streams(cfg):
        x1, x2 = sample_coupled(d1, d2, rng, size)
        for total, part in zip((sums, sqs, mean_sum, mean_sq), one_block_partial(x1, x2, dirs, thresholds)):
            total += part
    n = float(cfg.sample_count)
    diff = sums / n
    se = np.sqrt(np.clip(sqs / n - np.square(diff), 0.0, None) / n)
    mean_se = np.sqrt(np.clip(mean_sq / n - np.square(mean_sum / n), 0.0, None) / n)
    return np.concatenate([diff, np.abs(mean_sum / n)]), np.concatenate([se, mean_se])


def cx_case(n, k=None):
    """A skewed pair in dimension n and its directions: the n^2 signed axis
    pairs, or k Gaussian ones."""
    sigma = np.eye(n) + 0.2
    d1 = ghss(np.zeros(n), sigma, np.full(n, 0.2))
    d2 = ghss(np.full(n, 0.05), 1.3 * sigma, np.full(n, 0.3))
    if k is None:
        return d1, d2, axis_pair_directions(n, signed=True)
    return d1, d2, np.random.default_rng(n).normal(size=(k, n))


#: (n, k or None for the signed axis pairs, sample count) of each case; the
#: n = 8 and n = 10 payoff rows are summed pairwise, and 20 001 draws leave a
#: last chunk of one draw.
CX_CASES = {
    "n1": (1, None, 23_000),
    "n2": (2, None, 23_000),
    "n3-one-direction": (3, 1, 23_000),
    "axis-pairs": (5, None, 23_000),
    "gaussian-9": (5, 9, 23_000),
    "n8": (8, None, 23_000),
    "n10": (10, 12, 23_000),
    "last-chunk-of-one-draw": (5, None, 20_001),
}


# Slabs of 99 draws leave one row in the last slab of a 10 000-draw chunk.
@pytest.mark.parametrize("slab_rows", [None, 99], ids=["default", "lone-last-row"])
@pytest.mark.parametrize("case", sorted(CX_CASES))
def test_grouped_cx_matches_the_single_block_loop(monkeypatch, slab_rows, case):
    n, k, sample_count = CX_CASES[case]
    d1, d2, dirs = cx_case(n, k)
    if slab_rows is not None:
        one_sided = 2 * dirs.shape[0] + 4
        monkeypatch.setattr(empirical, "_CX_SLAB_DOUBLES", 2 * one_sided * (slab_rows + 1))
    cfg = dataclasses.replace(POOL_CFG, sample_count=sample_count)
    summarized = []
    original = empirical._summarize

    def capture(points, diff, se, *args, **kwargs):
        summarized.append((diff.copy(), se.copy()))
        return original(points, diff, se, *args, **kwargs)

    monkeypatch.setattr(empirical, "_summarize", capture)
    verify_cx(d1, d2, cfg, dirs)
    (diff, se), = summarized
    want_diff, want_se = single_block_cx(d1, d2, cfg, np.asarray(dirs, dtype=float))
    assert diff.tobytes() == want_diff.tobytes()
    assert se.tobytes() == want_se.tobytes()


@pytest.mark.parametrize("size", [1, 2, 5, 64, 1001])
@pytest.mark.parametrize("n, k", [(1, 1), (3, 1), (10, 1), (5, 25), (8, 64)])
def test_cx_slabs_of_two_rows_match_one_block(monkeypatch, n, k, size):
    # Slabs of two rows, so that an odd chunk ends in a lone row, which must
    # join the slab before it; a lone direction must be projected for the
    # whole chunk (at n >= 8 gemv rounds differently on 2-row blocks).  With
    # few rows a last-bit change in one row shows in the sums.
    d1, d2, dirs = cx_case(n, k)
    x1, x2 = sample_coupled(d1, d2, np.random.default_rng(size), size)
    thresholds = np.array([-0.5, 0.0, 0.5])
    monkeypatch.setattr(empirical, "_CX_SLAB_DOUBLES", 3 * 2 * (2 * k + 4))
    reduce, _ = empirical._cx_scan(dirs, thresholds, POOL_CFG)
    got = reduce(x1, x2)
    want = one_block_partial(x1, x2, dirs, thresholds)
    for a, b in zip(got, want):  # + 0.0: a sum of zeros may be -0.0 on one side
        assert (a + 0.0).tobytes() == (b + 0.0).tobytes()


def test_one_pass_serves_every_scan(monkeypatch):
    # A univariate pair asking for st, icx and cx: one pilot and one draw of
    # each chunk serve all three, with the results of three separate scans.
    d1, d2 = ghss(0.0, [[1.0]], 0.2), ghss(0.0, [[1.6]], 0.2)
    dirs = axis_pair_directions(1, signed=True)
    calls = []

    def counted(a, b, rng, size):
        calls.append(size)
        return sample_coupled(a, b, rng, size)

    monkeypatch.setattr(empirical, "sample_coupled", counted)
    fused = coupled_pass(d1, d2, POOL_CFG, survival=True, directions=dirs)
    assert calls == [23_000, 10_000, 10_000, 3_000]  # the pilot, then each chunk
    st = verify_st(d1, d2, POOL_CFG)
    separate = {
        "st": st,
        "icx": stoploss_dominance(st.curve, POOL_CFG.confidence_multiplier),
        "cx": verify_cx(d1, d2, POOL_CFG, dirs),
    }
    assert sorted(fused) == sorted(separate)
    for name, result in separate.items():
        assert result_fields(fused[name]) == result_fields(result), name
    assert result_fields(fused["icx"]) == result_fields(verify_icx(d1, d2, POOL_CFG))


def st_scan(cfg):
    return verify_st(mk(0.0, [[1.0]]), mk(0.2, [[1.5]]), cfg)


def cx_scan(cfg):
    return verify_cx(*cx_pair(), cfg, CX_DIRECTIONS)


def orthant_scan(cfg):
    return verify_orthant(mk([0.0, 0.0], corr(0.2)), mk([0.1, 0.0], corr(0.6)), cfg, CORNERS)


SCANS = pytest.mark.parametrize("scan", [st_scan, cx_scan, orthant_scan],
                                ids=["st", "cx", "orthant"])


@SCANS
def test_an_exception_in_one_chunk_propagates_unchanged(monkeypatch, scan):
    monkeypatch.setattr(empirical, "_worker_count", lambda: 2)
    cfg = McConfig(sample_count=40_000, seed=4, chunk_size=10_000, grid=(0.0, 1.0))
    expected = scan(cfg)
    error = RuntimeError("chunk failed")
    calls = []

    def failing(a, b, rng, size):
        # verify_cx's pilot is call 1, so its first or second chunk raises
        calls.append(size)
        if len(calls) == 2:
            raise error
        return sample_coupled(a, b, rng, size)

    monkeypatch.setattr(empirical, "sample_coupled", failing)
    with pytest.raises(RuntimeError) as caught:
        scan(cfg)
    assert caught.value is error
    monkeypatch.setattr(empirical, "sample_coupled", sample_coupled)
    assert result_fields(scan(cfg)) == result_fields(expected)


def _scan_in_child(scan, cfg, expected):
    # exit status 0 only when the child's scan matches the parent's
    sys.exit(0 if result_fields(scan(cfg)) == expected else 1)


@SCANS
def test_scan_runs_in_a_forked_child(monkeypatch, scan):
    monkeypatch.setattr(empirical, "_worker_count", lambda: 2)
    expected = result_fields(scan(POOL_CFG))
    child = multiprocessing.get_context("fork").Process(
        target=_scan_in_child, args=(scan, POOL_CFG, expected))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail(f"{scan.__name__} hung in a forked child")
    assert child.exitcode == 0
