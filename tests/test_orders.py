"""Tests for the stochastic-order decision engine.

Verdicts are pinned against hand-derived parameter configurations (exact
equalities and clear-margin inequalities, so tolerance boundaries never
decide a test).  Structural soundness — a sufficient pass never coexisting
with a necessary violation — is asserted inside OrderReport itself, so the
random batteries here both exercise and rely on that check.
"""

import dataclasses
import gc
import gzip
import json
import os
import pickle
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from simplex_oracle import cp_trap_matrices
from sme_oracle import sme_table
from test_acceptance import random_battery_pair

import lsemix.cones as cones_module
import lsemix.orders as orders_module
from lsemix.cli import parse_scenario
from lsemix.cones import HORN_MATRIX, ConeStatus, is_copositive
from lsemix.distributions import LseDistribution
from lsemix.empirical import axis_pair_directions
from lsemix.errors import IncomparableFamiliesError, UsageError
from lsemix.generators import DensityGenerator, GeneratorFamily
from lsemix.mixing import (
    AlphaBetaMap,
    BetaLambdaOne,
    Degenerate,
    DiscreteWeighted,
    GeneralizedInverseGaussian,
    beta_mean,
)
from lsemix.orders import (
    Clause,
    NecessaryStatus,
    OrderKind,
    OrderReport,
    SkipReason,
    SufficientStatus,
    Verdict,
    check_collective_risk,
    check_order,
    compare,
)

NORMAL = DensityGenerator(GeneratorFamily.NORMAL)
STUDENT5 = DensityGenerator(GeneratorFamily.STUDENT, dof=5.0)
CAUCHY = DensityGenerator(GeneratorFamily.CAUCHY)
PLAIN = AlphaBetaMap.plain()
SKEW = AlphaBetaMap.skew_slash()
MEANVAR = AlphaBetaMap.mean_variance()


def mk(mu, sigma, delta=None, gen=NORMAL, ab=PLAIN, mix=None):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    n = mu.size
    sigma = np.asarray(sigma, dtype=float).reshape(n, n)
    if delta is None:
        delta = np.zeros(n)
    return LseDistribution(mu, sigma, np.atleast_1d(np.asarray(delta, float)),
                           gen, ab, mix if mix is not None else Degenerate(1.0))


def ghss(mu, sigma, delta, lam=3.0):
    return mk(mu, sigma, delta, gen=NORMAL, ab=SKEW, mix=BetaLambdaOne(lam))


# --- report plumbing -------------------------------------------------------------


def test_report_rejects_unsound_combination():
    with pytest.raises(AssertionError):
        OrderReport(
            order=OrderKind.ST,
            sufficient=SufficientStatus.HOLDS,
            necessary=NecessaryStatus.VIOLATED,
            verdict=Verdict.ORDERED,
        )


def test_report_rejects_inconsistent_verdict():
    with pytest.raises(AssertionError):
        OrderReport(
            order=OrderKind.ST,
            sufficient=SufficientStatus.FAILS,
            necessary=NecessaryStatus.HOLDS,
            verdict=Verdict.ORDERED,
        )


def test_clause_tags_split_by_group():
    r = check_order(mk(0.0, [[1.0]]), mk(0.5, [[1.0]]), OrderKind.ST)
    assert any(c.tag.startswith("sufficient/") for c in r.clauses)
    assert any(c.tag.startswith("necessary/") for c in r.clauses)


# --- pair validation ---------------------------------------------------------------


def test_dimension_mismatch_rejected():
    with pytest.raises(UsageError):
        check_order(mk([0.0], [[1.0]]), mk([0.0, 0.0], np.eye(2)), OrderKind.ST)


def test_unknown_order_name_is_a_usage_error():
    d = mk(0.0, [[1.0]])
    for call in (lambda: check_order(d, d, "bogus"), lambda: compare(d, d, ["st", "bogus"])):
        with pytest.raises(UsageError, match=r"unknown order 'bogus'; choose from \['st', "):
            call()


def test_generator_mismatch_rejected():
    with pytest.raises(IncomparableFamiliesError):
        check_order(mk(0.0, [[1.0]]), mk(0.0, [[1.0]], gen=STUDENT5), OrderKind.ST)


def test_mixing_mismatch_rejected():
    with pytest.raises(IncomparableFamiliesError):
        check_order(mk(0.0, [[1.0]], mix=Degenerate(1.0)),
                    mk(0.0, [[1.0]], mix=Degenerate(2.0)), OrderKind.ST)


def test_map_mismatch_rejected():
    with pytest.raises(IncomparableFamiliesError):
        check_order(mk(0.0, [[1.0]], ab=PLAIN), mk(0.0, [[1.0]], ab=MEANVAR),
                    OrderKind.ST)


# --- usual stochastic order ---------------------------------------------------------


def test_st_reflexive():
    d = mk([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])
    r = check_order(d, d, OrderKind.ST)
    assert r.verdict is Verdict.ORDERED
    assert r.sufficient is SufficientStatus.HOLDS


def test_st_skewed_location_pair_ordered():
    r = check_order(ghss(0.0, [[1.0]], [0.2]), ghss(0.3, [[1.0]], [0.5]), OrderKind.ST)
    assert r.verdict is Verdict.ORDERED


def test_st_unequal_scales_not_ordered():
    r = check_order(mk([0.0, 0.0], np.eye(2)), mk([0.0, 0.0], 2.0 * np.eye(2)),
                    OrderKind.ST)
    assert r.verdict is Verdict.NOT_ORDERED
    assert r.necessary is NecessaryStatus.VIOLATED


def test_st_mean_violation_not_ordered():
    r = check_order(mk(1.0, [[1.0]]), mk(0.0, [[1.0]]), OrderKind.ST)
    assert r.verdict is Verdict.NOT_ORDERED


def test_st_compensated_shift_inconclusive():
    # location decreases but the shift more than compensates on average
    # (E(1/z) = 1.5 here while inf 1/z = 1): the all-z condition fails at
    # the bottom of the range while the mean ordering holds.
    d1 = ghss(0.0, [[1.0]], [0.2])
    d2 = ghss(-0.6, [[1.0]], [0.7])
    r = check_order(d1, d2, OrderKind.ST)
    assert r.sufficient is SufficientStatus.FAILS
    assert r.necessary is NecessaryStatus.HOLDS
    assert r.verdict is Verdict.INCONCLUSIVE


def test_st_divergent_shift_mean_not_applicable():
    # E(1/z) diverges for this mixing exponent, and the shifts differ, so the
    # mean clause cannot be evaluated; scale equality still holds.
    d1 = mk(0.0, [[1.0]], [0.2], ab=SKEW, mix=BetaLambdaOne(0.5))
    d2 = mk(0.5, [[1.0]], [0.5], ab=SKEW, mix=BetaLambdaOne(0.5))
    r = check_order(d1, d2, OrderKind.ST)
    assert r.necessary is NecessaryStatus.NOT_APPLICABLE
    mean_clause = [c for c in r.clauses if c.tag == "necessary/mean-ordering"][0]
    assert mean_clause.passed is None


def test_st_divergent_shift_equal_deltas_still_decided():
    # same divergent mixing, but equal shifts: the mean comparison reduces to
    # the location vectors exactly
    d1 = mk(1.0, [[1.0]], [0.4], ab=SKEW, mix=BetaLambdaOne(0.5))
    d2 = mk(0.0, [[1.0]], [0.4], ab=SKEW, mix=BetaLambdaOne(0.5))
    r = check_order(d1, d2, OrderKind.ST)
    assert r.verdict is Verdict.NOT_ORDERED


@pytest.mark.parametrize("order", list(OrderKind))
def test_assumption_checks_recorded(order):
    # The necessity arguments of st, icx and uo rest on the tail-ratio
    # conditions: they report both probes, and so do their projection
    # orders plst and iplcx.  No other order reads them.
    r = check_order(mk([0.0, 0.0], np.eye(2)), mk([0.5, 0.0], 2.0 * np.eye(2)), order)
    probed = {OrderKind.ST, OrderKind.ICX, OrderKind.UO, OrderKind.PLST, OrderKind.IPLCX}
    if order in probed:
        assert [(p.sigma1, p.sigma2) for p in r.assumption_checks] == [(2.0, 1.0), (1.0, 2.0)]
        assert all(p.satisfies_assumption1 for p in r.assumption_checks)
    else:
        assert r.assumption_checks == ()


def test_st_unbounded_beta_range_requires_shift_ordering():
    # identity beta over an unbounded mixing support: the all-z condition
    # demands delta2 >= delta1 besides the finite-endpoint inequality
    mix = GeneralizedInverseGaussian(lam=1.0, chi=1.0, tau=2.0)
    d1 = mk(0.0, [[1.0]], [0.5], ab=AlphaBetaMap.location_mixture(), mix=mix)
    d2 = mk(1.0, [[1.0]], [0.4], ab=AlphaBetaMap.location_mixture(), mix=mix)
    r = check_order(d1, d2, OrderKind.ST)
    assert r.sufficient is SufficientStatus.FAILS
    # mean ordering still holds, so no violation is certified
    assert r.verdict is Verdict.INCONCLUSIVE


# --- convex order ---------------------------------------------------------------------


def test_cx_psd_increase_ordered():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.0, 0.0], np.eye(2) + np.diag([1.0, 0.0]))
    r = check_order(d1, d2, OrderKind.CX)
    assert r.verdict is Verdict.ORDERED


def test_cx_unequal_shifts_not_ordered():
    r = check_order(ghss(0.0, [[1.0]], [0.2]), ghss(0.0, [[1.0]], [0.5]), OrderKind.CX)
    assert r.verdict is Verdict.NOT_ORDERED


def test_cx_non_psd_difference_not_ordered():
    d1 = mk([0.0, 0.0], 2.0 * np.eye(2))
    d2 = mk([0.0, 0.0], np.diag([3.0, 1.0]))
    r = check_order(d1, d2, OrderKind.CX)
    assert r.verdict is Verdict.NOT_ORDERED


def violated(report):
    """The tags of the report's violated necessary clauses."""
    return [c.tag for c in report.clauses if c.tag.startswith("necessary/") and c.passed is False]


def test_cx_no_premise_mean_clause_still_decides():
    # Neither locations nor shifts are equal, so the scale clause is
    # premise-gated; E(Y1) = E(Y2) is necessary for cx whenever the means
    # are finite: here 0.3 against 0.3 + 1.5 * 0.5.
    d1 = ghss(0.0, [[1.0]], [0.2])
    d2 = ghss(0.3, [[1.0]], [0.5])
    r = check_order(d1, d2, OrderKind.CX)
    assert r.verdict is Verdict.NOT_ORDERED
    assert violated(r) == ["necessary/mean-equal"]
    psd = [c for c in r.clauses if c.tag == "necessary/psd-difference"][0]
    assert psd.skip is SkipReason.PREMISE


def test_cx_divergent_covariance_gates_psd_clause():
    # Cauchy covariances diverge, so the scale clause of the necessity side
    # cannot be certified; with equal means the verdict stays inconclusive
    d1 = mk([0.0, 0.0], 2.0 * np.eye(2), gen=CAUCHY)
    d2 = mk([0.0, 0.0], np.diag([3.0, 1.0]), gen=CAUCHY)
    r = check_order(d1, d2, OrderKind.CX)
    assert r.sufficient is SufficientStatus.FAILS
    assert r.necessary is NecessaryStatus.NOT_APPLICABLE


# --- increasing convex order -----------------------------------------------------------


def test_icx_univariate_scale_growth_ordered():
    r = check_order(ghss(0.0, [[1.0]], [0.2]), ghss(0.3, [[2.0]], [0.2]), OrderKind.ICX)
    assert r.verdict is Verdict.ORDERED


def test_icx_univariate_scale_shrink_not_ordered():
    r = check_order(mk(0.0, [[2.0]]), mk(0.5, [[1.0]]), OrderKind.ICX)
    assert r.verdict is Verdict.NOT_ORDERED


def test_icx_cauchy_scale_shrink_still_decided():
    # the scale necessity for icx rests on tail ratios, not moments, so the
    # divergent-covariance family still certifies the violation
    r = check_order(mk(0.0, [[2.0]], gen=CAUCHY), mk(0.5, [[1.0]], gen=CAUCHY),
                    OrderKind.ICX)
    assert r.verdict is Verdict.NOT_ORDERED


def test_icx_copositive_not_psd_inconclusive():
    sigma1 = 3.0 * np.eye(5)
    sigma2 = sigma1 + 0.5 * np.asarray(HORN_MATRIX)
    r = check_order(mk(np.zeros(5), sigma1), mk(0.1 * np.ones(5), sigma2),
                    OrderKind.ICX)
    assert r.sufficient is SufficientStatus.FAILS
    assert r.necessary is NecessaryStatus.HOLDS
    assert r.verdict is Verdict.INCONCLUSIVE


def test_icx_multivariate_psd_ordered():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.2, 0.1], np.eye(2) + 0.5 * np.ones((2, 2)))
    assert check_order(d1, d2, OrderKind.ICX).verdict is Verdict.ORDERED


# --- directionally and componentwise convex -----------------------------------------


def test_dcx_entrywise_growth_ordered():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.0, 0.0], np.eye(2) + np.ones((2, 2)))
    assert check_order(d1, d2, OrderKind.DCX).verdict is Verdict.ORDERED


def test_dcx_offdiagonal_drop_not_ordered():
    d1 = mk([0.0, 0.0], np.array([[1.0, 0.3], [0.3, 1.0]]))
    d2 = mk([0.0, 0.0], np.array([[1.0, 0.1], [0.1, 1.0]]))
    assert check_order(d1, d2, OrderKind.DCX).verdict is Verdict.NOT_ORDERED


def test_ccx_diag_growth_ordered():
    d1 = mk([0.0, 0.0], np.array([[1.0, 0.2], [0.2, 1.0]]))
    d2 = mk([0.0, 0.0], np.array([[2.0, 0.2], [0.2, 1.5]]))
    assert check_order(d1, d2, OrderKind.CCX).verdict is Verdict.ORDERED


def test_ccx_offdiag_change_not_ordered():
    d1 = mk([0.0, 0.0], np.array([[1.0, 0.2], [0.2, 1.0]]))
    d2 = mk([0.0, 0.0], np.array([[2.0, 0.4], [0.4, 1.5]]))
    assert check_order(d1, d2, OrderKind.CCX).verdict is Verdict.NOT_ORDERED


# --- supermodular and upper orthant ---------------------------------------------------


def corr(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


def test_sm_correlation_increase_ordered():
    r = check_order(mk([0.0, 0.0], corr(0.2)), mk([0.0, 0.0], corr(0.5)), OrderKind.SM)
    assert r.verdict is Verdict.ORDERED


def test_sm_unequal_diagonals_not_ordered():
    r = check_order(mk([0.0, 0.0], np.eye(2)), mk([0.0, 0.0], np.diag([2.0, 1.0])),
                    OrderKind.SM)
    assert r.verdict is Verdict.NOT_ORDERED


def test_sm_exchange_consistency():
    # ordered both ways forces equal scale matrices
    d1 = mk([0.0, 0.0], corr(0.3))
    d2 = mk([0.0, 0.0], corr(0.3))
    assert check_order(d1, d2, OrderKind.SM).verdict is Verdict.ORDERED
    assert check_order(d2, d1, OrderKind.SM).verdict is Verdict.ORDERED
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho1, rho2 = rng.uniform(-0.9, 0.9, size=2)
        a, b = mk([0.0, 0.0], corr(rho1)), mk([0.0, 0.0], corr(rho2))
        if (check_order(a, b, OrderKind.SM).verdict is Verdict.ORDERED
                and check_order(b, a, OrderKind.SM).verdict is Verdict.ORDERED):
            assert abs(rho1 - rho2) < 1e-9


def equal_in_law_pairs():
    """Pairs of one law under two parametrizations, at n = 2 with the
    normal profile.  Degenerate mixing at z0 = 1 (beta(z0) = 1): (mu, delta)
    and (mu + t, delta - t).  Constant alpha and beta(Z) = Z symmetric about
    c: (mu, delta) and (mu + 2c delta, -delta), for Beta(1, 1) (c = 1/2) and
    the atoms 1 and 3 (c = 2)."""
    ab = AlphaBetaMap.location_mixture()
    mu, delta = np.array([0.2, -0.1]), np.array([0.5, -0.25])
    sigma = [[1.0, 0.3], [0.3, 2.0]]
    t = np.array([0.3, -0.2])
    yield (mk(mu, sigma, delta, ab=ab, mix=Degenerate(1.0)),
           mk(mu + t, sigma, delta - t, ab=ab, mix=Degenerate(1.0)))
    for mix, c in ((BetaLambdaOne(1.0), 0.5), (DiscreteWeighted(((1.0, 0.5), (3.0, 0.5))), 2.0)):
        yield (mk(mu, sigma, delta, ab=ab, mix=mix),
               mk(mu + 2.0 * c * delta, sigma, -delta, ab=ab, mix=mix))


@pytest.mark.parametrize("pair", list(equal_in_law_pairs()), ids=["degenerate", "beta", "discrete"])
def test_no_order_refutes_a_law_against_itself_reparametrized(pair):
    d1, d2 = pair
    points = np.random.default_rng(0).normal(size=(8, 2))
    np.testing.assert_allclose(d1.pdf(points), d2.pdf(points), rtol=1e-12)
    for a, b in (pair, pair[::-1]):
        reports = compare(a, b)
        assert not [order for order, r in reports.items() if r.verdict is Verdict.NOT_ORDERED]
        sm = reports[OrderKind.SM]
        assert sm.verdict is Verdict.INCONCLUSIVE
        assert [c.tag for c in sm.clauses if c.tag.startswith("necessary/")] == [
            "necessary/mean-equal", "necessary/diag-equal", "necessary/offdiag-ordering"]
        assert all(c.passed for c in sm.clauses if c.tag.startswith("necessary/"))


def test_uo_same_marginal_correlation_increase_ordered():
    r = check_order(mk([0.0, 0.0], corr(0.1)), mk([0.1, 0.2], corr(0.4)), OrderKind.UO)
    assert r.verdict is Verdict.ORDERED


def test_uo_unequal_diagonals_not_ordered():
    r = check_order(mk([0.0, 0.0], np.eye(2)), mk([0.1, 0.1], np.diag([2.0, 1.0])),
                    OrderKind.UO)
    assert r.verdict is Verdict.NOT_ORDERED


def test_uo_offdiag_necessity_only_for_matching_marginals():
    # marginals match, off-diagonal decreases: certified not ordered without
    # any tail-assumption involvement
    r = check_order(mk([0.0, 0.0], corr(0.5)), mk([0.0, 0.0], corr(0.1)), OrderKind.UO)
    assert r.verdict is Verdict.NOT_ORDERED


def test_uo_matches_sm_for_bivariate_same_marginals():
    # bivariate same-marginal pairs: the two orders are equivalent
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho1, rho2 = rng.uniform(-0.8, 0.8, size=2)
        d1, d2 = mk([0.0, 1.0], corr(rho1)), mk([0.0, 1.0], corr(rho2))
        assert (check_order(d1, d2, OrderKind.SM).verdict
                == check_order(d1, d2, OrderKind.UO).verdict)


# --- cone-based orders ------------------------------------------------------------------


def test_cp_entrywise_nonnegative_difference_ordered():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.0, 0.0], np.eye(2) + 0.5 * np.ones((2, 2)))
    assert check_order(d1, d2, OrderKind.CP).verdict is Verdict.ORDERED


def test_cp_horn_difference_ordered_while_cx_fails():
    # copositive-but-not-PSD growth: the completely-positive-Hessian class
    # is smaller than the convex class, so cp can hold where cx cannot
    sigma1 = 3.0 * np.eye(5)
    sigma2 = sigma1 + 0.5 * np.asarray(HORN_MATRIX)
    d1, d2 = mk(np.zeros(5), sigma1), mk(np.zeros(5), sigma2)
    assert check_order(d1, d2, OrderKind.CP).verdict is Verdict.ORDERED
    assert check_order(d1, d2, OrderKind.CX).verdict is Verdict.NOT_ORDERED
    assert check_order(d1, d2, OrderKind.COP).verdict is Verdict.NOT_ORDERED


def test_cop_factorizable_difference_ordered():
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.0, 0.0], np.eye(2) + b.T @ b)
    assert check_order(d1, d2, OrderKind.COP).verdict is Verdict.ORDERED


def test_cp_cop_unequal_means_not_ordered():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.5, 0.0], np.eye(2) + 0.5 * np.ones((2, 2)))
    assert check_order(d1, d2, OrderKind.CP).verdict is Verdict.NOT_ORDERED
    assert check_order(d1, d2, OrderKind.COP).verdict is Verdict.NOT_ORDERED


def test_cop_undecided_membership_inconclusive():
    # nonnegative PSD difference that certifiably is not completely positive
    # (pentagon-cycle construction): no rule of the membership ladder
    # decides it, so the verdict honestly stays inconclusive
    cycle = np.zeros((5, 5))
    for i in range(5):
        cycle[i, (i + 1) % 5] = cycle[(i + 1) % 5, i] = 1.0
    diff = 1.7 * np.eye(5) + cycle
    d1 = mk(np.zeros(5), 2.0 * np.eye(5))
    d2 = mk(np.zeros(5), 2.0 * np.eye(5) + diff)
    r = check_order(d1, d2, OrderKind.COP)
    assert r.sufficient is SufficientStatus.NOT_APPLICABLE
    assert r.verdict is Verdict.INCONCLUSIVE
    # the same difference is entrywise nonnegative, hence cp-ordered
    assert check_order(d1, d2, OrderKind.CP).verdict is Verdict.ORDERED


def test_cp_trap_difference_not_ordered():
    # Sigma2 - Sigma1 is not copositive by about 100 times the tolerance,
    # which a search for a violating point can miss
    for diff in cp_trap_matrices():
        n = diff.shape[0]
        c = 1.0 + max(0.0, -float(np.linalg.eigvalsh(diff)[0]))
        d1, d2 = mk(np.zeros(n), c * np.eye(n)), mk(np.zeros(n), c * np.eye(n) + diff)
        assert check_order(d1, d2, OrderKind.CP).verdict is Verdict.NOT_ORDERED


def test_cop_rank_one_difference_ordered_under_rescaling():
    # Sigma2 - Sigma1 = 0.1 J is completely positive; so is D (0.1 J) D
    n = 5
    d = np.array([0.5, 1.0, 1.5, 2.0, 1.0])
    sigma1, sigma2 = np.eye(n), np.eye(n) + 0.1 * np.ones((n, n))
    for scale in (np.ones(n), d):
        d1 = mk(np.zeros(n), scale[:, None] * sigma1 * scale[None, :])
        d2 = mk(np.zeros(n), scale[:, None] * sigma2 * scale[None, :])
        assert check_order(d1, d2, OrderKind.COP).verdict is Verdict.ORDERED


# --- derived (projection) orders ----------------------------------------------------------


def test_plst_inherits_st():
    r = check_order(ghss(0.0, [[1.0]], [0.2]), ghss(0.3, [[1.0]], [0.5]),
                    OrderKind.PLST)
    assert r.verdict is Verdict.ORDERED


def test_lcx_ilcx_inherit_cx():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.0, 0.0], np.eye(2) + np.diag([1.0, 0.0]))
    assert check_order(d1, d2, OrderKind.LCX).verdict is Verdict.ORDERED
    assert check_order(d1, d2, OrderKind.ILCX).verdict is Verdict.ORDERED


def test_iplcx_negative_direction_not_ordered():
    # a nonnegative direction with shrinking variance violates the projected
    # necessity even though locations are ordered
    d1 = mk([0.0, 0.0], np.diag([1.0, 2.0]))
    d2 = mk([0.1, 0.1], np.diag([1.0, 1.0]))
    r = check_order(d1, d2, OrderKind.IPLCX)
    assert r.verdict is Verdict.NOT_ORDERED


def test_lcx_not_ordered_through_the_parent_mean_clause():
    # Neither location nor shift equality holds for the vectors, so the
    # parent's scale clause is premise-gated; the means differ (along
    # e1 + e2 the projected locations coincide while the projected shifts
    # differ), and cx's ungated mean clause certifies the violation.
    d1 = ghss([0.5, -0.5], np.eye(2), [0.3, 0.0])
    d2 = ghss([0.0, 0.0], np.eye(2), [0.8, 0.1])
    reports = compare(d1, d2)
    for order in (OrderKind.CX, OrderKind.LCX, OrderKind.ILCX):
        assert reports[order].verdict is Verdict.NOT_ORDERED, order
        assert violated(reports[order]) == ["necessary/mean-equal"], order


def test_derived_reports_are_deterministic():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.1, 0.2], np.eye(2))
    first = check_order(d1, d2, OrderKind.IPLCX)
    second = check_order(d1, d2, OrderKind.IPLCX)
    assert first == second


PROJECTION_ORDERS = (OrderKind.PLST, OrderKind.LCX, OrderKind.ILCX, OrderKind.IPLCX)


def reference_directions(d1, d2, signed):
    """The axes and normalized pair sums (signed: and differences), then
    the most negative eigenvector of Sigma2 - Sigma1 (signed) or its
    copositivity witness (unsigned) where there is one, one per row."""
    directions = [axis_pair_directions(d1.dim, signed)]
    diff = d2.sigma - d1.sigma
    if signed:
        eigenvalues, eigenvectors = np.linalg.eigh(diff)
        if eigenvalues[0] < 0.0:
            directions.append(eigenvectors[:, :1].T)
    else:
        verdict = is_copositive(diff)
        if verdict.status is ConeStatus.OUTSIDE:
            directions.append(verdict.witness[None, :] / np.linalg.norm(verdict.witness))
    return np.vstack(directions)


def projection_statuses(d1, d2):
    """Reference, per projection order: the parent's necessary status on
    the univariate pair (a'Y1, a'Y2) along each reference direction a, each
    pair run through the interpreter on its own; and the directions."""
    out = {}
    for order in PROJECTION_ORDERS:
        parent = orders_module._PARENT_OF[order]
        directions = reference_directions(d1, d2, order in (OrderKind.LCX, OrderKind.ILCX))
        statuses = [orders_module._direct(parent, orders_module._Pair(
            d1.linear_functional(a), d2.linear_functional(a))).necessary for a in directions]
        out[order] = statuses, directions
    return out


def assert_projections_match(d1, d2):
    """The pair's clauses decide every projection the reference decides:
    an order whose parent is violated along some direction reads
    not_ordered.  Returns the reference statuses by order."""
    results = projection_statuses(d1, d2)
    for order, (statuses, _) in results.items():
        if NecessaryStatus.VIOLATED in statuses:
            assert check_order(d1, d2, order).verdict is Verdict.NOT_ORDERED, order
    return {order: statuses for order, (statuses, _) in results.items()}


def test_projections_match_reference_in_one_dimension():
    # In one dimension every direction is +-1, so the projection is the
    # pair itself, and the statuses agree exactly.
    for d1, d2 in ((ghss(0.0, [[1.0]], [0.2]), ghss(0.3, [[1.5]], [0.5])),
                   (mk(0.0, [[2.0]]), mk(-0.1, [[1.0]]))):
        statuses = assert_projections_match(d1, d2)
        for order, got in statuses.items():
            assert set(got) == {check_order(d1, d2, order).necessary}, order
    assert statuses[OrderKind.IPLCX] == [NecessaryStatus.VIOLATED] * 2


def test_projections_match_reference_on_zero_projected_shift():
    # Var(1/Z) diverges under Beta(1.5, 1), so a projected covariance exists
    # only where a'delta = 0 exactly: along (e1 - e2)/sqrt 2, where the scale
    # difference is negative.  (Shifts of 0.5 keep every product exact, so
    # the zero does not hang on how the dot product rounds.)
    d1, d2 = zero_projected_shift_pair()
    statuses, directions = projection_statuses(d1, d2)[OrderKind.LCX]
    assert_projections_match(d1, d2)
    # (e1 - e2)/sqrt 2 comes fourth; the appended eigenvector spans it too.
    zero_shift = [i for i, a in enumerate(directions) if a @ d1.delta == 0.0]
    assert zero_shift == [3, len(directions) - 1]
    assert {statuses[i] for i in zero_shift} == {NecessaryStatus.VIOLATED}
    assert {s for i, s in enumerate(statuses) if i not in zero_shift} == {
        NecessaryStatus.NOT_APPLICABLE}
    assert violated(check_order(d1, d2, OrderKind.LCX)) == ["necessary/unskewed-psd-difference"]


def test_projections_match_reference_under_divergent_mean():
    # E(1/Z) diverges under Beta(0.5, 1): the projected means are decided
    # only where the projected shifts agree, along (e1 + e2)/sqrt 2.  There
    # the locations differ, which cx's mean clause reads on the pair.
    mix = BetaLambdaOne(0.5)
    d1 = mk([0.0, 0.0], np.eye(2), [0.2, 0.5], ab=SKEW, mix=mix)
    d2 = mk([0.1, 0.1], np.eye(2), [0.5, 0.2], ab=SKEW, mix=mix)
    statuses = assert_projections_match(d1, d2)
    plst = statuses[OrderKind.PLST]
    assert plst[2] is NecessaryStatus.HOLDS
    assert NecessaryStatus.NOT_APPLICABLE in plst
    clause = check_order(d1, d2, OrderKind.PLST).clauses[1]
    assert clause.tag == "necessary/mean-ordering" and clause.skip is SkipReason.MOMENTS
    assert statuses[OrderKind.LCX][2] is NecessaryStatus.VIOLATED
    reports = compare(d1, d2)
    for order in (OrderKind.CX, OrderKind.LCX, OrderKind.ILCX):
        assert violated(reports[order]) == ["necessary/mean-equal"], order


def test_projections_match_reference_along_adversarial_directions():
    # An indefinite, non-copositive scale difference: the signed orders add
    # the most-negative eigenvector, the others the copositivity witness.
    d1 = mk([0.0, 0.0, 0.0], 2.0 * np.eye(3))
    d2 = mk([0.0, 0.0, 0.0], [[2.5, -0.9, 0.0], [-0.9, 2.5, 0.0], [0.0, 0.0, 2.2]])
    results = projection_statuses(d1, d2)
    diff = d2.sigma - d1.sigma
    eigenvector = np.linalg.eigh(diff)[1][:, 0]
    witness = is_copositive(diff).witness
    assert np.array_equal(results[OrderKind.LCX][1][-1], eigenvector)
    assert np.array_equal(results[OrderKind.IPLCX][1][-1], witness / np.linalg.norm(witness))
    assert_projections_match(d1, d2)
    for order, (statuses, _) in results.items():
        assert statuses[-1] is NecessaryStatus.VIOLATED, order


# Four pairs on which only the parent's univariate test along fixed
# directions, since deleted, read not_ordered; a clause on the pair decides
# each of them, for the parent too.


def test_unequal_means_decide_lcx_without_premise():
    # Neither premise holds, so cx's scale clause is gated; E(Y1) != E(Y2).
    mix = GeneralizedInverseGaussian(-0.5, 1.0, 1.0)
    mu1, delta1 = np.array([0.2, -0.1, 0.4]), np.array([0.3, 0.1, -0.2])
    d1 = mk(mu1, np.eye(3), delta1, ab=MEANVAR, mix=mix)
    d2 = mk(mu1 + [0.3, 0.0, 0.0], np.eye(3), delta1 + [0.0, 0.2, 0.0], ab=MEANVAR, mix=mix)
    reports = compare(d1, d2)
    for order in (OrderKind.CX, OrderKind.LCX, OrderKind.ILCX):
        assert reports[order].verdict is Verdict.NOT_ORDERED, order
        assert violated(reports[order]) == ["necessary/mean-equal"], order


def test_copositivity_witness_past_the_exact_cap_decides_iplcx():
    # n = 11: Sigma2 - Sigma1 is a symmetric Gaussian matrix with diagonal
    # 0.5, and some 2x2 principal submatrix of it is no copositive matrix.
    rng = np.random.default_rng(26)
    g = rng.standard_normal((11, 11))
    diff = 0.5 * (g + g.T)
    np.fill_diagonal(diff, 0.5)
    c = 1.0 - float(np.linalg.eigvalsh(diff)[0])
    d1, d2 = mk(np.zeros(11), c * np.eye(11)), mk(np.zeros(11), c * np.eye(11) + diff)
    reports = compare(d1, d2)
    for order in (OrderKind.ICX, OrderKind.IPLCX, OrderKind.CP):
        assert reports[order].verdict is Verdict.NOT_ORDERED, order
        assert violated(reports[order]) == ["necessary/copositive-difference"], order
    # cx => cp past the cap: 2I - I is PSD, so copositive by rule.
    reports = compare(mk(np.zeros(11), np.eye(11)), mk(np.zeros(11), 2.0 * np.eye(11)))
    for order in (OrderKind.CX, OrderKind.CP, OrderKind.COP, OrderKind.DCX):
        assert reports[order].verdict is Verdict.ORDERED, order


def test_equal_shift_coordinates_decide_the_mean_when_e_beta_diverges():
    # E(1/Z) diverges under Beta(0.5, 1); coordinate 0 has equal shifts, so
    # its mean difference is mu2_0 - mu1_0 = -0.1 < 0.
    mix = BetaLambdaOne(0.5)
    d1 = mk([0.1, 0.0], np.eye(2), [0.2, 0.5], ab=SKEW, mix=mix)
    d2 = mk([0.0, 0.0], np.eye(2), [0.2, 0.7], ab=SKEW, mix=mix)
    reports = compare(d1, d2)
    for order, clause in ((OrderKind.ST, "mean-ordering"), (OrderKind.PLST, "mean-ordering"),
                          (OrderKind.ICX, "mean-ordering"), (OrderKind.IPLCX, "mean-ordering"),
                          (OrderKind.CX, "mean-equal"), (OrderKind.LCX, "mean-equal"),
                          (OrderKind.ILCX, "mean-equal")):
        assert reports[order].verdict is Verdict.NOT_ORDERED, order
        assert violated(reports[order]) == ["necessary/" + clause], order
    # With the order of the locations reversed, the equal-shift coordinate
    # passes and the others stay undecided.
    reverse = check_order(d2, d1, OrderKind.ST)
    mean = [c for c in reverse.clauses if c.tag == "necessary/mean-ordering"][0]
    assert mean.passed is None and mean.skip is SkipReason.MOMENTS


def zero_projected_shift_pair():
    """Var(1/Z) diverges under Beta(1.5, 1) with the shifts equal, so only
    the projections with a'delta = 0 have variances: along (e1 - e2)/sqrt 2
    the scale difference is -0.5."""
    mix = BetaLambdaOne(1.5)
    d1 = mk([0.0, 0.0], np.eye(2), [0.5, 0.5], ab=SKEW, mix=mix)
    d2 = mk([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]], [0.5, 0.5], ab=SKEW, mix=mix)
    return d1, d2


def test_unskewed_directions_test_the_scale_where_var_beta_diverges(monkeypatch):
    d1, d2 = zero_projected_shift_pair()
    reports = compare(d1, d2)
    for order in (OrderKind.CX, OrderKind.LCX, OrderKind.ILCX):
        assert reports[order].verdict is Verdict.NOT_ORDERED, order
        assert violated(reports[order]) == ["necessary/unskewed-psd-difference"], order
    # The other way the compressed difference is +0.5: the clause holds, and
    # the full PSD test decides sufficiency.
    reverse = check_order(d2, d1, OrderKind.CX)
    assert [c.passed for c in reverse.clauses if c.tag.startswith("necessary/")] == [True, True]
    assert reverse.verdict is Verdict.INCONCLUSIVE
    # Unequal shifts or n = 1: the clause is skipped, as before.
    def law(mu, sigma, delta):
        return mk(mu, sigma, delta, ab=SKEW, mix=BetaLambdaOne(1.5))

    for a, b in ((d1, law([0.0, 0.0], np.eye(2), [0.5, 0.7])),
                 (law(0.0, [[1.0]], [0.5]), law(0.0, [[0.5]], [0.5]))):
        clause = check_order(a, b, OrderKind.CX).clauses[-1]
        assert clause.tag == "necessary/psd-difference" and clause.skip is not None
    # A PSD difference: the clause reads the full PSD test, which sufficiency
    # has already run, and compresses nothing.
    is_psd, psd_calls = orders_module.is_psd, []

    def counted(a, *args, **kwargs):
        psd_calls.append(a)
        return is_psd(a, *args, **kwargs)

    monkeypatch.setattr(orders_module, "is_psd", counted)
    report = check_order(law([0.0, 0.0], np.eye(2), [0.3, 0.3]),
                         law([0.0, 0.0], 2.0 * np.eye(2), [0.3, 0.3]), OrderKind.CX)
    assert report.verdict is Verdict.ORDERED
    assert (report.clauses[-1].tag, report.clauses[-1].passed) == (
        "necessary/unskewed-psd-difference", True)
    assert len(psd_calls) == 1


def random_cone_pair(rng, n):
    """Equal locations and shifts, and a difference Sigma2 - Sigma1 that is
    PSD, entrywise nonnegative, both, or indefinite."""
    g = rng.standard_normal((n, n))
    b = rng.standard_normal((n, 2))
    diff = [b @ b.T, np.abs(0.5 * (g + g.T)), np.abs(b) @ np.abs(b).T,
            0.3 * (g + g.T)][int(rng.integers(4))]
    sigma1 = (1.0 - min(0.0, float(np.linalg.eigvalsh(diff)[0]))) * np.eye(n) + g @ g.T / n
    mu, delta = rng.standard_normal(n), 0.3 * rng.standard_normal(n)
    return (mk(mu, sigma1, delta, ab=MEANVAR, mix=Degenerate(1.0)),
            mk(mu, sigma1 + diff, delta, ab=MEANVAR, mix=Degenerate(1.0)))


def test_cone_implications_past_the_exact_cap():
    # cx => cp and cop => cx at n = 11..20, where no copositivity search runs.
    rng = np.random.default_rng(2611)
    seen = set()
    for n in range(11, 21):
        for _ in range(4):
            reports = compare(*random_cone_pair(rng, n))
            verdicts = {order: reports[order].verdict for order in OrderKind}
            seen.add((verdicts[OrderKind.CX], verdicts[OrderKind.CP]))
            if verdicts[OrderKind.CX] is Verdict.ORDERED:
                for order in (OrderKind.LCX, OrderKind.ILCX, OrderKind.CP, OrderKind.ICX):
                    assert verdicts[order] is Verdict.ORDERED, (n, order)
            if verdicts[OrderKind.COP] is Verdict.ORDERED:
                assert verdicts[OrderKind.CX] is Verdict.ORDERED, n
    assert (Verdict.ORDERED, Verdict.ORDERED) in seen
    assert (Verdict.NOT_ORDERED, Verdict.ORDERED) in seen


def test_compare_at_n_20_takes_under_50_ms():
    rng = np.random.default_rng(20)
    pairs = [random_cone_pair(rng, 20) for _ in range(4)]
    # One pair past the exact cap whose copositivity no rule or small
    # witness decides: Horn's matrix padded with a diagonal.
    diff = np.zeros((20, 20))
    diff[:5, :5] = HORN_MATRIX
    diff[5:, 5:] = 0.5 * np.eye(15)
    pairs.append((mk(np.zeros(20), 3.0 * np.eye(20)), mk(np.zeros(20), 3.0 * np.eye(20) + diff)))
    assert compare(*pairs[-1])[OrderKind.CP].verdict is Verdict.INCONCLUSIVE
    for pair in pairs:
        best = min(_timed(compare, *pair) for _ in range(3))
        assert best < 0.05, best


def _timed(function, *args) -> float:
    start = time.perf_counter()
    function(*args)
    return time.perf_counter() - start


def test_pair_covariance_rule_matches_moments():
    # Beta(1.5, 1) under the 1/z shift map has E(alpha^2) finite but
    # Var(beta) divergent, so there the covariances exist only for zero shifts.
    generators = [DensityGenerator(family, **kwargs) for family, kwargs in (
        (GeneratorFamily.NORMAL, {}), (GeneratorFamily.STUDENT, {"dof": 5}),
        (GeneratorFamily.CAUCHY, {}), (GeneratorFamily.LAPLACE, {}),
        (GeneratorFamily.LOGISTIC, {}), (GeneratorFamily.EXPONENTIAL_POWER, {"power": 1.5}))]
    mixings = [Degenerate(1.0), BetaLambdaOne(1.5), GeneralizedInverseGaussian(-0.5, 1.0, 1.0),
               DiscreteWeighted(((0.5, 0.4), (1.5, 0.6)))]
    maps = [PLAIN, MEANVAR, SKEW, AlphaBetaMap.location_mixture(), AlphaBetaMap.scale_only()]
    shifts = [([0.0, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.3, 0.0]), ([0.0, -0.2], [0.0, 0.0]),
              ([0.2, -0.1], [0.2, -0.1])]
    seen = set()
    for gen in generators:
        for mix in mixings:
            for ab in maps:
                for delta1, delta2 in shifts:
                    d1 = mk([0.0, 0.0], np.eye(2), delta1, gen=gen, ab=ab, mix=mix)
                    d2 = mk([0.1, 0.0], [[2.0, 0.3], [0.3, 1.0]], delta2, gen=gen, ab=ab, mix=mix)
                    expected = all(d.moments().covariance is not None for d in (d1, d2))
                    assert orders_module._Pair(d1, d2).covariances_defined is expected
                    seen.add((expected, any(delta1 + delta2)))
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


def test_one_compare_runs_each_cone_test_once(monkeypatch):
    calls = {"is_psd": 0, "is_copositive": 0, "is_completely_positive": 0}
    for name in calls:
        original = getattr(orders_module, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            assert np.shape(a) == (5, 5)
            calls[_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(orders_module, name, counted)
    # copositive_gap: Sigma2 - Sigma1 = Horn / 2, copositive but not PSD.
    d1 = mk(np.zeros(5), 3.0 * np.eye(5))
    d2 = mk(np.zeros(5), 3.0 * np.eye(5) + 0.5 * HORN_MATRIX)
    compare(d1, d2)
    assert calls == {"is_psd": 1, "is_copositive": 1, "is_completely_positive": 1}
    compare(d1, d2)  # each call builds its own pair
    assert calls == {"is_psd": 2, "is_copositive": 2, "is_completely_positive": 2}


def count_cone_work(monkeypatch) -> dict[str, int]:
    """Count the Prepared values built, and the eigh and eigvalsh calls that
    lsemix.cones makes on one matrix (the batched KKT systems of the
    copositivity search, a stack of matrices, are not counted)."""
    counts = {"prepared": 0, "eigh": 0, "eigvalsh": 0}
    init = cones_module.Prepared.__init__

    def prepared(self, *args, **kwargs):
        counts["prepared"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cones_module.Prepared, "__init__", prepared)
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "lsemix.cones" and np.ndim(a) == 2:
                counts[_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("sigmas", [
    (3.0 * np.eye(5), 3.0 * np.eye(5) + 0.5 * HORN_MATRIX),  # copositive_gap
    ([[1.0]], [[2.5]]),
], ids=["copositive_gap", "n1"])
def test_one_compare_prepares_and_decomposes_the_difference_once(monkeypatch, sigmas):
    d1, d2 = (mk(np.zeros(len(s)), s) for s in sigmas)
    counts = count_cone_work(monkeypatch)
    compare(d1, d2)
    assert counts == {"prepared": 1, "eigh": 1, "eigvalsh": 0}
    compare(d1, d2)  # each call prepares its own
    assert counts == {"prepared": 2, "eigh": 2, "eigvalsh": 0}


def test_clauses_are_shared_values_with_exact_types():
    # Clause values are looked up by their fields; np.bool_ hashes as bool
    # does, so a condition must give exactly a bool or None.
    rng = np.random.default_rng(7)
    for _ in range(300):
        d1, d2 = random_battery_pair(rng)
        pair = orders_module._Pair(d1, d2)
        reports = {order: pair.report(order) for order in OrderKind}
        assert all(v is None or type(v) is bool for v in pair.conditions.values()), pair.conditions
        again = compare(d1, d2)
        assert again == reports
        for order, report in reports.items():
            for clause, same in zip(report.clauses, again[order].clauses, strict=True):
                assert clause.passed is None or type(clause.passed) is bool, clause
                assert clause is same, clause
    # Bounded by the tables: each (tag, text) of the sufficient, necessary
    # and parent-order clauses, by outcome (True, False, None or a skip
    # reason), gives 203 clauses.
    assert orders_module._clause.cache_info().currsize <= 203


def test_pairs_with_the_same_clause_outcomes_share_each_report():
    # Different numbers, the same outcome of every clause: a location shift
    # up at equal scales, in one dimension and in two.
    for first, second in (((mk(0.0, [[1.0]]), mk(0.5, [[1.0]])),
                           (mk(-3.0, [[4.0]]), mk(7.0, [[4.0]]))),
                          ((mk([0.0, 0.0], np.eye(2)), mk([0.1, 0.2], np.eye(2))),
                           (mk([5.0, -1.0], [[2.0, 0.5], [0.5, 1.0]]),
                            mk([5.5, 0.0], [[2.0, 0.5], [0.5, 1.0]])))):
        a, b = compare(*first), compare(*second)
        assert all(a[order] is b[order] for order in OrderKind)
        assert a[OrderKind.ST].verdict is Verdict.ORDERED


def test_reports_and_clauses_compare_and_hash_by_their_fields():
    clause = Clause("necessary/mean-equal", "E(Y1) = E(Y2)", True)
    twin = Clause("necessary/mean-equal", "E(Y1) = E(Y2)", True)
    assert clause is not twin and clause == twin
    assert hash(clause) == hash(twin) == hash(("necessary/mean-equal", "E(Y1) = E(Y2)", True, None))
    assert clause != Clause("necessary/mean-equal", "E(Y1) = E(Y2)", False)
    report = compare(mk([0.0, 0.0], np.eye(2)), mk([0.1, 0.2], np.eye(2)))[OrderKind.ICX]
    fields = tuple(getattr(report, f) for f in
                   ("order", "sufficient", "necessary", "verdict", "clauses", "assumption_checks"))
    built = OrderReport(*fields)
    assert built is not report and built == report and hash(built) == hash(report) == hash(fields)
    assert built != OrderReport(OrderKind.IPLCX, *fields[1:])
    assert {report: 1}[built] == 1
    # Loaded values and replaced ones are built again, hash and all.
    for value in (clause, report):
        loaded = pickle.loads(pickle.dumps(value))
        assert loaded == value and hash(loaded) == hash(value)
    moved = dataclasses.replace(clause, passed=None, skip=SkipReason.MOMENTS)
    assert hash(moved) == hash((clause.tag, clause.text, None, SkipReason.MOMENTS))
    with pytest.raises(AssertionError):
        dataclasses.replace(report, verdict=Verdict.NOT_ORDERED)


def test_a_second_pass_over_the_battery_builds_no_report():
    rng = np.random.default_rng(7)
    pairs = [random_battery_pair(rng) for _ in range(300)]
    caches = (orders_module._report, orders_module._derived)
    for cache in caches:
        cache.cache_clear()

    def sizes():
        for d1, d2 in pairs:
            compare(d1, d2)
            compare(d2, d1)
        return [cache.cache_info().currsize for cache in caches]

    first = sizes()
    assert sizes() == first
    # 7 800 reports, of which 209 distinct direct and 81 distinct
    # projection reports: bounded by the clause outcomes, not the pairs.
    assert first[0] <= 250 and first[1] <= 100, first


def fresh(a, b):
    """Every order's report, each on a pair of its own."""
    return {order: check_order(a, b, order) for order in OrderKind}


def test_shared_pair_is_never_stale():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.1, 0.1], [[2.0, 0.3], [0.3, 2.0]])
    d3 = mk([0.1, 0.1], [[2.0, -0.9], [-0.9, 0.5]])
    # Back to back, one compare() per pair gives what each order gives on a
    # pair of its own.
    sequence = ((d1, d2), (d2, d1), (d1, d3), (d1, d2), (d3, d2))
    expected = [fresh(a, b) for a, b in sequence]
    assert [compare(a, b) for a, b in sequence] == expected
    distinct = [expected[i] for i in (0, 1, 2, 4)]
    assert all(a != b for i, a in enumerate(distinct) for b in distinct[i + 1:])


def count_builds(monkeypatch):
    """Count the calls of the memoised report builders and which condition
    tags are evaluated, by wrapping the module globals the interpreter reads."""
    counts = {"_direct": 0, "_derived": 0}
    for name in counts:
        original = getattr(orders_module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(orders_module, name, counted)
    evaluated = []

    def tested(tag, test):
        def on_pair(pair):
            evaluated.append(tag)
            return test(pair)
        return on_pair

    monkeypatch.setattr(orders_module, "_CONDITIONS", {
        tag: condition._replace(test=tested(tag, condition.test))
        for tag, condition in orders_module._CONDITIONS.items()})
    return counts, evaluated


def test_each_report_projection_and_condition_built_once_per_pair(monkeypatch):
    counts, evaluated = count_builds(monkeypatch)
    # Equal locations and a normal profile: every gate holds, so every
    # condition but cx's fallback is asked for, most of them by several
    # orders.
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.0, 0.0], [[2.0, -0.3], [-0.3, 1.5]])
    compare(d1, d2)
    assert counts == {"_direct": 9, "_derived": 4}
    assert sorted(evaluated) == sorted(set(orders_module._CONDITIONS) - {"unskewed-psd-difference"})
    # Equal skewed shifts where only Var(beta) diverges: cx's scale clause
    # falls back to the unskewed directions, which read the PSD test once.
    evaluated.clear()
    compare(*zero_projected_shift_pair())
    assert counts == {"_direct": 18, "_derived": 8}
    assert sorted(evaluated) == sorted(orders_module._CONDITIONS)


def test_projection_orders_share_their_parent_clauses():
    reports = compare(mk([0.0, 0.0], np.eye(2)), mk([0.1, 0.2], [[2.0, 0.3], [0.3, 1.5]]))
    for order, parent in orders_module._PARENT_OF.items():
        inherited = reports[order].clauses[1:]
        own = [c for c in reports[parent].clauses if c.tag.startswith("necessary/")]
        assert len(inherited) == len(own), order
        assert all(a is b for a, b in zip(inherited, own)), order


def test_pairs_and_their_memos_are_freed_without_cycle_collection():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.1, 0.1], [[2.0, -0.9], [-0.9, 0.5]])
    gc.collect()
    gc.disable()
    try:
        compare(d1, d2)
        compare(d2, d1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_no_pair_outlives_its_call(monkeypatch):
    built = []

    class Recorded(orders_module._Pair):
        def __init__(self, d1, d2):
            super().__init__(d1, d2)
            built.append(weakref.ref(self))

    monkeypatch.setattr(orders_module, "_Pair", Recorded)
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.1, 0.1], [[2.0, -0.9], [-0.9, 0.5]])
    assert len(compare(d1, d2)) == len(OrderKind)
    assert len(built) == 1 and built[0]() is None
    check_order(d1, d2, OrderKind.LCX)
    check_collective_risk(d1, d2, [1.0, 2.0], OrderKind.ICX)
    assert len(built) == 4 and all(ref() is None for ref in built)


def test_compare_on_two_threads_matches_serial():
    pairs = [
        # copositive_gap: Sigma2 - Sigma1 = Horn / 2, copositive but not PSD.
        (mk(np.zeros(5), 3.0 * np.eye(5)), mk(np.zeros(5), 3.0 * np.eye(5) + 0.5 * HORN_MATRIX)),
        (ghss([0.0, 0.0], np.eye(2), [0.2, 0.1]),
         ghss([0.1, 0.3], [[2.0, 0.3], [0.3, 1.5]], [0.5, 0.1])),
    ]
    serial = [compare(*pair) for pair in pairs]
    rounds = 5
    got = [[], []]
    start = threading.Barrier(2)

    def run(index):
        start.wait(timeout=60)
        for _ in range(rounds):
            got[index].append(compare(*pairs[index]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=run, args=(index,)) for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[reports] * rounds for reports in serial]


def golden_scenarios():
    here = os.path.dirname(__file__)
    for name in ("golden_reports.json.gz", "golden_reports_logistic.json.gz"):
        with gzip.open(os.path.join(here, name), "rt") as handle:
            yield from json.load(handle)


GOLDEN = list(golden_scenarios())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["label"] for case in GOLDEN])
def test_memos_never_outlive_their_pair_on_the_decide_battery(case):
    spec = parse_scenario(json.dumps(case["scenario"]))
    d1, d2 = spec.distribution_1, spec.distribution_2
    assert [compare(d1, d2), compare(d2, d1)] == [fresh(d1, d2), fresh(d2, d1)]


@pytest.mark.parametrize("case", GOLDEN, ids=[case["label"] for case in GOLDEN])
def test_projections_match_reference_on_the_decide_battery(case):
    spec = parse_scenario(json.dumps(case["scenario"]))
    assert_projections_match(spec.distribution_1, spec.distribution_2)


def test_lsemix_loads_no_scipy(tmp_path):
    # lsemix needs numpy alone: the import, a GIG x logistic pair's
    # compare() and pdf, a complete-positivity test that runs every rule of
    # the ladder (a dense n = 5 B'B, which ends Unknown), and a check of a
    # GIG x logistic scenario at 2 * 10^4 samples load no scipy module.
    scenario = os.path.join(os.path.dirname(__file__), "golden_mc", "scenarios", "logistic_gig_2d.json")
    code = (
        "import sys, numpy as np, lsemix\n"
        "from lsemix import (AlphaBetaMap, DensityGenerator, GeneralizedInverseGaussian,\n"
        "                    LseDistribution)\n"
        "from lsemix.cli import main\n"
        "d1, d2 = (LseDistribution(np.full(2, mu), scale * np.eye(2), np.full(2, 0.3),\n"
        "          DensityGenerator('logistic'), AlphaBetaMap.mean_variance(),\n"
        "          GeneralizedInverseGaussian(1.0, 0.5, 2.0)) for mu, scale in ((0.0, 1.0), (0.2, 1.5)))\n"
        "lsemix.compare(d1, d2)\n"
        "d1.pdf(np.zeros(2))\n"
        "b = np.random.default_rng(41).random((8, 5)) + 0.1\n"
        "lsemix.is_completely_positive(b.T @ b)\n"
        f"main(['check', '--spec', {scenario!r}, '--out', {str(tmp_path)!r},\n"
        "      '--samples', '20000', '--quiet'])\n"
        "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == []


# --- collective risk -------------------------------------------------------------------


def test_collective_risk_is_the_projected_report():
    # The multivariate st conditions hold; the report is the projected
    # pair's, with both tail-ratio probes.
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.2, 0.3], np.eye(2))
    weights = [0.5, 0.5]
    r = check_collective_risk(d1, d2, weights, OrderKind.ST)
    assert r.verdict is Verdict.ORDERED
    assert [(p.sigma1, p.sigma2) for p in r.assumption_checks] == [(2.0, 1.0), (1.0, 2.0)]
    projected = compare(d1.linear_functional(weights), d2.linear_functional(weights),
                        [OrderKind.ST])
    assert r == projected[OrderKind.ST]


def test_collective_risk_keeps_every_multivariate_sufficient_verdict():
    # With w >= 0 the multivariate st and icx sufficient conditions imply
    # those of (w'Y1, w'Y2), so the projection loses no ordered verdict.
    rng = np.random.default_rng(7)
    weight_rng = np.random.default_rng(8)
    held = 0
    for _ in range(150):
        d1, d2 = random_battery_pair(rng)
        reports = compare(d1, d2, [OrderKind.ST, OrderKind.ICX])
        weights = weight_rng.exponential(size=d1.dim) * (weight_rng.random(d1.dim) < 0.8)
        weights[weight_rng.integers(d1.dim)] += 0.5
        for order, report in reports.items():
            if report.sufficient is SufficientStatus.HOLDS:
                held += 1
                r = check_collective_risk(d1, d2, weights, order)
                assert r.verdict is Verdict.ORDERED, (d1, d2, weights, order)
                assert len(r.assumption_checks) == 2
    assert held > 50


def test_collective_risk_icx_psd_difference():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.2, 0.3], np.eye(2) + 0.5 * np.ones((2, 2)))
    r = check_collective_risk(d1, d2, [1.0, 2.0], OrderKind.ICX)
    assert r.verdict is Verdict.ORDERED


def test_collective_risk_univariate_fallback():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.0, 0.0], np.array([[1.0, 0.5], [0.5, 1.0]]))
    r = check_collective_risk(d1, d2, [0.5, 0.5], OrderKind.ST)
    assert r.verdict is Verdict.NOT_ORDERED  # projected scales differ


def test_collective_risk_unit_weight_matches_marginal_check():
    d1 = mk([0.0, 1.0], np.diag([1.0, 2.0]))
    d2 = mk([0.5, 1.0], np.diag([1.0, 2.0]))
    r = check_collective_risk(d1, d2, [1.0, 0.0], OrderKind.ST)
    m = check_order(d1.marginal([0]), d2.marginal([0]), OrderKind.ST)
    assert r.verdict == m.verdict


def test_collective_risk_validations():
    d = mk([0.0, 0.0], np.eye(2))
    with pytest.raises(UsageError):
        check_collective_risk(d, d, [0.5, -0.5], OrderKind.ST)
    with pytest.raises(UsageError):
        check_collective_risk(d, d, [0.5, 0.5], OrderKind.CX)
    with pytest.raises(UsageError):
        check_collective_risk(d, d, [0.5], OrderKind.ST)
    # an order name is read as the order
    projected = mk([0.0, 0.0], np.array([[1.0, 0.5], [0.5, 1.0]]))
    for d1, d2 in ((d, d), (d, projected)):
        for order in (OrderKind.ST, OrderKind.ICX):
            assert (check_collective_risk(d1, d2, [0.5, 0.5], order.value)
                    == check_collective_risk(d1, d2, [0.5, 0.5], order))
    # weights that are not finite or all zero fail alike on every pair
    for d1, d2 in ((d, d), (d, projected)):
        for weights in ([np.nan, 0.5], [0.5, np.inf], [0.0, 0.0]):
            with pytest.raises(UsageError, match="portfolio weights"):
                check_collective_risk(d1, d2, weights, OrderKind.ST)


# --- scale-mixture oracle ---------------------------------------------------------------


def test_sme_table_st_row():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.1, 0.2], np.eye(2))
    assert sme_table(d1, d2, OrderKind.ST)[2] is Verdict.ORDERED


def test_sme_table_cx_row():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.0, 0.0], np.eye(2) + 0.3 * np.ones((2, 2)))
    assert sme_table(d1, d2, OrderKind.CX)[2] is Verdict.ORDERED


def test_sme_table_icx_gap_inconclusive():
    sigma1 = 3.0 * np.eye(5)
    sigma2 = sigma1 + 0.5 * np.asarray(HORN_MATRIX)
    d1, d2 = mk(np.zeros(5), sigma1), mk(0.1 * np.ones(5), sigma2)
    assert sme_table(d1, d2, OrderKind.ICX)[2] is Verdict.INCONCLUSIVE


def random_sme_pair(rng, n):
    """Structured random pair: exact equalities with probability 1/2."""
    gen = [NORMAL, STUDENT5, CAUCHY][int(rng.integers(3))]
    mix = [Degenerate(1.0),
           DiscreteWeighted(((0.5, 0.4), (1.5, 0.6))),
           GeneralizedInverseGaussian(1.0, 1.0, 2.0)][int(rng.integers(3))]
    ab = [PLAIN, AlphaBetaMap.scale_only()][int(rng.integers(2))]
    mu1 = rng.normal(size=n)
    mu2 = mu1.copy() if rng.random() < 0.5 else mu1 + rng.uniform(0.05, 0.4, n)
    b = rng.normal(size=(n, n))
    sigma1 = b @ b.T + n * np.eye(n)
    choice = rng.random()
    if choice < 0.3:
        sigma2 = sigma1.copy()
    elif choice < 0.6:
        c = rng.normal(size=(n, n))
        sigma2 = sigma1 + 0.5 * (c @ c.T)
    else:
        c = rng.normal(size=(n, n))
        sigma2 = sigma1 + 0.25 * (c + c.T)
        if np.linalg.eigvalsh(sigma2).min() < 0.1:
            sigma2 = sigma1 + np.abs(0.25 * (c + c.T))
    d1 = mk(mu1, sigma1, gen=gen, ab=ab, mix=mix)
    d2 = mk(mu2, sigma2, gen=gen, ab=ab, mix=mix)
    return d1, d2


def test_sme_router_agrees_with_general_checker():
    rng = np.random.default_rng(15)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        d1, d2 = random_sme_pair(rng, n)
        for order in OrderKind:
            general = check_order(d1, d2, order)
            assert (general.sufficient, general.necessary, general.verdict) == (
                sme_table(d1, d2, order)
            ), (order, d1.describe(), d2.describe())


# --- batch interface and lattice ----------------------------------------------------------


def test_compare_defaults_to_all_orders():
    d = mk([0.0, 0.0], np.eye(2))
    reports = compare(d, d)
    assert set(reports) == set(OrderKind)
    assert all(r.verdict is Verdict.ORDERED for r in reports.values())


def test_compare_accepts_string_names():
    d = mk(0.0, [[1.0]])
    reports = compare(d, d, orders=["st", "icx"])
    assert set(reports) == {OrderKind.ST, OrderKind.ICX}


def test_lattice_st_implies_derived_and_icx():
    d1 = ghss(0.0, [[1.0]], [0.2])
    d2 = ghss(0.3, [[1.0]], [0.5])
    assert check_order(d1, d2, OrderKind.ST).verdict is Verdict.ORDERED
    assert check_order(d1, d2, OrderKind.PLST).verdict is Verdict.ORDERED
    assert check_order(d1, d2, OrderKind.ICX).verdict is Verdict.ORDERED
    assert check_order(d1, d2, OrderKind.IPLCX).verdict is Verdict.ORDERED


def test_lattice_cx_implies_lcx_ilcx():
    d1 = mk([0.0, 0.0], np.eye(2))
    d2 = mk([0.0, 0.0], np.eye(2) + 0.4 * np.ones((2, 2)))
    assert check_order(d1, d2, OrderKind.CX).verdict is Verdict.ORDERED
    assert check_order(d1, d2, OrderKind.LCX).verdict is Verdict.ORDERED
    assert check_order(d1, d2, OrderKind.ILCX).verdict is Verdict.ORDERED


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
def test_property_reflexivity_all_orders(seed, n):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n))
    sigma = b @ b.T + np.eye(n)
    delta = rng.normal(size=n) if rng.random() < 0.5 else np.zeros(n)
    d = mk(rng.normal(size=n), sigma, delta, gen=STUDENT5, ab=MEANVAR,
           mix=DiscreteWeighted(((0.5, 0.3), (1.0, 0.4), (2.0, 0.3))))
    for order in OrderKind:
        assert check_order(d, d, order).verdict is Verdict.ORDERED


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_property_soundness_random_pairs(seed):
    # OrderReport construction itself asserts sufficiency/necessity
    # compatibility; this battery exercises it across random pairs
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    d1, d2 = random_sme_pair(rng, n)
    for order in OrderKind:
        report = check_order(d1, d2, order)
        assert isinstance(report, OrderReport)
        if report.sufficient is SufficientStatus.HOLDS:
            assert report.verdict is Verdict.ORDERED


# --- the rounding band ------------------------------------------------------------


def band_law(mu, sigma=((1.0, 0.3), (0.3, 2.0))):
    return mk(mu, sigma, [0.5, -0.2], ab=SKEW, mix=BetaLambdaOne(3.0))


def verdicts_of(d1, d2):
    return {order: report.verdict for order, report in compare(d1, d2).items()}


@pytest.mark.parametrize("c", [1e6, 6e7, 1e8])
def test_verdicts_do_not_depend_on_the_origin(c):
    # A band proportional to |mu| outgrew the projected differences from
    # c = 6e7 on: cx, dcx, ccx, sm, cp and cop read ordered both ways, and
    # lcx's report was unsound (sufficient held, a direction was violated).
    at_zero = band_law([0.0, 0.0]), band_law([0.05, 0.0])
    shifted = band_law([c, c]), band_law([c + 0.05, c])
    assert verdicts_of(*shifted) == verdicts_of(*at_zero)
    assert verdicts_of(*shifted[::-1]) == verdicts_of(*at_zero[::-1])


def test_a_location_move_of_1e_10_is_no_equality_in_law():
    d1, d2 = band_law([0.0, 0.0]), band_law([1e-10, 0.0])
    forward, reverse = verdicts_of(d1, d2), verdicts_of(d2, d1)
    assert forward[OrderKind.ST] is Verdict.ORDERED
    assert reverse[OrderKind.ST] is not Verdict.ORDERED
    for order in (OrderKind.CX, OrderKind.DCX, OrderKind.SM):
        assert forward[order] is reverse[order] is Verdict.NOT_ORDERED, order


def test_a_scale_move_of_1e_10_is_no_equality_in_law():
    sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
    d1 = band_law([0.0, 0.0], sigma)
    d2 = band_law([0.0, 0.0], sigma - 1e-10 * np.outer([0.0, 1.0], [0.0, 1.0]))
    assert verdicts_of(d1, d2)[OrderKind.CX] is Verdict.NOT_ORDERED
    assert verdicts_of(d2, d1)[OrderKind.CX] is Verdict.ORDERED


def test_mean_band_covers_the_summands():
    # mu_i = -E(beta) delta_i: both means are 0, computed as rounding
    # residues of mu_i + E(beta) delta_i.  A band relative to those residues
    # reads the mean ordering as violated.
    mix, ab = GeneralizedInverseGaussian(1.0, 1.0, 2.0), MEANVAR
    e_beta = beta_mean(mix, ab)
    rng = np.random.default_rng(3)
    for _ in range(20):
        d1, d2 = (mk(-e_beta * delta, np.eye(3), delta, ab=ab, mix=mix)
                  for delta in rng.normal(size=(2, 3)))
        for a, b in ((d1, d2), (d2, d1)):
            reports = compare(a, b)
            assert [c.passed for c in reports[OrderKind.ST].clauses
                    if c.tag == "necessary/mean-ordering"] == [True]
            for order in (OrderKind.PLST, OrderKind.IPLCX):
                assert reports[order].verdict is Verdict.INCONCLUSIVE, order
