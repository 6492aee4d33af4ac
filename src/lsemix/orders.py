"""Decision engine for integral stochastic orders between two LSE vectors.

Each ``check_*`` function evaluates two condition groups on a pair of
distributions sharing (generator, map, mixing):

* a *sufficient* group — parameter conditions that imply the order outright
  (location shift valid for every mixing value, scale-matrix relations in the
  appropriate cone);
* a *necessary* group — conditions that must hold whenever the order holds,
  so a failed clause certifies Not Ordered.

The verdict combines them: sufficient Holds => Ordered; necessary Violated =>
NotOrdered; anything else is Inconclusive (this engine never guesses beyond
what the conditions establish; the Monte Carlo module can probe the gap).

Three gates keep the necessary side honest:

* tail-ratio gates — the necessity arguments for st/plst/icx/iplcx/uo rest on
  the limit behaviour of the density-generator ratio (conditions A and B of
  the tail classification); when the shared generator fails the required
  condition the clauses are skipped and the report says AssumptionUnmet;
* moment gates — clauses derived from mean or covariance functionals are
  skipped (None) when the corresponding model moments diverge;
* cone gates — an Unknown or size-capped membership test propagates as an
  unevaluated clause, never as a verdict.

Mean comparisons use E(Y) = mu + E(beta) * delta.  When E(beta) diverges the
comparison is still decided in the one case where it is exact — equal shift
vectors, where the mean difference reduces to mu_2 - mu_1 — and is otherwise
left unevaluated.

Equalities and inequalities among parameters are tolerance-based (relative
1e-9, scaled by the larger magnitude), because the theorems state exact
identities the floating world cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.stats import qmc

from .cones import (
    ConeStatus,
    ConeVerdict,
    is_completely_positive,
    is_copositive,
    is_psd,
)
from .distributions import LseDistribution
from .errors import IncomparableFamiliesError, SizeLimitError, UsageError
from .generators import LimitRatioResult, assumption_profile
from .mixing import beta_mean, beta_range

__all__ = [
    "OrderKind",
    "SufficientStatus",
    "NecessaryStatus",
    "Verdict",
    "Clause",
    "OrderReport",
    "check_st",
    "check_cx",
    "check_icx",
    "check_dcx",
    "check_ccx",
    "check_sm",
    "check_uo",
    "check_cp",
    "check_cop",
    "check_derived",
    "check_collective_risk",
    "check_sme_table",
    "check_order",
    "compare",
]

RELATIVE_TOL = 1e-9

#: Count of low-discrepancy directions used by the projection-based
#: necessary tests of the derived orders.
_HALTON_DIRECTIONS = 32


class OrderKind(str, Enum):
    ST = "st"
    PLST = "plst"
    CX = "cx"
    LCX = "lcx"
    ILCX = "ilcx"
    ICX = "icx"
    IPLCX = "iplcx"
    DCX = "dcx"
    CCX = "ccx"
    SM = "sm"
    UO = "uo"
    CP = "cp"
    COP = "cop"


class SufficientStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not_applicable"


class NecessaryStatus(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    NOT_APPLICABLE = "not_applicable"
    ASSUMPTION_UNMET = "assumption_unmet"


class Verdict(Enum):
    ORDERED = "ordered"
    NOT_ORDERED = "not_ordered"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Clause:
    """One evaluated (or skipped) condition; ``passed`` is None when the
    clause could not be evaluated (unmet premise, divergent moments,
    undecided cone membership, or an unmet tail assumption)."""

    tag: str
    text: str
    passed: bool | None


@dataclass(frozen=True)
class OrderReport:
    order: OrderKind
    sufficient: SufficientStatus
    necessary: NecessaryStatus
    verdict: Verdict
    clauses: tuple[Clause, ...] = ()
    assumption_checks: tuple[LimitRatioResult, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(self.clauses))
        object.__setattr__(self, "assumption_checks", tuple(self.assumption_checks))
        if (
            self.sufficient is SufficientStatus.HOLDS
            and self.necessary is NecessaryStatus.VIOLATED
        ):
            raise AssertionError(
                f"unsound report for {self.order}: sufficient holds yet a "
                "necessary condition is violated"
            )
        expected = _verdict_of(self.sufficient, self.necessary)
        if self.verdict is not expected:
            raise AssertionError(
                f"verdict {self.verdict} inconsistent with "
                f"(sufficient={self.sufficient}, necessary={self.necessary})"
            )


def _verdict_of(sufficient: SufficientStatus, necessary: NecessaryStatus) -> Verdict:
    if sufficient is SufficientStatus.HOLDS:
        return Verdict.ORDERED
    if necessary is NecessaryStatus.VIOLATED:
        return Verdict.NOT_ORDERED
    return Verdict.INCONCLUSIVE


# --- tolerance-based comparators (shared by every checker and the router) ----


def _tol_of(*arrays: np.ndarray) -> float:
    scale = 1.0
    for a in arrays:
        if a.size:
            scale = max(scale, float(np.abs(a).max()))
    return RELATIVE_TOL * scale


def vec_equal(x: np.ndarray, y: np.ndarray) -> bool:
    return float(np.abs(x - y).max(initial=0.0)) <= _tol_of(x, y)


def vec_leq(x: np.ndarray, y: np.ndarray) -> bool:
    return bool(np.all(x <= y + _tol_of(x, y)))


def vec_nonneg(x: np.ndarray) -> bool:
    return bool(np.all(x >= -_tol_of(x)))




# --- gated condition evaluation -----------------------------------------------


@dataclass
class _NecItem:
    tag: str
    text: str
    value: bool | None
    assumption_skipped: bool = False


_SKIP_ASSUMPTION = " [not evaluated: tail-ratio assumption unmet]"
_SKIP_MOMENTS = " [not evaluated: required moments diverge]"
_SKIP_PREMISE = " [not evaluated: neither location nor shift equality premise holds]"
_SKIP_CONE = " [not evaluated: cone membership undecided]"
_SKIP_MARGINALS = " [not evaluated: marginals differ, clause premise unmet]"


@dataclass
class _Pair:
    """Precomputed shared quantities for one ordered pair of distributions."""

    d1: LseDistribution
    d2: LseDistribution
    mu_shift: np.ndarray = field(init=False)  # mu2 - mu1
    delta_shift: np.ndarray = field(init=False)  # effective delta2 - delta1
    sigma_diff: np.ndarray = field(init=False)  # Sigma2 - Sigma1

    def __post_init__(self) -> None:
        self.mu_shift = self.d2.mu - self.d1.mu
        self.delta_shift = self.d2.effective_delta() - self.d1.effective_delta()
        self.sigma_diff = self.d2.sigma - self.d1.sigma

    @property
    def e_beta(self) -> float:
        return beta_mean(self.d1.mixing, self.d1.ab_map)

    @property
    def beta_bounds(self) -> tuple[float, float]:
        return beta_range(self.d1.mixing, self.d1.ab_map)

    def profile(self) -> tuple[bool, bool, tuple[LimitRatioResult, ...]]:
        return assumption_profile(self.d1.generator)

    def covariances_defined(self) -> bool:
        return (
            self.d1.moments().covariance is not None
            and self.d2.moments().covariance is not None
        )

    # condition primitives ----------------------------------------------------

    def location_all_z(self) -> bool:
        """mu2 - mu1 + b (delta2 - delta1) >= 0 for every attainable b.

        The left side is affine in b, so the closure endpoints of the beta
        range decide it; an infinite endpoint contributes the sign condition
        on the shift difference alone.
        """
        a, d = self.mu_shift, self.delta_shift
        lo, hi = self.beta_bounds
        conditions = []
        if math.isinf(lo):
            conditions.append(vec_nonneg(-d))
        else:
            conditions.append(vec_nonneg(a + lo * d))
        if math.isinf(hi):
            conditions.append(vec_nonneg(d))
        else:
            conditions.append(vec_nonneg(a + hi * d))
        if math.isinf(lo) and math.isinf(hi):
            conditions.append(vec_nonneg(a))
        return all(conditions)

    def mean_ordering(self) -> bool | None:
        """E(Y1) <= E(Y2) componentwise; None when it cannot be decided.

        With equal shift vectors the mean difference is exactly mu2 - mu1
        regardless of E(beta), so that case is decided even when E(beta)
        diverges.
        """
        if self.delta_equal():
            return vec_leq(self.d1.mu, self.d2.mu)
        if not math.isfinite(self.e_beta):
            return None
        return vec_leq(
            self.d1.mu + self.e_beta * self.d1.effective_delta(),
            self.d2.mu + self.e_beta * self.d2.effective_delta(),
        )

    def mean_equality(self) -> bool | None:
        if self.delta_equal():
            return self.mu_equal()
        if not math.isfinite(self.e_beta):
            return None
        return vec_equal(
            self.d1.mu + self.e_beta * self.d1.effective_delta(),
            self.d2.mu + self.e_beta * self.d2.effective_delta(),
        )

    def mu_equal(self) -> bool:
        return vec_equal(self.d1.mu, self.d2.mu)

    def delta_equal(self) -> bool:
        return vec_equal(self.d1.effective_delta(), self.d2.effective_delta())

    def sigma_equal(self) -> bool:
        return vec_equal(self.d1.sigma, self.d2.sigma)

    def sigma_entrywise_leq(self) -> bool:
        return vec_leq(self.d1.sigma, self.d2.sigma)

    def diag_equal(self) -> bool:
        return vec_equal(np.diag(self.d1.sigma), np.diag(self.d2.sigma))

    def diag_leq(self) -> bool:
        return vec_leq(np.diag(self.d1.sigma), np.diag(self.d2.sigma))

    def offdiag_equal(self) -> bool:
        mask = ~np.eye(self.d1.dim, dtype=bool)
        return vec_equal(self.d1.sigma[mask], self.d2.sigma[mask])

    def offdiag_leq(self) -> bool:
        mask = ~np.eye(self.d1.dim, dtype=bool)
        return vec_leq(self.d1.sigma[mask], self.d2.sigma[mask])

    def same_marginals(self) -> bool:
        return self.mu_equal() and self.delta_equal() and self.diag_equal()

    # cone primitives; None encodes "undecided" -------------------------------
    # Each verdict is computed once per pair and read by every clause.

    @cached_property
    def psd_verdict(self) -> ConeVerdict:
        return is_psd(self.sigma_diff)

    @cached_property
    def copositive_verdict(self) -> ConeVerdict | None:
        """None when Sigma2 - Sigma1 exceeds the copositivity size cap."""
        try:
            return is_copositive(self.sigma_diff)
        except SizeLimitError:
            return None

    @cached_property
    def completely_positive_verdict(self) -> ConeVerdict:
        return is_completely_positive(self.sigma_diff)

    def psd_diff(self) -> bool:
        return self.psd_verdict.status is ConeStatus.INSIDE

    def copositive_diff(self) -> bool | None:
        verdict = self.copositive_verdict
        if verdict is None:
            return None
        return verdict.status is ConeStatus.INSIDE

    def copositive_witness(self) -> np.ndarray | None:
        verdict = self.copositive_verdict
        if verdict is not None and verdict.status is ConeStatus.OUTSIDE:
            return np.asarray(verdict.witness)
        return None

    def completely_positive_diff(self) -> bool | None:
        verdict = self.completely_positive_verdict
        if verdict.status is ConeStatus.UNKNOWN:
            return None
        return verdict.status is ConeStatus.INSIDE


def _validate_pair(d1: LseDistribution, d2: LseDistribution) -> _Pair:
    if d1.dim != d2.dim:
        raise UsageError(f"dimension mismatch: {d1.dim} vs {d2.dim}")
    if not d1.shares_family(d2):
        raise IncomparableFamiliesError(
            "the comparison theory requires a shared generator, alpha/beta "
            "map, and mixing law; got "
            f"({d1.describe()}) vs ({d2.describe()})"
        )
    return _Pair(d1, d2)


# --- report assembly ------------------------------------------------------------


def _sufficient_status(clauses: list[Clause]) -> SufficientStatus:
    values = [c.passed for c in clauses]
    if all(v is True for v in values):
        return SufficientStatus.HOLDS
    if any(v is False for v in values):
        return SufficientStatus.FAILS
    return SufficientStatus.NOT_APPLICABLE


def _necessary_status(items: list[_NecItem]) -> NecessaryStatus:
    if any(item.value is False for item in items):
        return NecessaryStatus.VIOLATED
    if any(item.assumption_skipped for item in items):
        return NecessaryStatus.ASSUMPTION_UNMET
    if any(item.value is None for item in items):
        return NecessaryStatus.NOT_APPLICABLE
    return NecessaryStatus.HOLDS


def _assemble(
    order: OrderKind,
    suff_clauses: list[Clause],
    nec_items: list[_NecItem],
    assumption_checks: tuple[LimitRatioResult, ...] = (),
) -> OrderReport:
    sufficient = _sufficient_status(suff_clauses)
    necessary = _necessary_status(nec_items)
    clauses = list(suff_clauses)
    clauses.extend(
        Clause("necessary/" + item.tag, item.text, item.value) for item in nec_items
    )
    return OrderReport(
        order=order,
        sufficient=sufficient,
        necessary=necessary,
        verdict=_verdict_of(sufficient, necessary),
        clauses=tuple(clauses),
        assumption_checks=assumption_checks,
    )


def _suff(tag: str, text: str, value: bool | None) -> Clause:
    return Clause("sufficient/" + tag, text, value)


def _gated(
    tag: str, text: str, gate_ok: bool, evaluate: Callable[[], bool | None],
    none_note: str = _SKIP_MOMENTS,
) -> _NecItem:
    """Evaluate a necessary clause behind a tail-assumption gate."""
    if not gate_ok:
        return _NecItem(tag, text + _SKIP_ASSUMPTION, None, assumption_skipped=True)
    value = evaluate()
    if value is None:
        return _NecItem(tag, text + none_note, None)
    return _NecItem(tag, text, value)


def _moment_gated(
    tag: str, text: str, defined: bool, evaluate: Callable[[], bool | None]
) -> _NecItem:
    if not defined:
        return _NecItem(tag, text + _SKIP_MOMENTS, None)
    value = evaluate()
    if value is None:
        return _NecItem(tag, text + _SKIP_CONE, None)
    return _NecItem(tag, text, value)


# --- individual order checks ------------------------------------------------------


def check_st(d1: LseDistribution, d2: LseDistribution) -> OrderReport:
    """Usual stochastic order: componentwise P(Y > t) dominance.

    Sufficient: the location shift is nonnegative for every mixing value and
    the scale matrices coincide.  Necessary (behind the two-sided tail-ratio
    condition, applied to the family's univariate generator): mean ordering
    and scale equality.
    """
    pair = _validate_pair(d1, d2)
    suff = [
        _suff(
            "location-all-z",
            "mu2 - mu1 + b (delta2 - delta1) >= 0 over the full beta range",
            pair.location_all_z(),
        ),
        _suff("scale-equal", "Sigma1 = Sigma2", pair.sigma_equal()),
    ]
    sat1, _, probes = pair.profile()
    nec = [
        _gated("mean-ordering", "E(Y1) <= E(Y2) componentwise", sat1,
               pair.mean_ordering),
        _gated("scale-equal", "Sigma1 = Sigma2", sat1,
               lambda: pair.sigma_equal()),
    ]
    return _assemble(OrderKind.ST, suff, nec, probes)


def check_cx(d1: LseDistribution, d2: LseDistribution) -> OrderReport:
    """Convex order: equal means with a PSD scale increase.

    The necessity side is an if-and-only-if once one of the two equality
    premises (locations equal, or shifts equal) holds; with neither premise
    the conditions are not applicable.
    """
    pair = _validate_pair(d1, d2)
    suff = [
        _suff("location-equal", "mu1 = mu2", pair.mu_equal()),
        _suff("shift-equal", "delta1 = delta2", pair.delta_equal()),
        _suff("psd-difference", "Sigma2 - Sigma1 is positive semi-definite",
              pair.psd_diff()),
    ]
    nec = _equal_mean_family_necessity(
        pair,
        cone_tag="psd-difference",
        cone_text="Sigma2 - Sigma1 is positive semi-definite",
        cone_value=pair.psd_diff,
    )
    return _assemble(OrderKind.CX, suff, nec)


def _equal_mean_family_necessity(
    pair: _Pair,
    cone_tag: str,
    cone_text: str,
    cone_value: Callable[[], bool | None],
    extra: list[_NecItem] | None = None,
) -> list[_NecItem]:
    """Necessity block shared by the equal-mean orders (cx, dcx, ccx, cp, cop).

    Applicable only under one of the theorem premises (locations equal or
    shifts equal); the clauses are the mean equality E(Y1) = E(Y2) and a
    scale-matrix condition whose derivation needs finite covariances.
    """
    premise = pair.mu_equal() or pair.delta_equal()
    if not premise:
        return [
            _NecItem("mean-equal", "E(Y1) = E(Y2)" + _SKIP_PREMISE, None),
            _NecItem(cone_tag, cone_text + _SKIP_PREMISE, None),
        ]
    mean_value = pair.mean_equality()
    items = [
        _NecItem(
            "mean-equal",
            "E(Y1) = E(Y2)" + ("" if mean_value is not None else _SKIP_MOMENTS),
            mean_value,
        ),
        _moment_gated(cone_tag, cone_text, pair.covariances_defined(), cone_value),
    ]
    if extra:
        items.extend(extra)
    return items


def check_icx(d1: LseDistribution, d2: LseDistribution) -> OrderReport:
    """Increasing convex order.

    Sufficient: all-z location ordering plus a PSD scale difference.
    Necessary (behind the one-sided tail-ratio condition on nonnegative
    projections): mean ordering and a copositive scale difference — the
    weaker cone, so a copositive-but-not-PSD difference leaves the pair
    Inconclusive.
    """
    pair = _validate_pair(d1, d2)
    suff = [
        _suff(
            "location-all-z",
            "mu2 - mu1 + b (delta2 - delta1) >= 0 over the full beta range",
            pair.location_all_z(),
        ),
        _suff("psd-difference", "Sigma2 - Sigma1 is positive semi-definite",
              pair.psd_diff()),
    ]
    _, sat2, probes = pair.profile()
    nec = [
        _gated("mean-ordering", "E(Y1) <= E(Y2) componentwise", sat2,
               pair.mean_ordering),
        _gated("copositive-difference", "Sigma2 - Sigma1 is copositive", sat2,
               pair.copositive_diff, none_note=_SKIP_CONE),
    ]
    return _assemble(OrderKind.ICX, suff, nec, probes)


def check_dcx(d1: LseDistribution, d2: LseDistribution) -> OrderReport:
    """Directionally convex order: entrywise scale dominance at equal means."""
    pair = _validate_pair(d1, d2)
    suff = [
        _suff("location-equal", "mu1 = mu2", pair.mu_equal()),
        _suff("shift-equal", "delta1 = delta2", pair.delta_equal()),
        _suff("entrywise-difference", "Sigma2 >= Sigma1 entrywise",
              pair.sigma_entrywise_leq()),
    ]
    nec = _equal_mean_family_necessity(
        pair,
        cone_tag="entrywise-difference",
        cone_text="Sigma2 >= Sigma1 entrywise",
        cone_value=lambda: pair.sigma_entrywise_leq(),
    )
    return _assemble(OrderKind.DCX, suff, nec)


def check_ccx(d1: LseDistribution, d2: LseDistribution) -> OrderReport:
    """Componentwise convex order: variances may grow, covariances must not move."""
    pair = _validate_pair(d1, d2)
    suff = [
        _suff("location-equal", "mu1 = mu2", pair.mu_equal()),
        _suff("shift-equal", "delta1 = delta2", pair.delta_equal()),
        _suff("diag-ordering", "sigma1_ii <= sigma2_ii for every i", pair.diag_leq()),
        _suff("offdiag-equal", "sigma1_ij = sigma2_ij for every i != j",
              pair.offdiag_equal()),
    ]
    premise = pair.mu_equal() or pair.delta_equal()
    if not premise:
        nec = [
            _NecItem("mean-equal", "E(Y1) = E(Y2)" + _SKIP_PREMISE, None),
            _NecItem("diag-ordering",
                     "sigma1_ii <= sigma2_ii for every i" + _SKIP_PREMISE, None),
            _NecItem("offdiag-equal",
                     "sigma1_ij = sigma2_ij for every i != j" + _SKIP_PREMISE, None),
        ]
    else:
        covs = pair.covariances_defined()
        mean_value = pair.mean_equality()
        nec = [
            _NecItem(
                "mean-equal",
                "E(Y1) = E(Y2)" + ("" if mean_value is not None else _SKIP_MOMENTS),
                mean_value,
            ),
            _moment_gated("diag-ordering", "sigma1_ii <= sigma2_ii for every i",
                          covs, lambda: pair.diag_leq()),
            _moment_gated("offdiag-equal", "sigma1_ij = sigma2_ij for every i != j",
                          covs, lambda: pair.offdiag_equal()),
        ]
    return _assemble(OrderKind.CCX, suff, nec)


def check_sm(d1: LseDistribution, d2: LseDistribution) -> OrderReport:
    """Supermodular order: same marginals, off-diagonal covariances increase.

    This is an unconditional if-and-only-if: marginal equality pins down
    (mu, delta, diagonal) by identifiability, and the off-diagonal ordering
    is necessary whenever second moments exist.
    """
    pair = _validate_pair(d1, d2)
    marginal_clauses = [
        ("location-equal", "mu1 = mu2", pair.mu_equal()),
        ("shift-equal", "delta1 = delta2", pair.delta_equal()),
        ("diag-equal", "sigma1_ii = sigma2_ii for every i", pair.diag_equal()),
    ]
    suff = [_suff(tag, text, val) for tag, text, val in marginal_clauses]
    suff.append(
        _suff("offdiag-ordering", "sigma1_ij <= sigma2_ij for every i != j",
              pair.offdiag_leq())
    )
    nec = [_NecItem(tag, text, val) for tag, text, val in marginal_clauses]
    nec.append(
        _moment_gated("offdiag-ordering", "sigma1_ij <= sigma2_ij for every i != j",
                      pair.covariances_defined(), lambda: pair.offdiag_leq())
    )
    return _assemble(OrderKind.SM, suff, nec)


def check_uo(d1: LseDistribution, d2: LseDistribution) -> OrderReport:
    """Upper orthant order: P(Y > t) dominance jointly over all corners.

    Sufficient: all-z location ordering with equal diagonals and increased
    off-diagonals.  Necessary: mean ordering and diagonal equality (behind
    the two-sided tail-ratio condition, via the component marginals); when
    the marginals already match, the off-diagonal ordering is necessary as
    well (through the bivariate supermodular equivalence).
    """
    pair = _validate_pair(d1, d2)
    suff = [
        _suff(
            "location-all-z",
            "mu2 - mu1 + b (delta2 - delta1) >= 0 over the full beta range",
            pair.location_all_z(),
        ),
        _suff("diag-equal", "sigma1_ii = sigma2_ii for every i", pair.diag_equal()),
        _suff("offdiag-ordering", "sigma1_ij <= sigma2_ij for every i != j",
              pair.offdiag_leq()),
    ]
    sat1, _, probes = pair.profile()
    nec = [
        _gated("mean-ordering", "E(Y1) <= E(Y2) componentwise", sat1,
               pair.mean_ordering),
        _gated("diag-equal", "sigma1_ii = sigma2_ii for every i", sat1,
               lambda: pair.diag_equal()),
    ]
    offdiag_text = "sigma1_ij <= sigma2_ij for every i != j (same-marginal pairs)"
    if pair.same_marginals():
        nec.append(
            _moment_gated("offdiag-ordering", offdiag_text,
                          pair.covariances_defined(), lambda: pair.offdiag_leq())
        )
    else:
        nec.append(_NecItem("offdiag-ordering", offdiag_text + _SKIP_MARGINALS, None))
    return _assemble(OrderKind.UO, suff, nec, probes)


def check_cp(d1: LseDistribution, d2: LseDistribution) -> OrderReport:
    """Order generated by functions with completely positive Hessians.

    The matrix condition lives in the dual cone: the scale difference must
    be copositive.  Since completely positive Hessians are a subset of PSD
    Hessians, this order is weaker than cx — a copositive-but-not-PSD
    difference can be cp-ordered yet fail cx.
    """
    pair = _validate_pair(d1, d2)
    suff = [
        _suff("location-equal", "mu1 = mu2", pair.mu_equal()),
        _suff("shift-equal", "delta1 = delta2", pair.delta_equal()),
        _suff("copositive-difference", "Sigma2 - Sigma1 is copositive",
              pair.copositive_diff()),
    ]
    nec = _equal_mean_family_necessity(
        pair,
        cone_tag="copositive-difference",
        cone_text="Sigma2 - Sigma1 is copositive",
        cone_value=pair.copositive_diff,
    )
    return _assemble(OrderKind.CP, suff, nec)


def check_cop(d1: LseDistribution, d2: LseDistribution) -> OrderReport:
    """Order generated by functions with copositive Hessians.

    Dual to cp: the scale difference must be completely positive, the
    strongest of the matrix conditions used by this engine.
    """
    pair = _validate_pair(d1, d2)
    suff = [
        _suff("location-equal", "mu1 = mu2", pair.mu_equal()),
        _suff("shift-equal", "delta1 = delta2", pair.delta_equal()),
        _suff("completely-positive-difference",
              "Sigma2 - Sigma1 is completely positive",
              pair.completely_positive_diff()),
    ]
    nec = _equal_mean_family_necessity(
        pair,
        cone_tag="completely-positive-difference",
        cone_text="Sigma2 - Sigma1 is completely positive",
        cone_value=pair.completely_positive_diff,
    )
    return _assemble(OrderKind.COP, suff, nec)


# --- derived orders over projections ----------------------------------------------


_PARENT_OF = {
    OrderKind.PLST: OrderKind.ST,
    OrderKind.LCX: OrderKind.CX,
    OrderKind.ILCX: OrderKind.CX,
    OrderKind.IPLCX: OrderKind.ICX,
}

_PARENT_CHECK = {}  # populated after definitions


def _halton_directions(n: int, signed: bool) -> np.ndarray:
    if n == 1:
        return np.empty((0, 1))
    sampler = qmc.Halton(d=n, scramble=False)
    points = sampler.random(_HALTON_DIRECTIONS + 1)[1:]  # drop the zero point
    if signed:
        points = 2.0 * points - 1.0
    norms = np.linalg.norm(points, axis=1)
    keep = norms > 1e-9
    return points[keep] / norms[keep, None]


def _projection_directions(pair: _Pair, signed: bool) -> list[np.ndarray]:
    """Deterministic directions for the univariate necessary tests.

    Axis vectors and pair sums identify the mean vector and the full scale
    matrix by polarization; the low-discrepancy bundle and the adversarial
    directions (most-negative eigenvector, copositivity violation point)
    probe the cones away from the axes.
    """
    n = pair.d1.dim
    eye = np.eye(n)
    directions = [eye[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            directions.append((eye[i] + eye[j]) / math.sqrt(2.0))
            if signed:
                directions.append((eye[i] - eye[j]) / math.sqrt(2.0))
    directions.extend(_halton_directions(n, signed))
    if signed:
        eigenvalues, eigenvectors = np.linalg.eigh(pair.sigma_diff)
        if eigenvalues[0] < 0.0:
            directions.append(eigenvectors[:, 0])
    else:
        witness = pair.copositive_witness()
        if witness is not None and float(np.linalg.norm(witness)) > 1e-9:
            directions.append(witness / float(np.linalg.norm(witness)))
    return directions


def check_derived(
    d1: LseDistribution, d2: LseDistribution, order: OrderKind
) -> OrderReport:
    """Orders defined through univariate projections (plst, lcx, ilcx, iplcx).

    Sufficiency is inherited from the parent order (st, cx, or icx: each
    parent implies its projection order).  The necessary side combines the
    parent theorem's conditions — which remain necessary for the projection
    variants — with direct univariate checks of every projection in a
    deterministic direction set.
    """
    if order not in _PARENT_OF:
        raise UsageError(f"{order} is not a projection-derived order")
    parent_kind = _PARENT_OF[order]
    parent_report = _PARENT_CHECK[parent_kind](d1, d2)
    pair = _validate_pair(d1, d2)

    suff = [
        _suff(
            "parent-order",
            f"the {parent_kind.value} sufficient conditions hold "
            f"(implies {order.value})",
            parent_report.sufficient is SufficientStatus.HOLDS,
        )
    ]

    # parent necessity carries over to the projection variant
    nec = [
        _NecItem(item.tag.removeprefix("necessary/"), item.text, item.passed,
                 assumption_skipped=(
                     item.passed is None and _SKIP_ASSUMPTION in item.text))
        for item in parent_report.clauses
        if item.tag.startswith("necessary/")
    ]

    signed = order in (OrderKind.LCX, OrderKind.ILCX)
    directions = _projection_directions(pair, signed)
    check = _PARENT_CHECK[parent_kind]
    statuses = []
    first_violation: int | None = None
    for index, direction in enumerate(directions):
        report = check(
            d1.linear_functional(direction), d2.linear_functional(direction)
        )
        statuses.append(report.necessary)
        if report.necessary is NecessaryStatus.VIOLATED and first_violation is None:
            first_violation = index
    tag = "projection-directions"
    text = (
        f"univariate {parent_kind.value} necessary conditions along "
        f"{len(directions)} fixed directions"
    )
    if first_violation is not None:
        nec.append(_NecItem(
            tag, text + f" (violated at direction {first_violation})", False))
    elif any(s is NecessaryStatus.ASSUMPTION_UNMET for s in statuses):
        nec.append(_NecItem(tag, text + _SKIP_ASSUMPTION, None,
                            assumption_skipped=True))
    elif any(s is NecessaryStatus.NOT_APPLICABLE for s in statuses):
        nec.append(_NecItem(tag, text + _SKIP_MOMENTS, None))
    else:
        nec.append(_NecItem(tag, text, True))
    return _assemble(order, suff, nec, parent_report.assumption_checks)


def check_collective_risk(
    d1: LseDistribution,
    d2: LseDistribution,
    weights,
    order: OrderKind,
) -> OrderReport:
    """Compare weighted portfolio sums S_i = w' Y_i under st or icx.

    When the multivariate sufficient conditions of the parent theorem hold,
    the portfolio conclusion follows with no univariate work; otherwise the
    projected univariate pair is checked directly.
    """
    if order not in (OrderKind.ST, OrderKind.ICX):
        raise UsageError("collective risk comparison supports only st and icx")
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != d1.dim:
        raise UsageError(
            f"expected {d1.dim} portfolio weights, got {weights.size}")
    if np.any(weights < 0.0):
        raise UsageError("portfolio weights must be nonnegative")
    pair = _validate_pair(d1, d2)
    location = pair.location_all_z()
    if order is OrderKind.ST:
        aggregate_ok = location and pair.sigma_equal()
        scale_text = "Sigma1 = Sigma2"
    else:
        aggregate_ok = location and pair.psd_diff()
        scale_text = "Sigma2 - Sigma1 is positive semi-definite"
    if aggregate_ok:
        suff = [
            _suff(
                "portfolio-aggregate",
                "all-z location ordering and " + scale_text
                + f" imply the {order.value} ordering of the weighted sums",
                True,
            )
        ]
        return _assemble(order, suff, [])
    s1 = d1.linear_functional(weights)
    s2 = d2.linear_functional(weights)
    check = check_st if order is OrderKind.ST else check_icx
    return check(s1, s2)


# --- scale-mixture shortcut table ---------------------------------------------------


def check_sme_table(
    d1: LseDistribution, d2: LseDistribution, order: OrderKind
) -> OrderReport:
    """Comparison criteria specialized to scale mixtures (no location shift).

    An independent transcription of the simplified criteria for delta = 0:
    every row reduces to a location comparison plus a scale-matrix cone or
    entrywise condition.  Shares the low-level comparators and gates with
    the general checkers so the two routes can be cross-validated.
    """
    if not (d1.is_sme and d2.is_sme):
        raise UsageError(
            "the simplified criteria apply only to scale mixtures "
            "(zero shift vector)")
    pair = _validate_pair(d1, d2)
    sat1, sat2, probes = pair.profile()
    mu_leq = vec_leq(d1.mu, d2.mu)
    mu_eq = pair.mu_equal()
    covs = pair.covariances_defined()

    def report(suff, nec, checks=()):
        return _assemble(order, suff, nec, checks)

    if order in (OrderKind.ST, OrderKind.PLST):
        suff = [
            _suff("location-ordering", "mu1 <= mu2", mu_leq),
            _suff("scale-equal", "Sigma1 = Sigma2", pair.sigma_equal()),
        ]
        nec = [
            _gated("location-ordering", "mu1 <= mu2", sat1, lambda: mu_leq),
            _gated("scale-equal", "Sigma1 = Sigma2", sat1,
                   lambda: pair.sigma_equal()),
        ]
        return report(suff, nec, probes)
    if order in (OrderKind.CX, OrderKind.LCX, OrderKind.ILCX):
        suff = [
            _suff("location-equal", "mu1 = mu2", mu_eq),
            _suff("psd-difference", "Sigma2 - Sigma1 is positive semi-definite",
                  pair.psd_diff()),
        ]
        nec = [
            _NecItem("location-equal", "mu1 = mu2", mu_eq),
            _moment_gated("psd-difference",
                          "Sigma2 - Sigma1 is positive semi-definite",
                          covs, pair.psd_diff),
        ]
        return report(suff, nec)
    if order in (OrderKind.ICX, OrderKind.IPLCX):
        suff = [
            _suff("location-ordering", "mu1 <= mu2", mu_leq),
            _suff("psd-difference", "Sigma2 - Sigma1 is positive semi-definite",
                  pair.psd_diff()),
        ]
        nec = [
            _gated("location-ordering", "mu1 <= mu2", sat2, lambda: mu_leq),
            _gated("copositive-difference", "Sigma2 - Sigma1 is copositive",
                   sat2, pair.copositive_diff, none_note=_SKIP_CONE),
        ]
        return report(suff, nec, probes)
    if order is OrderKind.DCX:
        suff = [
            _suff("location-equal", "mu1 = mu2", mu_eq),
            _suff("entrywise-difference", "Sigma2 >= Sigma1 entrywise",
                  pair.sigma_entrywise_leq()),
        ]
        nec = [
            _NecItem("location-equal", "mu1 = mu2", mu_eq),
            _moment_gated("entrywise-difference", "Sigma2 >= Sigma1 entrywise",
                          covs, lambda: pair.sigma_entrywise_leq()),
        ]
        return report(suff, nec)
    if order is OrderKind.CCX:
        suff = [
            _suff("location-equal", "mu1 = mu2", mu_eq),
            _suff("diag-ordering", "sigma1_ii <= sigma2_ii for every i",
                  pair.diag_leq()),
            _suff("offdiag-equal", "sigma1_ij = sigma2_ij for every i != j",
                  pair.offdiag_equal()),
        ]
        nec = [
            _NecItem("location-equal", "mu1 = mu2", mu_eq),
            _moment_gated("diag-ordering", "sigma1_ii <= sigma2_ii for every i",
                          covs, lambda: pair.diag_leq()),
            _moment_gated("offdiag-equal",
                          "sigma1_ij = sigma2_ij for every i != j",
                          covs, lambda: pair.offdiag_equal()),
        ]
        return report(suff, nec)
    if order is OrderKind.SM:
        suff = [
            _suff("location-equal", "mu1 = mu2", mu_eq),
            _suff("diag-equal", "sigma1_ii = sigma2_ii for every i",
                  pair.diag_equal()),
            _suff("offdiag-ordering", "sigma1_ij <= sigma2_ij for every i != j",
                  pair.offdiag_leq()),
        ]
        nec = [
            _NecItem("location-equal", "mu1 = mu2", mu_eq),
            _NecItem("diag-equal", "sigma1_ii = sigma2_ii for every i",
                     pair.diag_equal()),
            _moment_gated("offdiag-ordering",
                          "sigma1_ij <= sigma2_ij for every i != j",
                          covs, lambda: pair.offdiag_leq()),
        ]
        return report(suff, nec)
    if order is OrderKind.UO:
        suff = [
            _suff("location-ordering", "mu1 <= mu2", mu_leq),
            _suff("diag-equal", "sigma1_ii = sigma2_ii for every i",
                  pair.diag_equal()),
            _suff("offdiag-ordering", "sigma1_ij <= sigma2_ij for every i != j",
                  pair.offdiag_leq()),
        ]
        nec = [
            _gated("location-ordering", "mu1 <= mu2", sat1, lambda: mu_leq),
            _gated("diag-equal", "sigma1_ii = sigma2_ii for every i", sat1,
                   lambda: pair.diag_equal()),
        ]
        offdiag_text = ("sigma1_ij <= sigma2_ij for every i != j "
                        "(same-marginal pairs)")
        if pair.same_marginals():
            nec.append(_moment_gated("offdiag-ordering", offdiag_text, covs,
                                     lambda: pair.offdiag_leq()))
        else:
            nec.append(_NecItem("offdiag-ordering",
                                offdiag_text + _SKIP_MARGINALS, None))
        return report(suff, nec, probes)
    if order is OrderKind.CP:
        suff = [
            _suff("location-equal", "mu1 = mu2", mu_eq),
            _suff("copositive-difference", "Sigma2 - Sigma1 is copositive",
                  pair.copositive_diff()),
        ]
        nec = [
            _NecItem("location-equal", "mu1 = mu2", mu_eq),
            _moment_gated("copositive-difference",
                          "Sigma2 - Sigma1 is copositive",
                          covs, pair.copositive_diff),
        ]
        return report(suff, nec)
    if order is OrderKind.COP:
        suff = [
            _suff("location-equal", "mu1 = mu2", mu_eq),
            _suff("completely-positive-difference",
                  "Sigma2 - Sigma1 is completely positive",
                  pair.completely_positive_diff()),
        ]
        nec = [
            _NecItem("location-equal", "mu1 = mu2", mu_eq),
            _moment_gated("completely-positive-difference",
                          "Sigma2 - Sigma1 is completely positive",
                          covs, pair.completely_positive_diff),
        ]
        return report(suff, nec)
    raise UsageError(f"unknown order kind: {order}")


# --- dispatch ------------------------------------------------------------------------


_PARENT_CHECK.update({
    OrderKind.ST: check_st,
    OrderKind.CX: check_cx,
    OrderKind.ICX: check_icx,
})

_DIRECT_CHECKS: dict[OrderKind, Callable[..., OrderReport]] = {
    OrderKind.ST: check_st,
    OrderKind.CX: check_cx,
    OrderKind.ICX: check_icx,
    OrderKind.DCX: check_dcx,
    OrderKind.CCX: check_ccx,
    OrderKind.SM: check_sm,
    OrderKind.UO: check_uo,
    OrderKind.CP: check_cp,
    OrderKind.COP: check_cop,
}


def check_order(
    d1: LseDistribution, d2: LseDistribution, order: OrderKind
) -> OrderReport:
    """Route one order to its checker (projection-derived orders included)."""
    order = OrderKind(order)
    if order in _PARENT_OF:
        return check_derived(d1, d2, order)
    return _DIRECT_CHECKS[order](d1, d2)


def compare(
    d1: LseDistribution,
    d2: LseDistribution,
    orders: list[OrderKind] | None = None,
) -> dict[OrderKind, OrderReport]:
    """Evaluate a batch of orders; defaults to all thirteen."""
    selected = [OrderKind(o) for o in orders] if orders is not None else list(OrderKind)
    return {order: check_order(d1, d2, order) for order in selected}
