"""Decision engine for integral stochastic orders between two LSE vectors.

Orders are data, run by one interpreter over a pair of distributions that
share (generator, map, mixing):

* ``_CONDITIONS`` maps each clause tag to its text, its predicate on the
  pair, and the ``SkipReason`` to report when the predicate cannot decide
  (returns None): MOMENTS for the mean conditions when E(beta) diverges,
  CONE for an undecided copositive or completely positive test.
* ``_ORDERS`` gives each direct order its *sufficient* tags, which imply
  the order outright, and its *necessary* entries, which must hold whenever
  the order holds (a failed one certifies Not Ordered).  Each necessary
  entry is a tag behind gates, and may name the entry to evaluate in its
  place where a gate fails.
* A gate is a predicate on the pair with the ``SkipReason`` it reports:
  the two tail-ratio gates (conditions A and B of the tail classification,
  on which the necessity arguments for st/icx/uo rest), the equality premise
  of the equal-mean orders' scale conditions, finite covariances, and uo's
  same marginals.  The first gate that fails skips the clause; a skipped
  clause has ``passed`` None, names the reason in ``Clause.skip`` and ends
  its text with the reason's value.

Sufficient Holds => Ordered; necessary Violated => NotOrdered; anything else
is Inconclusive (the Monte Carlo module can probe the gap).  A necessary
group with a tail-assumption skip reads AssumptionUnmet.  An order reports
its tail-ratio probes exactly when one of its gates is a tail gate.

The projection orders (plst, lcx, ilcx, iplcx) are decided from the pair
alone: their sufficient clause is the parent's (st, cx, icx) sufficient
side, and their necessary clauses are the parent's, which already imply
the parent's univariate test along every direction (see ``_derived``),
except some mean tests where E(beta) diverges.

Each compare() builds one ``_Pair`` and asks it for each order's report;
check_order is a one-order compare().  Everything the orders have in common
is computed once per pair and kept on it: each cone test of Sigma2 - Sigma1,
each condition of ``_CONDITIONS`` (read by every clause that names its tag)
and each order's report (a projection order reads its parent's, so the
parent's necessary clauses are the very same objects).  Nothing is kept
between calls: the pair is dropped when compare() returns.

Means use E(Y) = mu + E(beta) * delta; where two shifts are equal the mean
difference is mu_2 - mu_1 even when E(beta) diverges, and along a direction
a with a'delta_1 = a'delta_2 it is a'(mu_2 - mu_1).  The theorems state
exact identities, so each (in)equality holds within ``cones.band`` of the
largest operand its two sides were formed from, entry by entry (for a mean,
the summands mu_i and E(beta) delta_i).  With no floor, and no term in the
result, no verdict depends on the unit or the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .cones import (
    ConeStatus,
    ConeVerdict,
    band,
    is_completely_positive,
    is_copositive,
    is_psd,
)
from .distributions import LseDistribution
from .errors import IncomparableFamiliesError, UsageError
from .generators import LimitRatioResult, assumption_profile, radial_second_moment
from .mixing import alpha_square_mean, beta_mean, beta_range, beta_variance

__all__ = [
    "OrderKind",
    "SufficientStatus",
    "NecessaryStatus",
    "Verdict",
    "SkipReason",
    "Clause",
    "OrderReport",
    "check_collective_risk",
    "check_order",
    "compare",
]

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


class SkipReason(Enum):
    """Why a necessary clause was not evaluated; the value is the suffix
    the clause text carries."""

    ASSUMPTION = " [not evaluated: tail-ratio assumption unmet]"
    MOMENTS = " [not evaluated: required moments diverge]"
    PREMISE = " [not evaluated: neither location nor shift equality premise holds]"
    CONE = " [not evaluated: cone membership undecided]"
    MARGINALS = " [not evaluated: marginals differ, clause premise unmet]"


@dataclass(frozen=True)
class Clause:
    """One evaluated (or skipped) condition.

    ``passed`` is None when the clause could not be evaluated.  A skipped
    necessary clause names the reason in ``skip``; a sufficient clause whose
    cone test is undecided has ``passed`` None and no ``skip``.
    """

    tag: str
    text: str
    passed: bool | None
    skip: SkipReason | None = None


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


# --- comparisons within the rounding band -------------------------------------


def _bands(operands: tuple[np.ndarray, ...]) -> np.ndarray:
    """band(1, the largest magnitude among the operands), entry by entry."""
    scale = np.abs(operands[0])
    for a in operands[1:]:
        scale = np.maximum(scale, np.abs(a))
    return band(1, scale)


def entry_equal(x: np.ndarray, y: np.ndarray, *operands: np.ndarray) -> np.ndarray:
    """x = y entry by entry, within the band of the operands that x and y
    were formed from (x and y themselves when none are given)."""
    return np.abs(x - y) <= _bands(operands or (x, y))


def entry_leq(x: np.ndarray, y: np.ndarray, *operands: np.ndarray) -> np.ndarray:
    return x <= y + _bands(operands or (x, y))


def vec_equal(x: np.ndarray, y: np.ndarray, *operands: np.ndarray) -> bool:
    return bool(entry_equal(x, y, *operands).all())


def vec_leq(x: np.ndarray, y: np.ndarray, *operands: np.ndarray) -> bool:
    return bool(entry_leq(x, y, *operands).all())


# --- the pair: the two laws the conditions and gates read --------------------


class _Pair:
    """One ordered pair of distributions, and the work the orders share on it."""

    def __init__(self, d1: LseDistribution, d2: LseDistribution) -> None:
        self.d1, self.d2, self.dim = d1, d2, d1.dim
        self.mu1, self.mu2 = d1.mu, d2.mu
        self.delta1, self.delta2 = d1.effective_delta(), d2.effective_delta()
        self.sigma1, self.sigma2 = d1.sigma, d2.sigma
        self.sigma_diff = self.sigma2 - self.sigma1
        self.sigma_scale = float(max(np.abs(d1.sigma).max(), np.abs(d2.sigma).max()))
        # Filled on first use, so each piece of work runs once per pair.
        self.conditions: dict[str, bool | None] = {}
        self.reports: dict[OrderKind, OrderReport] = {}

    def condition(self, tag: str) -> bool | None:
        """The ``_CONDITIONS`` predicate of ``tag`` on this pair, evaluated once."""
        return _once(self.conditions, tag, _CONDITIONS[tag].test, self)

    def report(self, order: OrderKind) -> OrderReport:
        """The report of ``order`` on this pair, built once."""
        return _once(self.reports, order, _derived if order in _PARENT_OF else _direct,
                     order, self)

    def profile(self) -> tuple[bool, bool, tuple[LimitRatioResult, ...]]:
        return assumption_profile(self.d1.generator)

    # Each of these is read by several clauses and gates.

    @cached_property
    def mu_equal(self) -> bool:
        return vec_equal(self.mu1, self.mu2)

    @cached_property
    def shifts_equal(self) -> np.ndarray:
        """delta1_i = delta2_i, entry by entry."""
        return entry_equal(self.delta1, self.delta2)

    @cached_property
    def delta_equal(self) -> bool:
        return bool(self.shifts_equal.all())

    @cached_property
    def unskewed_variances(self) -> bool:
        """c = E(R^2)/n E(alpha^2) is finite: an unskewed law of the family,
        such as a'Y_i where a'delta_i = 0, has a covariance."""
        d = self.d1
        return (math.isfinite(radial_second_moment(d.generator, self.dim))
                and math.isfinite(alpha_square_mean(d.mixing, d.ab_map)))

    @cached_property
    def covariances_defined(self) -> bool:
        """Both covariances exist, by the rule of LseDistribution.moments:
        c is finite, and so is Var(beta) unless both shifts are exactly zero."""
        unskewed = not self.delta1.any() and not self.delta2.any()
        return self.unskewed_variances and (
            unskewed or math.isfinite(beta_variance(self.d1.mixing, self.d1.ab_map)))

    # condition primitives ----------------------------------------------------

    def mean_test(self, relation: Callable, across: bool = False) -> bool | None:
        """relation(E(Y1), E(Y2)); where E(beta) diverges, False if it fails
        along one of the directions a >= 0 with a'delta1 = a'delta2 named
        below and None otherwise.

        Along such a direction the mean difference is exactly a'(mu2 - mu1)
        regardless of E(beta), so with equal shifts the relation is decided
        even when E(beta) diverges.  Otherwise it is tested on the
        coordinates with equal shifts and, with ``across``, also on the
        other extreme rays of the cone {a >= 0 : a'd = 0}, d = delta2 -
        delta1: |d_j| e_i + d_i e_j for d_i > 0 > d_j.  The rays span the
        cone, so the test along them is exact on it.  The relation's band
        covers the summands: mu_i and E(beta) delta_i, or a_i mu_i.
        """
        if self.delta_equal:
            return relation(self.mu1, self.mu2)
        e_beta = beta_mean(self.d1.mixing, self.d1.ab_map)
        if math.isfinite(e_beta):
            s1, s2 = e_beta * self.delta1, e_beta * self.delta2
            return relation(self.mu1 + s1, self.mu2 + s2, self.mu1, s1, self.mu2, s2)
        equal = self.shifts_equal
        if not across:
            return None if relation(self.mu1[equal], self.mu2[equal]) else False
        d = self.delta2 - self.delta1
        i, j = np.flatnonzero(~equal & (d > 0.0)), np.flatnonzero(~equal & (d < 0.0))
        terms = []
        for mu in (self.mu1, self.mu2):
            along_i = np.outer(mu[i], -d[j]).ravel()
            along_j = np.outer(d[i], mu[j]).ravel()
            terms += [np.concatenate([mu[equal], along_i]),
                      np.concatenate([np.zeros(int(equal.sum())), along_j])]
        return None if relation(terms[0] + terms[1], terms[2] + terms[3], *terms) else False

    def location_all_z(self) -> bool:
        """mu1 + b delta1 <= mu2 + b delta2 for every attainable b.

        Both sides are affine in b, so the closure endpoints of the beta
        range decide it; an infinite endpoint contributes the order of the
        shifts alone, and two infinite endpoints that of the locations too.
        """
        lo, hi = beta_range(self.d1.mixing, self.d1.ab_map)
        conditions = []
        for b, shifts in ((lo, (self.delta2, self.delta1)), (hi, (self.delta1, self.delta2))):
            if math.isinf(b):
                conditions.append(vec_leq(*shifts))
            else:
                s1, s2 = b * self.delta1, b * self.delta2
                conditions.append(vec_leq(self.mu1 + s1, self.mu2 + s2,
                                          self.mu1, s1, self.mu2, s2))
        if math.isinf(lo) and math.isinf(hi):
            conditions.append(vec_leq(self.mu1, self.mu2))
        return all(conditions)

    @cached_property
    def diag(self) -> tuple[np.ndarray, np.ndarray]:
        return np.diag(self.sigma1), np.diag(self.sigma2)

    @cached_property
    def offdiag(self) -> tuple[np.ndarray, np.ndarray]:
        off = ~np.eye(self.dim, dtype=bool)
        return self.sigma1[off], self.sigma2[off]

    def same_marginals(self) -> bool:
        return self.mu_equal and self.delta_equal and vec_equal(*self.diag)

    # cone tests of Sigma2 - Sigma1, each read through its one condition -----

    def psd(self) -> bool:
        return _inside(is_psd(self.sigma_diff, self.sigma_scale))

    def unskewed_psd(self) -> bool:
        """a'(Sigma2 - Sigma1) a >= 0 wherever a'delta1 = 0: Sigma2 - Sigma1
        compressed to the complement of delta1 is PSD.  Read only with equal
        nonzero shifts, at n >= 2; implied by ``psd``, which it reads first."""
        if self.condition("psd-difference"):
            return True
        complement = np.linalg.svd(self.delta1[None, :])[2][1:]
        return _inside(is_psd(complement @ self.sigma_diff @ complement.T, self.sigma_scale))

    def copositive(self) -> bool | None:
        return _inside(is_copositive(self.sigma_diff, self.sigma_scale))

    def completely_positive(self) -> bool | None:
        return _inside(is_completely_positive(self.sigma_diff, self.sigma_scale))


def _once(memo: dict, key, compute: Callable, *args):
    """memo[key], set to compute(*args) on first use."""
    if key not in memo:
        memo[key] = compute(*args)
    return memo[key]


def _inside(verdict: ConeVerdict) -> bool | None:
    """Cone membership; None when the test is undecided."""
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


# --- the condition table -----------------------------------------------------


class _Condition(NamedTuple):
    text: str
    test: Callable[[_Pair], bool | None]
    #: Why the clause is skipped when ``test`` cannot decide (returns None).
    undecided: SkipReason | None = None


_CONDITIONS: dict[str, _Condition] = {
    "location-all-z": _Condition(
        "mu2 - mu1 + b (delta2 - delta1) >= 0 over the full beta range",
        _Pair.location_all_z),
    "location-equal": _Condition("mu1 = mu2", lambda p: p.mu_equal),
    "shift-equal": _Condition("delta1 = delta2", lambda p: p.delta_equal),
    "mean-ordering": _Condition(
        "E(Y1) <= E(Y2) componentwise", lambda p: p.mean_test(vec_leq), SkipReason.MOMENTS),
    # Every order that reads mean-equal (cx, dcx, ccx, sm, cp, cop) implies
    # a'Y1 <=cx a'Y2 for every a >= 0, since g(a'x) with g convex has the
    # Hessian g'' aa', in each of their cones; so the means agree along
    # every such a with a'delta1 = a'delta2.  uo's marginal argument for
    # mean-ordering gives no such projection, so that test stays on the
    # coordinates.
    "mean-equal": _Condition(
        "E(Y1) = E(Y2)", lambda p: p.mean_test(vec_equal, across=True), SkipReason.MOMENTS),
    "scale-equal": _Condition("Sigma1 = Sigma2", lambda p: vec_equal(p.sigma1, p.sigma2)),
    "psd-difference": _Condition("Sigma2 - Sigma1 is positive semi-definite", _Pair.psd),
    "unskewed-psd-difference": _Condition(
        "a'(Sigma2 - Sigma1) a >= 0 for every a with a'delta = 0", _Pair.unskewed_psd),
    "copositive-difference": _Condition(
        "Sigma2 - Sigma1 is copositive", _Pair.copositive, SkipReason.CONE),
    "completely-positive-difference": _Condition(
        "Sigma2 - Sigma1 is completely positive", _Pair.completely_positive,
        SkipReason.CONE),
    "entrywise-difference": _Condition(
        "Sigma2 >= Sigma1 entrywise", lambda p: vec_leq(p.sigma1, p.sigma2)),
    "diag-equal": _Condition(
        "sigma1_ii = sigma2_ii for every i", lambda p: vec_equal(*p.diag)),
    "diag-ordering": _Condition(
        "sigma1_ii <= sigma2_ii for every i", lambda p: vec_leq(*p.diag)),
    "offdiag-equal": _Condition(
        "sigma1_ij = sigma2_ij for every i != j", lambda p: vec_equal(*p.offdiag)),
    "offdiag-ordering": _Condition(
        "sigma1_ij <= sigma2_ij for every i != j", lambda p: vec_leq(*p.offdiag)),
}


# --- gates: a clause is evaluated only where every gate holds ----------------


class _Gate(NamedTuple):
    holds: Callable[[_Pair], bool]
    #: Why the clause is skipped where the gate does not hold.
    reason: SkipReason


_tail_one = _Gate(lambda p: p.profile()[0], SkipReason.ASSUMPTION)
_tail_two = _Gate(lambda p: p.profile()[1], SkipReason.ASSUMPTION)
_premise = _Gate(lambda p: p.mu_equal or p.delta_equal, SkipReason.PREMISE)
_covariances = _Gate(lambda p: p.covariances_defined, SkipReason.MOMENTS)
_marginals = _Gate(_Pair.same_marginals, SkipReason.MARGINALS)
#: Equal shifts with a finite c: the projections a'Y_i with a'delta = 0 are
#: unskewed and have variances c a'Sigma_i a even where Var(beta), and so the
#: covariances, diverge (read where the covariance gate fails, so the shifts
#: are nonzero there).
_unskewed = _Gate(lambda p: p.dim > 1 and p.delta_equal and p.unskewed_variances,
                  SkipReason.MOMENTS)


# --- the order table ---------------------------------------------------------


class _Necessary(NamedTuple):
    tag: str
    gates: tuple[_Gate, ...] = ()
    #: Replaces the table text of ``tag`` for this entry only.
    text: str | None = None
    #: Evaluated in place of this entry where one of its gates fails and
    #: every gate of ``otherwise`` holds.
    otherwise: _Necessary | None = None


class _Spec(NamedTuple):
    sufficient: tuple[str, ...]
    necessary: tuple[_Necessary, ...]


def _equal_mean(*scale: _Necessary) -> _Spec:
    """The equal-mean orders (cx, dcx, ccx, cp, cop).

    Sufficient: equal locations, equal shifts and the scale conditions.
    Necessary: the mean equality E(Y1) = E(Y2) wherever the means are
    finite, since +-x_i lie in every generating class, and the scale
    conditions, whose derivation needs one of the theorem premises
    (locations equal or shifts equal) and finite covariances.
    """
    return _Spec(
        ("location-equal", "shift-equal") + tuple(entry.tag for entry in scale),
        (_Necessary("mean-equal"),)
        + tuple(entry._replace(gates=(_premise, _covariances)) for entry in scale))


_ORDERS: dict[OrderKind, _Spec] = {
    # Usual stochastic order: an all-z location shift with equal scales;
    # necessary behind the two-sided tail-ratio condition.
    OrderKind.ST: _Spec(
        ("location-all-z", "scale-equal"),
        (_Necessary("mean-ordering", (_tail_one,)),
         _Necessary("scale-equal", (_tail_one,)))),
    # Convex order: an if-and-only-if once one of the equality premises
    # holds.  Where only Var(beta) diverges and the shifts are equal, the
    # variance ordering of the unskewed projections a'Y, a'delta = 0, still
    # holds and tests the scale difference on those directions.
    OrderKind.CX: _equal_mean(_Necessary(
        "psd-difference", otherwise=_Necessary("unskewed-psd-difference", (_unskewed,)))),
    # Increasing convex order: necessary (behind the one-sided tail-ratio
    # condition on nonnegative projections) is only the weaker copositive
    # cone, so a copositive-but-not-PSD difference stays Inconclusive.
    OrderKind.ICX: _Spec(
        ("location-all-z", "psd-difference"),
        (_Necessary("mean-ordering", (_tail_two,)),
         _Necessary("copositive-difference", (_tail_two,)))),
    # Directionally convex order: entrywise scale dominance at equal means.
    OrderKind.DCX: _equal_mean(_Necessary("entrywise-difference")),
    # Componentwise convex order: variances may grow, covariances must not move.
    OrderKind.CCX: _equal_mean(_Necessary("diag-ordering"), _Necessary("offdiag-equal")),
    # Supermodular order.  It forces equal marginals, hence equal means.  The
    # law does not pin down (mu, delta), so location-equal and shift-equal
    # are sufficient only: degenerate mixing at z0 makes (mu, delta) and
    # (mu + beta(z0) t, delta - t) one law, and a constant alpha with beta(Z)
    # symmetric about c makes (mu, delta) and (mu + 2c delta, -delta) one
    # law.  diag-equal and offdiag-ordering (the covariance ordering of
    # x_i x_j, behind finite second moments) stay necessary: both classes
    # leave Sigma, and Var(beta) delta delta', unchanged.  For the same
    # reason st's scale-equal and uo's diag-equal hold on both classes.
    OrderKind.SM: _Spec(
        ("location-equal", "shift-equal", "diag-equal", "offdiag-ordering"),
        (_Necessary("mean-equal"), _Necessary("diag-equal"),
         _Necessary("offdiag-ordering", (_covariances,)))),
    # Upper orthant order: mean ordering and equal diag are necessary
    # through the component marginals (two-sided tail-ratio condition); for
    # same-marginal pairs so is the off-diagonal ordering, through the
    # bivariate supermodular equivalence.
    OrderKind.UO: _Spec(
        ("location-all-z", "diag-equal", "offdiag-ordering"),
        (_Necessary("mean-ordering", (_tail_one,)),
         _Necessary("diag-equal", (_tail_one,)),
         _Necessary("offdiag-ordering", (_marginals, _covariances),
                    "sigma1_ij <= sigma2_ij for every i != j (same-marginal pairs)"))),
    # Order generated by functions with completely positive Hessians: the
    # matrix condition lives in the dual cone, so the scale difference must
    # be copositive.  Weaker than cx.
    OrderKind.CP: _equal_mean(_Necessary("copositive-difference")),
    # Order generated by functions with copositive Hessians, dual to cp: the
    # scale difference must be completely positive.
    OrderKind.COP: _equal_mean(_Necessary("completely-positive-difference")),
}

#: Projection orders and the direct order each is derived from.
_PARENT_OF = {
    OrderKind.PLST: OrderKind.ST,
    OrderKind.LCX: OrderKind.CX,
    OrderKind.ILCX: OrderKind.CX,
    OrderKind.IPLCX: OrderKind.ICX,
}


# --- the interpreter ---------------------------------------------------------


def _necessary_clause(pair: _Pair, entry: _Necessary) -> Clause:
    condition = _CONDITIONS[entry.tag]
    tag = "necessary/" + entry.tag
    text = condition.text if entry.text is None else entry.text
    for gate in entry.gates:
        if not gate.holds(pair):
            if entry.otherwise and all(g.holds(pair) for g in entry.otherwise.gates):
                return _necessary_clause(pair, entry.otherwise)
            return Clause(tag, text + gate.reason.value, None, gate.reason)
    passed = pair.condition(entry.tag)
    if passed is None:
        return Clause(tag, text + condition.undecided.value, None, condition.undecided)
    return Clause(tag, text, passed)


def _report(
    order: OrderKind,
    sufficient: list[Clause],
    necessary: list[Clause],
    assumption_checks: tuple[LimitRatioResult, ...] = (),
) -> OrderReport:
    if all(c.passed is True for c in sufficient):
        suff_status = SufficientStatus.HOLDS
    elif any(c.passed is False for c in sufficient):
        suff_status = SufficientStatus.FAILS
    else:
        suff_status = SufficientStatus.NOT_APPLICABLE
    if any(c.passed is False for c in necessary):
        nec_status = NecessaryStatus.VIOLATED
    elif any(c.skip is SkipReason.ASSUMPTION for c in necessary):
        nec_status = NecessaryStatus.ASSUMPTION_UNMET
    elif any(c.passed is None for c in necessary):
        nec_status = NecessaryStatus.NOT_APPLICABLE
    else:
        nec_status = NecessaryStatus.HOLDS
    verdict = _verdict_of(suff_status, nec_status)
    return OrderReport(order, suff_status, nec_status, verdict,
                       tuple(sufficient + necessary), assumption_checks)


def _direct(order: OrderKind, pair: _Pair) -> OrderReport:
    spec = _ORDERS[order]
    sufficient = [
        Clause("sufficient/" + tag, _CONDITIONS[tag].text, pair.condition(tag))
        for tag in spec.sufficient
    ]
    necessary = [_necessary_clause(pair, entry) for entry in spec.necessary]
    tail_gated = any(gate.reason is SkipReason.ASSUMPTION
                     for entry in spec.necessary for gate in entry.gates)
    probes = pair.profile()[2] if tail_gated else ()
    return _report(order, sufficient, necessary, probes)


def _derived(order: OrderKind, pair: _Pair) -> OrderReport:
    """Orders defined through univariate projections (plst, lcx, ilcx, iplcx).

    Each parent (st, cx, icx) implies its projection order, so sufficiency
    is inherited.  The parent's necessary clauses are necessary for the
    projection order too, and they already hold every univariate test of
    a projection a'Y: the family is closed under affine maps, so a'Y_i has
    location a'mu_i, scale a'Sigma_i a and shift a'delta_i.  The means follow
    from the axes where E(beta) is finite.  Where it diverges, the mean
    clauses test some of the directions with a'delta1 = a'delta2: cx's
    every a >= 0, st's and icx's (which uo shares) the axes with equal
    shifts.  For lcx and ilcx, a'(Sigma2 - Sigma1) a >= 0 for every a
    (with a'delta1 = a'delta2 where Var(beta) diverges) is cx's PSD clause.
    For plst, a'Sigma1 a = a'Sigma2 a for every a >= 0 gives Sigma1 = Sigma2
    by polarization over e_i and e_i + e_j.  For iplcx,
    a'(Sigma2 - Sigma1) a >= 0 for every a >= 0 is copositivity.
    """
    parent_kind = _PARENT_OF[order]
    parent = pair.report(parent_kind)
    sufficient = [Clause(
        "sufficient/parent-order",
        f"the {parent_kind.value} sufficient conditions hold (implies {order.value})",
        parent.sufficient is SufficientStatus.HOLDS,
    )]
    necessary = [c for c in parent.clauses if c.tag.startswith("necessary/")]
    return _report(order, sufficient, necessary, parent.assumption_checks)


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
    order = OrderKind(order)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != d1.dim:
        raise UsageError(
            f"expected {d1.dim} portfolio weights, got {weights.size}")
    if not np.all(np.isfinite(weights)):
        raise UsageError("portfolio weights must be finite")
    if np.any(weights < 0.0):
        raise UsageError("portfolio weights must be nonnegative")
    if not np.any(weights > 0.0):
        raise UsageError("portfolio weights must not all be zero")
    pair = _validate_pair(d1, d2)
    location, scale = _ORDERS[order].sufficient
    if all(pair.condition(tag) for tag in (location, scale)):
        text = (f"all-z location ordering and {_CONDITIONS[scale].text} imply the "
                f"{order.value} ordering of the weighted sums")
        clause = Clause("sufficient/portfolio-aggregate", text, True)
        return _report(order, [clause], [])
    return _validate_pair(
        d1.linear_functional(weights), d2.linear_functional(weights)).report(order)


# --- dispatch ----------------------------------------------------------------


def _as_order(order) -> OrderKind:
    try:
        return OrderKind(order)
    except ValueError as exc:
        raise UsageError(f"unknown order {order!r}; choose from "
                         f"{[kind.value for kind in OrderKind]}") from exc


def check_order(
    d1: LseDistribution, d2: LseDistribution, order: OrderKind
) -> OrderReport:
    """Evaluate one order (projection-derived orders included): a one-order compare()."""
    order = _as_order(order)
    return compare(d1, d2, [order])[order]


def compare(
    d1: LseDistribution,
    d2: LseDistribution,
    orders: list[OrderKind] | None = None,
) -> dict[OrderKind, OrderReport]:
    """Evaluate a batch of orders on one pair; defaults to all thirteen."""
    selected = [_as_order(o) for o in orders] if orders is not None else list(OrderKind)
    pair = _validate_pair(d1, d2)
    return {order: pair.report(order) for order in selected}
