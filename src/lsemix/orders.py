"""Decision engine for integral stochastic orders between two LSE vectors.

Orders are data, run by one interpreter over a pair of distributions that
share (generator, map, mixing):

* ``_CONDITIONS`` maps each clause tag to its text, its predicate on the
  pair, and the ``SkipReason`` to report when the predicate cannot decide
  (returns None): MOMENTS for the mean conditions when E(beta) diverges,
  CONE for an undecided or size-capped copositive or completely positive
  test.
* ``_ORDERS`` gives each direct order its *sufficient* tags, which imply
  the order outright, and its *necessary* entries, which must hold whenever
  the order holds (a failed one certifies Not Ordered).  Each necessary
  entry is a tag behind gates.
* A gate is a predicate on the pair with the ``SkipReason`` it reports:
  the two tail-ratio gates (conditions A and B of the tail classification,
  on which the necessity arguments for st/icx/uo rest), the equality premise
  of the equal-mean orders, finite covariances, and uo's same marginals.
  The first gate that fails skips the clause; a skipped clause has
  ``passed`` None, names the reason in ``Clause.skip`` and ends its text
  with the reason's value.

Sufficient Holds => Ordered; necessary Violated => NotOrdered; anything else
is Inconclusive (the Monte Carlo module can probe the gap).  A necessary
group with a tail-assumption skip reads AssumptionUnmet.  An order reports
its tail-ratio probes exactly when one of its gates is a tail gate.

The projection orders (plst, lcx, ilcx, iplcx) evaluate their parent on the
same pair and add the parent's univariate test along fixed directions.  The
family is closed under affine maps, so a'Y_i is the univariate mixture with
a'mu_i, a'Sigma_i a and a'delta_i.  ``_Projections`` holds these for every
direction as arrays.  It and ``_Pair`` are the two kinds of ``_View``, and
the parent's gates and ``_CONDITIONS`` entries read the projections as they
read a pair: the view supplies the comparisons (of vectors on a pair, column
by column on projections) and the cone rule (the 1x1 rule on projections).
No distribution is built per direction.

All the orders of one compare() share one ``_Pair``: ``_validate_pair``
returns the last pair again when it is called with the very same two (frozen)
distributions, and compare() starts from an empty slot.  Everything the
orders have in common is computed once per pair and kept on it: each cone
test of Sigma2 - Sigma1, each condition of ``_CONDITIONS`` (read by every
clause that names its tag), each order's report (a projection order reads
its parent's, so the parent's necessary clauses are the very same objects),
one ``_Projections`` per direction set (signed for lcx and ilcx, unsigned
for plst and iplcx) and, on it, the projected statuses of each parent (ilcx
reads lcx's).  Runs of check_order on one pair outside compare() share it
too.

Means use E(Y) = mu + E(beta) * delta; with equal shift vectors the mean
difference is mu_2 - mu_1 even when E(beta) diverges.  Equalities and
inequalities among parameters are tolerance-based (relative 1e-9, scaled by
the larger magnitude), because the theorems state exact identities the
floating world cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .cones import (
    DEFAULT_TOL,
    ConeStatus,
    ConeVerdict,
    is_completely_positive,
    is_copositive,
    is_psd,
)
from .distributions import LseDistribution
from .errors import IncomparableFamiliesError, SizeLimitError, UsageError
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
    "axis_pair_directions",
    "check_collective_risk",
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


# --- tolerance-based comparators ---------------------------------------------


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


# --- views: the two laws the conditions and gates read ------------------------


class _View:
    """The two laws that the conditions and gates compare.

    A view has ``d1``, which carries the generator, map and mixing law both
    laws share, their dimension ``dim``, the locations ``mu1``, ``mu2``, the
    effective shifts ``delta1``, ``delta2`` and the scales ``scale1``,
    ``scale2``.  Each kind of view supplies the comparisons ``equal``, ``leq``
    and ``is_zero`` and the cone rules ``psd`` and ``copositive`` of
    scale2 - scale1.  On a ``_Pair`` they give a bool (None when a condition
    cannot be decided); on ``_Projections`` an array with one value per
    direction (NaN when undecided), as the pair of that direction's projected
    distributions would.
    """

    def profile(self) -> tuple[bool, bool, tuple[LimitRatioResult, ...]]:
        return assumption_profile(self.d1.generator)

    # Each of these is read by several clauses and gates.

    @cached_property
    def mu_equal(self):
        return self.equal(self.mu1, self.mu2)

    @cached_property
    def delta_equal(self):
        return self.equal(self.delta1, self.delta2)

    @cached_property
    def covariances_defined(self):
        """Both covariances exist, by the rule of LseDistribution.moments:
        the radial second moment and E(alpha^2) are finite, and so is
        Var(beta) unless both shifts are exactly zero."""
        d = self.d1
        finite = (math.isfinite(radial_second_moment(d.generator, self.dim))
                  and math.isfinite(alpha_square_mean(d.mixing, d.ab_map)))
        unskewed = self.is_zero(self.delta1) & self.is_zero(self.delta2)
        return finite & (math.isfinite(beta_variance(d.mixing, d.ab_map)) | unskewed)

    def mean_test(self, relation: Callable):
        """relation(E(Y1), E(Y2)), undecided where E(beta) diverges.

        Where the shifts are equal the mean difference is exactly mu2 - mu1
        regardless of E(beta), so that case is decided even when E(beta)
        diverges.  A branch that no direction needs is not computed.
        """
        equal = self.delta_equal
        if np.all(equal):
            return relation(self.mu1, self.mu2)
        e_beta = beta_mean(self.d1.mixing, self.d1.ab_map)
        shifted = (relation(self.mu1 + e_beta * self.delta1, self.mu2 + e_beta * self.delta2)
                   if math.isfinite(e_beta) else None)
        if not np.any(equal):
            return shifted
        return np.where(equal, relation(self.mu1, self.mu2),
                        np.nan if shifted is None else shifted)


class _Pair(_View):
    """One ordered pair of distributions, and the work the orders share on it."""

    equal = staticmethod(vec_equal)
    leq = staticmethod(vec_leq)

    def __init__(self, d1: LseDistribution, d2: LseDistribution) -> None:
        self.d1, self.d2, self.dim = d1, d2, d1.dim
        self.mu1, self.mu2 = d1.mu, d2.mu
        self.delta1, self.delta2 = d1.effective_delta(), d2.effective_delta()
        self.scale1, self.scale2 = d1.sigma, d2.sigma
        self.sigma_diff = self.scale2 - self.scale1
        # Filled on first use, so each piece of work runs once per pair.
        self.conditions: dict[str, bool | None] = {}
        self.reports: dict[OrderKind, OrderReport] = {}
        self.projections: dict[bool, _Projections] = {}

    @staticmethod
    def is_zero(x: np.ndarray) -> bool:
        return not x.any()

    def condition(self, tag: str) -> bool | None:
        """The ``_CONDITIONS`` predicate of ``tag`` on this pair, evaluated once."""
        return _once(self.conditions, tag, _CONDITIONS[tag].test, self)

    # condition primitives ----------------------------------------------------

    def location_all_z(self) -> bool:
        """mu2 - mu1 + b (delta2 - delta1) >= 0 for every attainable b.

        The left side is affine in b, so the closure endpoints of the beta
        range decide it; an infinite endpoint contributes the sign condition
        on the shift difference alone.
        """
        a, d = self.mu2 - self.mu1, self.delta2 - self.delta1
        lo, hi = beta_range(self.d1.mixing, self.d1.ab_map)
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

    @cached_property
    def diag(self) -> tuple[np.ndarray, np.ndarray]:
        return np.diag(self.scale1), np.diag(self.scale2)

    @cached_property
    def offdiag(self) -> tuple[np.ndarray, np.ndarray]:
        off = ~np.eye(self.dim, dtype=bool)
        return self.scale1[off], self.scale2[off]

    def same_marginals(self) -> bool:
        return self.mu_equal and self.delta_equal and vec_equal(*self.diag)

    # cone tests of Sigma2 - Sigma1, each read through its one condition -----

    def psd(self) -> bool | None:
        return _inside(is_psd(self.sigma_diff))

    def copositive(self) -> bool | None:
        return _inside(self.copositive_verdict)

    def completely_positive(self) -> bool | None:
        return _inside(is_completely_positive(self.sigma_diff))

    @cached_property
    def copositive_verdict(self) -> ConeVerdict | None:
        """None when Sigma2 - Sigma1 exceeds the copositivity size cap."""
        try:
            return is_copositive(self.sigma_diff)
        except SizeLimitError:
            return None

    def copositive_witness(self) -> np.ndarray | None:
        verdict = self.copositive_verdict
        if verdict is not None and verdict.status is ConeStatus.OUTSIDE:
            return np.asarray(verdict.witness)
        return None


def _once(memo: dict, key, compute: Callable, *args):
    """memo[key], set to compute(*args) on first use."""
    if key not in memo:
        memo[key] = compute(*args)
    return memo[key]


def _inside(verdict: ConeVerdict | None) -> bool | None:
    """Cone membership; None when the test is undecided or size-capped."""
    if verdict is None or verdict.status is ConeStatus.UNKNOWN:
        return None
    return verdict.status is ConeStatus.INSIDE


#: The last pair built, returned again for the very same two objects, so
#: that the orders of one compare(), each checked through check_order, share
#: the pair's cached cone verdicts.  Sound because LseDistribution is frozen
#: and its arrays are read-only; compare() empties the slot, so each call
#: builds one pair of its own.
_last_pair: _Pair | None = None


def _validate_pair(d1: LseDistribution, d2: LseDistribution) -> _Pair:
    global _last_pair
    last = _last_pair
    if last is not None and last.d1 is d1 and last.d2 is d2:
        return last
    if d1.dim != d2.dim:
        raise UsageError(f"dimension mismatch: {d1.dim} vs {d2.dim}")
    if not d1.shares_family(d2):
        raise IncomparableFamiliesError(
            "the comparison theory requires a shared generator, alpha/beta "
            "map, and mixing law; got "
            f"({d1.describe()}) vs ({d2.describe()})"
        )
    _last_pair = _Pair(d1, d2)
    return _last_pair


# --- the condition table -----------------------------------------------------


class _Condition(NamedTuple):
    text: str
    #: Read on a _Pair.  The necessary entries of a projection order's parent
    #: are read on _Projections too, so they use only what every view has.
    test: Callable[[_View], bool | None]
    #: Why the clause is skipped when ``test`` cannot decide (returns None).
    undecided: SkipReason | None = None


_CONDITIONS: dict[str, _Condition] = {
    "location-all-z": _Condition(
        "mu2 - mu1 + b (delta2 - delta1) >= 0 over the full beta range",
        _Pair.location_all_z),
    "location-equal": _Condition("mu1 = mu2", lambda v: v.mu_equal),
    "shift-equal": _Condition("delta1 = delta2", lambda v: v.delta_equal),
    "mean-ordering": _Condition(
        "E(Y1) <= E(Y2) componentwise", lambda v: v.mean_test(v.leq), SkipReason.MOMENTS),
    "mean-equal": _Condition(
        "E(Y1) = E(Y2)", lambda v: v.mean_test(v.equal), SkipReason.MOMENTS),
    "scale-equal": _Condition("Sigma1 = Sigma2", lambda v: v.equal(v.scale1, v.scale2)),
    "psd-difference": _Condition(
        "Sigma2 - Sigma1 is positive semi-definite", lambda v: v.psd()),
    "copositive-difference": _Condition(
        "Sigma2 - Sigma1 is copositive", lambda v: v.copositive(), SkipReason.CONE),
    "completely-positive-difference": _Condition(
        "Sigma2 - Sigma1 is completely positive", _Pair.completely_positive,
        SkipReason.CONE),
    "entrywise-difference": _Condition(
        "Sigma2 >= Sigma1 entrywise", lambda p: vec_leq(p.scale1, p.scale2)),
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
    #: Read on a _Pair (a bool) and on _Projections (a bool per direction),
    #: so it may use only what every view has, and ``|``, ``&`` for or, and.
    holds: Callable[[_View], bool]
    #: Why the clause is skipped where the gate does not hold.
    reason: SkipReason


_tail_one = _Gate(lambda v: v.profile()[0], SkipReason.ASSUMPTION)
_tail_two = _Gate(lambda v: v.profile()[1], SkipReason.ASSUMPTION)
_premise = _Gate(lambda v: v.mu_equal | v.delta_equal, SkipReason.PREMISE)
_covariances = _Gate(lambda v: v.covariances_defined, SkipReason.MOMENTS)
_marginals = _Gate(_Pair.same_marginals, SkipReason.MARGINALS)


# --- the order table ---------------------------------------------------------


class _Necessary(NamedTuple):
    tag: str
    gates: tuple[_Gate, ...] = ()
    #: Replaces the table text of ``tag`` for this entry only.
    text: str | None = None


class _Spec(NamedTuple):
    sufficient: tuple[str, ...]
    necessary: tuple[_Necessary, ...]


def _equal_mean(*cone_tags: str) -> _Spec:
    """The equal-mean orders (cx, dcx, ccx, cp, cop).

    Sufficient: equal locations, equal shifts and the scale conditions.
    Necessary only under one of the theorem premises (locations equal or
    shifts equal): the mean equality E(Y1) = E(Y2) and the scale conditions,
    whose derivation needs finite covariances.
    """
    return _Spec(
        ("location-equal", "shift-equal") + cone_tags,
        (_Necessary("mean-equal", (_premise,)),)
        + tuple(_Necessary(tag, (_premise, _covariances)) for tag in cone_tags))


_ORDERS: dict[OrderKind, _Spec] = {
    # Usual stochastic order: an all-z location shift with equal scales;
    # necessary behind the two-sided tail-ratio condition.
    OrderKind.ST: _Spec(
        ("location-all-z", "scale-equal"),
        (_Necessary("mean-ordering", (_tail_one,)),
         _Necessary("scale-equal", (_tail_one,)))),
    # Convex order: an if-and-only-if once one of the equality premises holds.
    OrderKind.CX: _equal_mean("psd-difference"),
    # Increasing convex order: necessary (behind the one-sided tail-ratio
    # condition on nonnegative projections) is only the weaker copositive
    # cone, so a copositive-but-not-PSD difference stays Inconclusive.
    OrderKind.ICX: _Spec(
        ("location-all-z", "psd-difference"),
        (_Necessary("mean-ordering", (_tail_two,)),
         _Necessary("copositive-difference", (_tail_two,)))),
    # Directionally convex order: entrywise scale dominance at equal means.
    OrderKind.DCX: _equal_mean("entrywise-difference"),
    # Componentwise convex order: variances may grow, covariances must not move.
    OrderKind.CCX: _equal_mean("diag-ordering", "offdiag-equal"),
    # Supermodular order, an unconditional if-and-only-if: marginal equality
    # pins down (mu, delta, diagonal) by identifiability, and the off-diagonal
    # ordering is necessary whenever second moments exist.
    OrderKind.SM: _Spec(
        ("location-equal", "shift-equal", "diag-equal", "offdiag-ordering"),
        (_Necessary("location-equal"), _Necessary("shift-equal"),
         _Necessary("diag-equal"), _Necessary("offdiag-ordering", (_covariances,)))),
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
    OrderKind.CP: _equal_mean("copositive-difference"),
    # Order generated by functions with copositive Hessians, dual to cp: the
    # scale difference must be completely positive.
    OrderKind.COP: _equal_mean("completely-positive-difference"),
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


# --- derived orders over projections -----------------------------------------


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _radical_inverse(index: int, base: int) -> float:
    """The digits of ``index`` in ``base`` mirrored about the radix point."""
    value, weight = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        value += digit * weight
        weight /= base
    return value


def _halton_points(n: int) -> np.ndarray:
    """The unscrambled Halton points 1..32 in the first n prime bases
    (point 0 is the origin)."""
    bases = _primes(n)
    return np.array([
        [_radical_inverse(i, b) for b in bases]
        for i in range(1, _HALTON_DIRECTIONS + 1)
    ])


def _halton_directions(n: int, signed: bool) -> np.ndarray:
    if n == 1:
        return np.empty((0, 1))
    points = _halton_points(n)
    if signed:
        points = 2.0 * points - 1.0
    norms = np.linalg.norm(points, axis=1)
    keep = norms > 1e-9
    return points[keep] / norms[keep, None]


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


@lru_cache(maxsize=None)
def _fixed_directions(n: int, signed: bool) -> np.ndarray:
    """The axis-and-pair directions and the Halton bundle, one per row;
    read-only, since it is cached."""
    fixed = np.vstack([axis_pair_directions(n, signed), _halton_directions(n, signed)])
    fixed.setflags(write=False)
    return fixed


def _projection_directions(pair: _Pair, signed: bool) -> np.ndarray:
    """Deterministic directions for the univariate necessary tests, one per row.

    Axis vectors and pair sums identify the mean vector and the full scale
    matrix by polarization; the low-discrepancy bundle and the adversarial
    directions (most-negative eigenvector, copositivity violation point)
    probe the cones away from the axes.
    """
    fixed = _fixed_directions(pair.d1.dim, signed)
    if signed:
        eigenvalues, eigenvectors = np.linalg.eigh(pair.sigma_diff)
        if eigenvalues[0] < 0.0:
            return np.vstack([fixed, eigenvectors[:, 0]])
    else:
        witness = pair.copositive_witness()
        if witness is not None and float(np.linalg.norm(witness)) > 1e-9:
            return np.vstack([fixed, witness / float(np.linalg.norm(witness))])
    return fixed


def _tol(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The tolerance vec_equal and vec_leq apply to the 1-vectors x_k, y_k."""
    return RELATIVE_TOL * np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))


class _Projections(_View):
    """The univariate pairs (a'Y1, a'Y2) for the rows a of a direction matrix.

    The family is closed under affine maps, so a'Y_i has location a'mu_i,
    scale a'Sigma_i a and shift a'delta_i, with the pair's generator, map and
    mixing law: three numbers per direction and distribution, held here as
    arrays and compared column by column.
    """

    dim = 1

    def __init__(self, pair: _Pair, directions: np.ndarray) -> None:
        # d1 carries the family both share; no reference back to the pair,
        # whose memo holds this object, so that a pair is freed without a
        # cycle collection.
        self.d1 = pair.d1
        self.directions = directions
        #: The parent necessary statuses along each direction, by parent.
        self.statuses: dict[OrderKind, list[NecessaryStatus]] = {}
        self.mu1, self.mu2 = directions @ pair.mu1, directions @ pair.mu2
        self.delta1, self.delta2 = directions @ pair.delta1, directions @ pair.delta2
        self.scale1, self.scale2 = (
            np.einsum("ij,ij->i", directions @ s, directions) for s in (pair.scale1, pair.scale2))

    @staticmethod
    def equal(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.abs(x - y) <= _tol(x, y)

    @staticmethod
    def leq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x <= y + _tol(x, y)

    @staticmethod
    def is_zero(x: np.ndarray) -> np.ndarray:
        return x == 0.0

    def psd(self) -> np.ndarray:
        """The 1x1 matrix [d] is PSD, and copositive, exactly when is_psd and
        is_copositive say so: d >= -DEFAULT_TOL * max(1, |d|)."""
        d = self.scale2 - self.scale1
        return d >= -DEFAULT_TOL * np.maximum(np.abs(d), 1.0)

    copositive = psd


def _projected_statuses(parent: OrderKind, projections: _Projections) -> list[NecessaryStatus]:
    """The necessary status of ``parent`` along each direction: what
    ``_direct`` reports on the pair of that direction's projected
    distributions, read off the parent's entries in ``_ORDERS``."""
    count = projections.mu1.size
    violated = np.zeros(count, dtype=bool)
    assumption = np.zeros(count, dtype=bool)
    undecided = np.zeros(count, dtype=bool)
    for entry in _ORDERS[parent].necessary:
        evaluated = np.ones(count, dtype=bool)
        for gate in entry.gates:
            skipped = evaluated & np.logical_not(gate.holds(projections))
            undecided |= skipped
            if gate.reason is SkipReason.ASSUMPTION:
                assumption |= skipped
            evaluated &= ~skipped
        passed = np.asarray(_CONDITIONS[entry.tag].test(projections), dtype=float)
        violated |= evaluated & (passed == 0.0)
        undecided |= evaluated & np.isnan(passed)
    return [
        NecessaryStatus.VIOLATED if v else NecessaryStatus.ASSUMPTION_UNMET if a
        else NecessaryStatus.NOT_APPLICABLE if u else NecessaryStatus.HOLDS
        for v, a, u in zip(violated, assumption, undecided)
    ]


def _derived(order: OrderKind, pair: _Pair) -> OrderReport:
    """Orders defined through univariate projections (plst, lcx, ilcx, iplcx).

    Sufficiency is inherited from the parent order (st, cx, or icx: each
    parent implies its projection order).  The necessary side combines the
    parent theorem's conditions — which remain necessary for the projection
    variants — with direct univariate checks of every projection in a
    deterministic direction set.
    """
    parent_kind = _PARENT_OF[order]
    parent = _once(pair.reports, parent_kind, _direct, parent_kind, pair)
    sufficient = [Clause(
        "sufficient/parent-order",
        f"the {parent_kind.value} sufficient conditions hold (implies {order.value})",
        parent.sufficient is SufficientStatus.HOLDS,
    )]
    necessary = [c for c in parent.clauses if c.tag.startswith("necessary/")]

    signed = order in (OrderKind.LCX, OrderKind.ILCX)
    projections = _once(pair.projections, signed, lambda: _Projections(
        pair, _projection_directions(pair, signed)))
    statuses = _once(projections.statuses, parent_kind,
                     _projected_statuses, parent_kind, projections)
    tag = "necessary/projection-directions"
    text = (
        f"univariate {parent_kind.value} necessary conditions along "
        f"{len(projections.directions)} fixed directions"
    )
    if NecessaryStatus.VIOLATED in statuses:
        first_violation = statuses.index(NecessaryStatus.VIOLATED)
        clause = Clause(tag, f"{text} (violated at direction {first_violation})", False)
    elif NecessaryStatus.ASSUMPTION_UNMET in statuses:
        clause = Clause(tag, text + SkipReason.ASSUMPTION.value, None,
                        SkipReason.ASSUMPTION)
    elif NecessaryStatus.NOT_APPLICABLE in statuses:
        clause = Clause(tag, text + SkipReason.MOMENTS.value, None, SkipReason.MOMENTS)
    else:
        clause = Clause(tag, text, True)
    return _report(order, sufficient, necessary + [clause], parent.assumption_checks)


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
    return _direct(order, _validate_pair(
        d1.linear_functional(weights), d2.linear_functional(weights)))


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
    """Evaluate one order (projection-derived orders included) on a pair."""
    order = _as_order(order)
    pair = _validate_pair(d1, d2)
    return _once(pair.reports, order, _derived if order in _PARENT_OF else _direct,
                 order, pair)


def compare(
    d1: LseDistribution,
    d2: LseDistribution,
    orders: list[OrderKind] | None = None,
) -> dict[OrderKind, OrderReport]:
    """Evaluate a batch of orders; defaults to all thirteen."""
    global _last_pair
    selected = [_as_order(o) for o in orders] if orders is not None else list(OrderKind)
    _last_pair = None
    return {order: check_order(d1, d2, order) for order in selected}
