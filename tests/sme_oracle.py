"""Comparison criteria specialised to scale mixtures (delta = 0), for the tests.

An independent transcription of the paper's simplified criteria: with no
shift vector every order reduces to a location comparison plus a
scale-matrix cone or entrywise condition, so each row below is a short list
of sufficient and necessary values.  It shares no code with the clause
table of ``lsemix.orders``, only the primitives that decide its inputs: the
cone tests, the tail-ratio classification of the generator and the moment
summary.  The general engine must agree with it on every scale-mixture pair
(``test_sme_router_agrees_with_general_checker`` and acceptance 9).
"""

import numpy as np

from lsemix.cones import ConeStatus, is_completely_positive, is_copositive, is_psd
from lsemix.generators import assumption_profile
from lsemix.orders import NecessaryStatus, OrderKind, SufficientStatus, Verdict

#: Relative tolerance of parameter equalities, scaled by the larger magnitude.
RELATIVE_TOL = 1e-9

#: Marks a necessary condition skipped because a tail-ratio assumption fails.
UNMET = "assumption unmet"


def _tol(*arrays) -> float:
    return RELATIVE_TOL * max([1.0] + [float(np.abs(a).max()) for a in arrays
                                       if a.size])


def _equal(x, y) -> bool:
    return float(np.abs(x - y).max(initial=0.0)) <= _tol(x, y)


def _leq(x, y) -> bool:
    return bool(np.all(x <= y + _tol(x, y)))


def _inside(verdict) -> bool | None:
    if verdict.status is ConeStatus.UNKNOWN:
        return None
    return verdict.status is ConeStatus.INSIDE


def sme_table(d1, d2, order) -> tuple[SufficientStatus, NecessaryStatus, Verdict]:
    """(sufficient, necessary, verdict) of one order for a scale-mixture pair."""
    if not (d1.is_sme and d2.is_sme):
        raise ValueError("the simplified criteria apply only to zero shift vectors")
    order = OrderKind(order)
    tail_one, tail_two, _ = assumption_profile(d1.generator)
    finite = d1.moments().covariance is not None and d2.moments().covariance is not None
    s1, s2 = d1.sigma, d2.sigma
    off = ~np.eye(d1.dim, dtype=bool)
    mu_leq, mu_eq = _leq(d1.mu, d2.mu), _equal(d1.mu, d2.mu)
    diag_eq = _equal(np.diag(s1), np.diag(s2))

    def gated(assumption, value):
        return value if assumption else UNMET

    def moment(value):
        return value if finite else None

    if order in (OrderKind.ST, OrderKind.PLST):
        scale_eq = _equal(s1, s2)
        sufficient = [mu_leq, scale_eq]
        necessary = [gated(tail_one, mu_leq), gated(tail_one, scale_eq)]
    elif order in (OrderKind.ICX, OrderKind.IPLCX):
        sufficient = [mu_leq, _inside(is_psd(s2 - s1))]
        necessary = [gated(tail_two, mu_leq), gated(tail_two, _inside(is_copositive(s2 - s1)))]
    elif order is OrderKind.UO:
        off_leq = _leq(s1[off], s2[off])
        sufficient = [mu_leq, diag_eq, off_leq]
        necessary = [gated(tail_one, mu_leq), gated(tail_one, diag_eq),
                     moment(off_leq) if mu_eq and diag_eq else None]
    elif order is OrderKind.SM:
        off_leq = _leq(s1[off], s2[off])
        sufficient = [mu_eq, diag_eq, off_leq]
        necessary = [mu_eq, diag_eq, moment(off_leq)]
    else:
        # the equal-mean orders: mu1 = mu2 and conditions on the scales
        if order in (OrderKind.CX, OrderKind.LCX, OrderKind.ILCX):
            scale = [_inside(is_psd(s2 - s1))]
        elif order is OrderKind.DCX:
            scale = [_leq(s1, s2)]
        elif order is OrderKind.CCX:
            scale = [_leq(np.diag(s1), np.diag(s2)), _equal(s1[off], s2[off])]
        elif order is OrderKind.CP:
            scale = [_inside(is_copositive(s2 - s1))]
        else:
            scale = [_inside(is_completely_positive(s2 - s1))]
        sufficient = [mu_eq] + scale
        necessary = [mu_eq] + [moment(v) for v in scale]

    if all(v is True for v in sufficient):
        suff = SufficientStatus.HOLDS
    elif any(v is False for v in sufficient):
        suff = SufficientStatus.FAILS
    else:
        suff = SufficientStatus.NOT_APPLICABLE
    if any(v is False for v in necessary):
        nec = NecessaryStatus.VIOLATED
    elif UNMET in necessary:
        nec = NecessaryStatus.ASSUMPTION_UNMET
    elif any(v is None for v in necessary):
        nec = NecessaryStatus.NOT_APPLICABLE
    else:
        nec = NecessaryStatus.HOLDS
    if suff is SufficientStatus.HOLDS:
        verdict = Verdict.ORDERED
    elif nec is NecessaryStatus.VIOLATED:
        verdict = Verdict.NOT_ORDERED
    else:
        verdict = Verdict.INCONCLUSIVE
    return suff, nec, verdict
