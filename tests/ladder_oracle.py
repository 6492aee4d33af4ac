"""Numeric tail-ratio ladder: the reference for ``limit_ratio``'s closed forms.

The log of the tail ratio (sigma1/sigma2) g(t2^2) / g(t1^2), t_i = (t -
shift_i) / sigma_i, is evaluated in log space at t = +-10^k for k = 2..6.
The last three values decide: all above log(1e12) is a limit of +inf, all
below -log(1e12) a limit of 0, three values within 1 % of each other a
finite limit (their geometric mean); anything else has not converged.  Only
``log_eval_generator`` comes from the package.  Acceptance 5 and
``test_generators.py`` check the closed forms against it.
"""

import math

import numpy as np

from lsemix.generators import log_eval_generator

#: |t| = 10^k for these k.
LADDER_EXPONENTS = (2, 3, 4, 5, 6)

#: Ratios above this value are classified as +inf, below its inverse as 0.
LADDER_DIVERGENCE = 1e12

#: Relative agreement demanded of the trailing ladder values.
LADDER_RELATIVE_TOL = 0.01


def log_ratio_at(gen, t, sigma1, sigma2, shift1=0.0, shift2=0.0) -> float:
    t1 = (t - shift1) / sigma1
    t2 = (t - shift2) / sigma2
    term1 = float(log_eval_generator(gen, np.array([t1 * t1]), 1)[0])
    term2 = float(log_eval_generator(gen, np.array([t2 * t2]), 1)[0])
    return math.log(sigma1 / sigma2) + term2 - term1


def ladder_limit(gen, sigma1, sigma2, shift1=0.0, shift2=0.0) -> tuple[float, bool]:
    """(limit, converged) of the tail ratio."""
    logs = []
    for k in LADDER_EXPONENTS:
        for sign in (1.0, -1.0):
            logs.append(log_ratio_at(gen, sign * 10.0 ** k, sigma1, sigma2, shift1, shift2))
    tail = logs[-3:]
    hi_cut = math.log(LADDER_DIVERGENCE)
    if all(v > hi_cut for v in tail):
        return math.inf, True
    if all(v < -hi_cut for v in tail):
        return 0.0, True
    if max(tail) - min(tail) <= math.log1p(LADDER_RELATIVE_TOL):
        return math.exp(sum(tail) / len(tail)), True
    return math.exp(tail[-1]), False
