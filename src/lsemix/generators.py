"""Radial density generators for elliptical distribution families.

An n-dimensional elliptical density has the form

    f(x) = c_n |Sigma|^(-1/2) g((x - mu)' Sigma^{-1} (x - mu)),

where ``g`` is the family's scalar radial profile and

    c_n = Gamma(n/2) * pi^(-n/2) / I_n,      I_n = int_0^inf z^(n/2-1) g(z) dz.

The catalog below covers six classical profiles.  For the two heavy-tailed
families (cauchy, student) the profile itself depends on the ambient dimension
``n``, so every evaluation routine takes ``n`` explicitly.

family               g(u), u >= 0                      parameters
-------------------  --------------------------------  -------------------
cauchy               (1 + u)^(-(n+1)/2)                none
exponential_power    exp(-(1/s) u^(s/2))               shape s > 1
laplace              exp(-sqrt(u))                     none
normal               exp(-u/2)                         none
student              (1 + u/m)^(-(n+m)/2)              integer dof m >= 1
logistic             e^(-u) (1 + e^(-u))^(-2)          none

The two radial quantities the package needs, I_n and the second moment
E(R^2) = I_{n+2} / I_n, are closed forms for all six families (gamma and beta
functions; see ``radial_profile_integral`` and ``radial_second_moment``).  For
the logistic profile, g(u) = sum_{k>=1} (-1)^(k-1) k e^(-k u) integrates term
by term to

    I_n = Gamma(n/2) eta(n/2 - 1),      eta(s) = sum_{k>=1} (-1)^(k-1) k^(-s),

the Dirichlet eta function (eta(1) = ln 2), which ``_eta`` sums by
Borwein's (2000) accelerated alternating series; the module needs numpy
and nothing else.

The module also classifies the tail-ratio behaviour used to gate necessity
arguments in the ordering engine: for a univariate pair with scales
sigma1 != sigma2, the limit

    C = lim_{t -> +-inf} (sigma1/sigma2) * g(t2^2) / g(t1^2),
    t_i = (t - shift_i) / sigma_i,

exists for every catalog family and does not depend on the location shifts
shift_i, so ``limit_ratio`` takes the scales alone.  Condition A
("assumption 1") asks that C exists in [0, inf] and differs from 1;
condition B ("assumption 2") asks, for sigma1 > sigma2, that C lies in
[0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DomainError, NonIntegrableError, ParameterError

__all__ = [
    "GeneratorFamily",
    "DensityGenerator",
    "LimitRatioResult",
    "eval_generator",
    "log_eval_generator",
    "radial_profile_integral",
    "normalizing_constant",
    "radial_second_moment",
    "covariance_factor",
    "limit_ratio",
    "assumption_profile",
]

class GeneratorFamily(str, Enum):
    CAUCHY = "cauchy"
    EXPONENTIAL_POWER = "exponential_power"
    LAPLACE = "laplace"
    NORMAL = "normal"
    STUDENT = "student"
    LOGISTIC = "logistic"


@dataclass(frozen=True)
class DensityGenerator:
    """A catalog radial profile plus its family-specific parameters.

    Parameters
    ----------
    family : GeneratorFamily or str
        One of the six catalog families.
    power : float, optional
        Shape ``s`` of the exponential-power family; requires ``s > 1``.
        (The boundary case ``s = 1`` is the laplace family.)
    dof : int, optional
        Degrees of freedom ``m`` of the student family; a positive integer.
    """

    family: GeneratorFamily
    power: float | None = None
    dof: int | None = None

    def __post_init__(self) -> None:
        family = GeneratorFamily(self.family)
        object.__setattr__(self, "family", family)
        if family is GeneratorFamily.EXPONENTIAL_POWER:
            if self.power is None or not (float(self.power) > 1.0) or not math.isfinite(self.power):
                raise ParameterError("exponential_power requires a finite shape s > 1")
            object.__setattr__(self, "power", float(self.power))
        elif self.power is not None:
            raise ParameterError(f"family {family.value!r} takes no shape parameter")
        if family is GeneratorFamily.STUDENT:
            if self.dof is None or int(self.dof) != self.dof or int(self.dof) < 1:
                raise ParameterError("student requires a positive integer dof m")
            object.__setattr__(self, "dof", int(self.dof))
        elif self.dof is not None:
            raise ParameterError(f"family {family.value!r} takes no dof parameter")

    def describe(self) -> str:
        if self.family is GeneratorFamily.EXPONENTIAL_POWER:
            return f"exponential_power(s={self.power})"
        if self.family is GeneratorFamily.STUDENT:
            return f"student(m={self.dof})"
        return self.family.value


@dataclass(frozen=True)
class LimitRatioResult:
    """Outcome of the tail-ratio classification for one (sigma1, sigma2) pair.

    ``c_value`` lies in [0, inf] (math.inf encodes divergence).  The two flags
    report condition A (limit exists and differs from 1) and condition B
    (limit lies in [0, 1); only meaningful when sigma1 > sigma2, otherwise
    False).
    """

    c_value: float
    converged: bool
    satisfies_assumption1: bool
    satisfies_assumption2: bool
    sigma1: float
    sigma2: float


#: The family rule: cauchy is student with m = 1 and laplace is
#: exponential_power with s = 1.
_ALIASES = {
    GeneratorFamily.CAUCHY: (GeneratorFamily.STUDENT, 1),
    GeneratorFamily.LAPLACE: (GeneratorFamily.EXPONENTIAL_POWER, 1.0),
}


def _base_family(gen: DensityGenerator) -> tuple[GeneratorFamily, int | float | None]:
    """(family, parameter) under the family rule: normal, student with its
    dof m, exponential_power with its shape s, or logistic (parameter None)."""
    return _ALIASES.get(gen.family) or (gen.family, gen.power if gen.dof is None else gen.dof)


def _validate_dimension(n: int) -> int:
    if int(n) != n or n < 1:
        raise ParameterError("dimension n must be a positive integer")
    return int(n)


def log_eval_generator(gen: DensityGenerator, u, n: int = 1) -> np.ndarray:
    """log g_n(u) for u >= 0, vectorised over u."""
    n = _validate_dimension(n)
    u = np.asarray(u, dtype=float)
    if not np.all(u >= 0):
        raise DomainError("generator argument u must be nonnegative (and not NaN)")
    fam, p = _base_family(gen)
    if fam is GeneratorFamily.NORMAL:
        return -0.5 * u
    # At m = 1 and s = 1 (cauchy, laplace) the division and the power are
    # skipped: same values, one pass fewer over u.
    if fam is GeneratorFamily.STUDENT:
        return -0.5 * (n + p) * np.log1p(u if p == 1 else u / p)
    if fam is GeneratorFamily.EXPONENTIAL_POWER:
        return -np.sqrt(u) if p == 1.0 else -(u ** (p / 2.0)) / p
    return -u - 2.0 * np.log1p(np.exp(-u))


def eval_generator(gen: DensityGenerator, u, n: int = 1) -> np.ndarray:
    """g_n(u) for u >= 0, vectorised over u.  Always strictly positive."""
    return np.exp(log_eval_generator(gen, u, n))


def _borwein_weights(count: int) -> np.ndarray:
    """(-1)^k (d_count - d_k) / d_count for k < count, from the exact integers
    d_k = count sum_{i<=k} (count+i-1)! 4^i / ((count-i)! (2i)!); each weight
    is the correctly rounded quotient of two integers."""
    f = math.factorial
    d = list(accumulate(count * f(count + i - 1) * 4 ** i // (f(count - i) * f(2 * i))
                        for i in range(count + 1)))
    return np.array([(-1) ** k * (d[-1] - d[k]) / d[-1] for k in range(count)])


#: Borwein's algorithm 2 with 28 terms.  Against mpmath it is within 2e-16
#: relative of eta(s) at s = n/2 - 1 and n/2 for n = 1..343.  The hardest
#: argument is s = -1/2 (n = 1), whose terms grow with k: 20 terms miss it
#: by 5e-14, and 40 terms lose 5e-15 to the rounding of the larger terms.
_ETA_WEIGHTS = _borwein_weights(28)
_ETA_BASES = np.arange(1.0, _ETA_WEIGHTS.size + 1.0)


def _eta(s: float) -> float:
    """Dirichlet eta(s) = sum_{k>=1} (-1)^(k-1) k^(-s), by Borwein's (2000)
    algorithm 2, summed exactly over the rounded terms."""
    return math.fsum(_ETA_WEIGHTS * _ETA_BASES ** -s)


def radial_profile_integral(gen: DensityGenerator, n: int) -> float:
    """I_n = int_0^inf z^(n/2 - 1) g_n(z) dz, in closed form for every family.

    normal: 2^(n/2) Gamma(n/2); student (cauchy: m = 1): m^(n/2) B(n/2, m/2);
    exponential_power (laplace: s = 1): 2 s^(n/s - 1) Gamma(n/s); logistic:
    Gamma(n/2) eta(n/2 - 1), with eta the Dirichlet eta function.  Raises
    ``ParameterError`` past the largest dimension whose I_n is a double.
    """
    return _in_double_range("radial integral I_n", _profile_integral, gen, _validate_dimension(n))


def _profile_integral(gen: DensityGenerator, n: int) -> float:
    fam, p = _base_family(gen)
    if fam is GeneratorFamily.NORMAL:
        return 2.0 ** (n / 2.0) * math.gamma(n / 2.0)
    if fam is GeneratorFamily.STUDENT:
        log_beta = math.lgamma(n / 2.0) + math.lgamma(p / 2.0) - math.lgamma((n + p) / 2.0)
        return p ** (n / 2.0) * math.exp(log_beta)
    if fam is GeneratorFamily.EXPONENTIAL_POWER:
        return 2.0 * p ** (n / p - 1.0) * math.gamma(n / p)
    return math.gamma(n / 2.0) * _eta(n / 2.0 - 1.0)


def normalizing_constant(gen: DensityGenerator, n: int) -> float:
    """c_n = Gamma(n/2) * pi^(-n/2) / I_n, with 0 < I_n < inf enforced.

    Raises ``ParameterError`` past the largest dimension whose I_n and c_n
    are doubles.
    """
    n = _validate_dimension(n)
    profile = radial_profile_integral(gen, n)
    if not (0.0 < profile < math.inf):
        raise NonIntegrableError(
            f"radial profile integral of {gen.describe()} in dimension {n} is not finite/positive"
        )
    return _in_double_range("normalizing constant c_n", _normalizing_constant, gen, n)


def _normalizing_constant(gen: DensityGenerator, n: int) -> float:
    return math.gamma(n / 2.0) * math.pi ** (-n / 2.0) / _profile_integral(gen, n)


def _value(evaluate, gen: DensityGenerator, n: int) -> float:
    try:
        return evaluate(gen, n)
    except OverflowError:
        return math.inf


def _in_double_range(what: str, evaluate, gen: DensityGenerator, n: int) -> float:
    """``evaluate(gen, n)``, or a ``ParameterError`` naming the largest
    dimension where it is a finite double.

    The gamma functions and powers in the closed forms overflow from some
    dimension on and stay overflowed above it (I_n: laplace from n = 172,
    normal from 303, logistic from 344; c_n: every family from 344, where
    Gamma(n/2) does), so that dimension is found by bisection.
    """
    result = _value(evaluate, gen, n)
    if result < math.inf:
        return result
    fits, past = 0, n
    while past - fits > 1:
        mid = (fits + past) // 2
        if _value(evaluate, gen, mid) < math.inf:
            fits = mid
        else:
            past = mid
    raise ParameterError(
        f"the {what} of {gen.describe()} overflows a double in dimension {n}; "
        f"the largest dimension it supports is {fits}"
    )


def radial_second_moment(gen: DensityGenerator, n: int) -> float:
    """E(R^2) for the radial part R with density proportional to r^(n-1) g_n(r^2).

    Equals I_{n+2} / I_n where both integrals use the *same* profile g_n:
    n for normal; n m / (m - 2) for student, math.inf when m <= 2 (cauchy
    for every n); s^(2/s) Gamma((n+2)/s) / Gamma(n/s) for exponential_power
    (laplace: s = 1); (n/2) eta(n/2) / eta(n/2 - 1) for logistic.
    """
    n = _validate_dimension(n)
    fam, p = _base_family(gen)
    if fam is GeneratorFamily.NORMAL:
        return float(n)
    if fam is GeneratorFamily.STUDENT:
        return n * p / (p - 2.0) if p > 2 else math.inf
    if fam is GeneratorFamily.EXPONENTIAL_POWER:
        return p ** (2.0 / p) * math.exp(math.lgamma((n + 2.0) / p) - math.lgamma(n / p))
    return n / 2.0 * _eta(n / 2.0) / _eta(n / 2.0 - 1.0)


def covariance_factor(gen: DensityGenerator, n: int) -> float:
    """Scale factor between the dispersion matrix and the covariance matrix.

    For an elliptical vector with dispersion Sigma the covariance equals
    ``covariance_factor * Sigma``; the factor is E(R^2)/n (1 for normal,
    m/(m-2) for student with m > 2, inf for heavy tails).
    """
    n = _validate_dimension(n)
    second = radial_second_moment(gen, n)
    return second / n if math.isfinite(second) else math.inf


def limit_ratio(
    gen: DensityGenerator,
    sigma1: float,
    sigma2: float,
) -> LimitRatioResult:
    """Classify the univariate tail ratio for a pair of scales.

    Parameters
    ----------
    sigma1, sigma2 : float
        Finite positive scales with ``sigma1 != sigma2`` (the classification is
        vacuous for equal scales).

    Closed forms: student/cauchy give C = (sigma2/sigma1)^m (m = 1 for
    cauchy); the superexponential families (normal, laplace,
    exponential_power, logistic) give C = 0 when sigma1 > sigma2 and
    C = +inf when sigma1 < sigma2.
    """
    sigma1 = float(sigma1)
    sigma2 = float(sigma2)
    if not (0.0 < sigma1 < math.inf and 0.0 < sigma2 < math.inf):
        raise ParameterError("scales must be finite and positive")
    if sigma1 == sigma2:
        raise ParameterError("tail-ratio classification requires sigma1 != sigma2")
    fam, m = _base_family(gen)
    if fam is GeneratorFamily.STUDENT:
        c = (sigma2 / sigma1) ** m
    else:
        c = 0.0 if sigma1 > sigma2 else math.inf
    return LimitRatioResult(
        c_value=c,
        converged=True,
        satisfies_assumption1=math.isinf(c) or abs(c - 1.0) > 1e-9,
        satisfies_assumption2=sigma1 > sigma2 and 0.0 <= c < 1.0 - 1e-12,
        sigma1=sigma1,
        sigma2=sigma2,
    )


@lru_cache(maxsize=None)
def assumption_profile(gen: DensityGenerator) -> tuple[bool, bool, tuple[LimitRatioResult, ...]]:
    """Family-level gate for the ordering engine's necessity arguments.

    Probes the tail ratio at canonical scale pairs (2, 1) and (1, 2).
    Returns (condition A holds in both orientations, condition B holds for
    sigma1 > sigma2, the probe results).
    """
    probe_hi = limit_ratio(gen, 2.0, 1.0)
    probe_lo = limit_ratio(gen, 1.0, 2.0)
    sat1 = probe_hi.satisfies_assumption1 and probe_lo.satisfies_assumption1
    sat2 = probe_hi.satisfies_assumption2
    return sat1, sat2, (probe_hi, probe_lo)
