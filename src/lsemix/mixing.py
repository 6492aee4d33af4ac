"""Mixing distributions on (0, inf) and the alpha/beta transformation maps.

A location-scale mixture draws a positive variable Z from one of the laws
below and transforms it through a pair of maps: ``alpha`` rescales the
elliptical part and ``beta`` shifts along the skew direction.  Every catalog
map is a power of z, so moments of alpha and beta reduce to power moments of
the mixing law, all of which have closed forms here.

The quadrature contract is shared by every law: ``quadrature()`` returns 256
nodes inside the support whose weights sum to one within 1e-12, and
``expectation(mix, f)`` is the plain weighted sum over those nodes.
Sampling from the continuous laws without a closed-form inverse CDF (GIG)
reads a 4096-interval tabulated inverse CDF (``numerics.InverseCdfTable``),
which keeps draws reproducible: a bucket index finds each uniform's knot in
O(1), and the interpolation is np.interp's, bit for bit.

The GIG normalizer and power moments need the modified Bessel function
K_nu.  It is taken on the log scale, log(e^x K_nu(x)), from the trapezoid
rule on the integral representation

    e^x K_nu(x) = (1/2) int_{-inf}^{inf} exp(nu t - 2 x sinh^2(t/2)) dt,

which converges geometrically in the number of nodes because the integrand
is analytic in a strip around the real line (Trefethen & Weideman 2014,
SIAM Review 56); see ``_log_kve``.  The log scale keeps the normalizer and
the moment ratios finite where K_nu itself overflows or underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, NonIntegrableError, ParameterError
from .numerics import build_inverse_cdf_table, expand_log_bounds, gauss_legendre

__all__ = [
    "MixingDistribution",
    "Degenerate",
    "BetaLambdaOne",
    "GeneralizedInverseGaussian",
    "DiscreteWeighted",
    "AlphaKind",
    "BetaKind",
    "AlphaBetaMap",
    "expectation",
    "beta_range",
    "gig_density",
    "gig_log_normalizer",
    "alpha_square_mean",
    "beta_mean",
    "beta_variance",
]

#: The exp-map quadrature for BetaLambdaOne integrates over x = lambda * u on
#: [0, X_MAX]; the truncated mass is exp(-X_MAX).
_BETA_X_MAX = 90.0

#: Step scale, step cap and truncation depth of ``_log_kve``'s trapezoid
#: rule, set against mpmath at 30 digits (see there).
_KVE_STEP = 0.45
_KVE_STEP_MAX = 0.18
_KVE_DROP = 40.0
_SQRT2 = math.sqrt(2.0)

#: log of the largest double: exp overflows past it.
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)

#: The largest Bessel order |nu| the GIG law evaluates.  Past it the
#: rounding of nu t (about |nu| t eps, with t up to 750) reaches the
#: integrand's exponent.
_KVE_ORDER_MAX = 1e12


class MixingDistribution:
    """Interface shared by all mixing laws.

    Subclasses provide the support bounds, a fixed quadrature rule, exact
    power moments, and reproducible sampling.
    """

    def support_bounds(self) -> tuple[float, float]:
        """Closure of the support as (lower, upper); upper may be math.inf."""
        raise NotImplementedError

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, weights) with nodes in the support and weights summing to 1."""
        raise NotImplementedError

    def power_moment(self, p: float) -> float:
        """E(Z^p), exactly; math.inf when the moment diverges."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Degenerate(MixingDistribution):
    """Point mass at z0 > 0; turns the mixture into a plain elliptical law."""

    z0: float

    def __post_init__(self) -> None:
        if not (float(self.z0) > 0.0) or not math.isfinite(self.z0):
            raise ParameterError("degenerate mixing requires z0 > 0")
        object.__setattr__(self, "z0", float(self.z0))

    def support_bounds(self) -> tuple[float, float]:
        return self.z0, self.z0

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.z0]), np.array([1.0])

    def power_moment(self, p: float) -> float:
        return self.z0 ** p

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, self.z0)

    def describe(self) -> str:
        return f"degenerate(z0={self.z0})"


@dataclass(frozen=True)
class BetaLambdaOne(MixingDistribution):
    """Beta(lambda, 1) law on (0, 1): density lambda * z^(lambda-1).

    Power moments: E(Z^p) = lambda / (lambda + p) for p > -lambda, infinite
    otherwise.  The inverse CDF is u^(1/lambda), so sampling is exact.
    """

    lam: float

    def __post_init__(self) -> None:
        if not (float(self.lam) > 0.0) or not math.isfinite(self.lam):
            raise ParameterError("beta mixing requires lambda > 0")
        object.__setattr__(self, "lam", float(self.lam))

    def support_bounds(self) -> tuple[float, float]:
        return 0.0, 1.0

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        # Substitute z = exp(-x / lambda): the density becomes exp(-x) dx on
        # [0, inf), truncated at _BETA_X_MAX.  Gauss-Legendre resolves the
        # exponential to machine precision, including the z^p integrands with
        # p > -lambda needed for the catalog maps.
        x, w = gauss_legendre(0.0, _BETA_X_MAX)
        return np.exp(-x / self.lam), w * np.exp(-x)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = self._rule
        return nodes.copy(), weights.copy()

    def power_moment(self, p: float) -> float:
        if p <= -self.lam:
            return math.inf
        return self.lam / (self.lam + p)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.random(count) ** (1.0 / self.lam)

    def describe(self) -> str:
        return f"beta_lambda_one(lam={self.lam})"


def _log_kve(nu: float, x: float) -> float:
    """log(e^x K_nu(x)) for x > 0, by the trapezoid rule on the whole line.

    The log integrand psi(t) = |nu| t - 2 x sinh^2(t/2) is concave, with its
    peak at t0 = asinh(|nu|/x), where x cosh t0 = X = hypot(x, nu) and
    2 x sinh^2(t0/2) = nu^2 / (X + x).  The peak's width is about X^(-1/2),
    and so is the analytic strip the trapezoid rule feeds on, so the step is
    _KVE_STEP X^(-1/2), at most _KVE_STEP_MAX.  With these two constants
    the log is within 3e-15 of mpmath's, relative to max(1, |log|), for
    |nu| <= 60 and x from 1e-4 to 1e5 and on a sparser grid out to 1e-300
    and 1.5e308.  The nodes t0 + k h run out to where psi has fallen
    _KVE_DROP below its peak, with both ends from closed-form lower bounds
    on the fall: X (cosh s - 1) to the right, and to the left the larger of
    X s^2 / (2 + s) and (X - |nu|)(cosh s - 1).  The sum is a log-sum-exp
    about psi(t0), and sinh^2 is squared as written: cosh t - 1 cancels at
    large x.
    """
    nu = abs(nu)
    big = math.hypot(x, nu)
    h = min(_KVE_STEP_MAX, _KVE_STEP / math.sqrt(big))
    ratio = nu / x
    t0 = math.asinh(ratio) if ratio < math.inf else math.log(2.0 * nu) - math.log(x)
    peak = nu * t0 - nu * (nu / (big + x))
    reach = math.sqrt(0.5 * _KVE_DROP) / math.sqrt(big)
    m = 2.0 * reach * reach
    left = min(0.5 * (m + math.sqrt(m * (m + 8.0))),
               2.0 * math.asinh(math.sqrt(0.5 * _KVE_DROP * (big + nu)) / x))
    half = np.arange(-math.ceil(left / h), math.ceil(2.0 * math.asinh(reach) / h) + 1.0)
    half *= 0.5 * h
    half += 0.5 * t0
    fall = np.sinh(half)
    fall *= _SQRT2 * math.sqrt(x)
    np.square(fall, out=fall)
    half *= 2.0 * nu
    half -= fall
    half -= peak
    return peak + math.log(0.5 * h * np.exp(half, out=half).sum())


def gig_log_normalizer(lam: float, chi: float, tau: float) -> float:
    """log of the generalized-inverse-gaussian normalizing constant.

    Interior case (chi > 0, tau > 0):
        (tau/chi)^(lam/2) / (2 K_lam(sqrt(chi tau))),
    taken as 0.5 lam log(tau/chi) - log 2 - log(e^w K_lam(w)) + w with
    w = sqrt(chi tau), finite for every valid (lam, chi, tau) with
    |lam| <= 1e12 (past that order it raises ``ParameterError``).  The
    boundary cases degenerate to gamma (chi = 0, lam > 0) and inverse gamma
    (tau = 0, lam < 0) constants.
    """
    return GeneralizedInverseGaussian(lam, chi, tau)._log_normalizer


def _validate_gig(lam: float, chi: float, tau: float) -> None:
    ok = (
        (lam < 0.0 and chi > 0.0 and tau >= 0.0)
        or (lam == 0.0 and chi > 0.0 and tau > 0.0)
        or (lam > 0.0 and chi >= 0.0 and tau > 0.0)
    )
    if not ok:
        raise ParameterError(
            "generalized inverse gaussian parameters must satisfy "
            "(lam<0: chi>0, tau>=0), (lam=0: chi>0, tau>0), (lam>0: chi>=0, tau>0); "
            f"got lam={lam}, chi={chi}, tau={tau}"
        )


def gig_density(omega, lam: float, chi: float, tau: float) -> np.ndarray:
    """Generalized-inverse-gaussian density at omega > 0 (vectorised).

    h(w) = C * w^(lam-1) * exp(-(chi/w + tau*w)/2) with C from
    :func:`gig_log_normalizer`.
    """
    _validate_gig(lam, chi, tau)
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise DomainError("gig density requires omega > 0")
    log_c = gig_log_normalizer(lam, chi, tau)
    return np.exp(log_c + (lam - 1.0) * np.log(omega) - 0.5 * (chi / omega + tau * omega))


@dataclass(frozen=True)
class GeneralizedInverseGaussian(MixingDistribution):
    """GIG(lam, chi, tau) law on (0, inf).

    Quadrature integrates in v = log(w) between bounds where the integrand of
    w * h(w) has dropped 60 log-units below its peak.  Sampling inverts a
    4096-point tabulated CDF on the same interval.
    """

    lam: float
    chi: float
    tau: float

    def __post_init__(self) -> None:
        _validate_gig(float(self.lam), float(self.chi), float(self.tau))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "chi", float(self.chi))
        object.__setattr__(self, "tau", float(self.tau))

    def support_bounds(self) -> tuple[float, float]:
        return 0.0, math.inf

    def _log_mass(self, v):
        # log of w * h(w) at w = e^v (a float or an array), up to the
        # normalizing constant: the density of V = log(Z)
        return self.lam * v - 0.5 * (self.chi * np.exp(-v) + self.tau * np.exp(v))

    @cached_property
    def _log_bounds(self) -> tuple[float, float]:
        lam, chi, tau = self.lam, self.chi, self.tau
        if tau > 0.0:
            mode = (lam + math.sqrt(lam * lam + chi * tau)) / tau
        else:
            mode = chi / (2.0 * -lam)
        if not 0.0 < mode < math.inf:
            raise ParameterError(f"{self.describe()}: the mode {mode} is not a positive finite double")
        return expand_log_bounds(self._log_mass, math.log(mode))

    @cached_property
    def _omega(self) -> float:
        """sqrt(chi tau), also where the product leaves the double range (the
        product of the roots is at least the smallest subnormal, never 0)."""
        omega = math.sqrt(self.chi * self.tau)
        return omega if 0.0 < omega < math.inf else math.sqrt(self.chi) * math.sqrt(self.tau)

    @cached_property
    def _log_bessels(self) -> dict[float, float]:
        """``_log_bessel`` by order, filled on first use.  The normalizer and
        every interior power moment share the order-lam entry, and one
        ``compare()`` asks a law for each of its moments two or three times."""
        return {}

    def _log_bessel(self, nu: float) -> float:
        """log(e^omega K_nu(omega)) at this law's omega."""
        memo = self._log_bessels
        if nu not in memo:
            if not abs(nu) <= _KVE_ORDER_MAX:
                raise ParameterError(
                    f"{self.describe()}: Bessel order {nu} is past the supported {_KVE_ORDER_MAX:g}")
            memo[nu] = _log_kve(nu, self._omega)
        return memo[nu]

    @cached_property
    def _log_normalizer(self) -> float:
        lam, chi, tau = self.lam, self.chi, self.tau
        if chi > 0.0 and tau > 0.0:
            return (0.5 * lam * (math.log(tau) - math.log(chi)) - math.log(2.0)
                    - self._log_bessel(lam) + self._omega)
        # The logs are taken apart: tau / 2 or chi / 2 underflows to 0 at the
        # smallest subnormal.
        if chi == 0.0:
            # Gamma(lam, rate tau/2): density (tau/2)^lam / Gamma(lam) * w^{lam-1} e^{-tau w / 2}
            return lam * (math.log(tau) - math.log(2.0)) - math.lgamma(lam)
        # tau == 0: inverse gamma with shape -lam, scale chi/2.
        return (-lam) * (math.log(chi) - math.log(2.0)) - math.lgamma(-lam)

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._log_bounds
        v, w = gauss_legendre(lo, hi)
        weights = w * np.exp(self._log_normalizer + self._log_mass(v))
        return np.exp(v), weights

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = self._rule
        return nodes.copy(), weights.copy()

    def power_moment(self, p: float) -> float:
        lam, chi, tau = self.lam, self.chi, self.tau
        if chi > 0.0 and tau > 0.0:
            log_moment = (0.5 * p * (math.log(chi) - math.log(tau))
                          + self._log_bessel(lam + p) - self._log_bessel(lam))
        elif chi == 0.0:
            if lam + p <= 0.0:
                return math.inf
            log_moment = (p * (math.log(2.0) - math.log(tau))
                          + math.lgamma(lam + p) - math.lgamma(lam))
        else:
            if -lam - p <= 0.0:
                return math.inf
            log_moment = (p * (math.log(chi) - math.log(2.0))
                          + math.lgamma(-lam - p) - math.lgamma(-lam))
        if not log_moment < _LOG_DOUBLE_MAX:
            raise ParameterError(f"{self.describe()}: E(Z^{p}) is not a double")
        return math.exp(log_moment)

    @cached_property
    def _inverse_cdf(self):
        lo, hi = self._log_bounds
        return build_inverse_cdf_table(self._log_mass, lo, hi)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.exp(self._inverse_cdf(rng.random(count)))

    def describe(self) -> str:
        return f"gig(lam={self.lam}, chi={self.chi}, tau={self.tau})"


@dataclass(frozen=True)
class DiscreteWeighted(MixingDistribution):
    """Finite mixture support: atoms ((z_1, w_1), ..., (z_k, w_k)).

    Atoms must be strictly positive and the weights must sum to one within
    1e-12.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        try:
            atoms = tuple((float(z), float(w)) for z, w in self.atoms)
        except (TypeError, ValueError) as exc:
            raise ParameterError("atoms must be (point, weight) pairs") from exc
        if not atoms:
            raise ParameterError("discrete mixing needs at least one atom")
        if any(not math.isfinite(z) or z <= 0.0 for z, _ in atoms):
            raise ParameterError("atom locations must be finite and positive")
        if any(w < 0.0 for _, w in atoms):
            raise ParameterError("atom weights must be nonnegative")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"atom weights must sum to 1, got {total}")
        object.__setattr__(self, "atoms", atoms)

    def support_bounds(self) -> tuple[float, float]:
        points = [z for z, _ in self.atoms]
        return min(points), max(points)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        points = np.array([z for z, _ in self.atoms])
        weights = np.array([w for _, w in self.atoms])
        return points, weights

    def power_moment(self, p: float) -> float:
        return float(sum(w * z ** p for z, w in self.atoms))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        points = np.array([z for z, _ in self.atoms])
        weights = np.array([w for _, w in self.atoms])
        idx = rng.choice(len(points), size=count, p=weights / weights.sum())
        return points[idx]

    def describe(self) -> str:
        return f"discrete({len(self.atoms)} atoms)"


class AlphaKind(str, Enum):
    ONE = "one"
    SQRT_Z = "sqrt_z"
    INV_SQRT_Z = "inv_sqrt_z"
    POWER = "power"


class BetaKind(str, Enum):
    ZERO = "zero"
    IDENTITY = "identity"
    INV_Z = "inv_z"
    POWER = "power"


@dataclass(frozen=True)
class AlphaBetaMap:
    """The pair of maps applied to the mixing draw.

    ``alpha`` multiplies the elliptical component (must be positive) and
    ``beta`` multiplies the skew direction delta (nonnegative).  All catalog
    kinds are powers of z, hence monotone on (0, inf):

        alpha: one -> 1, sqrt_z -> z^1/2, inv_sqrt_z -> z^-1/2, power -> z^a
        beta:  zero -> 0, identity -> z, inv_z -> z^-1, power -> z^b
    """

    alpha_kind: AlphaKind
    beta_kind: BetaKind
    alpha_power: float | None = None
    beta_power: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha_kind", AlphaKind(self.alpha_kind))
        object.__setattr__(self, "beta_kind", BetaKind(self.beta_kind))
        if self.alpha_kind is AlphaKind.POWER:
            if self.alpha_power is None or not math.isfinite(self.alpha_power):
                raise ParameterError("alpha kind 'power' requires a finite alpha_power")
            object.__setattr__(self, "alpha_power", float(self.alpha_power))
        elif self.alpha_power is not None:
            raise ParameterError("alpha_power is only valid with alpha kind 'power'")
        if self.beta_kind is BetaKind.POWER:
            if self.beta_power is None or not math.isfinite(self.beta_power):
                raise ParameterError("beta kind 'power' requires a finite beta_power")
            object.__setattr__(self, "beta_power", float(self.beta_power))
        elif self.beta_power is not None:
            raise ParameterError("beta_power is only valid with beta kind 'power'")

    # Named presets -------------------------------------------------------

    @classmethod
    def mean_variance(cls) -> "AlphaBetaMap":
        """alpha = sqrt(z), beta = z: the normal mean-variance mixture map
        (generalized hyperbolic when paired with GIG mixing)."""
        return cls(AlphaKind.SQRT_Z, BetaKind.IDENTITY)

    @classmethod
    def skew_slash(cls) -> "AlphaBetaMap":
        """alpha = z^(-1/2), beta = 1/z: with Beta(lambda, 1) mixing and the
        normal profile this yields the generalized hyperbolic skew-slash law."""
        return cls(AlphaKind.INV_SQRT_Z, BetaKind.INV_Z)

    @classmethod
    def location_mixture(cls) -> "AlphaBetaMap":
        """alpha = 1, beta = z: only the location is mixed."""
        return cls(AlphaKind.ONE, BetaKind.IDENTITY)

    @classmethod
    def scale_only(cls) -> "AlphaBetaMap":
        """alpha = sqrt(z), beta = 0: pure scale mixture (no skew)."""
        return cls(AlphaKind.SQRT_Z, BetaKind.ZERO)

    @classmethod
    def plain(cls) -> "AlphaBetaMap":
        """alpha = 1, beta = 0: no mixing effect at all."""
        return cls(AlphaKind.ONE, BetaKind.ZERO)

    # Evaluation ----------------------------------------------------------

    @property
    def alpha_exponent(self) -> float:
        return {
            AlphaKind.ONE: 0.0,
            AlphaKind.SQRT_Z: 0.5,
            AlphaKind.INV_SQRT_Z: -0.5,
            AlphaKind.POWER: self.alpha_power,
        }[self.alpha_kind]

    @property
    def beta_exponent(self) -> float | None:
        """Exponent b with beta(z) = z^b, or None when beta is identically 0."""
        return {
            BetaKind.ZERO: None,
            BetaKind.IDENTITY: 1.0,
            BetaKind.INV_Z: -1.0,
            BetaKind.POWER: self.beta_power,
        }[self.beta_kind]

    def alpha(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        a = self.alpha_exponent
        return np.ones_like(z) if a == 0.0 else z ** a

    def beta(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        b = self.beta_exponent
        if b is None:
            return np.zeros_like(z)
        return z if b == 1.0 else z ** b

    def describe(self) -> str:
        return f"alpha={self.alpha_kind.value}, beta={self.beta_kind.value}"


def expectation(mix: MixingDistribution, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Quadrature expectation sum_i w_i f(node_i); exact for point masses."""
    nodes, weights = mix.quadrature()
    values = np.asarray(f(nodes), dtype=float)
    if values.shape != nodes.shape:
        raise ParameterError("integrand must map nodes to values elementwise")
    if not np.all(np.isfinite(values)):
        raise NonIntegrableError("integrand is not finite on the quadrature nodes")
    return float(np.dot(weights, values))


def beta_range(mix: MixingDistribution, ab_map: AlphaBetaMap) -> tuple[float, float]:
    """Infimum and supremum of beta(Z) over the closure of the support.

    Every catalog beta is a monotone power of z, so the extrema sit at the
    support endpoints; the limit convention applies at open endpoints
    (e.g. beta = 1/z on (0, 1) has range (1, inf)).
    """
    b = ab_map.beta_exponent
    if b is None:
        return 0.0, 0.0
    lo, hi = mix.support_bounds()
    if b == 0.0:
        return 1.0, 1.0

    def power(z: float) -> float:
        if z == 0.0:
            return 0.0 if b > 0 else math.inf
        if math.isinf(z):
            return math.inf if b > 0 else 0.0
        return z ** b

    vals = (power(lo), power(hi))
    return min(vals), max(vals)


def alpha_square_mean(mix: MixingDistribution, ab_map: AlphaBetaMap) -> float:
    """E(alpha(Z)^2), exactly via power moments."""
    return mix.power_moment(2.0 * ab_map.alpha_exponent)


def beta_mean(mix: MixingDistribution, ab_map: AlphaBetaMap) -> float:
    """E(beta(Z)), exactly via power moments; 0 when beta is identically 0."""
    b = ab_map.beta_exponent
    return 0.0 if b is None else mix.power_moment(b)


def beta_variance(mix: MixingDistribution, ab_map: AlphaBetaMap) -> float:
    """Var(beta(Z)); math.inf when the second moment diverges."""
    b = ab_map.beta_exponent
    if b is None:
        return 0.0
    second = mix.power_moment(2.0 * b)
    first = mix.power_moment(b)
    if not math.isfinite(second) or not math.isfinite(first):
        return math.inf
    return max(second - first * first, 0.0)
