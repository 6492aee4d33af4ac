"""Location-scale mixtures of elliptical distributions.

The central object is

    Y = mu + alpha(Z) * X + beta(Z) * delta,

where X ~ ELL_n(0, Sigma, g) is elliptical with dispersion Sigma and radial
profile g, Z follows a positive mixing law, and (alpha, beta) is a catalog
map pair.  Conditionally on Z = z the vector Y is elliptical with location
mu + beta(z) delta and dispersion alpha(z)^2 Sigma, so the density is the
mixing expectation of conditional elliptical densities

    f(y) = E_Z[ c_n / (alpha(Z)^n sqrt|Sigma|) * g(q(Z)) ],
    q(z) = (y - mu - beta(z) delta)' Sigma^{-1} (y - mu - beta(z) delta) / alpha(z)^2.

Note the Jacobian factor alpha(z)^n: the dispersion determinant is
|alpha^2 Sigma| = alpha^(2n) |Sigma|, and the density integrates to one only
with the n-th power (checked by the normalization tests).

Moments, when they exist:

    E(Y)   = mu + E(beta(Z)) delta,
    Cov(Y) = (E(R^2)/n) E(alpha(Z)^2) Sigma + Var(beta(Z)) delta delta'.

The family is closed under affine maps: for full-row-rank B,
B Y + b is again a mixture with (B mu + b, B Sigma B', B delta) and the same
profile, map, and mixing law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ParameterError,
    SingularTransformError,
    UnsupportedGeneratorError,
    UsageError,
)
from .generators import (
    DensityGenerator,
    GeneratorFamily,
    _base_family,
    log_eval_generator,
    normalizing_constant,
    radial_profile_integral,
    radial_second_moment,
)
from .mixing import (
    AlphaBetaMap,
    MixingDistribution,
    alpha_square_mean,
    beta_mean,
    beta_variance,
)
from .numerics import (
    blocked_matmul,
    build_inverse_cdf_table,
    expand_log_bounds,
    nearly_symmetric,
)

__all__ = [
    "LseDistribution",
    "MomentSummary",
    "sample_coupled",
]

#: pdf evaluates mixing nodes in blocks whose (nodes, points) arrays hold at
#: most this many doubles (one node per block when the points exceed it), so
#: a block's size depends on the number of points and not on the dimension.
#: 2^14 keeps each temporary in cache and the peak RSS flat.  On the density
#: benchmark's batches (2048 points) 2^13 and 2^15 ran no faster and 2^16
#: ran about 15 % slower.
_PDF_BLOCK_DOUBLES = 2 ** 14


@dataclass(frozen=True)
class MomentSummary:
    """First two moments of a mixture, with divergences made explicit.

    ``mean``/``covariance`` are None when the corresponding moment does not
    exist; the scalar mixing moments are reported with math.inf in that case.
    """

    mean: np.ndarray | None
    covariance: np.ndarray | None
    e_beta: float
    var_beta: float
    e_alpha_sq: float


@dataclass(frozen=True, eq=False)
class LseDistribution:
    """A location-scale mixture of an elliptical distribution.

    Two distributions are equal when their six parameters are: mu, sigma
    as stored (symmetrised), delta, generator, map and mixing law.  Array
    entries compare as floats, so -0.0 equals 0.0.

    Parameters
    ----------
    mu : (n,) array
        Location vector.
    sigma : (n, n) array
        Symmetric positive definite dispersion matrix.
    delta : (n,) array
        Skew direction multiplied by beta(Z).
    generator : DensityGenerator
        Radial profile of the elliptical component.
    ab_map : AlphaBetaMap
        The (alpha, beta) transformation pair.
    mixing : MixingDistribution
        Law of the positive mixing variable Z.
    """

    mu: np.ndarray
    sigma: np.ndarray
    delta: np.ndarray
    generator: DensityGenerator
    ab_map: AlphaBetaMap
    mixing: MixingDistribution

    def __post_init__(self) -> None:
        mu = np.array(self.mu, dtype=float, copy=True).reshape(-1)
        sigma = np.array(self.sigma, dtype=float, copy=True)
        delta = np.array(self.delta, dtype=float, copy=True).reshape(-1)
        n = mu.size
        if n < 1:
            raise ParameterError("dimension must be at least 1")
        if sigma.shape != (n, n):
            raise ParameterError(f"sigma must be ({n}, {n}), got {sigma.shape}")
        if delta.shape != (n,):
            raise ParameterError(f"delta must have shape ({n},), got {delta.shape}")
        if not np.all(np.isfinite(mu)) or not np.all(np.isfinite(sigma)) or not np.all(
            np.isfinite(delta)
        ):
            raise ParameterError("mu, sigma, delta must be finite")
        if not sigma.any():
            raise ParameterError("sigma must be nonzero")
        if not nearly_symmetric(sigma):
            raise ParameterError("sigma must be symmetric")
        sigma = 0.5 * (sigma + sigma.T)
        eigenvalues = np.linalg.eigvalsh(sigma)
        if eigenvalues[0] <= 0.0:
            raise ParameterError(
                f"sigma must be positive definite (smallest eigenvalue {eigenvalues[0]:.3e})"
            )
        # Existence of the conditional density for this profile and dimension.
        profile = radial_profile_integral(self.generator, n)
        if not (0.0 < profile < math.inf):
            raise ParameterError(
                f"profile {self.generator.describe()} is not integrable in dimension {n}"
            )
        for arr in (mu, sigma, delta):
            arr.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "delta", delta)

    # Basic structure ------------------------------------------------------

    @cached_property
    def _key(self) -> tuple:
        return (tuple(self.mu.tolist()), tuple(self.sigma.ravel().tolist()),
                tuple(self.delta.tolist()), self.generator, self.ab_map, self.mixing)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LseDistribution):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def dim(self) -> int:
        return self.mu.size

    @property
    def is_sme(self) -> bool:
        """True when the skew term vanishes identically.

        Detection is exact: beta == 0 as a map, or delta exactly zero in every
        component (a delta of 1e-30 is *not* scale-mixture-only).
        """
        if self.ab_map.beta_exponent is None:
            return True
        return bool(np.all(self.delta == 0.0))

    @cached_property
    def _chol_lower(self) -> np.ndarray:
        return np.linalg.cholesky(self.sigma)

    @cached_property
    def _log_sqrt_det(self) -> float:
        return float(np.log(np.diag(self._chol_lower)).sum())

    @cached_property
    def _log_norm_const(self) -> float:
        return math.log(normalizing_constant(self.generator, self.dim))

    def effective_delta(self) -> np.ndarray:
        """delta as seen by the distribution: zero when beta is the zero map."""
        if self.ab_map.beta_exponent is None:
            return np.zeros(self.dim)
        return self.delta

    def describe(self) -> str:
        return (
            f"lse(n={self.dim}, {self.generator.describe()}, {self.ab_map.describe()}, "
            f"{self.mixing.describe()})"
        )

    # Density and characteristic function ----------------------------------

    def _as_points(self, y) -> tuple[np.ndarray, bool]:
        y = np.asarray(y, dtype=float)
        if self.dim == 1:
            if y.ndim == 0:
                return y.reshape(1, 1), True
            if y.ndim == 1:
                return y.reshape(-1, 1), False
            if y.ndim == 2 and y.shape[1] == 1:
                return y, False
        else:
            if y.ndim == 1 and y.shape[0] == self.dim:
                return y.reshape(1, -1), True
            if y.ndim == 2 and y.shape[1] == self.dim:
                return y, False
        raise UsageError(
            f"expected a point of dimension {self.dim} or an array of such points, "
            f"got shape {y.shape}"
        )

    def _node_blocks(self, points: np.ndarray):
        """Yield ``(weights, log_terms)`` for blocks of mixing nodes.

        ``log_terms[k, j]`` is the log of the conditional density of point j
        at node k, without the node's weight.  Each whitened point
        w = L^{-1}(y - mu) is split once along u = d / |d|, d = L^{-1} delta:
        ``along = u.w`` and ``off = |w - along u|^2``, so that

            |w - beta d|^2 = (along - beta |d|)^2 + off,

        a sum of two nonnegative terms.  With d = 0, ``along`` is 0 and
        ``off`` is |w|^2.  A q beyond the double range is inf, whose term
        is 0; callers run the blocks under ``np.errstate(over="ignore")``.
        A point with an infinite coordinate is whitened with that
        coordinate at 0 and given ``off`` = inf, so q is inf at every node
        (no inf - inf); a NaN coordinate keeps ``off`` NaN and is rejected.
        """
        nodes, weights = self.mixing.quadrature()
        alphas = self.ab_map.alpha(nodes)
        chol = self._chol_lower
        infinite = np.isinf(points)
        far = 0.0
        if infinite.any():  # a flat pass; the row-wise any is many times slower
            far = np.where(infinite.any(axis=1), np.inf, 0.0)
            points = np.where(infinite, 0.0, points)
        white = np.linalg.solve(chol, (points - self.mu).T)
        white_delta = np.linalg.solve(chol, self.delta)
        norm = math.hypot(*white_delta)
        if norm > 0.0:
            unit = white_delta / norm
            along = unit @ white
            rest = white - np.outer(unit, along)
        else:
            along, rest = np.zeros(points.shape[0]), white
        off = np.einsum("ij,ij->j", rest, rest) + far
        shifts = self.ab_map.beta(nodes) * norm
        scales = 1.0 / (alphas * alphas)
        log_scales = (self._log_norm_const - self._log_sqrt_det) - self.dim * np.log(alphas)
        block = max(1, _PDF_BLOCK_DOUBLES // max(1, points.shape[0]))
        for start in range(0, weights.size, block):
            chunk = slice(start, start + block)
            q = np.subtract(along, shifts[chunk, None])
            np.square(q, out=q)
            q += off
            q *= scales[chunk, None]
            log_term = log_eval_generator(self.generator, q, self.dim)
            log_term += log_scales[chunk, None]
            yield weights[chunk], log_term

    def pdf(self, y) -> np.ndarray | float:
        """Density at one point (returns float) or a batch of points.

        A weighted sum over the quadrature nodes of the mixing law, in
        blocks of nodes.  Each whitened point is split once per call into
        ``along``, its coordinate on the whitened skew direction, and
        ``off``, its squared distance from that line; a node then costs
        q = ((along - beta |d|)^2 + off) / alpha^2 per point, with no loop
        over the dimension (see ``_node_blocks``).
        """
        points, single = self._as_points(y)
        total = np.zeros(points.shape[0])
        with np.errstate(over="ignore"):
            for weights, log_term in self._node_blocks(points):
                total += weights @ np.exp(log_term, out=log_term)
        return float(total[0]) if single else total

    def log_pdf(self, y) -> np.ndarray | float:
        """log of the density, finite where ``pdf`` underflows to 0.

        A log-sum-exp over the node blocks of ``pdf``, with a running
        maximum per point.  The maximum starts at the lowest double, not at
        -inf, so that a point whose terms are all -inf so far never forms
        -inf - (-inf); a point with no finite term gets -inf.
        """
        points, single = self._as_points(y)
        peak = np.full(points.shape[0], -np.finfo(float).max)
        scaled = np.zeros(points.shape[0])
        with np.errstate(over="ignore", divide="ignore"):
            for weights, log_term in self._node_blocks(points):
                log_term += np.log(weights)[:, None]
                top = np.maximum(peak, log_term.max(axis=0))
                scaled *= np.exp(peak - top)
                log_term -= top
                scaled += np.exp(log_term, out=log_term).sum(axis=0)
                peak = top
            result = peak + np.log(scaled)
        return float(result[0]) if single else result

    def char_fn(self, t) -> np.ndarray | complex:
        """Characteristic function; available for the normal profile only.

        Psi(t) = exp(i t'mu) E_Z[ exp(i beta(Z) t'delta) exp(-alpha(Z)^2 t'Sigma t / 2) ].
        """
        if self.generator.family is not GeneratorFamily.NORMAL:
            raise UnsupportedGeneratorError(
                "characteristic function is implemented for the normal profile only"
            )
        points, single = self._as_points(t)
        nodes, weights = self.mixing.quadrature()
        alphas = self.ab_map.alpha(nodes)
        betas = self.ab_map.beta(nodes)
        quad_form = np.einsum("ij,jk,ik->i", points, self.sigma, points)
        t_delta = points @ self.delta
        t_mu = points @ self.mu
        total = np.zeros(points.shape[0], dtype=complex)
        for weight, alpha, beta in zip(weights, alphas, betas):
            total += weight * np.exp(1j * beta * t_delta - 0.5 * alpha * alpha * quad_form)
        total *= np.exp(1j * t_mu)
        return complex(total[0]) if single else total

    # Moments ---------------------------------------------------------------

    def moments(self) -> MomentSummary:
        e_beta = beta_mean(self.mixing, self.ab_map)
        var_beta = beta_variance(self.mixing, self.ab_map)
        e_alpha_sq = alpha_square_mean(self.mixing, self.ab_map)
        delta = self.effective_delta()
        skewed = bool(np.any(delta != 0.0))

        mean: np.ndarray | None
        if math.isfinite(e_beta) or not skewed:
            shift = e_beta if skewed else 0.0
            mean = self.mu + shift * delta
        else:
            mean = None

        radial = radial_second_moment(self.generator, self.dim)
        cov: np.ndarray | None = None
        if math.isfinite(radial) and math.isfinite(e_alpha_sq) and (
            math.isfinite(var_beta) or not skewed
        ):
            cov = (radial / self.dim) * e_alpha_sq * self.sigma
            if skewed:
                cov = cov + var_beta * np.outer(delta, delta)
        return MomentSummary(
            mean=mean, covariance=cov, e_beta=e_beta, var_beta=var_beta, e_alpha_sq=e_alpha_sq
        )

    # Sampling ---------------------------------------------------------------

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` vectors; shape (count, n).

        Stochastic representation: Y = mu + alpha(Z) R L U + beta(Z) delta,
        with Z from the mixing law, R the radial part, U uniform on the unit
        sphere, and L the lower Cholesky factor of Sigma.  The draw order
        (Z, R, U) is fixed so that two distributions sharing a profile, map,
        and mixing law can be coupled by reusing one generator state.
        """
        if count < 1:
            raise UsageError("count must be at least 1")
        z = self.mixing.sample(rng, count)
        r = _draw_radial(self.generator, self.dim, rng, count)
        u = _sphere_draws(rng, count, self.dim)
        return self._assemble(self.ab_map.alpha(z) * r, self.ab_map.beta(z), u)

    def _assemble(self, scales: np.ndarray, betas: np.ndarray, u: np.ndarray) -> np.ndarray:
        """mu + scale L u + beta delta per draw, from the scales alpha(Z) R,
        the betas beta(Z) and the sphere points u; (mu + core) + beta delta,
        formed in place."""
        y = blocked_matmul(u, self._chol_lower.T)
        y *= scales[:, None]
        y += self.mu
        y += betas[:, None] * self.delta
        return y

    # Closure operations ------------------------------------------------------

    def affine(self, matrix, offset) -> "LseDistribution":
        """Distribution of B Y + b for a full-row-rank B (m <= n rows)."""
        matrix = np.asarray(matrix, dtype=float)
        offset = np.asarray(offset, dtype=float).reshape(-1)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise UsageError(
                f"matrix must be (m, {self.dim}); got {matrix.shape}"
            )
        m = matrix.shape[0]
        if offset.shape != (m,):
            raise UsageError(f"offset must have shape ({m},), got {offset.shape}")
        if m > self.dim:
            raise SingularTransformError("matrix has more rows than columns; cannot be full row rank")
        singular_values = np.linalg.svd(matrix, compute_uv=False)
        if singular_values[-1] <= 1e-10 * max(singular_values[0], 1e-300):
            raise SingularTransformError("matrix is rank deficient")
        return LseDistribution(
            mu=matrix @ self.mu + offset,
            sigma=matrix @ self.sigma @ matrix.T,
            delta=matrix @ self.delta,
            generator=self.generator,
            ab_map=self.ab_map,
            mixing=self.mixing,
        )

    def marginal(self, indices) -> "LseDistribution":
        """Marginal distribution of the selected (distinct) coordinates."""
        idx = np.asarray(indices, dtype=int).reshape(-1)
        if idx.size == 0:
            raise UsageError("at least one index is required")
        if np.any(idx < 0) or np.any(idx >= self.dim):
            raise UsageError(f"indices must lie in [0, {self.dim})")
        if len(set(idx.tolist())) != idx.size:
            raise UsageError("indices must be distinct")
        selector = np.zeros((idx.size, self.dim))
        selector[np.arange(idx.size), idx] = 1.0
        return self.affine(selector, np.zeros(idx.size))

    def linear_functional(self, a) -> "LseDistribution":
        """Univariate distribution of a'Y for a nonzero vector a."""
        a = np.asarray(a, dtype=float).reshape(-1)
        if a.shape != (self.dim,):
            raise UsageError(f"direction must have shape ({self.dim},)")
        if not np.any(a != 0.0):
            raise UsageError("direction must be nonzero")
        return self.affine(a.reshape(1, -1), np.zeros(1))

    def shares_family(self, other: "LseDistribution") -> bool:
        return (
            self.generator == other.generator
            and self.ab_map == other.ab_map
            and self.mixing == other.mixing
        )


def _sphere_draws(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    v = rng.standard_normal((count, n))
    if n < 8:
        # numpy sums a row shorter than 8 in order, so adding the squared
        # columns one by one gives np.linalg.norm's bytes.
        norms = np.square(v[:, 0])
        for j in range(1, n):
            norms += np.square(v[:, j])
        norms = np.sqrt(norms, out=norms)[:, None]
    else:
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    # A zero vector has probability zero; guard for numeric robustness.
    norms[norms == 0.0] = 1.0
    v /= norms
    return v


@lru_cache(maxsize=None)
def _radial_table(gen: DensityGenerator, n: int):
    """4096-point inverse-CDF table for the radial density ~ r^(n-1) g(r^2)."""

    def log_density(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.full_like(r, -np.inf)
        pos = r > 0
        out[pos] = (n - 1) * np.log(r[pos]) + log_eval_generator(gen, r[pos] ** 2, n)
        if n == 1:
            out[~pos] = log_eval_generator(gen, 0.0, n)
        return out

    def log_density_scalar(r: float) -> float:
        # Strictly negative arguments terminate the leftward bound search.
        if r < 0.0:
            return -math.inf
        return float(log_density(np.array([r]))[0])

    # Peak near r = sqrt(n) for light tails; expand until the log density has
    # dropped 60 units, then tabulate.
    center = max(math.sqrt(n), 1.0)
    lo, hi = expand_log_bounds(log_density_scalar, center, drop=60.0, step=0.5)
    return build_inverse_cdf_table(log_density, max(lo, 0.0), hi)


def _draw_radial(gen: DensityGenerator, n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    fam, m = _base_family(gen)
    if fam is GeneratorFamily.NORMAL:
        return np.sqrt(rng.chisquare(n, size=count))
    if fam is GeneratorFamily.STUDENT:
        # R^2 = m * chi2_n / chi2_m = n * F(n, m).
        return np.sqrt(n * rng.f(n, m, size=count))
    table = _radial_table(gen, n)
    return table(rng.random(count))


def sample_coupled(
    d1: LseDistribution, d2: LseDistribution, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (Y1, Y2) sharing the same (Z, R, U) inputs (common random numbers).

    Requires the two distributions to share profile, map, and mixing law and
    to live in the same dimension; the coupling makes Monte Carlo comparisons
    of the two laws far tighter than independent sampling.
    """
    if d1.dim != d2.dim:
        raise UsageError("coupled sampling requires equal dimensions")
    if not d1.shares_family(d2):
        raise UsageError("coupled sampling requires a shared profile, map, and mixing law")
    z = d1.mixing.sample(rng, count)
    r = _draw_radial(d1.generator, d1.dim, rng, count)
    u = _sphere_draws(rng, count, d1.dim)
    # The shared map gives both laws the same alpha(Z) R and beta(Z).
    scales, betas = d1.ab_map.alpha(z) * r, d1.ab_map.beta(z)
    return d1._assemble(scales, betas, u), d2._assemble(scales, betas, u)
