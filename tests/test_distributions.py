"""Tests for the mixture distribution object.

Oracles used here and nowhere in the implementation:
  * scipy.stats multivariate_normal / multivariate_t / laplace closed-form
    densities for degenerate-mixing cases;
  * direct nested quadrature (mixing density x conditional normal) for the
    skew-slash family;
  * Kolmogorov-Smirnov distance for samplers with known univariate laws;
  * tensor-product quadrature for density normalization.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from lsemix.distributions import LseDistribution, sample_coupled
from lsemix.errors import (
    ParameterError,
    SingularTransformError,
    UnsupportedGeneratorError,
    UsageError,
)
from lsemix.generators import DensityGenerator, GeneratorFamily, log_eval_generator
from lsemix.mixing import (
    AlphaBetaMap,
    AlphaKind,
    BetaKind,
    BetaLambdaOne,
    Degenerate,
    DiscreteWeighted,
    GeneralizedInverseGaussian,
)

NORMAL = DensityGenerator(GeneratorFamily.NORMAL)
STUDENT5 = DensityGenerator(GeneratorFamily.STUDENT, dof=5)
LAPLACE = DensityGenerator(GeneratorFamily.LAPLACE)
LOGISTIC = DensityGenerator(GeneratorFamily.LOGISTIC)
CAUCHY = DensityGenerator(GeneratorFamily.CAUCHY)


def plain_normal(mu, sigma):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return LseDistribution(
        mu=mu,
        sigma=np.atleast_2d(np.asarray(sigma, dtype=float)),
        delta=np.zeros(mu.size),
        generator=NORMAL,
        ab_map=AlphaBetaMap.plain(),
        mixing=Degenerate(1.0),
    )


def ghss(lam, mu, sigma, delta):
    """Univariate skew-slash construction: alpha = z^{-1/2}, beta = 1/z, Beta mixing."""
    return LseDistribution(
        mu=np.array([mu]),
        sigma=np.array([[sigma**2]]),
        delta=np.array([delta]),
        generator=NORMAL,
        ab_map=AlphaBetaMap.skew_slash(),
        mixing=BetaLambdaOne(lam),
    )


def ghss_pdf_oracle(y, lam, mu, sigma, delta):
    """Nested quadrature: mixing density times the conditional normal density."""

    def integrand(z):
        scale = sigma / math.sqrt(z)
        loc = mu + delta / z
        return lam * z ** (lam - 1.0) * stats.norm.pdf(y, loc=loc, scale=scale)

    value, err = integrate.quad(integrand, 0.0, 1.0, limit=1000, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-8
    return value


class TestConstruction:
    def test_rejects_asymmetric_sigma(self):
        with pytest.raises(ParameterError, match="symmetric"):
            LseDistribution(
                mu=np.zeros(2),
                sigma=np.array([[1.0, 0.5], [0.2, 1.0]]),
                delta=np.zeros(2),
                generator=NORMAL,
                ab_map=AlphaBetaMap.plain(),
                mixing=Degenerate(1.0),
            )

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(ParameterError, match="positive definite"):
            LseDistribution(
                mu=np.zeros(2),
                sigma=np.array([[1.0, 2.0], [2.0, 1.0]]),
                delta=np.zeros(2),
                generator=NORMAL,
                ab_map=AlphaBetaMap.plain(),
                mixing=Degenerate(1.0),
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            LseDistribution(
                mu=np.zeros(2),
                sigma=np.eye(2),
                delta=np.zeros(3),
                generator=NORMAL,
                ab_map=AlphaBetaMap.plain(),
                mixing=Degenerate(1.0),
            )

    def test_rejects_nonfinite_parameters(self):
        with pytest.raises(ParameterError):
            LseDistribution(
                mu=np.array([np.nan]),
                sigma=np.eye(1),
                delta=np.zeros(1),
                generator=NORMAL,
                ab_map=AlphaBetaMap.plain(),
                mixing=Degenerate(1.0),
            )

    def test_parameters_are_frozen_copies(self):
        mu = np.zeros(2)
        d = plain_normal(mu, np.eye(2))
        mu[0] = 99.0
        assert d.mu[0] == 0.0
        with pytest.raises(ValueError):
            d.mu[0] = 1.0

    def test_is_sme_policy(self):
        skew = ghss(3.0, 0.0, 1.0, 0.5)
        assert not skew.is_sme
        zero_delta = ghss(3.0, 0.0, 1.0, 0.0)
        assert zero_delta.is_sme
        tiny = ghss(3.0, 0.0, 1.0, 1e-30)
        assert not tiny.is_sme  # exact-zero policy, no epsilon
        zero_map = LseDistribution(
            mu=np.zeros(1),
            sigma=np.eye(1),
            delta=np.array([2.0]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.scale_only(),
            mixing=BetaLambdaOne(3.0),
        )
        assert zero_map.is_sme


class TestEquality:
    """Value equality and hash over the six parameters, at n = 2."""

    @staticmethod
    def make(mu=(0.5, 0.0), sigma=((2.0, 0.3), (0.3, 1.0)), delta=(0.0, 0.4),
             generator=NORMAL):
        return LseDistribution(
            mu=np.array(mu), sigma=np.array(sigma), delta=np.array(delta),
            generator=generator, ab_map=AlphaBetaMap.skew_slash(), mixing=BetaLambdaOne(3.0),
        )

    def test_equal_copies(self):
        d, copy = self.make(), self.make()
        assert d is not copy
        assert d == copy
        assert hash(d) == hash(copy)
        assert len({d, copy}) == 1

    def test_negative_zero_equals_zero(self):
        d, signed = self.make(), self.make(mu=(0.5, -0.0), delta=(-0.0, 0.4))
        assert d == signed
        assert hash(d) == hash(signed)

    def test_one_differing_sigma_entry(self):
        d, other = self.make(), self.make(sigma=((2.0, 0.3), (0.3, 1.5)))
        assert d != other
        assert len({d, other}) == 2

    def test_different_family(self):
        assert self.make() != self.make(generator=STUDENT5)

    @pytest.mark.parametrize("operand", [None, "lse", 1.0, (0.5, 0.0)])
    def test_non_distribution_operand(self, operand):
        d = self.make()
        assert d.__eq__(operand) is NotImplemented
        assert d != operand
        assert not d == operand


class TestPdf:
    def test_standard_peak_value(self):
        d = plain_normal(0.0, 1.0)
        assert d.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_matches_multivariate_normal(self):
        mu = np.array([0.3, -1.0])
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        d = plain_normal(mu, sigma)
        pts = np.array([[0.0, 0.0], [1.0, -2.0], [-0.5, 0.5], [3.0, 1.0]])
        expected = stats.multivariate_normal(mean=mu, cov=sigma).pdf(pts)
        np.testing.assert_allclose(d.pdf(pts), expected, rtol=1e-10)

    def test_matches_multivariate_t(self):
        mu = np.array([0.5, 0.0, -0.2])
        sigma = np.array([[1.5, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.8]])
        d = LseDistribution(
            mu=mu,
            sigma=sigma,
            delta=np.zeros(3),
            generator=STUDENT5,
            ab_map=AlphaBetaMap.plain(),
            mixing=Degenerate(4.0),
        )
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, -1.0], [-2.0, 0.5, 0.3]])
        expected = stats.multivariate_t(loc=mu, shape=sigma, df=5).pdf(pts)
        np.testing.assert_allclose(d.pdf(pts), expected, rtol=1e-10)

    def test_discrete_mean_variance_mixture_is_explicit_sum(self):
        mu = np.array([0.0, 0.5])
        sigma = np.array([[1.0, 0.2], [0.2, 0.7]])
        delta = np.array([0.4, -0.3])
        atoms = ((0.5, 0.3), (1.0, 0.5), (2.5, 0.2))
        d = LseDistribution(
            mu=mu,
            sigma=sigma,
            delta=delta,
            generator=NORMAL,
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=DiscreteWeighted(atoms),
        )
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [-1.5, 0.2]])
        expected = np.zeros(3)
        for z, w in atoms:
            expected += w * stats.multivariate_normal(mean=mu + z * delta, cov=z * sigma).pdf(pts)
        np.testing.assert_allclose(d.pdf(pts), expected, rtol=1e-10)

    @pytest.mark.parametrize("y", [-2.0, -0.5, 0.0, 0.7, 1.3, 3.0])
    def test_skew_slash_against_nested_quadrature(self, y):
        lam, mu, sigma, delta = 3.0, 0.0, 1.0, 0.5
        d = ghss(lam, mu, sigma, delta)
        assert d.pdf(y) == pytest.approx(ghss_pdf_oracle(y, lam, mu, sigma, delta), abs=1e-6)

    def test_exponential_power_two_is_the_normal_profile(self):
        d_ep = LseDistribution(
            mu=np.array([0.1]),
            sigma=np.array([[1.3]]),
            delta=np.array([0.2]),
            generator=DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER, power=2.0),
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=BetaLambdaOne(2.0),
        )
        d_n = LseDistribution(
            mu=np.array([0.1]),
            sigma=np.array([[1.3]]),
            delta=np.array([0.2]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=BetaLambdaOne(2.0),
        )
        pts = np.linspace(-3.0, 3.0, 11)
        np.testing.assert_allclose(d_ep.pdf(pts), d_n.pdf(pts), rtol=1e-12)

    def test_univariate_normalization(self):
        # The Laplace pair is the heavy-tailed one: under Beta(1.5) skew-slash
        # mixing 0.18 % of its mass lies beyond mu + 50, where the density
        # falls like y^-1.5.  Midpoint rule on [mu - 50, mu + 50], and on the
        # tails in u with y = mu +- 50 / u^2, which makes a y^-1.5 tail a
        # bounded integrand in u.
        heavy = LseDistribution(
            mu=np.array([0.35224598802261176]),
            sigma=np.array([[0.7281496854319769]]),
            delta=np.array([0.7316133792079745]),
            generator=LAPLACE,
            ab_map=AlphaBetaMap.skew_slash(),
            mixing=BetaLambdaOne(1.5),
        )
        nodes, half_width = 50_000, 50.0
        mid = (np.arange(nodes) + 0.5) / nodes
        for d in (ghss(3.0, 0.2, 1.1, 0.6), heavy):
            c = float(d.mu[0])
            total = 2.0 * half_width / nodes * d.pdf(c + half_width * (2.0 * mid - 1.0)).sum()
            for sign in (1.0, -1.0):
                tail = d.pdf(c + sign * half_width / mid**2)
                total += (2.0 * half_width / mid**3 * tail).sum() / nodes
            assert total == pytest.approx(1.0, abs=1e-6), d.describe()

    def test_bivariate_normalization_student(self):
        d = LseDistribution(
            mu=np.array([0.0, 0.3]),
            sigma=np.array([[1.0, 0.4], [0.4, 1.5]]),
            delta=np.array([0.5, -0.2]),
            generator=STUDENT5,
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=DiscreteWeighted(((0.7, 0.4), (1.6, 0.6))),
        )
        # Rational compactification x = t / (1 - t^2) maps (-1, 1) onto R.
        t, w = np.polynomial.legendre.leggauss(240)
        x = t / (1.0 - t * t)
        jac = (1.0 + t * t) / (1.0 - t * t) ** 2
        xx, yy = np.meshgrid(x, x)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        vals = d.pdf(pts).reshape(xx.shape)
        total = float((w * jac) @ vals @ (w * jac))
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_marginal_pdf_matches_numeric_marginalization(self):
        d = LseDistribution(
            mu=np.array([0.0, 1.0]),
            sigma=np.array([[1.0, 0.3], [0.3, 0.8]]),
            delta=np.array([0.5, 0.0]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.location_mixture(),
            mixing=BetaLambdaOne(2.0),
        )
        first = d.marginal([0])
        for y in (-1.0, 0.2, 1.5):
            joint_slice, _ = integrate.quad(
                lambda y2: d.pdf(np.array([y, y2])), -np.inf, np.inf, limit=300
            )
            assert first.pdf(y) == pytest.approx(joint_slice, abs=1e-4)

    def test_dimension_mismatch_is_usage_error(self):
        d = plain_normal(np.zeros(2), np.eye(2))
        with pytest.raises(UsageError):
            d.pdf(np.zeros(3))

    def test_log_pdf_consistency(self):
        d = ghss(3.0, 0.0, 1.0, 0.5)
        pts = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(d.log_pdf(pts), np.log(d.pdf(pts)), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_log_pdf_where_pdf_underflows(self, n):
        # N(0, I): log f(y) = -|y|^2 / 2 - (n / 2) log(2 pi), while f itself
        # is 0 in double precision beyond |y| = 38.6.
        d = plain_normal(np.zeros(n), np.eye(n))
        radii = np.array([0.0, 40.0, 100.0])
        pts = np.zeros((radii.size, n))
        pts[:, 0] = radii
        expected = -0.5 * radii**2 - 0.5 * n * math.log(2.0 * math.pi)
        assert d.pdf(pts)[1] == 0.0
        np.testing.assert_allclose(d.log_pdf(pts if n > 1 else radii), expected, rtol=1e-14)
        for y, value in zip(pts if n > 1 else radii, expected):
            assert d.log_pdf(y) == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("mixing", [
        DiscreteWeighted(((0.5, 0.3), (1.0, 0.5), (2.5, 0.2))),
        GeneralizedInverseGaussian(1.0, 1.0, 2.0),
    ], ids=["discrete", "gig"])
    @pytest.mark.parametrize("generator", [
        NORMAL, STUDENT5, CAUCHY, LAPLACE, LOGISTIC,
        DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER, power=1.5),
    ], ids=lambda g: g.family.value)
    def test_node_blocks_match_per_node_loop(self, generator, mixing, n):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n))
        sigma = g @ g.T / n + np.eye(n)
        direction = 0.5 * rng.standard_normal(n)
        white_norm = math.hypot(*np.linalg.solve(np.linalg.cholesky(sigma), direction))
        # The skew as drawn, none, and whitened norms of 1e200 (its squares
        # overflow: every q is inf, every term 0) and 1e-200 (its squares
        # underflow; math.hypot does not).
        for delta in (direction, np.zeros(n), direction * (1e200 / white_norm),
                      direction * (1e-200 / white_norm)):
            d = LseDistribution(
                mu=rng.standard_normal(n),
                sigma=sigma,
                delta=delta,
                generator=generator,
                ab_map=AlphaBetaMap.mean_variance(),
                mixing=mixing,
            )
            # Blocks hold 2^14 // points nodes at any n.  3 points: every
            # node in one block; 1500: blocks of 10 nodes, the last of the
            # 256 GIG nodes short; 6000: blocks of 2, the last of the 3
            # discrete nodes short; 16384: one node per block; and an
            # empty batch.
            for count in (3, 1500, 6000, 16384, 0):
                pts = d.mu + 2.0 * rng.standard_normal((count, n))
                np.testing.assert_allclose(d.pdf(pts), per_node_pdf(d, pts), rtol=1e-13)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("mixing, ab_map", [
        (GeneralizedInverseGaussian(1.0, 1.0, 2.0), AlphaBetaMap.mean_variance()),
        (BetaLambdaOne(1.5), AlphaBetaMap.skew_slash()),
    ], ids=["gig", "beta"])
    @pytest.mark.parametrize("generator", [
        NORMAL, STUDENT5, CAUCHY, LAPLACE, LOGISTIC,
        DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER, power=1.5),
    ], ids=lambda g: g.family.value)
    def test_tail_points_match_per_node_loop(self, generator, mixing, ab_map, n):
        # Both forms round each q to within a few q * eps, the split one
        # differently from the direct one, and a node's term exp(log g(q))
        # moves by |d log g / dq| * dq, with |d log g / dq| <= 1 for every
        # profile.  So far out, where q reaches hundreds or more, the two
        # differ by about q * eps (1.1e-13 at q = 500 on the density
        # benchmark).  The q that counts is that of the nodes whose terms
        # make up the density: q_max over them, 8 * eps * max(1, q_max)
        # bounds the difference with a margin of 3.
        rng = np.random.default_rng(10 + n)
        g = rng.standard_normal((n, n))
        d = LseDistribution(
            mu=rng.standard_normal(n),
            sigma=g @ g.T / n + np.eye(n),
            delta=0.5 * rng.standard_normal(n),
            generator=generator,
            ab_map=ab_map,
            mixing=mixing,
        )
        directions = rng.standard_normal((400, n))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        pts = d.mu + np.logspace(0.0, 3.0, 400)[:, None] * directions
        direct = per_node_pdf(d, pts)
        normal = direct >= np.finfo(float).tiny
        assert normal.sum() >= 300
        split = d.pdf(pts)
        bound = 8.0 * np.finfo(float).eps * np.maximum(1.0, carrying_q_max(d, pts[normal]))
        assert np.all(np.abs(split[normal] / direct[normal] - 1.0) <= bound)
        assert np.all(split[~normal] < 2.0 * np.finfo(float).tiny)


def direct_nodes(d, points):
    """Yield (q, weighted term) for one quadrature node at a time,
    from the full residual y - mu - beta delta, without the split."""
    nodes, weights = d.mixing.quadrature()
    chol = d._chol_lower
    white_points = np.linalg.solve(chol, (points - d.mu).T)
    white_delta = np.linalg.solve(chol, d.delta)[:, None]
    log_base = d._log_norm_const - d._log_sqrt_det
    for weight, alpha, beta in zip(weights, d.ab_map.alpha(nodes), d.ab_map.beta(nodes)):
        shifted = white_points - beta * white_delta
        q = np.einsum("ij,ij->j", shifted, shifted) / (alpha * alpha)
        log_term = log_base - d.dim * math.log(alpha) + log_eval_generator(d.generator, q, d.dim)
        yield q, weight * np.exp(log_term)


def per_node_pdf(d, points):
    """Reference: the mixing expectation accumulated one quadrature node at a time."""
    total = np.zeros(points.shape[0])
    for _, term in direct_nodes(d, points):
        total += term
    return total


def carrying_q_max(d, points):
    """Per point, the largest q among the nodes that carry its density: the
    largest weighted terms, taken in order until the rest is below eps of
    the total.  The rest cannot move the density by more than eps relative
    however it is rounded."""
    qs, terms = map(np.array, zip(*direct_nodes(d, points)))
    order = np.argsort(-terms, axis=0)
    terms = np.take_along_axis(terms, order, axis=0)
    qs = np.take_along_axis(qs, order, axis=0)
    before = np.cumsum(terms, axis=0) - terms
    carrying = before < (1.0 - np.finfo(float).eps) * terms.sum(axis=0)
    return np.where(carrying, qs, 0.0).max(axis=0)


class TestCharFn:
    def test_degenerate_normal_closed_form(self):
        mu = np.array([0.5, -0.3])
        sigma = np.array([[1.2, 0.4], [0.4, 0.9]])
        d = plain_normal(mu, sigma)
        ts = np.array([[0.3, -1.0], [1.5, 0.2], [0.0, 0.0]])
        expected = np.exp(
            1j * ts @ mu - 0.5 * np.einsum("ij,jk,ik->i", ts, sigma, ts)
        )
        np.testing.assert_allclose(d.char_fn(ts), expected, atol=1e-14)

    def test_discrete_mixture_closed_form(self):
        mu = np.array([0.0])
        sigma = np.array([[1.0]])
        delta = np.array([0.7])
        atoms = ((0.5, 0.25), (2.0, 0.75))
        d = LseDistribution(
            mu=mu,
            sigma=sigma,
            delta=delta,
            generator=NORMAL,
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=DiscreteWeighted(atoms),
        )
        t = 1.3
        expected = sum(
            w * np.exp(1j * z * t * delta[0] - 0.5 * z * t * t * sigma[0, 0]) for z, w in atoms
        )
        assert d.char_fn(np.array([t])) == pytest.approx(expected, abs=1e-14)

    def test_conjugate_symmetry(self):
        d = LseDistribution(
            mu=np.array([0.2, -0.4]),
            sigma=np.array([[1.0, 0.3], [0.3, 2.0]]),
            delta=np.array([0.6, 0.1]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=GeneralizedInverseGaussian(1.0, 1.0, 2.0),
        )
        rng = np.random.default_rng(5)
        ts = rng.normal(size=(20, 2))
        np.testing.assert_allclose(
            d.char_fn(-ts), np.conjugate(d.char_fn(ts)), atol=1e-14
        )

    def test_value_at_zero_is_one(self):
        d = ghss(3.0, 0.0, 1.0, 0.5)
        assert d.char_fn(np.zeros(1)) == pytest.approx(1.0, abs=1e-12)

    def test_non_normal_profile_is_unsupported(self):
        d = LseDistribution(
            mu=np.zeros(1),
            sigma=np.eye(1),
            delta=np.zeros(1),
            generator=STUDENT5,
            ab_map=AlphaBetaMap.plain(),
            mixing=Degenerate(1.0),
        )
        with pytest.raises(UnsupportedGeneratorError):
            d.char_fn(np.array([1.0]))

    def test_affine_identity(self):
        d = LseDistribution(
            mu=np.array([0.1, 0.5, -0.3]),
            sigma=np.array([[1.0, 0.2, 0.0], [0.2, 1.5, 0.3], [0.0, 0.3, 0.9]]),
            delta=np.array([0.4, 0.0, -0.6]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=BetaLambdaOne(2.5),
        )
        rng = np.random.default_rng(11)
        B = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        image = d.affine(B, b)
        ts = rng.normal(size=(25, 2))
        lhs = image.char_fn(ts)
        rhs = np.exp(1j * ts @ b) * d.char_fn(ts @ B)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestMoments:
    def test_location_mixture_trivial_case(self):
        d = LseDistribution(
            mu=np.zeros(2),
            sigma=np.eye(2),
            delta=np.array([1.0, 0.0]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.location_mixture(),
            mixing=Degenerate(1.0),
        )
        summary = d.moments()
        np.testing.assert_allclose(summary.mean, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(summary.covariance, np.eye(2), atol=1e-14)
        assert summary.var_beta == pytest.approx(0.0, abs=1e-14)

    def test_skew_slash_reference_values(self):
        d = ghss(3.0, 0.0, 1.0, 1.0)
        summary = d.moments()
        assert summary.e_beta == pytest.approx(1.5, abs=1e-8)
        assert summary.var_beta == pytest.approx(0.75, abs=1e-8)
        assert summary.mean[0] == pytest.approx(1.5, abs=1e-8)
        assert summary.covariance[0, 0] == pytest.approx(2.25, abs=1e-8)

    def test_cauchy_covariance_undefined(self):
        d = LseDistribution(
            mu=np.zeros(1),
            sigma=np.eye(1),
            delta=np.zeros(1),
            generator=CAUCHY,
            ab_map=AlphaBetaMap.plain(),
            mixing=Degenerate(1.0),
        )
        summary = d.moments()
        assert summary.covariance is None
        np.testing.assert_allclose(summary.mean, [0.0])

    def test_divergent_beta_mean_is_undefined(self):
        # beta = 1/z with Beta(1/2, 1) mixing: E(1/Z) diverges.
        d = LseDistribution(
            mu=np.zeros(1),
            sigma=np.eye(1),
            delta=np.array([1.0]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.skew_slash(),
            mixing=BetaLambdaOne(0.5),
        )
        summary = d.moments()
        assert summary.mean is None
        assert summary.covariance is None
        assert summary.e_beta == math.inf

    def test_zero_beta_map_ignores_delta(self):
        d = LseDistribution(
            mu=np.array([1.0]),
            sigma=np.eye(1),
            delta=np.array([5.0]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.scale_only(),
            mixing=BetaLambdaOne(0.5),  # E(beta) would diverge if beta were 1/z
        )
        summary = d.moments()
        np.testing.assert_allclose(summary.mean, [1.0])

    def test_covariance_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            sigma = a @ a.T + 0.5 * np.eye(3)
            d = LseDistribution(
                mu=rng.normal(size=3),
                sigma=sigma,
                delta=rng.normal(size=3),
                generator=NORMAL,
                ab_map=AlphaBetaMap.mean_variance(),
                mixing=GeneralizedInverseGaussian(1.5, 0.8, 1.2),
            )
            cov = d.moments().covariance
            assert cov is not None
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            assert np.linalg.eigvalsh(cov).min() > -1e-10

    def test_affine_moment_closure(self):
        rng = np.random.default_rng(17)
        d = LseDistribution(
            mu=np.array([0.3, -0.2, 0.9, 0.0]),
            sigma=np.diag([1.0, 2.0, 0.5, 1.5]) + 0.1,
            delta=np.array([0.5, 0.0, -0.4, 0.2]),
            generator=STUDENT5,
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=DiscreteWeighted(((0.8, 0.5), (1.4, 0.5))),
        )
        base = d.moments()
        for m in (1, 2, 4):
            B = rng.normal(size=(m, 4))
            b = rng.normal(size=m)
            image = d.affine(B, b).moments()
            np.testing.assert_allclose(image.mean, B @ base.mean + b, atol=1e-8)
            np.testing.assert_allclose(
                image.covariance, B @ base.covariance @ B.T, atol=1e-8
            )


class TestSampling:
    def test_normal_ks(self):
        d = plain_normal(0.0, 1.0)
        draws = d.sample(np.random.default_rng(42), 100_000).ravel()
        statistic = stats.kstest(draws, stats.norm.cdf).statistic
        assert statistic < 1.63 / math.sqrt(draws.size)

    def test_student_ks(self):
        d = LseDistribution(
            mu=np.zeros(1),
            sigma=np.eye(1),
            delta=np.zeros(1),
            generator=STUDENT5,
            ab_map=AlphaBetaMap.plain(),
            mixing=Degenerate(1.0),
        )
        draws = d.sample(np.random.default_rng(43), 100_000).ravel()
        statistic = stats.kstest(draws, stats.t(df=5).cdf).statistic
        assert statistic < 1.63 / math.sqrt(draws.size)

    def test_laplace_ks_exercises_radial_table(self):
        d = LseDistribution(
            mu=np.zeros(1),
            sigma=np.eye(1),
            delta=np.zeros(1),
            generator=LAPLACE,
            ab_map=AlphaBetaMap.plain(),
            mixing=Degenerate(1.0),
        )
        draws = d.sample(np.random.default_rng(44), 100_000).ravel()
        statistic = stats.kstest(draws, stats.laplace.cdf).statistic
        assert statistic < 1.63 / math.sqrt(draws.size)

    def test_mean_against_analytic_at_one_million(self):
        d = LseDistribution(
            mu=np.array([0.5, -1.0]),
            sigma=np.array([[1.0, 0.3], [0.3, 2.0]]),
            delta=np.zeros(2),
            generator=NORMAL,
            ab_map=AlphaBetaMap.plain(),
            mixing=Degenerate(2.0),
        )
        draws = d.sample(np.random.default_rng(45), 1_000_000)
        summary = d.moments()
        se = np.sqrt(np.diag(summary.covariance) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - summary.mean) < 3.0 * se)

    def test_covariance_against_analytic(self):
        d = LseDistribution(
            mu=np.zeros(2),
            sigma=np.array([[1.0, 0.4], [0.4, 1.0]]),
            delta=np.zeros(2),
            generator=LOGISTIC,
            ab_map=AlphaBetaMap.plain(),
            mixing=Degenerate(1.0),
        )
        draws = d.sample(np.random.default_rng(46), 400_000)
        cov = np.cov(draws.T)
        expected = d.moments().covariance
        # Loose band: fourth moments drive the sampling error of a covariance.
        np.testing.assert_allclose(cov, expected, atol=0.03)

    def test_skewed_mixture_mean(self):
        d = ghss(3.0, 0.0, 1.0, 1.0)
        draws = d.sample(np.random.default_rng(47), 400_000).ravel()
        summary = d.moments()
        se = math.sqrt(summary.covariance[0, 0] / draws.size)
        assert abs(draws.mean() - summary.mean[0]) < 4.0 * se

    def test_determinism(self):
        d = ghss(2.0, 0.0, 1.0, 0.3)
        a = d.sample(np.random.default_rng(7), 100)
        b = d.sample(np.random.default_rng(7), 100)
        np.testing.assert_array_equal(a, b)

    def test_count_validation(self):
        d = plain_normal(0.0, 1.0)
        with pytest.raises(UsageError):
            d.sample(np.random.default_rng(1), 0)

    def test_coupled_identical_inputs_give_identical_outputs(self):
        d = ghss(3.0, 0.0, 1.0, 0.5)
        other = ghss(3.0, 0.2, 1.5, 0.9)
        y1, y2 = sample_coupled(d, other, np.random.default_rng(9), 1000)
        assert y1.shape == y2.shape == (1000, 1)
        same1, same2 = sample_coupled(d, d, np.random.default_rng(9), 1000)
        np.testing.assert_array_equal(same1, same2)

    def test_coupled_requires_shared_family(self):
        d1 = ghss(3.0, 0.0, 1.0, 0.5)
        d2 = LseDistribution(
            mu=np.zeros(1),
            sigma=np.eye(1),
            delta=np.array([0.5]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.skew_slash(),
            mixing=BetaLambdaOne(2.0),  # different mixing parameter
        )
        with pytest.raises(UsageError):
            sample_coupled(d1, d2, np.random.default_rng(1), 10)


class TestAffineOperations:
    def test_identity_affine_is_noop(self):
        d = ghss(3.0, 0.1, 1.2, 0.4)
        image = d.affine(np.eye(1), np.zeros(1))
        np.testing.assert_allclose(image.mu, d.mu)
        np.testing.assert_allclose(image.sigma, d.sigma)
        np.testing.assert_allclose(image.delta, d.delta)
        assert image.generator == d.generator

    def test_sum_of_components(self):
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        d = LseDistribution(
            mu=np.array([0.5, -0.5]),
            sigma=sigma,
            delta=np.array([0.2, 0.6]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=BetaLambdaOne(2.0),
        )
        total = d.affine(np.array([[1.0, 1.0]]), np.zeros(1))
        assert total.dim == 1
        assert total.sigma[0, 0] == pytest.approx(sigma[0, 0] + 2 * sigma[0, 1] + sigma[1, 1])
        assert total.mu[0] == pytest.approx(0.0)
        assert total.delta[0] == pytest.approx(0.8)

    def test_pdf_transforms_with_jacobian(self):
        d = LseDistribution(
            mu=np.array([0.2, -0.1]),
            sigma=np.array([[1.0, 0.2], [0.2, 0.9]]),
            delta=np.array([0.3, 0.5]),
            generator=STUDENT5,
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=DiscreteWeighted(((0.6, 0.5), (1.8, 0.5))),
        )
        B = np.array([[2.0, 0.5], [-0.3, 1.1]])
        b = np.array([0.4, -0.2])
        image = d.affine(B, b)
        y0 = np.array([0.7, -0.9])
        lhs = image.pdf(B @ y0 + b)
        rhs = d.pdf(y0) / abs(np.linalg.det(B))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_rank_deficiency_raises(self):
        d = plain_normal(np.zeros(2), np.eye(2))
        with pytest.raises(SingularTransformError):
            d.affine(np.array([[1.0, 1.0], [2.0, 2.0]]), np.zeros(2))
        with pytest.raises(SingularTransformError):
            d.affine(np.vstack([np.eye(2), [1.0, 0.0]]), np.zeros(3))

    def test_marginal_parameters(self):
        d = LseDistribution(
            mu=np.array([1.0, 2.0, 3.0]),
            sigma=np.diag([1.0, 4.0, 9.0]) + 0.2,
            delta=np.array([0.1, 0.2, 0.3]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.skew_slash(),
            mixing=BetaLambdaOne(3.0),
        )
        m = d.marginal([2, 0])
        np.testing.assert_allclose(m.mu, [3.0, 1.0])
        np.testing.assert_allclose(m.delta, [0.3, 0.1])
        np.testing.assert_allclose(m.sigma, [[9.2, 0.2], [0.2, 1.2]])

    def test_marginal_validation(self):
        d = plain_normal(np.zeros(2), np.eye(2))
        with pytest.raises(UsageError):
            d.marginal([0, 0])
        with pytest.raises(UsageError):
            d.marginal([2])
        with pytest.raises(UsageError):
            d.marginal([])

    def test_linear_functional_matches_marginal(self):
        d = LseDistribution(
            mu=np.array([0.4, -0.6]),
            sigma=np.array([[1.0, 0.1], [0.1, 0.5]]),
            delta=np.array([0.2, 0.9]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=BetaLambdaOne(2.0),
        )
        lf = d.linear_functional([0.0, 1.0])
        mg = d.marginal([1])
        np.testing.assert_allclose(lf.mu, mg.mu)
        np.testing.assert_allclose(lf.sigma, mg.sigma)
        np.testing.assert_allclose(lf.delta, mg.delta)

    def test_linear_functional_zero_vector(self):
        d = plain_normal(np.zeros(2), np.eye(2))
        with pytest.raises(UsageError):
            d.linear_functional([0.0, 0.0])

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_linear_functional_scaling(self, scale):
        d = LseDistribution(
            mu=np.array([0.4, -0.6]),
            sigma=np.array([[1.0, 0.1], [0.1, 0.5]]),
            delta=np.array([0.2, 0.9]),
            generator=NORMAL,
            ab_map=AlphaBetaMap.mean_variance(),
            mixing=Degenerate(1.0),
        )
        a = np.array([1.0, -2.0])
        base = d.linear_functional(a)
        scaled = d.linear_functional(scale * a)
        assert scaled.mu[0] == pytest.approx(scale * base.mu[0], rel=1e-12)
        assert scaled.delta[0] == pytest.approx(scale * base.delta[0], rel=1e-12)
        assert scaled.sigma[0, 0] == pytest.approx(scale**2 * base.sigma[0, 0], rel=1e-12)


@given(
    y=st.floats(min_value=-50.0, max_value=50.0),
    delta=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_pdf_is_nonnegative_and_finite(y, delta):
    d = LseDistribution(
        mu=np.zeros(1),
        sigma=np.eye(1),
        delta=np.array([delta]),
        generator=NORMAL,
        ab_map=AlphaBetaMap.mean_variance(),
        mixing=BetaLambdaOne(1.5),
    )
    value = d.pdf(y)
    assert value >= 0.0
    assert math.isfinite(value)
