"""Tests for mixing laws, quadrature rules, and the alpha/beta maps.

Oracles: scipy.integrate.quad on the raw densities (independent of the
package's fixed-node rules), the Bessel-function moment identities for the
generalized inverse gaussian (scipy.special, and mpmath at 30 digits for
the log-scale K_nu), and hand-computed beta-law moments.
"""

from __future__ import annotations

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from lsemix.errors import DomainError, NonIntegrableError, ParameterError
from lsemix.mixing import (
    AlphaBetaMap,
    AlphaKind,
    BetaKind,
    BetaLambdaOne,
    Degenerate,
    DiscreteWeighted,
    GeneralizedInverseGaussian,
    _log_kve,
    alpha_square_mean,
    beta_mean,
    beta_range,
    beta_variance,
    expectation,
    gig_density,
    gig_log_normalizer,
)

GIG_GRID = [
    (-0.5, 1.0, 1.0),
    (-1.0, 2.0, 0.5),
    (-2.0, 0.5, 2.0),
    (0.0, 1.0, 1.0),
    (0.0, 3.0, 0.25),
    (0.5, 1.0, 2.0),
    (1.0, 0.5, 3.0),
    (2.0, 1.0, 2.0),
    (3.0, 2.0, 1.0),
]


class TestDegenerate:
    def test_quadrature_and_moments(self):
        mix = Degenerate(1.3)
        nodes, weights = mix.quadrature()
        assert nodes.tolist() == [1.3]
        assert weights.tolist() == [1.0]
        assert mix.power_moment(2.0) == pytest.approx(1.69)
        assert expectation(mix, lambda z: z ** 2) == pytest.approx(1.69)

    def test_sampling_is_constant(self):
        mix = Degenerate(0.7)
        draws = mix.sample(np.random.default_rng(0), 100)
        assert np.all(draws == 0.7)

    def test_invalid_point(self):
        with pytest.raises(ParameterError):
            Degenerate(0.0)
        with pytest.raises(ParameterError):
            Degenerate(-1.0)


class TestBetaLambdaOne:
    def test_weights_sum_to_one(self):
        for lam in (0.5, 1.0, 3.0, 10.0):
            _, w = BetaLambdaOne(lam).quadrature()
            assert abs(w.sum() - 1.0) < 1e-12

    def test_nodes_inside_support(self):
        nodes, _ = BetaLambdaOne(2.0).quadrature()
        assert np.all(nodes > 0.0) and np.all(nodes < 1.0)

    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(0.3, 50.0), k=st.integers(1, 3))
    def test_positive_moments_match_closed_form(self, lam, k):
        mix = BetaLambdaOne(lam)
        got = expectation(mix, lambda z: z ** k)
        assert got == pytest.approx(lam / (lam + k), abs=1e-8)

    def test_negative_moments_for_lambda_three(self):
        mix = BetaLambdaOne(3.0)
        assert expectation(mix, lambda z: 1.0 / z) == pytest.approx(1.5, abs=1e-10)
        assert expectation(mix, lambda z: 1.0 / z ** 2) == pytest.approx(3.0, abs=1e-10)
        assert mix.power_moment(-1.0) == pytest.approx(1.5)
        assert mix.power_moment(-2.0) == pytest.approx(3.0)

    def test_divergent_moment_reported(self):
        assert BetaLambdaOne(1.0).power_moment(-1.0) == math.inf
        assert BetaLambdaOne(2.0).power_moment(-2.5) == math.inf

    def test_sampling_distribution(self):
        lam = 3.0
        draws = BetaLambdaOne(lam).sample(np.random.default_rng(42), 200_000)
        # Kolmogorov-Smirnov against the exact CDF z^lambda.
        stat, pvalue = stats.kstest(draws, lambda z: np.clip(z, 0, 1) ** lam)
        assert pvalue > 1e-4

    def test_invalid_lambda(self):
        with pytest.raises(ParameterError):
            BetaLambdaOne(0.0)


class TestGigDensity:
    @pytest.mark.parametrize("lam,chi,tau", GIG_GRID)
    def test_integrates_to_one(self, lam, chi, tau):
        val, _ = integrate.quad(
            lambda w: float(gig_density(w, lam, chi, tau)), 0.0, np.inf, limit=400
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_boundary_gamma_case(self):
        # chi = 0, lam > 0 degenerates to Gamma(lam, rate tau/2).
        lam, tau = 2.5, 3.0
        w = np.linspace(0.1, 6.0, 25)
        got = gig_density(w, lam, 0.0, tau)
        expected = stats.gamma.pdf(w, a=lam, scale=2.0 / tau)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_boundary_inverse_gamma_case(self):
        # tau = 0, lam < 0 degenerates to InvGamma(-lam, scale chi/2).
        lam, chi = -1.5, 2.0
        w = np.linspace(0.1, 6.0, 25)
        got = gig_density(w, lam, chi, 0.0)
        expected = stats.invgamma.pdf(w, a=-lam, scale=chi / 2.0)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_parameter_domain(self):
        with pytest.raises(ParameterError):
            gig_density(1.0, 0.0, 1.0, 0.0)  # lam = 0 needs both positive
        with pytest.raises(ParameterError):
            gig_density(1.0, -1.0, 0.0, 1.0)  # lam < 0 needs chi > 0
        with pytest.raises(ParameterError):
            gig_density(1.0, 1.0, 1.0, 0.0)  # lam > 0 needs tau > 0
        with pytest.raises(DomainError):
            gig_density(0.0, 1.0, 1.0, 1.0)

    def test_bessel_recurrence_consistency(self):
        # K_{lam+1}(x) = K_{lam-1}(x) + (2 lam / x) K_lam(x); the moment
        # implementation leans on these functions, so pin the identity.
        for lam in (-1.3, 0.0, 0.7, 2.0):
            for x in (0.3, 1.0, 2.0, 7.5):
                lhs = special.kv(lam + 1, x)
                rhs = special.kv(lam - 1, x) + (2 * lam / x) * special.kv(lam, x)
                assert lhs == pytest.approx(rhs, rel=1e-10)


def _mp_digits(x: float) -> int:
    # 30 significant digits in log(K_nu(x)) + x, which cancels about
    # log10(x) digits at large x.
    return 30 + max(0, int(math.log10(x)))


#: The extreme GIG parameters of the log-scale tests: K_lam overflows at the
#: first two and sqrt(chi tau) at the third.
GIG_EXTREMES = [(100.0, 1e-10, 1.0), (400.0, 1e-3, 1e-3), (2.0, 1e300, 1e300)]


class TestLogScaleBessel:
    """``_log_kve`` and the GIG normalizer and moments built on it, against
    mpmath.  The log is compared with an absolute bound of 1e-13 up to
    magnitude 1 and a relative one above: at x = 1e-300 and nu = 60 it is
    about 4.1e4, where one double spacing is 7.3e-12."""

    @pytest.mark.parametrize("nu", [-60.0, -37.5, -12.25, -2.5, -0.5, 0.0, 1e-3, 0.5, 1.0,
                                    3.5, 5.5, 7.25, 12.0, 60.0])
    def test_log_kve_against_mpmath(self, nu):
        # 1.5e308: sqrt(2 x) overflows, sqrt(2) sqrt(x) does not.
        points = [1e-300, 1e-100, 1e-10, 1e-5, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 1e3,
                  1e6, 1e100, 1e300, 1.5e308]
        for x in points:
            with mpmath.workdps(_mp_digits(x)):
                exact = mpmath.log(mpmath.besselk(nu, x)) + x
            assert abs(_log_kve(nu, x) - exact) <= 1e-13 * max(1.0, abs(exact)), (nu, x)

    @pytest.mark.parametrize("lam,chi,tau", GIG_EXTREMES)
    def test_extreme_parameters_against_mpmath(self, lam, chi, tau):
        omega = math.sqrt(chi) * math.sqrt(tau)
        for nu in (lam, lam + 2.0, lam - 1.0):
            with mpmath.workdps(_mp_digits(omega)):
                exact = mpmath.log(mpmath.besselk(nu, omega)) + omega
            assert abs(_log_kve(nu, omega) - exact) <= 1e-13 * max(1.0, abs(exact)), nu
        mix = GeneralizedInverseGaussian(lam, chi, tau)
        with mpmath.workdps(_mp_digits(omega)):
            lam_, chi_, tau_ = mpmath.mpf(lam), mpmath.mpf(chi), mpmath.mpf(tau)
            w = mpmath.sqrt(chi_ * tau_)
            k = mpmath.besselk(lam_, w)
            log_c = lam_ / 2 * mpmath.log(tau_ / chi_) - mpmath.log(2) - mpmath.log(k)
            moments = {p: (chi_ / tau_) ** (p / 2) * mpmath.besselk(lam_ + p, w) / k
                       for p in (2.0, -1.0)}
        assert gig_log_normalizer(lam, chi, tau) == pytest.approx(float(log_c), rel=1e-13)
        for p, exact in moments.items():
            # exp of a difference of two logs of magnitude up to 5e3.
            assert mix.power_moment(p) == pytest.approx(float(exact), rel=1e-12), p

    def test_moment_past_the_double_range_raises(self):
        # E(Z^2) = (chi/tau) K_3(1) / K_1(1), about 1e600.
        with pytest.raises(ParameterError, match="not a double"):
            GeneralizedInverseGaussian(1.0, 1e300, 1e-300).power_moment(2.0)

    @pytest.mark.parametrize("lam,chi,tau", [(2.0, 0.0, 5e-324), (-2.0, 5e-324, 0.0)])
    def test_boundary_laws_at_the_smallest_subnormal(self, lam, chi, tau):
        # tau / 2 (chi / 2) underflows to 0 there.  Both normalizers are
        # |lam| log(scale / 2) - log Gamma(|lam|), scale = tau or chi.
        with mpmath.workdps(30):
            exact = abs(lam) * mpmath.log(mpmath.mpf(tau or chi) / 2) - mpmath.loggamma(abs(lam))
        assert gig_log_normalizer(lam, chi, tau) == pytest.approx(float(exact), rel=1e-15)
        mix = GeneralizedInverseGaussian(lam, chi, tau)
        # E(Z) = 4 / tau for the gamma law and E(1/Z) = 4 / chi for the
        # inverse gamma: finite, but not doubles.  The opposite moment is
        # tau / 2 (chi / 2), half the smallest subnormal.
        p = 1.0 if chi == 0.0 else -1.0
        with pytest.raises(ParameterError, match="not a double"):
            mix.power_moment(p)
        assert 0.0 <= mix.power_moment(-p) <= 5e-324

    @pytest.mark.parametrize("lam,chi,tau", [(2.0, 0.0, 5e-324), (2.0, 1e300, 1e300),
                                             (-2.0, 5e-324, 0.0)])
    def test_mode_outside_the_double_range_raises(self, lam, chi, tau):
        # The mode (lam + sqrt(lam^2 + chi tau)) / tau overflows at the first
        # two laws and chi / (-2 lam) underflows to 0 at the third.
        mix = GeneralizedInverseGaussian(lam, chi, tau)
        with pytest.raises(ParameterError, match=re.escape(f"{mix.describe()}: the mode")):
            mix.quadrature()
        with pytest.raises(ParameterError, match=re.escape(f"{mix.describe()}: the mode")):
            mix.sample(np.random.default_rng(0), 10)

    def test_order_past_the_supported_range_raises(self):
        with pytest.raises(ParameterError, match="Bessel order"):
            gig_log_normalizer(1e13, 1.0, 1.0)

    @pytest.mark.parametrize("lam,chi", [(-1e6, 1e-6), (-1e10, 1e-10)])
    def test_mode_that_cancels_to_zero_raises(self, lam, chi):
        # (lam + sqrt(lam^2 + chi tau)) / tau cancels to 0.  The true mode,
        # about chi / (2 |lam|), is a peak about |lam|^(-1/2) wide in log z,
        # too narrow for the quadrature, so the law stays rejected.
        mix = GeneralizedInverseGaussian(lam, chi, 1.0)
        with pytest.raises(ParameterError, match=re.escape(f"{mix.describe()}: the mode 0.0")):
            mix.quadrature()
        with pytest.raises(ParameterError, match=re.escape(f"{mix.describe()}: the mode 0.0")):
            mix.sample(np.random.default_rng(0), 10)

    @pytest.mark.parametrize("chi,tau", [(1.0, 1.0), (0.5, 2.0), (1e-3, 1e3)])
    def test_quadrature_that_misses_mass_raises(self, chi, tau):
        # The 256 nodes miss 3.8e-6 of the mass at lam = +-1e4, 2.5e-2 at
        # -3e4 and 0.53 at -1e5; at +-3e3 the sum is within 6e-12 of 1.
        for lam in (-1e5, -3e4, -1e4, 1e4):
            mix = GeneralizedInverseGaussian(lam, chi, tau)
            with pytest.raises(ParameterError, match=re.escape(f"{mix.describe()}: the quadrature holds")):
                mix.quadrature()
        for lam in (-3e3, 3e3):
            mix = GeneralizedInverseGaussian(lam, chi, tau)
            assert abs(mix.quadrature()[1].sum() - 1.0) < 1e-11
            assert expectation(mix, lambda z: z) == pytest.approx(mix.power_moment(1.0), rel=1e-10)


class TestGeneralizedInverseGaussian:
    @pytest.mark.parametrize("lam,chi,tau", GIG_GRID)
    def test_weights_sum_to_one(self, lam, chi, tau):
        _, w = GeneralizedInverseGaussian(lam, chi, tau).quadrature()
        assert abs(w.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("lam,chi,tau", [t for t in GIG_GRID if t[1] > 0 and t[2] > 0])
    def test_quadrature_moments_match_bessel_formula(self, lam, chi, tau):
        mix = GeneralizedInverseGaussian(lam, chi, tau)
        omega = math.sqrt(chi * tau)
        for p in (1.0, -1.0, 2.0):
            closed = (chi / tau) ** (p / 2.0) * special.kv(lam + p, omega) / special.kv(lam, omega)
            assert expectation(mix, lambda z: z ** p) == pytest.approx(closed, rel=1e-10)
            assert mix.power_moment(p) == pytest.approx(closed, rel=1e-10)

    def test_boundary_power_moments(self):
        gamma_like = GeneralizedInverseGaussian(2.0, 0.0, 3.0)
        assert gamma_like.power_moment(1.0) == pytest.approx(2.0 * 2.0 / 3.0, rel=1e-12)
        assert gamma_like.power_moment(-2.5) == math.inf
        inv_gamma_like = GeneralizedInverseGaussian(-2.0, 3.0, 0.0)
        assert inv_gamma_like.power_moment(1.0) == pytest.approx(1.5, rel=1e-12)
        assert inv_gamma_like.power_moment(2.5) == math.inf

    def test_sampling_matches_moments(self):
        mix = GeneralizedInverseGaussian(2.0, 1.0, 2.0)
        draws = mix.sample(np.random.default_rng(7), 400_000)
        m1 = mix.power_moment(1.0)
        m2 = mix.power_moment(2.0)
        se = math.sqrt((m2 - m1 * m1) / draws.size)
        assert abs(draws.mean() - m1) < 4.0 * se

    def test_sampling_is_reproducible(self):
        mix = GeneralizedInverseGaussian(-0.5, 1.0, 1.0)
        a = mix.sample(np.random.default_rng(3), 1000)
        b = mix.sample(np.random.default_rng(3), 1000)
        np.testing.assert_array_equal(a, b)


class TestDiscreteWeighted:
    def test_quadrature_is_the_atom_list(self):
        mix = DiscreteWeighted(((0.5, 0.4), (2.0, 0.6)))
        nodes, weights = mix.quadrature()
        np.testing.assert_array_equal(nodes, [0.5, 2.0])
        np.testing.assert_array_equal(weights, [0.4, 0.6])
        assert mix.power_moment(1.0) == pytest.approx(0.5 * 0.4 + 2.0 * 0.6)

    def test_sampling_frequencies(self):
        mix = DiscreteWeighted(((0.5, 0.4), (2.0, 0.6)))
        draws = mix.sample(np.random.default_rng(11), 100_000)
        frac = np.mean(draws == 2.0)
        assert abs(frac - 0.6) < 3.0 * math.sqrt(0.6 * 0.4 / draws.size)

    def test_validation(self):
        with pytest.raises(ParameterError):
            DiscreteWeighted(((0.0, 1.0),))
        with pytest.raises(ParameterError):
            DiscreteWeighted(((1.0, 0.5), (2.0, 0.6)))
        with pytest.raises(ParameterError):
            DiscreteWeighted(())


class TestAlphaBetaMap:
    def test_named_presets(self):
        mv = AlphaBetaMap.mean_variance()
        assert mv.alpha_exponent == 0.5 and mv.beta_exponent == 1.0
        ss = AlphaBetaMap.skew_slash()
        assert ss.alpha_exponent == -0.5 and ss.beta_exponent == -1.0
        lm = AlphaBetaMap.location_mixture()
        assert lm.alpha_exponent == 0.0 and lm.beta_exponent == 1.0
        plain = AlphaBetaMap.plain()
        assert plain.beta_exponent is None

    def test_evaluation(self):
        z = np.array([0.25, 1.0, 4.0])
        ss = AlphaBetaMap.skew_slash()
        np.testing.assert_allclose(ss.alpha(z), [2.0, 1.0, 0.5])
        np.testing.assert_allclose(ss.beta(z), [4.0, 1.0, 0.25])
        zero = AlphaBetaMap.plain()
        np.testing.assert_array_equal(zero.beta(z), [0.0, 0.0, 0.0])
        assert np.all(zero.alpha(z) == 1.0)

    def test_power_kind_validation(self):
        with pytest.raises(ParameterError):
            AlphaBetaMap(AlphaKind.POWER, BetaKind.ZERO)
        with pytest.raises(ParameterError):
            AlphaBetaMap(AlphaKind.ONE, BetaKind.ZERO, alpha_power=2.0)
        custom = AlphaBetaMap(AlphaKind.POWER, BetaKind.POWER, alpha_power=0.25, beta_power=2.0)
        assert custom.alpha_exponent == 0.25 and custom.beta_exponent == 2.0

    @settings(max_examples=30, deadline=None)
    @given(z=st.floats(1e-3, 1e3))
    def test_alpha_positive_on_support(self, z):
        for ab in (
            AlphaBetaMap.mean_variance(),
            AlphaBetaMap.skew_slash(),
            AlphaBetaMap.location_mixture(),
            AlphaBetaMap.plain(),
        ):
            assert float(ab.alpha(z)) > 0.0
            assert float(ab.beta(z)) >= 0.0


class TestBetaRange:
    def test_beta_law_with_inverse_map(self):
        rng = beta_range(BetaLambdaOne(3.0), AlphaBetaMap.skew_slash())
        assert rng == (1.0, math.inf)

    def test_beta_law_with_identity_map(self):
        rng = beta_range(BetaLambdaOne(3.0), AlphaBetaMap.mean_variance())
        assert rng == (0.0, 1.0)

    def test_degenerate(self):
        rng = beta_range(Degenerate(2.0), AlphaBetaMap.location_mixture())
        assert rng == (2.0, 2.0)

    def test_gig_identity(self):
        rng = beta_range(GeneralizedInverseGaussian(1.0, 1.0, 1.0), AlphaBetaMap.mean_variance())
        assert rng == (0.0, math.inf)

    def test_gig_inverse(self):
        rng = beta_range(GeneralizedInverseGaussian(1.0, 1.0, 1.0), AlphaBetaMap.skew_slash())
        assert rng == (0.0, math.inf)

    def test_discrete(self):
        mix = DiscreteWeighted(((0.5, 0.4), (2.0, 0.6)))
        assert beta_range(mix, AlphaBetaMap.mean_variance()) == (0.5, 2.0)
        assert beta_range(mix, AlphaBetaMap.skew_slash()) == (0.5, 2.0)

    def test_zero_beta(self):
        assert beta_range(BetaLambdaOne(1.0), AlphaBetaMap.plain()) == (0.0, 0.0)

    def test_lower_end_is_finite(self):
        # beta is 0 or a power of z on a positive support, so the infimum is
        # a finite point: the order engine's all-z location test rests on it.
        maps = [AlphaBetaMap(AlphaKind.ONE, kind) for kind in BetaKind if kind is not BetaKind.POWER]
        maps += [AlphaBetaMap(AlphaKind.ONE, BetaKind.POWER, beta_power=b)
                 for b in (-2.0, -0.5, 0.0, 0.5, 3.0)]
        assert {ab.beta_kind for ab in maps} == set(BetaKind)
        for mix in (Degenerate(0.3), BetaLambdaOne(1.5), GeneralizedInverseGaussian(1.0, 1.0, 1.0),
                    DiscreteWeighted(((0.5, 0.4), (2.0, 0.6)))):
            for ab in maps:
                lo, hi = beta_range(mix, ab)
                assert 0.0 <= lo < math.inf and lo <= hi, (mix, ab)


class TestMapMoments:
    def test_skew_slash_lambda_three(self):
        mix = BetaLambdaOne(3.0)
        ab = AlphaBetaMap.skew_slash()
        assert beta_mean(mix, ab) == pytest.approx(1.5)
        assert beta_variance(mix, ab) == pytest.approx(0.75)
        assert alpha_square_mean(mix, ab) == pytest.approx(1.5)

    def test_divergent_variance(self):
        assert beta_variance(BetaLambdaOne(1.5), AlphaBetaMap.skew_slash()) == math.inf
        assert beta_mean(BetaLambdaOne(0.5), AlphaBetaMap.skew_slash()) == math.inf

    def test_zero_map(self):
        mix = GeneralizedInverseGaussian(1.0, 1.0, 1.0)
        assert beta_mean(mix, AlphaBetaMap.plain()) == 0.0
        assert beta_variance(mix, AlphaBetaMap.plain()) == 0.0

    def test_expectation_rejects_non_finite(self):
        with pytest.raises(NonIntegrableError):
            expectation(BetaLambdaOne(1.0), lambda z: np.where(z > 0.5, np.inf, 1.0))
