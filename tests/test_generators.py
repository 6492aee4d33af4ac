"""Tests for the radial generator catalog.

Expected values come from three independent routes: adaptive quadrature in
r-space (scipy.integrate.quad, written here; the package itself uses closed
forms only), an alternating-zeta series for the logistic profile (mpmath), and
hand closed forms for gamma-function expressions.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ladder_oracle import ladder_limit
from scipy import integrate

import lsemix.generators as generators_module
from lsemix.errors import DomainError, ParameterError
from lsemix.generators import (
    DensityGenerator,
    GeneratorFamily,
    assumption_profile,
    covariance_factor,
    eval_generator,
    limit_ratio,
    log_eval_generator,
    normalizing_constant,
    radial_profile_integral,
    radial_second_moment,
)

ALL_FAMILIES = [
    DensityGenerator(GeneratorFamily.CAUCHY),
    DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER, power=1.5),
    DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER, power=3.0),
    DensityGenerator(GeneratorFamily.LAPLACE),
    DensityGenerator(GeneratorFamily.NORMAL),
    DensityGenerator(GeneratorFamily.STUDENT, dof=3),
    DensityGenerator(GeneratorFamily.STUDENT, dof=5),
    DensityGenerator(GeneratorFamily.LOGISTIC),
]


def oracle_profile_integral(gen: DensityGenerator, n: int, power: int | None = None) -> float:
    """Independent quadrature of 2 int_0^inf r^power g_n(r^2) dr.

    With the default power = n - 1 this is I_n = int_0^inf z^(n/2-1) g_n(z) dz
    (z = r^2); power = n + 1 gives I_{n+2} under the same g_n, the numerator
    of E(R^2).

    Polynomial tails are compactified with r = tan(theta) so scipy.quad sees a
    smooth integrand on a finite interval.
    """
    power = n - 1 if power is None else power

    def f(r: float) -> float:
        return 2.0 * r ** power * float(eval_generator(gen, r * r, n))

    if gen.family in (GeneratorFamily.CAUCHY, GeneratorFamily.STUDENT):
        def g(theta: float) -> float:
            r = math.tan(theta)
            return f(r) / math.cos(theta) ** 2

        val, _ = integrate.quad(g, 0.0, math.pi / 2.0 - 1e-12, limit=500)
        return val
    val, _ = integrate.quad(f, 0.0, 60.0, limit=500)
    return val


def oracle_second_moment(gen: DensityGenerator, n: int) -> float:
    return oracle_profile_integral(gen, n, power=n + 1) / oracle_profile_integral(gen, n)


class TestEvalGenerator:
    def test_point_values(self):
        normal = DensityGenerator(GeneratorFamily.NORMAL)
        assert eval_generator(normal, 0.0, 1) == pytest.approx(1.0)
        cauchy = DensityGenerator(GeneratorFamily.CAUCHY)
        assert eval_generator(cauchy, 1.0, 1) == pytest.approx(0.5)
        logistic = DensityGenerator(GeneratorFamily.LOGISTIC)
        assert eval_generator(logistic, 0.0, 1) == pytest.approx(0.25)
        student = DensityGenerator(GeneratorFamily.STUDENT, dof=2)
        assert eval_generator(student, 2.0, 1) == pytest.approx(2.0 ** -1.5)

    def test_dimension_dependence(self):
        cauchy = DensityGenerator(GeneratorFamily.CAUCHY)
        assert eval_generator(cauchy, 1.0, 3) == pytest.approx(0.25)
        normal = DensityGenerator(GeneratorFamily.NORMAL)
        assert eval_generator(normal, 2.0, 1) == eval_generator(normal, 2.0, 5)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            eval_generator(DensityGenerator(GeneratorFamily.NORMAL), -0.5, 1)

    @pytest.mark.parametrize("gen", ALL_FAMILIES, ids=lambda g: g.describe())
    @pytest.mark.parametrize("u", [math.nan, [0.5, math.nan, 2.0]], ids=["scalar", "array"])
    def test_nan_argument_rejected(self, gen, u):
        with pytest.raises(DomainError):
            log_eval_generator(gen, u, 2)

    def test_log_matches_linear(self):
        u = np.linspace(0.0, 30.0, 50)
        for gen in ALL_FAMILIES:
            np.testing.assert_allclose(
                np.exp(log_eval_generator(gen, u, 2)), eval_generator(gen, u, 2), rtol=1e-13
            )

    @settings(max_examples=40, deadline=None)
    @given(
        u1=st.floats(0.0, 50.0),
        u2=st.floats(0.0, 50.0),
        idx=st.integers(0, len(ALL_FAMILIES) - 1),
        n=st.integers(1, 6),
    )
    def test_positive_and_nonincreasing(self, u1, u2, idx, n):
        gen = ALL_FAMILIES[idx]
        lo, hi = min(u1, u2), max(u1, u2)
        g_lo = float(eval_generator(gen, lo, n))
        g_hi = float(eval_generator(gen, hi, n))
        assert g_lo > 0 and g_hi > 0
        assert g_hi <= g_lo + 1e-15


class TestParameterValidation:
    def test_student_dof(self):
        with pytest.raises(ParameterError):
            DensityGenerator(GeneratorFamily.STUDENT)
        with pytest.raises(ParameterError):
            DensityGenerator(GeneratorFamily.STUDENT, dof=0)
        with pytest.raises(ParameterError):
            DensityGenerator(GeneratorFamily.STUDENT, dof=2.5)

    def test_exponential_power_shape(self):
        with pytest.raises(ParameterError):
            DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER)
        with pytest.raises(ParameterError):
            DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER, power=1.0)

    def test_spurious_parameters(self):
        with pytest.raises(ParameterError):
            DensityGenerator(GeneratorFamily.NORMAL, power=2.0)
        with pytest.raises(ParameterError):
            DensityGenerator(GeneratorFamily.LAPLACE, dof=3)

    def test_bad_dimension(self):
        with pytest.raises(ParameterError):
            normalizing_constant(DensityGenerator(GeneratorFamily.NORMAL), 0)


class TestNormalizingConstant:
    def test_normal_closed_values(self):
        normal = DensityGenerator(GeneratorFamily.NORMAL)
        assert normalizing_constant(normal, 2) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
        assert normalizing_constant(normal, 1) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-14
        )

    def test_student_univariate_value(self):
        # Gamma(2) / (Gamma(3/2) * sqrt(3 pi)) = 0.36755259694786135
        student = DensityGenerator(GeneratorFamily.STUDENT, dof=3)
        expected = math.gamma(2.0) / (math.gamma(1.5) * math.sqrt(3.0 * math.pi))
        assert expected == pytest.approx(0.36755259694786135, rel=1e-12)
        assert normalizing_constant(student, 1) == pytest.approx(expected, rel=1e-13)

    def test_cauchy_equals_student_dof_one(self):
        cauchy = DensityGenerator(GeneratorFamily.CAUCHY)
        student1 = DensityGenerator(GeneratorFamily.STUDENT, dof=1)
        for n in (1, 2, 3):
            assert normalizing_constant(cauchy, n) == pytest.approx(
                normalizing_constant(student1, n), rel=1e-13
            )

    def test_exponential_power_two_is_normal(self):
        ep = DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER, power=2.0)
        normal = DensityGenerator(GeneratorFamily.NORMAL)
        for n in (1, 2, 4):
            assert normalizing_constant(ep, n) == pytest.approx(
                normalizing_constant(normal, n), rel=1e-13
            )

    @pytest.mark.parametrize("gen", ALL_FAMILIES, ids=lambda g: g.describe())
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_quadrature_oracle(self, gen, n):
        oracle = math.gamma(n / 2.0) * math.pi ** (-n / 2.0) / oracle_profile_integral(gen, n)
        tol = 1e-9 if gen.family not in (GeneratorFamily.CAUCHY, GeneratorFamily.STUDENT) else 1e-6
        assert normalizing_constant(gen, n) == pytest.approx(oracle, rel=tol)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_logistic_against_eta_series(self, n):
        # int z^{n/2-1} e^{-z} (1+e^{-z})^{-2} dz = Gamma(n/2) * eta(n/2 - 1);
        # n = 2 and 4 reach eta(0) = 1/2 and eta(1) = ln 2.
        series = float(mpmath.gamma(mpmath.mpf(n) / 2) * mpmath.altzeta(mpmath.mpf(n) / 2 - 1))
        logistic = DensityGenerator(GeneratorFamily.LOGISTIC)
        assert radial_profile_integral(logistic, n) == pytest.approx(series, rel=1e-13)

    def test_eta_against_mpmath_in_every_supported_dimension(self):
        # Borwein's sum against mpmath's altzeta at both arguments the
        # logistic profile needs, eta(n/2 - 1) for I_n and eta(n/2) for
        # E(R^2), in every dimension whose I_n is a double (n = 1 reaches
        # the smallest argument, -1/2; n = 4 and 2 reach ln 2 and 1/2).
        logistic = DensityGenerator(GeneratorFamily.LOGISTIC)
        with pytest.raises(ParameterError, match="largest dimension it supports is 343"):
            radial_profile_integral(logistic, 344)
        with mpmath.workdps(30):
            for n in range(1, 344):
                for s in (n / 2.0 - 1.0, n / 2.0):
                    exact = mpmath.altzeta(s)
                    assert abs((generators_module._eta(s) - exact) / exact) <= 1e-14, (n, s)

    def test_existence_over_dimensions(self):
        for gen in ALL_FAMILIES:
            for n in (1, 2, 5, 10):
                value = radial_profile_integral(gen, n)
                assert 0.0 < value < math.inf

    @pytest.mark.parametrize("family, n, what, limit", [
        (GeneratorFamily.LAPLACE, 172, "radial integral I_n", 171),
        (GeneratorFamily.NORMAL, 303, "radial integral I_n", 302),
        (GeneratorFamily.NORMAL, 343, "radial integral I_n", 302),
        (GeneratorFamily.NORMAL, 344, "radial integral I_n", 302),
        (GeneratorFamily.LOGISTIC, 344, "radial integral I_n", 343),
        (GeneratorFamily.CAUCHY, 344, "normalizing constant c_n", 343),
    ])
    def test_overflow_names_the_dimension_limit(self, family, n, what, limit):
        # Gamma(n/2), Gamma(n/s) and 2^(n/2) leave the double range; past the
        # limit both functions raise, up to it both return finite values.
        gen = DensityGenerator(family)
        message = f"the {what} of {family.value} overflows a double in dimension {n}; " \
            f"the largest dimension it supports is {limit}"
        with pytest.raises(ParameterError) as caught:
            normalizing_constant(gen, n)
        assert str(caught.value) == message
        if what == "radial integral I_n":
            with pytest.raises(ParameterError, match=message):
                radial_profile_integral(gen, n)
        assert 0.0 < normalizing_constant(gen, limit) < math.inf

    def test_values_up_to_the_limit_are_the_closed_forms(self):
        laplace = DensityGenerator(GeneratorFamily.LAPLACE)
        normal = DensityGenerator(GeneratorFamily.NORMAL)
        assert radial_profile_integral(laplace, 171) == 2.0 * 1.0 ** 170.0 * math.gamma(171.0)
        assert radial_profile_integral(normal, 302) == 2.0 ** 151.0 * math.gamma(151.0)
        profile = 2.0 ** 151.0 * math.gamma(151.0)
        assert normalizing_constant(normal, 302) == math.gamma(151.0) * math.pi ** -151.0 / profile


class TestRadialSecondMoment:
    def test_normal_is_dimension(self):
        normal = DensityGenerator(GeneratorFamily.NORMAL)
        for n in (1, 2, 7):
            assert radial_second_moment(normal, n) == pytest.approx(float(n), rel=1e-13)

    def test_student_closed_value(self):
        student = DensityGenerator(GeneratorFamily.STUDENT, dof=5)
        assert radial_second_moment(student, 2) == pytest.approx(10.0 / 3.0, rel=1e-13)
        assert covariance_factor(student, 2) == pytest.approx(5.0 / 3.0, rel=1e-13)

    def test_heavy_tails_diverge(self):
        assert radial_second_moment(DensityGenerator(GeneratorFamily.CAUCHY), 1) == math.inf
        assert radial_second_moment(DensityGenerator(GeneratorFamily.STUDENT, dof=2), 3) == math.inf
        assert covariance_factor(DensityGenerator(GeneratorFamily.CAUCHY), 2) == math.inf

    def test_laplace_closed_value(self):
        laplace = DensityGenerator(GeneratorFamily.LAPLACE)
        # s = 1: s^{2/s} Gamma(n+2)/Gamma(n) = (n+1) n
        assert radial_second_moment(laplace, 2) == pytest.approx(6.0, rel=1e-13)

    @pytest.mark.parametrize(
        "gen",
        [g for g in ALL_FAMILIES if g.family not in (GeneratorFamily.CAUCHY,)
         and not (g.family is GeneratorFamily.STUDENT and g.dof <= 2)],
        ids=lambda g: g.describe(),
    )
    def test_against_quadrature_oracle(self, gen):
        for n in (1, 2):
            assert radial_second_moment(gen, n) == pytest.approx(
                oracle_second_moment(gen, n), rel=1e-7
            )

    def test_student_moment_condition_via_quadrature(self):
        # Tail exponent: z^{n/2} (1+z/m)^{-(n+m)/2} ~ z^{-m/2}; diverges iff m <= 2.
        student3 = DensityGenerator(GeneratorFamily.STUDENT, dof=3)
        got = oracle_second_moment(student3, 2)
        assert got == pytest.approx(2 * 3 / (3 - 2), rel=1e-6)
        assert radial_second_moment(student3, 2) == pytest.approx(got, rel=1e-6)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_logistic_against_eta_series(self, n):
        # E(R^2) = I_{n+2} / I_n = (n/2) eta(n/2) / eta(n/2 - 1)
        half = mpmath.mpf(n) / 2
        series = float(half * mpmath.altzeta(half) / mpmath.altzeta(half - 1))
        logistic = DensityGenerator(GeneratorFamily.LOGISTIC)
        assert radial_second_moment(logistic, n) == pytest.approx(series, rel=1e-13)


class TestLimitRatio:
    def test_student_closed_form(self):
        student = DensityGenerator(GeneratorFamily.STUDENT, dof=2)
        res = limit_ratio(student, 2.0, 1.0)
        assert res.c_value == pytest.approx(0.25, rel=1e-13)
        assert res.converged
        assert res.satisfies_assumption1
        assert res.satisfies_assumption2

    def test_cauchy_closed_form(self):
        cauchy = DensityGenerator(GeneratorFamily.CAUCHY)
        res = limit_ratio(cauchy, 0.5, 2.0)
        assert res.c_value == pytest.approx(4.0, rel=1e-13)
        assert res.satisfies_assumption1
        assert not res.satisfies_assumption2  # sigma1 < sigma2: condition B not applicable

    def test_superexponential_families_zero_or_inf(self):
        for fam, kwargs in [
            (GeneratorFamily.NORMAL, {}),
            (GeneratorFamily.LAPLACE, {}),
            (GeneratorFamily.EXPONENTIAL_POWER, {"power": 2.5}),
            (GeneratorFamily.LOGISTIC, {}),
        ]:
            gen = DensityGenerator(fam, **kwargs)
            hi = limit_ratio(gen, 2.0, 1.0)
            lo = limit_ratio(gen, 1.0, 2.0)
            assert hi.c_value == 0.0 and hi.converged
            assert lo.c_value == math.inf and lo.converged
            assert hi.satisfies_assumption1 and lo.satisfies_assumption1
            assert hi.satisfies_assumption2 and not lo.satisfies_assumption2

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("ratio", [0.5, 1.25, 4.0])
    def test_numeric_ladder_matches_student_closed_form(self, m, ratio):
        gen = (
            DensityGenerator(GeneratorFamily.CAUCHY)
            if m == 1
            else DensityGenerator(GeneratorFamily.STUDENT, dof=m)
        )
        sigma1, sigma2 = ratio, 1.0
        closed = limit_ratio(gen, sigma1, sigma2)
        ladder, converged = ladder_limit(gen, sigma1, sigma2)
        assert converged
        assert ladder == pytest.approx(closed.c_value, rel=0.05)
        # condition A: C differs from 1; condition B: sigma1 > sigma2 and C < 1
        assert closed.satisfies_assumption1 == (abs(ladder - 1.0) > 0.05)
        assert closed.satisfies_assumption2 == (sigma1 > sigma2 and ladder < 1.0)

    def test_numeric_ladder_zero_inf_classification(self):
        normal = DensityGenerator(GeneratorFamily.NORMAL)
        assert ladder_limit(normal, 2.0, 1.0) == (0.0, True)
        assert ladder_limit(normal, 1.0, 2.0) == (math.inf, True)
        assert limit_ratio(normal, 2.0, 1.0).c_value == 0.0
        assert limit_ratio(normal, 1.0, 2.0).c_value == math.inf

    @settings(max_examples=30, deadline=None)
    @given(
        shift1=st.floats(-5.0, 5.0),
        shift2=st.floats(-5.0, 5.0),
        m=st.integers(1, 6),
    )
    def test_shift_invariance(self, shift1, shift2, m):
        gen = DensityGenerator(GeneratorFamily.STUDENT, dof=m)
        base, _ = ladder_limit(gen, 3.0, 1.5)
        shifted, converged = ladder_limit(gen, 3.0, 1.5, shift1, shift2)
        assert converged
        assert shifted == pytest.approx(base, rel=0.01)

    def test_equal_scales_rejected(self):
        with pytest.raises(ParameterError):
            limit_ratio(DensityGenerator(GeneratorFamily.NORMAL), 1.0, 1.0)
        with pytest.raises(ParameterError):
            limit_ratio(DensityGenerator(GeneratorFamily.NORMAL), -1.0, 1.0)

    @pytest.mark.parametrize("sigma1, sigma2", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_nonfinite_scales_rejected(self, sigma1, sigma2):
        with pytest.raises(ParameterError, match="finite and positive"):
            limit_ratio(DensityGenerator(GeneratorFamily.STUDENT, dof=3), sigma1, sigma2)

    def test_every_catalog_family_passes_both_gates(self):
        for gen in ALL_FAMILIES:
            sat1, sat2, probes = assumption_profile(gen)
            assert sat1, gen.describe()
            assert sat2, gen.describe()
            assert len(probes) == 2
