"""Acceptance battery: ten end-to-end criteria with stated tolerances.

Each criterion prints one ``ACCEPTANCE <n> <label>: PASS/FAIL`` line (run
with ``pytest tests/test_acceptance.py -s`` to watch them scroll by).  The
tolerances and budgets are part of the package contract and must not be
loosened; every reference value here is computed by an oracle that is
independent of the library path it validates.
"""

import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from simplex_oracle import simplex_minimum
from sme_oracle import sme_table

from lsemix.cli import main as cli_main
from lsemix.cones import HORN_MATRIX, ConeStatus, is_copositive, is_psd, dual_pairing
from lsemix.distributions import LseDistribution
from lsemix.empirical import McConfig, verify_icx, verify_st
from lsemix.generators import DensityGenerator, GeneratorFamily, limit_ratio
from lsemix.mixing import (
    AlphaBetaMap,
    BetaLambdaOne,
    Degenerate,
    DiscreteWeighted,
    GeneralizedInverseGaussian,
)
from lsemix.orders import (
    OrderKind,
    SufficientStatus,
    Verdict,
    check_order,
)

NORMAL = DensityGenerator(GeneratorFamily.NORMAL)
STUDENT5 = DensityGenerator(GeneratorFamily.STUDENT, dof=5)
STUDENT7 = DensityGenerator(GeneratorFamily.STUDENT, dof=7)
CAUCHY = DensityGenerator(GeneratorFamily.CAUCHY)
LAPLACE = DensityGenerator(GeneratorFamily.LAPLACE)
LOGISTIC = DensityGenerator(GeneratorFamily.LOGISTIC)
EXP_POWER = DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER, power=1.5)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} {label}: PASS", flush=True)


def mk(mu, sigma, delta=None, gen=NORMAL, ab=None, mix=None):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    n = mu.size
    if delta is None:
        delta = np.zeros(n)
    return LseDistribution(mu, np.asarray(sigma, float).reshape(n, n),
                           np.atleast_1d(np.asarray(delta, float)),
                           gen, ab or AlphaBetaMap.plain(),
                           mix or Degenerate(1.0))


def ghss(mu, sigma, delta, lam=3.0):
    return mk(mu, sigma, delta, ab=AlphaBetaMap.skew_slash(),
              mix=BetaLambdaOne(lam))


# --------------------------------------------------------------------------
# 1. Density normalization


CATALOG = [
    NORMAL,
    DensityGenerator(GeneratorFamily.STUDENT, dof=3),
    CAUCHY,
    EXP_POWER,
    LAPLACE,
    LOGISTIC,
]


def test_acceptance_1_density_normalization():
    with criterion(1, "density normalization"):
        start = time.perf_counter()
        # rational compactification x = t/(1 - t^2) maps (-1, 1) onto R and
        # tames the power tails of the cauchy/student profiles
        t, w = np.polynomial.legendre.leggauss(400)
        x = t / (1.0 - t * t)
        jac = (1.0 + t * t) / (1.0 - t * t) ** 2
        wj = w * jac
        xx, yy = np.meshgrid(x, x)
        pts2 = np.column_stack([xx.ravel(), yy.ravel()])
        for gen in CATALOG:
            d1 = mk(0.15, [[1.1]], gen=gen)
            total1 = float(wj @ d1.pdf(x))
            assert abs(total1 - 1.0) < 1e-4, (gen.describe(), 1, total1)
            d2 = mk([0.1, -0.2], [[1.2, 0.3], [0.3, 0.9]], gen=gen)
            vals = d2.pdf(pts2).reshape(xx.shape)
            total2 = float(wj @ vals @ wj)
            assert abs(total2 - 1.0) < 1e-4, (gen.describe(), 2, total2)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"normalization took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 2. Moment identities vs Monte Carlo


MOMENT_CONFIGS = [
    (NORMAL, Degenerate(1.3), AlphaBetaMap.mean_variance(), (0.5, -0.2)),
    (NORMAL, BetaLambdaOne(3.0), AlphaBetaMap.skew_slash(), (0.4, 0.1)),
    (NORMAL, GeneralizedInverseGaussian(1.0, 1.0, 2.0),
     AlphaBetaMap.mean_variance(), (0.3, 0.0)),
    (NORMAL, DiscreteWeighted(((0.5, 0.4), (1.5, 0.6))),
     AlphaBetaMap.plain(), (0.0, 0.0)),
    (NORMAL, GeneralizedInverseGaussian(0.5, 1.2, 1.5),
     AlphaBetaMap.skew_slash(), (0.2, 0.2)),
    (NORMAL, DiscreteWeighted(((0.5, 0.3), (1.0, 0.4), (2.0, 0.3))),
     AlphaBetaMap.mean_variance(), (0.7, 0.0)),
    (STUDENT7, Degenerate(0.8), AlphaBetaMap.plain(), (0.0, 0.0)),
    (STUDENT7, BetaLambdaOne(3.0), AlphaBetaMap.mean_variance(), (0.2, 0.6)),
    (STUDENT7, GeneralizedInverseGaussian(1.5, 1.0, 2.0),
     AlphaBetaMap.location_mixture(), (0.5, 0.1)),
    (STUDENT7, DiscreteWeighted(((0.5, 0.4), (1.5, 0.6))),
     AlphaBetaMap.mean_variance(), (-0.3, 0.2)),
    (STUDENT7, Degenerate(1.0), AlphaBetaMap.mean_variance(), (0.4, 0.4)),
    (STUDENT7, BetaLambdaOne(5.0), AlphaBetaMap.skew_slash(), (0.1, 0.3)),
]


def test_acceptance_2_moment_identities():
    with criterion(2, "moment identities vs Monte Carlo"):
        start = time.perf_counter()
        assert len(MOMENT_CONFIGS) == 12
        mu = np.array([0.3, -0.6])
        sigma = np.array([[1.4, 0.4], [0.4, 0.9]])
        count = 1_000_000
        for index, (gen, mixing, ab, delta) in enumerate(MOMENT_CONFIGS):
            d = mk(mu, sigma, np.asarray(delta), gen=gen, ab=ab, mix=mixing)
            moments = d.moments()
            assert moments.mean is not None and moments.covariance is not None
            rng = np.random.default_rng(700 + index)
            y = d.sample(rng, count)
            sample_mean = y.mean(axis=0)
            se_mean = y.std(axis=0, ddof=1) / math.sqrt(count)
            assert np.all(np.abs(sample_mean - moments.mean) <= 3.0 * se_mean), (
                index, sample_mean, moments.mean, se_mean)
            centered = y - sample_mean
            for i in range(2):
                for j in range(i, 2):
                    products = centered[:, i] * centered[:, j]
                    se = products.std(ddof=1) / math.sqrt(count)
                    gap = abs(products.mean() - moments.covariance[i, j])
                    assert gap <= 3.0 * se, (index, i, j, gap, 3 * se)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"moment battery took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 3. Closed-mixing inverse moments


def test_acceptance_3_inverse_mixing_moments():
    with criterion(3, "inverse mixing moments (lam = 3)"):
        lam = 3.0
        density = lambda z: lam * z ** (lam - 1.0)
        first, _ = integrate.quad(lambda z: density(z) / z, 0.0, 1.0)
        second, _ = integrate.quad(lambda z: density(z) / z ** 2, 0.0, 1.0)
        variance = second - first ** 2
        assert abs(first - 1.5) < 1e-10 and abs(variance - 0.75) < 1e-10
        law = BetaLambdaOne(lam)
        assert abs(law.power_moment(-1.0) - first) < 1e-8
        implementation_var = law.power_moment(-2.0) - law.power_moment(-1.0) ** 2
        assert abs(implementation_var - variance) < 1e-8


# --------------------------------------------------------------------------
# 4. Affine closure of the characteristic function


def test_acceptance_4_affine_characteristic_function():
    with criterion(4, "affine characteristic-function closure"):
        rng = np.random.default_rng(41)
        base = mk(
            [0.2, -0.4, 0.1],
            np.array([[1.5, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.8]]),
            [0.5, 0.0, -0.3],
            ab=AlphaBetaMap.mean_variance(),
            mix=BetaLambdaOne(3.0),
        )
        for _ in range(20):
            m = int(rng.integers(1, 4))
            matrix = rng.normal(size=(m, 3))
            offset = rng.normal(size=m)
            transformed = base.affine(matrix, offset)
            ts = rng.normal(size=(50, m))
            lhs = transformed.char_fn(ts)
            rhs = np.exp(1j * ts @ offset) * base.char_fn(ts @ matrix)
            worst = float(np.max(np.abs(lhs - rhs)))
            assert worst < 1e-10, worst


# --------------------------------------------------------------------------
# 5. Tail-ratio ladder reproduction


def test_acceptance_5_limit_ratio_grid():
    with criterion(5, "tail-ratio limit classification"):
        scale_pairs = [(1.0, 2.0), (2.0, 1.0), (1.0, 1.5)]
        student3 = DensityGenerator(GeneratorFamily.STUDENT, dof=3)
        for s1, s2 in scale_pairs:
            result = limit_ratio(student3, s1, s2, method="numeric")
            target = (s2 / s1) ** 3
            assert result.converged
            assert abs(result.c_value - target) <= 0.05 * target, (
                s1, s2, result.c_value, target)
        for gen in (EXP_POWER, LOGISTIC):
            for s1, s2 in scale_pairs:
                result = limit_ratio(gen, s1, s2, method="numeric")
                expected = 0.0 if s1 > s2 else math.inf
                assert result.c_value == expected, (gen.describe(), s1, s2, result)
                assert result.satisfies_assumption1
                assert result.satisfies_assumption2 == (s1 > s2)


# --------------------------------------------------------------------------
# 6. Theorem battery: soundness, reflexivity, lattice


def random_battery_pair(rng):
    n = int(rng.integers(1, 4))
    gen = [NORMAL, STUDENT5, CAUCHY, LAPLACE][int(rng.integers(4))]
    mixing = [
        Degenerate(1.0),
        BetaLambdaOne(3.0),
        BetaLambdaOne(0.5),
        GeneralizedInverseGaussian(1.0, 1.0, 2.0),
        DiscreteWeighted(((0.5, 0.4), (1.5, 0.6))),
    ][int(rng.integers(5))]
    ab = [
        AlphaBetaMap.plain(),
        AlphaBetaMap.mean_variance(),
        AlphaBetaMap.skew_slash(),
        AlphaBetaMap.location_mixture(),
        AlphaBetaMap.scale_only(),
    ][int(rng.integers(5))]
    mu1 = rng.normal(size=n)
    delta1 = rng.normal(size=n) if rng.random() < 0.5 else np.zeros(n)
    b = rng.normal(size=(n, n))
    sigma1 = b @ b.T + n * np.eye(n)

    mu2 = mu1.copy() if rng.random() < 0.5 else mu1 + rng.uniform(0.0, 0.5, n)
    delta2 = delta1.copy() if rng.random() < 0.6 else delta1 + rng.uniform(0.0, 0.4, n)
    mode = rng.random()
    if mode < 0.35:
        sigma2 = sigma1.copy()
    elif mode < 0.6:
        c = rng.normal(size=(n, n))
        sigma2 = sigma1 + 0.4 * (c @ c.T)
    elif mode < 0.8:
        sigma2 = sigma1 + np.abs(rng.normal(size=(n, n)))
        sigma2 = 0.5 * (sigma2 + sigma2.T)
        if np.linalg.eigvalsh(sigma2).min() <= 1e-6:
            sigma2 = sigma1 + np.ones((n, n))
    else:
        c = rng.normal(size=(n, n))
        sigma2 = sigma1 + 0.2 * (c + c.T)
        if np.linalg.eigvalsh(sigma2).min() <= 1e-6:
            sigma2 = sigma1.copy()
    d1 = mk(mu1, sigma1, delta1, gen=gen, ab=ab, mix=mixing)
    d2 = mk(mu2, sigma2, delta2, gen=gen, ab=ab, mix=mixing)
    return d1, d2


def test_acceptance_6_theorem_battery():
    with criterion(6, "theorem battery (200 pairs per order)"):
        rng = np.random.default_rng(20240817)
        pair_count = 200
        for _ in range(pair_count):
            d1, d2 = random_battery_pair(rng)
            reports = {}
            for order in OrderKind:
                # OrderReport construction enforces the no-sufficient-Holds-
                # with-necessary-Violated invariant internally
                reports[order] = check_order(d1, d2, order)
            for order in OrderKind:
                assert check_order(d1, d1, order).verdict is Verdict.ORDERED
            if reports[OrderKind.ST].verdict is Verdict.ORDERED:
                assert reports[OrderKind.PLST].verdict is Verdict.ORDERED
                assert reports[OrderKind.ICX].verdict is Verdict.ORDERED
            if reports[OrderKind.CX].verdict is Verdict.ORDERED:
                assert reports[OrderKind.LCX].verdict is Verdict.ORDERED
                assert reports[OrderKind.ILCX].verdict is Verdict.ORDERED
                assert reports[OrderKind.CP].verdict is Verdict.ORDERED
            if reports[OrderKind.ICX].verdict is Verdict.ORDERED:
                assert reports[OrderKind.IPLCX].verdict is Verdict.ORDERED
            if reports[OrderKind.COP].verdict is Verdict.ORDERED:
                assert reports[OrderKind.CX].verdict is Verdict.ORDERED
            if reports[OrderKind.ST].sufficient is SufficientStatus.HOLDS:
                assert reports[OrderKind.ICX].sufficient is SufficientStatus.HOLDS


# --------------------------------------------------------------------------
# 7. Empirical concordance (survival / stop-loss curve shapes)


ST_SCENARIOS = [
    (ghss(0.0, [[1.0]], [0.2]), ghss(0.3, [[1.0]], [0.5])),
    (ghss(-0.5, [[2.25]], [0.1]), ghss(-0.2, [[2.25]], [0.1])),
    (ghss(0.0, [[1.0]], [0.0]), ghss(0.0, [[1.0]], [0.4])),
    (mk(0.0, [[1.0]]), mk(0.4, [[1.0]])),
    (mk(-1.0, [[2.25]], gen=STUDENT5), mk(-0.6, [[2.25]], gen=STUDENT5)),
    (mk(0.0, [[1.0]], gen=LAPLACE), mk(0.25, [[1.0]], gen=LAPLACE)),
    (mk(0.0, [[1.0]], [0.2], ab=AlphaBetaMap.mean_variance(),
        mix=DiscreteWeighted(((0.5, 0.4), (1.5, 0.6)))),
     mk(0.3, [[1.0]], [0.2], ab=AlphaBetaMap.mean_variance(),
        mix=DiscreteWeighted(((0.5, 0.4), (1.5, 0.6))))),
    (mk(0.0, [[1.0]], [0.3], ab=AlphaBetaMap.location_mixture(),
        mix=GeneralizedInverseGaussian(1.0, 1.0, 2.0)),
     mk(0.1, [[1.0]], [0.6], ab=AlphaBetaMap.location_mixture(),
        mix=GeneralizedInverseGaussian(1.0, 1.0, 2.0))),
    (mk(0.0, [[1.0]], [0.1], gen=STUDENT5, ab=AlphaBetaMap.skew_slash(),
        mix=BetaLambdaOne(3.0)),
     mk(0.2, [[1.0]], [0.4], gen=STUDENT5, ab=AlphaBetaMap.skew_slash(),
        mix=BetaLambdaOne(3.0))),
    (mk(0.0, [[1.0]], gen=LOGISTIC), mk(0.3, [[1.0]], gen=LOGISTIC)),
]

ICX_SCENARIOS = [
    (mk(0.0, [[1.0]]), mk(0.2, [[2.25]])),
    (mk(0.0, [[1.0]]), mk(0.0, [[1.44]])),
    (ghss(0.0, [[1.0]], [0.2]), ghss(0.3, [[1.96]], [0.2])),
    (mk(0.0, [[1.0]], gen=STUDENT5), mk(0.5, [[1.0]], gen=STUDENT5)),
    (mk(0.0, [[1.0]], gen=LAPLACE), mk(0.1, [[1.21]], gen=LAPLACE)),
    (mk(0.0, [[1.0]], [0.3], ab=AlphaBetaMap.mean_variance(),
        mix=DiscreteWeighted(((0.5, 0.4), (1.5, 0.6)))),
     mk(0.2, [[1.5]], [0.3], ab=AlphaBetaMap.mean_variance(),
        mix=DiscreteWeighted(((0.5, 0.4), (1.5, 0.6))))),
    (ghss(-0.3, [[1.0]], [0.1]), ghss(0.0, [[1.5]], [0.3])),
    (mk(0.0, [[1.0]], [0.2], gen=STUDENT5, ab=AlphaBetaMap.skew_slash(),
        mix=BetaLambdaOne(3.0)),
     mk(0.1, [[1.3]], [0.5], gen=STUDENT5, ab=AlphaBetaMap.skew_slash(),
        mix=BetaLambdaOne(3.0))),
    (mk(0.0, [[1.0]], gen=LOGISTIC), mk(0.2, [[1.69]], gen=LOGISTIC)),
    (mk(0.0, [[1.0]], [0.2], ab=AlphaBetaMap.location_mixture(),
        mix=GeneralizedInverseGaussian(1.0, 1.0, 2.0)),
     mk(0.2, [[1.2]], [0.4], ab=AlphaBetaMap.location_mixture(),
        mix=GeneralizedInverseGaussian(1.0, 1.0, 2.0))),
]

CROSSING_SCENARIOS = [
    (mk(0.0, [[4.0]]), mk(0.2, [[1.0]])),
    (mk(0.0, [[2.25]]), mk(0.0, [[1.0]])),
    (mk(0.0, [[4.0]], gen=STUDENT5), mk(0.5, [[1.0]], gen=STUDENT5)),
    (ghss(0.0, [[4.0]], [0.2]), ghss(0.3, [[1.0]], [0.2])),
    (mk(0.0, [[2.89]], gen=LAPLACE), mk(0.2, [[1.0]], gen=LAPLACE)),
]


def test_acceptance_7_empirical_concordance():
    with criterion(7, "empirical concordance with the lemmas"):
        start = time.perf_counter()
        for index, (d1, d2) in enumerate(ST_SCENARIOS):
            assert check_order(d1, d2, OrderKind.ST).verdict is Verdict.ORDERED, (
                "st", index)
            cfg = McConfig(sample_count=1_000_000, seed=9200 + index)
            result = verify_st(d1, d2, cfg)
            assert result.passed, ("st", index, result.max_violation)
        for index, (d1, d2) in enumerate(ICX_SCENARIOS):
            assert check_order(d1, d2, OrderKind.ICX).verdict is Verdict.ORDERED, (
                "icx", index)
            cfg = McConfig(sample_count=1_000_000, seed=9300 + index)
            result = verify_icx(d1, d2, cfg)
            assert result.passed, ("icx", index, result.max_violation)
        for index, (d1, d2) in enumerate(CROSSING_SCENARIOS):
            assert check_order(d1, d2, OrderKind.ICX).verdict is Verdict.NOT_ORDERED, (
                "crossing", index)
            cfg = McConfig(sample_count=1_000_000, seed=9400 + index)
            result = verify_icx(d1, d2, cfg)
            assert not result.passed, ("crossing", index)
            assert result.violation_point is not None
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"concordance battery took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 8. Cone module vs exact simplex enumeration, Horn matrix, duality


def test_acceptance_8_cone_module():
    with criterion(8, "copositivity vs exact enumeration, Horn, duality"):
        rng = np.random.default_rng(880)
        checked = 0
        for _ in range(500):
            n = int(rng.integers(2, 6))
            a = rng.uniform(-1.0, 1.0, size=(n, n))
            a = 0.5 * (a + a.T)
            verdict = is_copositive(a)
            exact, _ = simplex_minimum(a)
            if verdict.status is ConeStatus.OUTSIDE:
                assert exact < 0.0 or float(
                    verdict.witness @ a @ verdict.witness) < 0.0, (a, exact)
            else:
                assert verdict.status is ConeStatus.INSIDE
                assert exact >= -1e-12, (a, exact)
            checked += 1
        assert checked == 500

        horn = np.asarray(HORN_MATRIX, dtype=float)
        assert is_copositive(horn).status is ConeStatus.INSIDE
        assert is_psd(horn).status is ConeStatus.OUTSIDE

        # duality: <A, B> >= 0 for A copositive, B completely positive
        for index in range(200):
            n = int(rng.integers(2, 6))
            if index % 4 == 0:
                a = np.abs(rng.normal(size=(n, n)))
                a = 0.5 * (a + a.T)  # nonnegative entries: copositive
            elif index % 4 == 1:
                g = rng.normal(size=(n, n))
                a = g @ g.T  # PSD: copositive
            elif index % 4 == 2 and n == 5:
                a = horn * float(rng.uniform(0.5, 2.0))
            else:
                g = rng.normal(size=(n, n))
                a = g @ g.T + np.abs(rng.normal(size=(n, n)))
                a = 0.5 * (a + a.T)
            h = np.abs(rng.normal(size=(n + 2, n)))
            b = h.T @ h  # completely positive by construction
            assert dual_pairing(a, b) >= -1e-8, (a, b)


# --------------------------------------------------------------------------
# 9. Scale-mixture degeneration: general checker vs the scale-mixture oracle


def random_sme_pair(rng):
    n = int(rng.integers(1, 4))
    gen = [NORMAL, STUDENT5, CAUCHY][int(rng.integers(3))]
    mixing = [
        Degenerate(1.0),
        BetaLambdaOne(3.0),
        GeneralizedInverseGaussian(1.0, 1.0, 2.0),
        DiscreteWeighted(((0.5, 0.4), (1.5, 0.6))),
    ][int(rng.integers(4))]
    ab = [AlphaBetaMap.plain(), AlphaBetaMap.scale_only()][int(rng.integers(2))]
    mu1 = rng.normal(size=n)
    mu2 = mu1.copy() if rng.random() < 0.5 else mu1 + rng.uniform(0.05, 0.4, n)
    b = rng.normal(size=(n, n))
    sigma1 = b @ b.T + n * np.eye(n)
    mode = rng.random()
    if mode < 0.3:
        sigma2 = sigma1.copy()
    elif mode < 0.6:
        c = rng.normal(size=(n, n))
        sigma2 = sigma1 + 0.5 * (c @ c.T)
    else:
        c = rng.normal(size=(n, n))
        sigma2 = sigma1 + 0.25 * (c + c.T)
        if np.linalg.eigvalsh(sigma2).min() < 0.1:
            sigma2 = sigma1 + np.abs(0.25 * (c + c.T))
    d1 = mk(mu1, sigma1, gen=gen, ab=ab, mix=mixing)
    d2 = mk(mu2, sigma2, gen=gen, ab=ab, mix=mixing)
    return d1, d2


def test_acceptance_9_sme_degeneration():
    with criterion(9, "scale-mixture router agreement"):
        rng = np.random.default_rng(990)
        for _ in range(100):
            d1, d2 = random_sme_pair(rng)
            for order in OrderKind:
                general = check_order(d1, d2, order)
                assert (general.sufficient, general.necessary,
                        general.verdict) == sme_table(d1, d2, order), (
                    order, d1.describe(), d2.describe())


# --------------------------------------------------------------------------
# 10. CLI determinism over the shipped scenario battery


def test_acceptance_10_cli_determinism(tmp_path):
    with criterion(10, "CLI battery determinism"):
        scenarios = sorted(SCENARIO_DIR.glob("*.json"))
        assert scenarios, f"no scenario files in {SCENARIO_DIR}"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for scenario in scenarios:
            for out in (out_a, out_b):
                code = cli_main(["check", "--spec", str(scenario),
                                 "--out", str(out), "--quiet"])
                assert code in (0, 2, 3), (scenario.name, code)
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a
        has_csv = any(name.endswith(".csv") for name in files_a)
        has_json = any(name.endswith(".json") for name in files_a)
        assert has_csv and has_json
        for name in files_a:
            bytes_a = (out_a / name).read_bytes()
            bytes_b = (out_b / name).read_bytes()
            assert bytes_a == bytes_b, f"{name} differs between reruns"
            if name.endswith(".json"):
                json.loads(bytes_a.decode())


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-s", "-v"]))
