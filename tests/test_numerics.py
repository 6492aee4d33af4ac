"""Exactness of the bucket index and of the inverse-CDF tables that read it.

``_BucketIndex`` must return ``np.searchsorted``'s index on both sides, and
``InverseCdfTable`` must return ``np.interp``'s value bit for bit, so that
tabulated draws (GIG mixing; laplace, logistic and exponential-power radials)
and the st/icx scan's bins are those of the two numpy functions.  Both are
run on every table the package builds for the GIG laws used across the
package, tests and benchmark, and for the table-sampled radials at n = 1..10,
with queries at and next to every knot, on the flat CDF runs of the tails,
outside the range, at +-inf and NaN.

``blocked_matmul`` must return the bytes of one ``a @ b`` while issuing no
product that OpenBLAS would run on its own threads.

``gauss_legendre`` computes each Legendre rule once per process, and the
mapped rules of the Beta and GIG laws are those of a fresh ``leggauss``.
"""

import numpy as np
import pytest

from lsemix.distributions import _radial_table
from lsemix.generators import DensityGenerator, GeneratorFamily
from lsemix.mixing import _BETA_X_MAX, BetaLambdaOne, GeneralizedInverseGaussian
from lsemix import numerics
from lsemix.numerics import BLAS_SERIAL_MULTIPLY_ADDS, InverseCdfTable, _BucketIndex, blocked_matmul

GIG_LAWS = [
    (-0.5, 1.0, 1.0),
    (-2.0, 3.0, 0.0),
    (0.5, 1.2, 1.5),
    (1.0, 0.0, 2.0),
    (1.0, 0.5, 2.0),
    (1.0, 1.0, 1.0),
    (1.0, 1.0, 2.0),
    (1.5, 0.8, 1.2),
    (1.5, 1.0, 2.0),
    (2.0, 0.0, 3.0),
    (2.0, 1.0, 0.5),
    (2.0, 1.0, 2.0),
]
TABLE_RADIALS = [
    DensityGenerator(GeneratorFamily.LAPLACE),
    DensityGenerator(GeneratorFamily.LOGISTIC),
    DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER, power=1.5),
    DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER, power=2.5),
]


def package_tables():
    tables = {f"gig{law}": GeneralizedInverseGaussian(*law)._inverse_cdf for law in GIG_LAWS}
    for gen in TABLE_RADIALS:
        for n in range(1, 11):
            tables[f"{gen.describe()}-n{n}"] = _radial_table(gen, n)
    return tables


TABLES = package_tables()


def probes(knots: np.ndarray) -> np.ndarray:
    """Every knot and its two neighbours, the unit interval's ends, values
    outside the range, +-inf, NaN, and random draws."""
    lo, hi = knots[0], knots[-1]
    return np.concatenate([
        knots,
        np.nextafter(knots, -np.inf),
        np.nextafter(knots, np.inf),
        [0.0, -0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)],
        [lo - 1.0, hi + 1.0, lo - 1e300, hi + 1e300, -np.finfo(float).max, np.finfo(float).max],
        [-np.inf, np.inf, np.nan],
        np.random.default_rng(7).random(20_000) * (hi - lo) + lo,
    ])


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def assert_index_exact(knots, queries):
    # The two-dimensional stack checks that crowded-bucket queries are
    # answered in place for any shape, not only for flat arrays.
    for q in (queries, np.stack([queries, queries[::-1]])):
        for side in ("left", "right"):
            got = _BucketIndex(knots, side)(q)
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, np.searchsorted(knots, q, side), err_msg=side)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_index_matches_searchsorted_on_package_tables(name):
    table = TABLES[name]
    for knots in (table.cdf, table.grid):
        assert_index_exact(knots, probes(knots))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_matches_interp_bitwise(name):
    table = TABLES[name]
    u = np.concatenate([probes(table.cdf), np.random.default_rng(11).random(100_000)])
    np.testing.assert_array_equal(bits(table(u)), bits(np.interp(u, table.cdf, table.grid)))


def test_package_tables_have_flat_runs():
    # The flat CDF tails are what send queries to the crowded-bucket
    # fallback; without them the exactness tests above would not reach it.
    for name, table in TABLES.items():
        assert np.any(np.diff(table.cdf) == 0.0), name
        index = _BucketIndex(table.cdf, "right")
        assert index.crowded.any(), name


@pytest.mark.parametrize("knots", [
    [2.5],
    [-1.0, 0.0, 0.0, 0.5, 2.0],
    [0.0, 0.0, 0.0],
    [1.0, 1.0, 1.0, 1.0, 3.0],
    [-3.0, -3.0, 0.0, 4.0, 4.0],
    [0.0, 1e-300, 2e-300, 1.0],
    [-1e200, 0.0, 1e200],
    list(np.sort(np.random.default_rng(3).normal(size=41))),
    list(np.linspace(-4.0, 5.0, 41)),
], ids=["one_point", "repeated", "all_equal", "repeated_low", "repeated_ends",
        "crowded_bottom", "wide", "random", "uniform"])
def test_index_matches_searchsorted_on_hand_grids(knots):
    knots = np.asarray(knots, dtype=float)
    assert_index_exact(knots, probes(knots))


def hand_tables():
    cdf_flat = np.array([0.0, 0.0, 0.0, 0.25, 0.25, 0.5, 0.75, 1.0, 1.0, 1.0])
    return {
        "two_knots": (np.array([-1.0, 3.0]), np.array([0.0, 1.0])),
        "flat_runs": (np.linspace(-2.0, 7.0, cdf_flat.size), cdf_flat),
        "nonuniform": (np.array([-5.0, -1.0, -0.5, 0.0, 0.1, 2.0, 9.0]),
                       np.array([0.0, 0.01, 0.2, 0.5, 0.51, 0.9, 1.0])),
        "level_grid": (np.array([0.0, 1.0, 1.0, 1.0, 2.0]), np.array([0.0, 0.2, 0.4, 0.6, 1.0])),
    }


@pytest.mark.parametrize("name", sorted(hand_tables()))
def test_hand_table_matches_interp_bitwise(name):
    grid, cdf = hand_tables()[name]
    table = InverseCdfTable(grid, cdf)
    u = probes(cdf)
    np.testing.assert_array_equal(bits(table(u)), bits(np.interp(u, cdf, grid)))


@pytest.mark.parametrize("grid", [
    [-np.inf, 0.0, 1.0, 2.0], [0.0, 1.0, np.inf, np.inf], [0.0, np.nan, 1.0, 2.0],
])
def test_nonfinite_grid_rejected(grid):
    with pytest.raises(ValueError):
        InverseCdfTable(np.asarray(grid), np.array([0.0, 0.3, 0.6, 1.0]))


def test_nonfinite_cdf_rejected():
    with pytest.raises(ValueError):
        InverseCdfTable(np.array([0.0, 1.0, 2.0]), np.array([0.0, np.nan, 1.0]))


def steep_tables():
    # Rises too small for a double overflow the slope to inf: a hand table
    # with subnormal CDF steps, and a radial whose lower tail is subnormal.
    grid = np.array([-1.0, 0.0, 1.0, 2.0, 3.0])
    cdf = np.array([0.0, 5e-324, 1e-320, 0.5, 1.0])
    return {
        "hand": InverseCdfTable(grid, cdf),
        "exponential_power-n200": _radial_table(
            DensityGenerator(GeneratorFamily.EXPONENTIAL_POWER, power=8.0), 200),
    }


@pytest.mark.parametrize("name", sorted(steep_tables()))
def test_steep_table_matches_interp_bitwise(name):
    table = steep_tables()[name]
    with np.errstate(over="ignore"):
        slope = np.diff(table.grid) / np.where(np.diff(table.cdf) > 0, np.diff(table.cdf), 1.0)
    assert np.isinf(slope).any()
    u = np.concatenate([probes(table.cdf), [0.0, 5e-324, 1e-321]])
    np.testing.assert_array_equal(bits(table(u)), bits(np.interp(u, table.cdf, table.grid)))


def test_table_keeps_shape_and_scalars():
    table = TABLES["laplace-n1"]
    u = np.random.default_rng(5).random((3, 4))
    assert table(u).shape == (3, 4)
    assert np.array_equal(bits(table(u)), bits(np.interp(u, table.cdf, table.grid)))
    assert bits(table(0.5)) == bits(np.interp(0.5, table.cdf, table.grid))


# --- row-blocked matrix products -------------------------------------------------


@pytest.mark.parametrize("inner", range(1, 11))
def test_blocked_matmul_matches_one_product(inner, monkeypatch):
    issued = []
    matmul = np.matmul

    def recording(a, b, **kwargs):
        issued.append(a.shape[0] * b.shape[0] * b.shape[1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(numerics.np, "matmul", recording)
    rng = np.random.default_rng(inner)
    for outer in sorted({*range(1, 9), inner}):
        block = BLAS_SERIAL_MULTIPLY_ADDS // (inner * outer) - 1
        # the default chunk, a chunk with a short last block, one whose
        # last block would be a lone row
        for rows in (65_536, 10_000, 2 * block + 1):
            a = rng.normal(size=(rows, inner))
            # b transposed, as verify_cx and sampling pass it, and plain
            for b in (rng.normal(size=(outer, inner)).T, rng.normal(size=(inner, outer))):
                issued.clear()
                assert blocked_matmul(a, b).tobytes() == (a @ b).tobytes()
                assert sum(issued) == rows * inner * outer
                if outer == 1:  # a matrix-vector product goes in one call
                    assert len(issued) == 1
                else:
                    assert max(issued) <= BLAS_SERIAL_MULTIPLY_ADDS
                    assert min(issued) >= 2 * inner * outer


# --- Gauss-Legendre rules ----------------------------------------------------------


def test_legendre_rule_is_computed_once_and_read_only(monkeypatch):
    calls = []
    leggauss = numerics.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    numerics._legendre_rule.cache_clear()
    monkeypatch.setattr(numerics, "leggauss", counting)
    try:
        laws = (
            BetaLambdaOne(1.5),
            BetaLambdaOne(3.0),
            GeneralizedInverseGaussian(1.0, 1.0, 2.0),
            GeneralizedInverseGaussian(-0.5, 1.0, 1.0),
        )
        for law in laws:
            law.quadrature()
        assert calls == [numerics.QUAD_NODES]
        # Each law maps gauss_legendre(a, b); those are the bytes of a fresh rule.
        x, w = leggauss(numerics.QUAD_NODES)
        for a, b in [(0.0, _BETA_X_MAX)] + [law._log_bounds for law in laws[2:]]:
            nodes, weights = numerics.gauss_legendre(a, b)
            half = 0.5 * (b - a)
            assert nodes.tobytes() == (half * (x + 1.0) + a).tobytes()
            assert weights.tobytes() == (half * w).tobytes()
        cached = numerics._legendre_rule()
        assert calls == [numerics.QUAD_NODES]
        for arr, fresh in zip(cached, (x, w)):
            assert arr.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError):
                arr[0] = 0.0
    finally:
        numerics._legendre_rule.cache_clear()
