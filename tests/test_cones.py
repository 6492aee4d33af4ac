"""Tests for matrix cone membership.

The reference oracle is ``simplex_oracle.simplex_minimum``, an exact
minimizer of x'Ax over the simplex that enumerates faces one at a time by
eigendecomposition, a different method from the library's batched bordered
KKT systems.  Closed-form examples (Horn matrix, 2x2 criteria, cycle
matrices with known eigenvalues) pin the exact boundary behaviour.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from simplex_oracle import cp_trap_matrices, simplex_minimum

from lsemix.cones import (
    HORN_MATRIX,
    CertificateKind,
    ConeStatus,
    dual_pairing,
    is_completely_positive,
    is_copositive,
    is_psd,
)
from lsemix.errors import SizeLimitError, UsageError


def band(a):
    """The tolerance band around 0 outside which a verdict must match the oracle."""
    return 1e-9 * max(1.0, float(np.abs(a).max()))


def assert_matches_oracle(a):
    """Status agrees with the exact minimum outside the band, and the
    library's witness attains that minimum within the band."""
    verdict = is_copositive(a)
    reference, _ = simplex_minimum(a)
    if reference < -band(a):
        assert verdict.status is ConeStatus.OUTSIDE, (a, reference)
    elif reference > band(a):
        assert verdict.status is ConeStatus.INSIDE, (a, reference)
    if verdict.witness is not None:
        x = verdict.witness
        assert np.all(x >= 0.0) and abs(x.sum() - 1.0) < 1e-12
        assert abs(float(x @ a @ x) - reference) <= band(a), (a, reference)
    else:
        assert verdict.certificate_kind is CertificateKind.SUFFICIENT_RULE
        assert reference >= -band(a)
    return verdict


def random_symmetric(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) * scale
    return 0.5 * (m + m.T)


# --- positive semidefiniteness ------------------------------------------------


def test_psd_accepts_gram_matrix():
    verdict = is_psd(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert verdict.status is ConeStatus.INSIDE
    assert verdict.certificate_kind is CertificateKind.EIGEN


def test_psd_zero_matrix():
    assert is_psd(np.zeros((3, 3))).status is ConeStatus.INSIDE


def test_psd_rejects_with_eigenvector_witness():
    a = np.diag([1.0, -0.5])
    verdict = is_psd(a)
    assert verdict.status is ConeStatus.OUTSIDE
    v = verdict.witness
    assert v @ a @ v < 0.0


def test_psd_boundary_rank_deficient():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert is_psd(a).status is ConeStatus.INSIDE


def test_psd_rejects_asymmetric():
    with pytest.raises(UsageError):
        is_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_psd_rejects_nonsquare():
    with pytest.raises(UsageError):
        is_psd(np.ones((2, 3)))


def test_psd_rejects_nonfinite():
    with pytest.raises(UsageError):
        is_psd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("test", [is_psd, is_copositive, is_completely_positive])
def test_empty_matrix_is_a_usage_error(test):
    with pytest.raises(UsageError, match="nonempty square matrix"):
        test(np.zeros((0, 0)))


# --- copositivity --------------------------------------------------------------


def test_copositive_zero_matrix_inside():
    assert is_copositive(np.zeros((2, 2))).status is ConeStatus.INSIDE


def test_copositive_nonnegative_entries_shortcut():
    verdict = is_copositive(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert verdict.status is ConeStatus.INSIDE
    assert verdict.certificate_kind is CertificateKind.SUFFICIENT_RULE


def test_copositive_negative_diagonal_witness():
    verdict = is_copositive(np.diag([1.0, -0.1]))
    assert verdict.status is ConeStatus.OUTSIDE
    np.testing.assert_allclose(verdict.witness, [0.0, 1.0])


def test_copositive_witness_is_violating_simplex_point():
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = random_symmetric(rng, n)
        verdict = is_copositive(a)
        if verdict.status is ConeStatus.OUTSIDE:
            x = verdict.witness
            assert np.all(x >= -1e-12)
            assert abs(x.sum() - 1.0) < 1e-9
            assert x @ a @ x < 0.0
            found += 1
    assert found > 50  # random gaussian matrices are usually not copositive


def test_copositive_2x2_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(300):
        assert_matches_oracle(random_symmetric(rng, 2))


def test_copositive_2x2_interior_minimum():
    # positive diagonal, strongly negative cross term: minimum inside the edge
    a = np.array([[1.0, -2.0], [-2.0, 1.0]])
    verdict = is_copositive(a)
    assert verdict.status is ConeStatus.OUTSIDE
    np.testing.assert_allclose(verdict.witness, [0.5, 0.5])
    assert verdict.witness @ a @ verdict.witness == pytest.approx(-0.5)


def test_copositive_horn_matrix():
    verdict = is_copositive(HORN_MATRIX)
    assert verdict.status is ConeStatus.INSIDE
    assert is_psd(HORN_MATRIX).status is ConeStatus.OUTSIDE


def test_copositive_horn_boundary_perturbation():
    # subtracting from the diagonal leaves the copositive cone
    verdict = is_copositive(HORN_MATRIX - 0.05 * np.eye(5))
    assert verdict.status is ConeStatus.OUTSIDE


def test_copositive_agrees_with_brute_force_small():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(3, 6))
        assert_matches_oracle(random_symmetric(rng, n))


def horn_like(rng, n):
    """P (D H D + E) P' with H the Horn matrix in the leading 5x5 block, D a
    positive diagonal, E a random PSD block on the other coordinates and P a
    permutation: copositive, with simplex minimum exactly 0."""
    d = rng.uniform(0.5, 2.0, 5)
    a = np.zeros((n, n))
    a[:5, :5] = d[:, None] * HORN_MATRIX * d[None, :]
    g = rng.normal(size=(n - 5, n - 5))
    a[5:, 5:] = g @ g.T
    p = rng.permutation(n)
    return a[np.ix_(p, p)]


def test_copositive_matches_exact_oracle_up_to_n10():
    rng = np.random.default_rng(47)
    outside = inside = 0
    for trial in range(160):
        n = int(rng.integers(1, 11))
        kind = trial % 4
        margin = rng.choice([-1e-6, 1e-6])
        if kind == 0:
            a = random_symmetric(rng, n)
        elif kind == 1:
            # singular PSD (minimum 0), and the same pushed off or into the cone
            b = rng.normal(size=(n, max(n - 2, 1)))
            a = b @ b.T
            if trial % 8 == 5:
                a = a - margin * np.abs(a).max() * np.ones((n, n))
        elif kind == 2 and n >= 5:
            a = horn_like(rng, n)
            if trial % 8 == 6:
                a = a - margin * np.abs(a).max() * np.ones((n, n))
        else:
            # the cp-trap recipe with an exact minimum of -1e-6 or +1e-6 max|a|
            c = np.abs(rng.standard_cauchy((n, n)))
            a = random_symmetric(rng, n) + rng.uniform(0.0, 20.0) * 0.5 * (c + c.T)
            m, _ = simplex_minimum(a)
            a = a - (m - margin * np.abs(a).max()) * np.ones((n, n))
        verdict = assert_matches_oracle(a)
        outside += verdict.status is ConeStatus.OUTSIDE
        inside += verdict.status is ConeStatus.INSIDE
    assert outside > 30 and inside > 30


def test_copositive_cp_trap_matrices_are_outside():
    # matrices a grid-and-descent search called copositive
    traps = cp_trap_matrices()
    assert [a.shape[0] for a in traps] == [8, 10, 9]
    for a in traps:
        verdict = is_copositive(a)
        assert verdict.status is ConeStatus.OUTSIDE
        x = verdict.witness
        assert np.all(x >= 0.0)
        assert float(x @ a @ x) < -band(a)


@pytest.mark.parametrize("n", range(5, 11))
def test_copositive_invariant_under_permutation_and_rescaling(n):
    rng = np.random.default_rng(100 + n)
    for shift in (0.0, 1e-6):
        a = horn_like(rng, n)
        a = a - shift * np.abs(a).max() * np.ones((n, n))
        status = is_copositive(a).status
        assert status is (ConeStatus.OUTSIDE if shift else ConeStatus.INSIDE)
        for _ in range(3):
            p = rng.permutation(n)
            d = rng.uniform(0.5, 2.0, n)
            assert is_copositive(a[np.ix_(p, p)]).status is status
            assert is_copositive(d[:, None] * a * d[None, :]).status is status


def test_copositive_psd_implies_copositive():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        b = rng.normal(size=(n, n))
        a = b @ b.T
        assert is_copositive(a).status is ConeStatus.INSIDE


def test_copositive_size_cap():
    with pytest.raises(SizeLimitError):
        is_copositive(np.eye(11))


def test_copositive_dimension_eleven_message_names_cap():
    with pytest.raises(SizeLimitError, match="10"):
        is_copositive(np.eye(12))


def test_copositive_large_dimension_inside():
    # n = 10, the largest size the exact test accepts
    rng = np.random.default_rng(3)
    b = rng.normal(size=(10, 10))
    assert is_copositive(b @ b.T + np.eye(10)).status is ConeStatus.INSIDE
    a = b @ b.T
    a[0, 0] = -1.0
    a = 0.5 * (a + a.T)
    assert is_copositive(a).status is ConeStatus.OUTSIDE


def test_copositive_deterministic():
    rng = np.random.default_rng(19)
    a = random_symmetric(rng, 5)
    first = is_copositive(a)
    second = is_copositive(a)
    assert first.status is second.status
    if first.witness is not None:
        np.testing.assert_array_equal(first.witness, second.witness)


# --- complete positivity --------------------------------------------------------


def test_cp_gram_of_nonnegative_factor():
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    verdict = is_completely_positive(b.T @ b)
    assert verdict.status is ConeStatus.INSIDE


def test_cp_negative_entry_dual_certificate():
    a = np.diag([1.0, -1.0])
    verdict = is_completely_positive(a)
    assert verdict.status is ConeStatus.OUTSIDE
    # the witness is a copositive matrix with negative pairing against a
    assert dual_pairing(a, verdict.witness) < 0.0


def test_cp_not_psd_dual_certificate():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # nonnegative but indefinite
    verdict = is_completely_positive(a)
    assert verdict.status is ConeStatus.OUTSIDE
    assert verdict.certificate_kind is CertificateKind.EIGEN
    w = verdict.witness
    assert is_psd(w).status is ConeStatus.INSIDE  # PSD, hence copositive
    assert dual_pairing(a, w) < 0.0


def test_cp_horn_matrix_outside():
    assert is_completely_positive(HORN_MATRIX).status is ConeStatus.OUTSIDE


def test_cp_small_doubly_nonnegative_inside():
    # for n <= 4, doubly nonnegative == completely positive
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        b = rng.random((n + 2, n))
        verdict = is_completely_positive(b.T @ b)
        assert verdict.status is ConeStatus.INSIDE


def test_cp_diagonally_dominant_factor_reconstructs():
    a = np.array(
        [
            [4.0, 1.0, 0.5, 0.0, 1.0],
            [1.0, 3.0, 1.0, 0.5, 0.0],
            [0.5, 1.0, 3.5, 1.0, 0.5],
            [0.0, 0.5, 1.0, 2.5, 0.5],
            [1.0, 0.0, 0.5, 0.5, 2.5],
        ]
    )
    verdict = is_completely_positive(a)
    assert verdict.status is ConeStatus.INSIDE
    assert verdict.certificate_kind is CertificateKind.SUFFICIENT_RULE
    b = verdict.witness
    assert np.all(b >= 0.0)
    np.testing.assert_allclose(b.T @ b, a, atol=1e-12)


def test_cp_factorization_search_five_dimensional():
    rng = np.random.default_rng(41)
    b = rng.random((8, 5)) + 0.1
    a = b.T @ b
    verdict = is_completely_positive(a)
    assert verdict.status is ConeStatus.INSIDE
    assert verdict.certificate_kind in (
        CertificateKind.FACTORIZATION,
        CertificateKind.SUFFICIENT_RULE,
    )
    w = verdict.witness
    assert np.all(w >= 0.0)
    tol = 1e-8 * max(1.0, np.abs(a).max())
    assert np.abs(w.T @ w - a).max() <= tol


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("c", [0.1, 0.125])
def test_cp_rank_one_is_inside_with_factor(n, c):
    d = np.random.default_rng(n).uniform(0.5, 2.0, n)
    for a in (c * np.ones((n, n)), c * np.outer(d, d)):
        verdict = is_completely_positive(a)
        assert verdict.status is ConeStatus.INSIDE
        b = verdict.witness
        assert np.all(b >= 0.0)
        np.testing.assert_allclose(b.T @ b, a, rtol=0.0, atol=1e-9)


def test_cp_certified_negative_case_is_not_inside():
    # 1.7 I + (5-cycle adjacency): nonnegative and PSD (eigenvalues
    # 1.7 + 2 cos(2 pi k / 5) > 0) yet it pairs to -1.5 with the Horn
    # matrix, which is copositive -- so by duality it cannot be completely
    # positive.  The honest outcome for the search ladder is Unknown.
    cycle = np.zeros((5, 5))
    for i in range(5):
        cycle[i, (i + 1) % 5] = cycle[(i + 1) % 5, i] = 1.0
    a = 1.7 * np.eye(5) + cycle
    assert np.linalg.eigvalsh(a).min() > 0.0
    assert dual_pairing(a, HORN_MATRIX) == pytest.approx(-1.5)
    verdict = is_completely_positive(a)
    assert verdict.status is not ConeStatus.INSIDE


def test_cp_implies_psd_and_copositive():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        b = rng.random((n + 1, n))
        a = b.T @ b
        if is_completely_positive(a).status is ConeStatus.INSIDE:
            assert is_psd(a).status is ConeStatus.INSIDE
            assert is_copositive(a).status is ConeStatus.INSIDE


# --- duality pairing -------------------------------------------------------------


def test_dual_pairing_identity():
    assert dual_pairing(np.eye(2), np.eye(2)) == pytest.approx(2.0)


def test_dual_pairing_zero():
    assert dual_pairing(np.array([[1.0, 2.0], [2.0, 3.0]]), np.zeros((2, 2))) == 0.0


def test_dual_pairing_shape_mismatch():
    with pytest.raises(UsageError):
        dual_pairing(np.eye(2), np.eye(3))


def test_dual_pairing_nonnegative_on_cone_pair():
    # every copositive/completely-positive pair has nonnegative pairing
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        b = rng.random((n + 1, n))
        cp = b.T @ b
        m = random_symmetric(rng, n)
        if is_copositive(m).status is ConeStatus.INSIDE:
            assert dual_pairing(cp, m) >= -1e-8 * max(1.0, np.abs(cp).max())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_property_gram_matrices_are_copositive(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n))
    verdict = is_copositive(b @ b.T)
    assert verdict.status is ConeStatus.INSIDE


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_property_outside_witness_valid(n, seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n)
    verdict = is_copositive(a)
    if verdict.status is ConeStatus.OUTSIDE:
        x = verdict.witness
        assert x @ a @ x < 0.0
        assert np.all(x >= -1e-12)
