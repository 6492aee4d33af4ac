"""Tests for matrix cone membership.

The reference oracle is ``simplex_oracle.simplex_minimum``, an exact
minimizer of x'Ax over the simplex that enumerates faces one at a time by
eigendecomposition, a different method from the library's batched bordered
KKT systems.  Closed-form examples (Horn matrix, 2x2 criteria, cycle
matrices with known eigenvalues) pin the exact boundary behaviour.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from simplex_oracle import cp_trap_matrices, simplex_minimum

from lsemix import cones
from lsemix.cones import (
    HORN_MATRIX,
    CertificateKind,
    ConeStatus,
    _diagonally_dominant_factor,
    dual_pairing,
    is_completely_positive,
    is_copositive,
    is_psd,
)
from lsemix.errors import UsageError


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
    # neither nonnegative nor PSD: the answer comes from the face enumeration
    assert verdict.certificate_kind is CertificateKind.SIMPLEX_POINT
    assert verdict.witness is not None


def test_copositive_psd_rule_needs_no_witness():
    a = np.array([[1.0, -0.5], [-0.5, 1.0]])  # PSD with a negative entry
    verdict = is_copositive(a)
    assert verdict.status is ConeStatus.INSIDE
    assert verdict.certificate_kind is CertificateKind.SUFFICIENT_RULE
    assert verdict.witness is None


def test_copositive_prunes_faces_with_an_indefinite_hessian(monkeypatch):
    # Enumerating every support of an n = 10 matrix decomposes 1023
    # bordered systems; a Gaussian matrix leaves most faces indefinite.
    a = random_symmetric(np.random.default_rng(0), 10)
    eigh = np.linalg.eigh
    batches = []

    def counted(m):
        batches.append(m.shape[0])
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    is_copositive(a)
    monkeypatch.undo()
    assert sum(batches) < 2**10 - 1
    assert_matches_oracle(a)


def test_copositive_all_faces_singular_keeps_the_first_vertex():
    # -J: every bordered system of two or more coordinates is singular, the
    # boundary of the pruning band; every vertex attains the minimum -1.
    verdict = is_copositive(-np.ones((10, 10)))
    assert verdict.status is ConeStatus.OUTSIDE
    np.testing.assert_array_equal(verdict.witness, np.eye(10)[0])


def test_copositive_keeps_a_minimiser_on_the_full_face():
    # I - J/2 is positive definite on every face's tangent space, and
    # x'x - 1/2 is least at the uniform point, on the face of all ten
    verdict = is_copositive(np.eye(10) - 0.5 * np.ones((10, 10)))
    assert verdict.status is ConeStatus.OUTSIDE
    np.testing.assert_allclose(verdict.witness, np.full(10, 0.1), rtol=1e-12)


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


def test_copositive_rules_hold_past_the_exact_cap():
    # The nonnegative and PSD rules are exact at any n.
    rng = np.random.default_rng(11)
    b = rng.normal(size=(15, 15))
    for a in (np.eye(11), b @ b.T, np.abs(b + b.T)):
        verdict = is_copositive(a)
        assert verdict.status is ConeStatus.INSIDE
        assert verdict.certificate_kind is CertificateKind.SUFFICIENT_RULE
        assert verdict.witness is None


def capped_matrices():
    """One matrix per n = 11..20, family and scale 1, 1e-6, 1e8: symmetric
    Gaussian, a nonnegative matrix shifted by -tJ, I + 0.1 J with one
    negative edge, a scaled and permuted Horn matrix padded with I (shifted
    by -tJ half the time), and a rank 1-3 Gram matrix minus cI."""
    def gaussian(rng, n):
        return random_symmetric(rng, n)

    def shifted_nonnegative(rng, n):
        return np.abs(random_symmetric(rng, n)) - rng.uniform(0.0, 0.3) * np.ones((n, n))

    def negative_edge(rng, n):
        a = np.eye(n) + 0.1 * np.ones((n, n))
        i, j = rng.choice(n, 2, replace=False)
        a[i, j] = a[j, i] = -rng.uniform(0.0, 2.0)
        return a

    def horn_padded(rng, n):
        a = np.eye(n)
        a[:5, :5] = HORN_MATRIX
        d = rng.uniform(0.5, 2.0, n)
        a = d[:, None] * a * d[None, :]
        if rng.random() < 0.5:
            a -= rng.uniform(0.0, 0.2) * np.ones((n, n))
        p = rng.permutation(n)
        return a[np.ix_(p, p)]

    def low_rank_minus_ci(rng, n):
        b = rng.normal(size=(n, int(rng.integers(1, 4))))
        return b @ b.T - rng.uniform(0.0, 1.0) * np.eye(n)

    rng = np.random.default_rng(30)
    for n in range(11, 21):
        for family in (gaussian, shifted_nonnegative, negative_edge, horn_padded,
                       low_rank_minus_ci):
            for scale in (1.0, 1e-6, 1e8):
                yield scale * family(rng, n)


def assert_exact_witness(a, verdict):
    """The witness is a simplex point at which x'Ax < 0 in exact arithmetic."""
    assert verdict.status is ConeStatus.OUTSIDE
    assert verdict.certificate_kind is CertificateKind.SIMPLEX_POINT
    x = verdict.witness
    assert np.all(x >= 0.0) and math.isclose(x.sum(), 1.0)
    support = np.flatnonzero(x)
    exact = {i: Fraction(float(x[i])) for i in support}
    value = sum(exact[i] * Fraction(float(a[i, j])) * exact[j]
                for i in support for j in support)
    assert value < 0
    return support.tolist()


def test_copositive_size_cap():
    # n = 12: a_33 < 0 is a 1x1 witness; a 2x2 submatrix with
    # a_ij < -sqrt(a_ii a_jj) gives an edge point.  Each is a simplex point
    # of A itself, zero-padded.
    vertex = np.eye(12)
    vertex[3, 3] = -1.0
    edge = np.eye(12) + 0.1 * np.ones((12, 12))
    edge[2, 7] = edge[7, 2] = -2.0
    for a, support in ((vertex, [3]), (edge, [2, 7])):
        assert assert_exact_witness(a, is_copositive(a)) == support
    # Past the cap: Outside exactly when a 2x2 principal submatrix has an
    # oracle minimum below the band, Unknown otherwise, unless a rule
    # answers Inside.  A submatrix with no negative entry has a nonnegative
    # minimum, so the oracle reads only the others.
    statuses = set()
    for a in capped_matrices():
        n = a.shape[0]
        verdict = is_copositive(a)
        statuses.add(verdict.status)
        b = cones.band(n, float(np.abs(a).max()))
        submatrices = (a[np.ix_(p, p)] for p in itertools.combinations(range(n), 2))
        outside = any(simplex_minimum(sub)[0] < -b for sub in submatrices if sub.min() < 0.0)
        if verdict.status is ConeStatus.INSIDE:
            assert verdict.certificate_kind is CertificateKind.SUFFICIENT_RULE
            assert not outside
        elif outside:
            assert_exact_witness(a, verdict)
        else:
            assert verdict.status is ConeStatus.UNKNOWN and verdict.witness is None
    assert statuses == set(ConeStatus)
    # Horn's matrix padded with I is copositive but neither PSD nor
    # nonnegative, and no 1x1 or 2x2 submatrix is outside: Unknown, never
    # Inside from a search.
    padded = np.eye(11)
    padded[:5, :5] = HORN_MATRIX
    verdict = is_copositive(padded)
    assert verdict.status is ConeStatus.UNKNOWN
    assert verdict.witness is None
    # At n <= 10 the exact test still answers Inside.
    assert is_copositive(padded[:10, :10]).status is ConeStatus.INSIDE


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


def loop_dominant_factor(a, tol_abs):
    """Reference: the dominance factor built one row at a time."""
    n = a.shape[0]
    surplus = np.diag(a) - (a.sum(axis=1) - np.diag(a))
    if np.any(surplus < -tol_abs):
        return None
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            if a[i, j] > 0.0:
                v = np.zeros(n)
                v[i] = v[j] = math.sqrt(a[i, j])
                rows.append(v)
    for i in range(n):
        if surplus[i] > 0.0:
            v = np.zeros(n)
            v[i] = math.sqrt(surplus[i])
            rows.append(v)
    return np.array(rows or [np.zeros(n)])


def test_dominant_factor_matches_the_loop():
    rng = np.random.default_rng(5)
    built = 0
    for _ in range(400):
        n = int(rng.integers(1, 11))
        a = np.abs(rng.normal(size=(n, n))) * (rng.random((n, n)) < rng.random())
        a = 0.5 * (a + a.T)
        a[np.diag_indices(n)] = a.sum(axis=1) * rng.uniform(0.8, 1.5) if rng.random() < 0.8 else 0.0
        got, reference = _diagonally_dominant_factor(a, 1e-12), loop_dominant_factor(a, 1e-12)
        assert (got is None) is (reference is None)
        if reference is not None:
            built += 1
            assert got.shape == reference.shape and np.array_equal(got, reference)
    assert built > 100


def dense_gram(rng, n):
    """B'B for a dense positive B: completely positive, yet no rule of the
    ladder certifies it."""
    b = rng.random((n + 3, n)) + 0.1
    return b.T @ b


def test_cp_dense_gram_without_exact_rule_is_unknown():
    # completely positive by construction, but neither rank one nor
    # dominant under any positive diagonal scaling: no rule applies
    a = dense_gram(np.random.default_rng(41), 5)
    verdict = is_completely_positive(a)
    assert verdict.status is ConeStatus.UNKNOWN
    assert verdict.certificate_kind is None and verdict.witness is None


@pytest.mark.parametrize("d", [[30.0, 1.0, 1.0, 1.0, 1.0], [0.5, 2.0, 1.5, 1.0, 0.7],
                               [1e3, 1.0, 1e-3, 1.0, 1.0]])
def test_cp_rescaled_dominant_matrix_inside_with_factor(d):
    # A = 2 I + 0.1 (J - I) is diagonally dominant; D A D is not, but it is
    # dominant again after the scaling x = (2 diag - D A D)^{-1} 1
    n = 5
    a = 2.0 * np.eye(n) + 0.1 * (np.ones((n, n)) - np.eye(n))
    d = np.array(d)
    dad = d[:, None] * a * d[None, :]
    verdict = is_completely_positive(dad)
    assert verdict.status is ConeStatus.INSIDE
    assert verdict.certificate_kind is CertificateKind.SUFFICIENT_RULE
    b = verdict.witness
    assert np.all(b >= 0.0)
    assert np.abs(b.T @ b - dad).max() <= 2.0 * np.finfo(float).eps * np.abs(dad).max()


def pentagon(n):
    """1.7 I + (5-cycle adjacency) in the leading block, I elsewhere:
    doubly nonnegative, not completely positive (it pairs negatively with
    the Horn matrix), and no rule of the ladder decides it."""
    a = np.eye(n)
    a[:5, :5] = 1.7 * np.eye(5)
    for i in range(5):
        a[i, (i + 1) % 5] = a[(i + 1) % 5, i] = 1.0
    return a


@pytest.mark.parametrize("n", range(5, 11))
def test_cp_invariant_under_permutation_and_rescaling(n):
    rng = np.random.default_rng(200 + n)
    off = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    off = np.triu(off, 1) + np.triu(off, 1).T
    dominant = off + np.diag(off.sum(axis=1) + rng.uniform(0.1, 1.0, n))
    g = rng.uniform(0.5, 2.0, n)
    cases = [
        (horn_like(rng, n), ConeStatus.OUTSIDE),
        (np.outer(g, g), ConeStatus.INSIDE),
        (dominant, ConeStatus.INSIDE),
        (dense_gram(rng, n), ConeStatus.UNKNOWN),
        (pentagon(n), ConeStatus.UNKNOWN),
    ]
    for a, status in cases:
        assert is_completely_positive(a).status is status
        for _ in range(3):
            p = rng.permutation(n)
            d = np.exp(rng.uniform(-3.0, 3.0, n))
            moved = (d[:, None] * a * d[None, :])[np.ix_(p, p)]
            assert is_completely_positive(moved).status is status


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
    # positive.  No rule of the ladder decides it: the honest outcome is Unknown.
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


# --- the rounding band ------------------------------------------------------------


CONE_TESTS = (is_psd, is_copositive, is_completely_positive)


@pytest.mark.parametrize("c", [10.0 ** k for k in range(-12, 13, 2)])
def test_statuses_do_not_depend_on_the_unit(c):
    for a in (HORN_MATRIX, *cp_trap_matrices()):
        for test in CONE_TESTS:
            assert test(c * a).status is test(a).status, (test.__name__, a.shape)


def test_band_has_no_floor():
    # Below a floor of 1 an absolute 1e-9 band read this matrix as inside
    # all three cones; its eigenvalue -1e-12 and entry -2e-12 lie far
    # outside the band of its own entries.
    a = 1e-12 * np.array([[1.0, -2.0], [-2.0, 1.0]])
    assert [test(a).status for test in CONE_TESTS] == [ConeStatus.OUTSIDE] * 3


def test_scale_widens_the_band_to_the_operands():
    # The difference of two matrices of magnitude 1 carries their rounding:
    # -1e-17 is inside the band of the operands but not of the difference.
    a = np.array([[1e-16, 0.0], [0.0, -1e-17]])
    assert is_psd(a).status is ConeStatus.OUTSIDE
    assert is_psd(a, scale=1.0).status is ConeStatus.INSIDE
    assert is_copositive(a, scale=1.0).status is ConeStatus.INSIDE
    assert is_completely_positive(a, scale=1.0).status is ConeStatus.INSIDE


@pytest.mark.parametrize("c", [1e-12, 1e12])
def test_one_symmetry_rule_at_every_scale(c):
    symmetric = c * np.array([[2.0, 1.0], [1.0, 2.0]])
    for test in CONE_TESTS:
        with pytest.raises(UsageError, match="symmetric"):
            test(c * np.array([[1.0, 1.0], [3.0, 1.0]]))
        with pytest.raises(UsageError, match="symmetric"):
            test(symmetric + c * np.array([[0.0, 1e-11], [0.0, 0.0]]))
        assert test(symmetric + c * np.array([[0.0, 1e-13], [0.0, 0.0]])).status is ConeStatus.INSIDE
