"""Matrix cone membership: positive semidefinite, copositive, completely positive.

The three cones are nested: every completely positive matrix is both PSD and
entrywise nonnegative ("doubly nonnegative"), and every PSD or entrywise
nonnegative matrix is copositive.  The completely positive cone is the dual
of the copositive cone under the trace inner product <A, B> = tr(A'B).

Copositivity (x'Ax >= 0 for all x >= 0) is co-NP-hard in general.
``is_copositive`` answers nonnegative and PSD matrices by those rules at any
n.  Otherwise it decides exactly for n <= 10 by solving the KKT systems of
the supports of the simplex (quadratic programming over the simplex, Bomze
1998), skipping every support that contains a face on which the restricted
Hessian is indefinite, read from the inertia of its bordered matrix; above
that cap it looks only for a witness on a 1x1 or 2x2 principal submatrix
and is otherwise Unknown.
Complete positivity is decided by a ladder of exact rules; when none of
them applies the honest answer is Unknown rather than a guess (membership
is NP-hard in general).

Every comparison reads one rounding band, ``band(n, scale)``: ULPS n eps
times the largest operand, which bounds the rounding of n-term sums (Higham
2002, ch. 3).  It has no floor, so no status depends on the unit.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import UsageError
from .numerics import nearly_symmetric

__all__ = [
    "ConeStatus",
    "CertificateKind",
    "ConeVerdict",
    "HORN_MATRIX",
    "ULPS",
    "band",
    "is_psd",
    "is_copositive",
    "is_completely_positive",
    "dual_pairing",
]

#: Width of the rounding band, in units of n eps times the operands' scale.
ULPS = 64


def band(n: int, scale):
    """ULPS * n * eps * scale: the band within which a relation among sums of
    n terms of magnitude at most ``scale`` counts as holding."""
    return ULPS * n * sys.float_info.epsilon * scale

#: The classical 5x5 matrix that is copositive but neither positive
#: semidefinite nor completely positive; it separates the three cones.
HORN_MATRIX = np.array(
    [
        [1.0, -1.0, 1.0, 1.0, -1.0],
        [-1.0, 1.0, -1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0, -1.0, 1.0],
        [1.0, 1.0, -1.0, 1.0, -1.0],
        [-1.0, 1.0, 1.0, -1.0, 1.0],
    ]
)
HORN_MATRIX.setflags(write=False)


class ConeStatus(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    UNKNOWN = "unknown"


class CertificateKind(Enum):
    EIGEN = "eigen"
    SIMPLEX_POINT = "simplex_point"
    SUFFICIENT_RULE = "sufficient_rule"
    EXACT_SMALL_N = "exact_small_n"


@dataclass(frozen=True)
class ConeVerdict:
    """Membership decision with supporting evidence.

    For copositivity Outside the witness is a simplex point x >= 0 with
    ||x||_1 = 1 and x'Ax < -band.  Witnesses for rule-based verdicts are the
    object the rule exhibits (an eigenvector, a dual certificate matrix, a
    nonnegative factor B with B'B = A) and may be None when the rule needs
    none.
    """

    status: ConeStatus
    certificate_kind: CertificateKind | None = None
    witness: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.witness is not None:
            w = np.array(self.witness, dtype=float)
            w.setflags(write=False)
            object.__setattr__(self, "witness", w)


def _prepare(a, scale: float) -> tuple[np.ndarray, float]:
    """Validate; return (symmetrized copy, band(n, max(scale, max|a_ij|)))."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise UsageError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise UsageError("matrix entries must be finite")
    if not nearly_symmetric(a):
        raise UsageError("matrix must be symmetric")
    a = 0.5 * (a + a.T)
    return a, band(a.shape[0], max(scale, float(np.abs(a).max())))


def is_psd(a, scale: float = 0.0) -> ConeVerdict:
    """Positive semidefiniteness via eigendecomposition.

    Inside iff the smallest eigenvalue is >= -band(n, max(scale, max|a_ij|)),
    where ``scale`` is the largest magnitude among the operands A was formed
    from, so that the band covers their rounding; Outside carries the
    offending eigenvector.  The other two tests read the same band.
    """
    a, tol_abs = _prepare(a, scale)
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    if eigenvalues[0] >= -tol_abs:
        return ConeVerdict(ConeStatus.INSIDE, CertificateKind.EIGEN)
    return ConeVerdict(
        ConeStatus.OUTSIDE, CertificateKind.EIGEN, witness=eigenvectors[:, 0]
    )


# Copositivity ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _faces(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per support size k = 1..n: the supports of that size, one per row in
    ``itertools.combinations`` order, and each support's k facets as rows of
    indices into the supports of size k - 1 (at k = 1, the empty support)."""
    levels, index = [], {(): 0}
    for k in range(1, n + 1):
        supports = list(itertools.combinations(range(n), k))
        facets = [[index[s[:j] + s[j + 1:]] for j in range(k)] for s in supports]
        index = {s: i for i, s in enumerate(supports)}
        level = (np.array(supports), np.array(facets))
        for table in level:
            table.setflags(write=False)
        levels.append(level)
    return tuple(levels)


def is_copositive(a, scale: float = 0.0) -> ConeVerdict:
    """Test x'Ax >= 0 for all x >= 0: exactly for n <= 10, by two rules and
    small witnesses at any n.

    Write b = band(n, max(scale, max|a_ij|)), as in ``is_psd``.  Matrices
    with every entry >= -b are Inside at once, and so are positive
    semidefinite ones (is_psd's test, lambda_min >= -b), since
    x'Ax >= lambda_min ||x||^2 >= -b on the simplex; neither rule gives a
    witness.  Both rules hold at any n.

    Above n = 10 nothing else certifies Inside; see ``_small_witness`` for
    the Outside witnesses of the 1x1 and 2x2 principal submatrices, and
    without one the answer is Unknown.  A search never answers Inside.

    At n <= 10 the test finds the minimum m of x'Ax over the simplex and
    answers Outside iff m < -b; either way the witness is the minimising
    simplex point, and m is x'Ax evaluated there.

    A minimiser x of minimal support S solves the bordered KKT system
    [[A_S, -1], [1', 0]] (x_S; m) = (0; 1), and that system is nonsingular:
    a null vector (v, mu) has 1'v = 0 and A_S v = mu 1, so x'Ax changes by
    2 t mu along x + t v; both signs of t are feasible, so mu = 0, and moving
    until a coordinate of x + t v reaches zero gives a minimiser of smaller
    support.  Solving the nonsingular systems of the supports (batched by
    size, each at most (n+1) x (n+1)), keeping the solutions with x_S >= 0
    and evaluating x'Ax at each therefore finds the exact minimum; singular
    faces, such as those on which the Horn matrix attains its zero minimum,
    are skipped.  The symmetric system [[A_S, 1], [1', 0]] (x_S; -m) = (0; 1)
    is the same one times the orthogonal diag(I, -1), so its eigenvalues
    have the singular values of the first as their magnitudes, and one
    batched eigendecomposition both flags the singular systems and solves
    the rest.

    The same eigenvalues prune the enumeration.  By the inertia theorem for
    KKT matrices (Gould 1985) the bordered matrix has the inertia of
    Z'A_S Z, the Hessian restricted to the face's tangent space 1'v = 0,
    plus one positive and one negative eigenvalue.  A second negative
    eigenvalue therefore makes that Hessian indefinite, and then neither
    the face nor any face containing it (whose tangent space contains this
    one) holds a local minimum; the faces of a minimal-support minimiser,
    on which the Hessian is positive definite, all pass.  A face fails when
    its second eigenvalue is below minus numpy's matrix_rank band,
    (k+1) eps max|eigenvalue|, the band that flags the singular systems, so
    singular faces pass; size k+1 solves only the supports whose k facets
    all passed.  Supports keep ``itertools.combinations`` order and a later
    size replaces the best point only when strictly lower, so the witness
    is the one the enumeration of every support picks, but for ties: where
    several points attain the minimum, that enumeration could also take one
    recomputed a rounding lower from a pruned face, of which it is a
    boundary point.
    """
    a, tol_abs = _prepare(a, scale)
    n = a.shape[0]
    # Entrywise nonnegative and PSD matrices are copositive outright.
    if np.all(a >= -tol_abs) or np.linalg.eigvalsh(a)[0] >= -tol_abs:
        return ConeVerdict(ConeStatus.INSIDE, CertificateKind.SUFFICIENT_RULE)
    if n > 10:
        return _small_witness(a, tol_abs)
    unit = a / float(np.abs(a).max())  # on the scale of the border; same minimisers
    best_value, best_point = math.inf, None
    passed = np.ones(1, dtype=bool)  # the empty support, the facet of every vertex
    for k, (supports, facets) in enumerate(_faces(n), start=1):
        live = passed[facets].all(axis=1)
        if not live.any():
            break
        supports = supports[live]
        bordered = np.zeros((len(supports), k + 1, k + 1))
        bordered[:, :k, :k] = unit[supports[:, :, None], supports[:, None, :]]
        bordered[:, :k, k] = 1.0
        bordered[:, k, :k] = 1.0
        eigenvalues, vectors = np.linalg.eigh(bordered)
        size = np.abs(eigenvalues)
        rank_band = size.max(axis=1) * (k + 1) * np.finfo(float).eps
        convex = eigenvalues[:, 1] >= -rank_band
        passed = np.zeros_like(live)
        passed[live] = convex
        # numpy's matrix_rank rule on the singular values |eigenvalue|.
        solve = convex & (size.min(axis=1) > rank_band)
        z = np.einsum("mij,mj->mi", vectors[solve],
                      vectors[solve, k, :] / eigenvalues[solve])
        keep = np.all(z[:, :k] >= 0.0, axis=1)
        if not keep.any():
            continue
        x = np.zeros((int(keep.sum()), n))
        np.put_along_axis(x, supports[solve][keep], z[keep, :k], axis=1)
        x /= x.sum(axis=1, keepdims=True)
        values = np.einsum("mi,ij,mj->m", x, a, x)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value, best_point = float(values[i]), x[i]
    status = ConeStatus.OUTSIDE if best_value < -tol_abs else ConeStatus.INSIDE
    return ConeVerdict(status, CertificateKind.SIMPLEX_POINT, witness=best_point)


def _small_witness(a: np.ndarray, tol_abs: float) -> ConeVerdict:
    """Outside, with the lowest witness of a 1x1 or 2x2 principal submatrix
    at which x'Ax < -tol_abs; Unknown when there is none.

    Every principal submatrix of a copositive matrix is copositive, so a
    simplex point of one, padded with zeros, at which x'Ax (evaluated on A
    itself) is below the band is a witness for A.  The candidates are the
    vertices e_i, which are witnesses when a_ii < 0, and on each edge (i, j)
    with a_ij < 0 the minimiser t e_i + (1 - t) e_j of the edge's convex
    quadratic, t = (a_jj - a_ij) / (a_ii + a_jj - 2 a_ij) clipped to [0, 1].
    With a_ii, a_jj >= 0 its value is
    (a_ii a_jj - a_ij^2) / (a_ii + a_jj - 2 a_ij), negative exactly when
    a_ij < -sqrt(a_ii a_jj).
    """
    n = a.shape[0]
    diag = np.diag(a)
    i, j = np.nonzero(np.triu(a, 1) < 0.0)
    curvature = diag[i] + diag[j] - 2.0 * a[i, j]
    convex = curvature > 0.0
    i, j, curvature = i[convex], j[convex], curvature[convex]
    t = np.clip((diag[j] - a[i, j]) / curvature, 0.0, 1.0)
    points = np.vstack([np.eye(n), np.zeros((len(i), n))])
    edges = n + np.arange(len(i))
    points[edges, i] = t
    points[edges, j] = 1.0 - t
    values = np.einsum("mi,ij,mj->m", points, a, points)
    k = int(np.argmin(values))
    if values[k] < -tol_abs:
        return ConeVerdict(ConeStatus.OUTSIDE, CertificateKind.SIMPLEX_POINT, witness=points[k])
    return ConeVerdict(ConeStatus.UNKNOWN)


# Complete positivity ---------------------------------------------------------


def _diagonally_dominant_factor(a: np.ndarray, tol_abs: float) -> np.ndarray | None:
    """Explicit factor for nonnegative diagonally dominant matrices.

    A = sum_{i<j} a_ij (e_i+e_j)(e_i+e_j)' + sum_i (a_ii - sum_{j!=i} a_ij) e_i e_i'
    when every diagonal surplus is nonnegative; rows of the returned B stack
    the scaled vectors, so B'B = A exactly.
    """
    off_sums = a.sum(axis=1) - np.diag(a)
    surplus = np.diag(a) - off_sums
    if np.any(surplus < -tol_abs):
        return None
    i, j = np.nonzero(np.triu(a, 1) > 0.0)  # row-major: the pairs i < j in order
    k = np.flatnonzero(surplus > 0.0)
    rows = np.zeros((max(len(i) + len(k), 1), a.shape[0]))
    rows[np.arange(len(i)), i] = rows[np.arange(len(i)), j] = np.sqrt(a[i, j])
    rows[len(i) + np.arange(len(k)), k] = np.sqrt(surplus[k])
    return rows


def _scaled_dominant_factor(a: np.ndarray, tol_abs: float) -> np.ndarray | None:
    """The dominance rule on diag(x) A diag(x), x = (2 diag(A) - A)^{-1} 1.

    If x > 0, scaled row i has surplus x_i: the rule holds whenever 2 diag(A) - A
    is a nonsingular M-matrix, which permutations and positive rescalings keep.
    x is only a candidate; the rule certifies, and its factor B gives A = (B/x)'(B/x)."""
    try:
        x = np.linalg.solve(2.0 * np.diag(np.diag(a)) - a, np.ones(a.shape[0]))
    except np.linalg.LinAlgError:
        return None
    if not (x.min() > 0.0 and x.max() < math.inf):
        return None
    x /= x.max()  # the scaled entries stay within those of A
    scaled = x[:, None] * a * x[None, :]
    factor = _diagonally_dominant_factor(scaled, tol_abs)
    return None if factor is None else factor / x


def is_completely_positive(a, scale: float = 0.0) -> ConeVerdict:
    """Decide membership of the completely positive cone (A = B'B, B >= 0).

    Ladder: negative entry or not PSD -> Outside with a dual copositive
    certificate; doubly nonnegative with n <= 4 -> Inside (exact equality of
    the cones in low dimension); rank one, or nonnegative and diagonally
    dominant as given or after a positive diagonal scaling -> Inside with an
    explicit factor; otherwise Unknown.
    """
    a, tol_abs = _prepare(a, scale)
    n = a.shape[0]
    negative = np.argwhere(a < -tol_abs)
    if negative.size:
        i, j = negative[0]
        certificate = np.zeros_like(a)
        certificate[i, j] = certificate[j, i] = 1.0
        return ConeVerdict(
            ConeStatus.OUTSIDE, CertificateKind.SUFFICIENT_RULE, witness=certificate
        )
    # One eigendecomposition serves the PSD step (is_psd's test) and rank one.
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    if eigenvalues[0] < -tol_abs:
        # vv' for the negative-eigenvalue direction is a PSD (hence copositive)
        # matrix with <A, vv'> < 0: a dual separation certificate.
        v = eigenvectors[:, 0]
        return ConeVerdict(
            ConeStatus.OUTSIDE, CertificateKind.EIGEN, witness=np.outer(v, v)
        )
    if n <= 4:
        return ConeVerdict(ConeStatus.INSIDE, CertificateKind.EXACT_SMALL_N)
    # Rank one: A = bb' with b = sqrt(lambda_max) |v_max| >= 0.
    if eigenvalues[-2] <= tol_abs:
        b = math.sqrt(max(eigenvalues[-1], 0.0)) * np.abs(eigenvectors[:, -1])
        if float(np.abs(np.outer(b, b) - a).max()) <= tol_abs:
            return ConeVerdict(
                ConeStatus.INSIDE, CertificateKind.SUFFICIENT_RULE, witness=b[None, :]
            )
    factor = _diagonally_dominant_factor(a, tol_abs)
    if factor is None:
        factor = _scaled_dominant_factor(a, tol_abs)
    if factor is None:
        return ConeVerdict(ConeStatus.UNKNOWN)
    return ConeVerdict(ConeStatus.INSIDE, CertificateKind.SUFFICIENT_RULE, witness=factor)


def dual_pairing(a, b) -> float:
    """Trace inner product tr(A'B); nonnegative across the copositive/completely
    positive dual pair."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise UsageError(f"matrices must share a square shape, got {a.shape} and {b.shape}")
    return float(np.sum(a * b))
