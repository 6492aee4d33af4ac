"""Matrix cone membership: positive semidefinite, copositive, completely positive.

The three cones are nested: every completely positive matrix is both PSD and
entrywise nonnegative ("doubly nonnegative"), and every PSD or entrywise
nonnegative matrix is copositive.  The completely positive cone is the dual
of the copositive cone under the trace inner product <A, B> = tr(A'B).

Copositivity (x'Ax >= 0 for all x >= 0) is co-NP-hard in general; for
n <= 10 ``is_copositive`` decides it exactly by solving the KKT systems of
all 2^n - 1 supports (quadratic programming over the simplex, Bomze 1998).
Complete positivity is decided by a ladder of exact rules with a
nonnegative-factorization search as the last resort; when the search fails
the honest answer is Unknown rather than a guess.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SizeLimitError, UsageError

__all__ = [
    "ConeStatus",
    "CertificateKind",
    "ConeVerdict",
    "HORN_MATRIX",
    "is_psd",
    "is_copositive",
    "is_completely_positive",
    "dual_pairing",
]

#: Default absolute tolerance on normalized quadratic-form values.
DEFAULT_TOL = 1e-9

_FACTORIZATION_RESTARTS = 200
_FACTORIZATION_POLISH = 6

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
    FACTORIZATION = "factorization"
    SUFFICIENT_RULE = "sufficient_rule"
    EXACT_SMALL_N = "exact_small_n"


@dataclass(frozen=True)
class ConeVerdict:
    """Membership decision with supporting evidence.

    For copositivity Outside the witness is a simplex point x >= 0 with
    ||x||_1 = 1 and x'Ax < -tol.  For complete positivity Inside with a
    Factorization certificate the witness is a nonnegative matrix B with
    B'B = A within tolerance.  Witnesses for rule-based verdicts are the
    object the rule exhibits (an eigenvector, a dual certificate matrix, an
    explicit factor) and may be None when the rule needs none.
    """

    status: ConeStatus
    certificate_kind: CertificateKind | None = None
    witness: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.witness is not None:
            w = np.array(self.witness, dtype=float)
            w.setflags(write=False)
            object.__setattr__(self, "witness", w)


def _prepare(a, tol: float) -> tuple[np.ndarray, float]:
    """Validate symmetry, return (symmetrized copy, absolute tolerance)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise UsageError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise UsageError("matrix entries must be finite")
    tol_abs = _absolute_tolerance(a, tol)
    if float(np.abs(a - a.T).max()) > tol_abs:
        raise UsageError("matrix must be symmetric")
    return 0.5 * (a + a.T), tol_abs


def _absolute_tolerance(a: np.ndarray, tol: float) -> float:
    """tol scaled by the largest entry magnitude (at least 1)."""
    return tol * max(float(np.abs(a).max()), 1.0)


def is_psd(a, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Positive semidefiniteness via eigendecomposition.

    Inside iff the smallest eigenvalue is >= -tol (scaled by the largest
    entry magnitude); Outside carries the offending eigenvector.
    """
    a, tol_abs = _prepare(a, tol)
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    if eigenvalues[0] >= -tol_abs:
        return ConeVerdict(ConeStatus.INSIDE, CertificateKind.EIGEN)
    return ConeVerdict(
        ConeStatus.OUTSIDE, CertificateKind.EIGEN, witness=eigenvectors[:, 0]
    )


# Copositivity ---------------------------------------------------------------


def is_copositive(a, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Test x'Ax >= 0 for all x >= 0, exactly for n <= 10.

    Entrywise nonnegative matrices are Inside at once.  Otherwise the test
    finds the minimum m of x'Ax over the simplex and answers Outside iff
    m < -tol_abs = -tol * max(1, max|a_ij|); either way the witness is the
    minimising simplex point, and m is x'Ax evaluated there.

    A minimiser x of minimal support S solves the bordered KKT system
    [[A_S, -1], [1', 0]] (x_S; m) = (0; 1), and that system is nonsingular:
    a null vector (v, mu) has 1'v = 0 and A_S v = mu 1, so x'Ax changes by
    2 t mu along x + t v; both signs of t are feasible, so mu = 0, and moving
    until a coordinate of x + t v reaches zero gives a minimiser of smaller
    support.  Solving the nonsingular systems of all 2^n - 1 supports
    (batched by size, each at most (n+1) x (n+1)), keeping the solutions
    with x_S >= 0 and evaluating x'Ax at each therefore finds the exact
    minimum; singular faces, such as those on which the Horn matrix attains
    its zero minimum, are skipped.  The symmetric system
    [[A_S, 1], [1', 0]] (x_S; -m) = (0; 1) is the same one times the
    orthogonal diag(I, -1), so its eigenvalues have the singular values of
    the first as their magnitudes, and one batched eigendecomposition both
    flags the singular systems and solves the rest.
    """
    a, tol_abs = _prepare(a, tol)
    n = a.shape[0]
    if n > 10:
        raise SizeLimitError(
            f"copositivity of a {n}x{n} matrix exceeds the n <= 10 solver cap"
        )
    # Entrywise nonnegative matrices are copositive outright.
    if np.all(a >= -tol_abs):
        return ConeVerdict(ConeStatus.INSIDE, CertificateKind.SUFFICIENT_RULE)
    unit = a / float(np.abs(a).max())  # on the scale of the border; same minimisers
    best_value, best_point = math.inf, None
    for k in range(1, n + 1):
        supports = np.array(list(itertools.combinations(range(n), k)))
        bordered = np.zeros((len(supports), k + 1, k + 1))
        bordered[:, :k, :k] = unit[supports[:, :, None], supports[:, None, :]]
        bordered[:, :k, k] = 1.0
        bordered[:, k, :k] = 1.0
        # numpy's matrix_rank rule on the singular values |eigenvalue|.
        eigenvalues, vectors = np.linalg.eigh(bordered)
        size = np.abs(eigenvalues)
        regular = size.min(axis=1) > size.max(axis=1) * (k + 1) * np.finfo(float).eps
        z = np.einsum("mij,mj->mi", vectors[regular],
                      vectors[regular, k, :] / eigenvalues[regular])
        keep = np.all(z[:, :k] >= 0.0, axis=1)
        if not keep.any():
            continue
        x = np.zeros((int(keep.sum()), n))
        np.put_along_axis(x, supports[regular][keep], z[keep, :k], axis=1)
        x /= x.sum(axis=1, keepdims=True)
        values = np.einsum("mi,ij,mj->m", x, a, x)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value, best_point = float(values[i]), x[i]
    status = ConeStatus.OUTSIDE if best_value < -tol_abs else ConeStatus.INSIDE
    return ConeVerdict(status, CertificateKind.SIMPLEX_POINT, witness=best_point)


# Complete positivity ---------------------------------------------------------


def _diagonally_dominant_factor(a: np.ndarray, tol_abs: float) -> np.ndarray | None:
    """Explicit factor for nonnegative diagonally dominant matrices.

    A = sum_{i<j} a_ij (e_i+e_j)(e_i+e_j)' + sum_i (a_ii - sum_{j!=i} a_ij) e_i e_i'
    when every diagonal surplus is nonnegative; rows of the returned B stack
    the scaled vectors, so B'B = A exactly.
    """
    n = a.shape[0]
    off_sums = a.sum(axis=1) - np.diag(a)
    surplus = np.diag(a) - off_sums
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
    if not rows:
        rows.append(np.zeros(n))
    return np.array(rows)


def _factorization_search(a: np.ndarray, tol_abs: float) -> np.ndarray | None:
    """Search for H >= 0 (n x r) with H H' = A; None when not found.

    Multiplicative updates on a deterministic batch of random restarts,
    followed by bound-constrained quasi-Newton polish of the best candidates.
    """
    from scipy import optimize  # on first use: most matrices never reach the search

    n = a.shape[0]
    r = n * (n + 1) // 2
    rng = np.random.default_rng(1234321)
    h = rng.random((_FACTORIZATION_RESTARTS, n, r)) * math.sqrt(
        max(float(np.abs(a).max()), 1e-12) / r
    )
    a_batch = a[None, :, :]
    eps = 1e-12
    for _ in range(400):
        ah = a_batch @ h
        hhh = h @ (np.transpose(h, (0, 2, 1)) @ h)
        ratio = np.maximum(ah, 0.0) / (hhh + eps)
        h *= 0.5 + 0.5 * ratio

    residuals = np.abs(h @ np.transpose(h, (0, 2, 1)) - a_batch).max(axis=(1, 2))
    order = np.argsort(residuals)[:_FACTORIZATION_POLISH]

    def objective(flat: np.ndarray):
        m = flat.reshape(n, r)
        diff = m @ m.T - a
        grad = 4.0 * diff @ m
        return float(np.sum(diff * diff)), grad.ravel()

    best: np.ndarray | None = None
    best_residual = math.inf
    for i in order:
        if residuals[i] <= tol_abs:
            candidate = h[i]
        else:
            result = optimize.minimize(
                objective,
                h[i].ravel(),
                jac=True,
                method="L-BFGS-B",
                bounds=[(0.0, None)] * (n * r),
                options={"maxiter": 500, "ftol": 1e-18, "gtol": 1e-14},
            )
            candidate = result.x.reshape(n, r)
        candidate = np.maximum(candidate, 0.0)
        residual = float(np.abs(candidate @ candidate.T - a).max())
        if residual < best_residual:
            best_residual = residual
            best = candidate
        if best_residual <= tol_abs:
            break
    if best is not None and best_residual <= tol_abs:
        return best.T  # rows are factors: B'B = A with B = best.T
    return None


def is_completely_positive(a, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Decide membership of the completely positive cone (A = B'B, B >= 0).

    Ladder: negative entry or not PSD -> Outside with a dual copositive
    certificate; doubly nonnegative with n <= 4 -> Inside (exact equality of
    the cones in low dimension); rank one or nonnegative diagonally
    dominant -> Inside with an explicit factor; otherwise a factorization
    search, whose failure yields Unknown (the membership problem is NP-hard).
    """
    a, tol_abs = _prepare(a, tol)
    n = a.shape[0]
    negative = np.argwhere(a < -tol_abs)
    if negative.size:
        i, j = negative[0]
        certificate = np.zeros_like(a)
        certificate[i, j] = certificate[j, i] = 1.0
        return ConeVerdict(
            ConeStatus.OUTSIDE, CertificateKind.SUFFICIENT_RULE, witness=certificate
        )
    # One eigendecomposition serves the PSD step (is_psd's test, at the
    # tolerance of the symmetrized matrix) and the rank-one rule.
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    if eigenvalues[0] < -_absolute_tolerance(a, tol):
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
    if factor is not None:
        return ConeVerdict(
            ConeStatus.INSIDE, CertificateKind.SUFFICIENT_RULE, witness=factor
        )
    found = _factorization_search(a, max(tol_abs, 1e-10))
    if found is not None:
        return ConeVerdict(
            ConeStatus.INSIDE, CertificateKind.FACTORIZATION, witness=found
        )
    return ConeVerdict(ConeStatus.UNKNOWN)


def dual_pairing(a, b) -> float:
    """Trace inner product tr(A'B); nonnegative across the copositive/completely
    positive dual pair."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise UsageError(f"matrices must share a square shape, got {a.shape} and {b.shape}")
    return float(np.sum(a * b))
