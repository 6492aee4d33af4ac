"""Exact copositivity for small matrices, written apart from lsemix.

``simplex_minimum`` gives the minimum of x'Ax over the simplex by
enumerating KKT supports (n <= 10); ``copositivity_certificate`` turns a
negative minimum into a point that proves a matrix is not copositive.  Only
numpy is used, so the decide workload can build its inputs with it without
importing scipy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

HORN = np.array(
    [
        [1.0, -1.0, 1.0, 1.0, -1.0],
        [-1.0, 1.0, -1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0, -1.0, 1.0],
        [1.0, 1.0, -1.0, 1.0, -1.0],
        [-1.0, 1.0, 1.0, -1.0, 1.0],
    ]
)


def simplex_minimum(a) -> tuple[float, np.ndarray]:
    """min x'Ax over {x >= 0, sum x = 1} and a point attaining it.

    A minimiser with support S solves A_S x_S = m 1.  Where m < 0 some
    minimiser sits on a face whose principal submatrix is nonsingular (a null
    direction orthogonal to 1 moves along the face without changing the
    value until a coordinate reaches zero), so solving A_S y = 1 on every
    nonsingular face and keeping y / sum(y) when it is a simplex point finds
    the exact minimum whenever it is negative.  A zero minimum can sit on a
    singular face only, as a null vector of A_S of one sign, so singular
    faces contribute their one-signed null vectors.  Each candidate is
    evaluated as a point, so the returned value is always attained.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n > 10:
        raise ValueError("support enumeration is limited to n <= 10")
    best_value = math.inf
    best_point = np.full(n, 1.0 / n)
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            idx = list(support)
            u, s, vt = np.linalg.svd(a[np.ix_(idx, idx)])
            singular = s <= 1e-12 * max(s[0], 1e-300)
            if singular.any():
                candidates = vt[singular]
            else:
                candidates = [vt.T @ ((u.T @ np.ones(size)) / s)]
            for y in candidates:
                total = float(y.sum())
                if total == 0.0 or not np.all(y / total >= 0.0):
                    continue
                x = np.zeros(n)
                x[idx] = y / total
                value = float(x @ a @ x)
                if value < best_value:
                    best_value, best_point = value, x
    return best_value, best_point


def copositivity_certificate(a, tol: float = 1e-9) -> np.ndarray | None:
    """A simplex point x with x'Ax < -tol * max(1, max|a_ij|), or None."""
    a = np.asarray(a, dtype=float)
    a = 0.5 * (a + a.T)
    tol_abs = tol * max(1.0, float(np.abs(a).max()))
    value, point = simplex_minimum(a)
    return point if value < -tol_abs else None
