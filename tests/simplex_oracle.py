"""Exact minimum of x'Ax over the probability simplex, for the cone tests.

Written apart from ``lsemix.cones`` and by a different method: each face S
is handled on its own through the eigendecomposition of the principal
submatrix A_S, with no bordered system.  A minimiser of minimal support with
value m != 0 solves A_S y = 1 (y = x_S / m) on a face where A_S is
nonsingular; one with value 0 is a null vector of A_S of one sign.  Every
face therefore contributes the solution of A_S y = 1 when A_S is invertible
and its near-null eigenvectors, each rescaled onto the simplex when it has
one sign, and the quadratic form is evaluated at every such point.  Extra
candidates cost nothing but time: the result is always a value the form
attains.
"""

import itertools
import math

import numpy as np

#: Relative size below which an eigenvalue of A_S counts as zero.
NULL_TOL = 1e-8


def simplex_minimum(a) -> tuple[float, np.ndarray]:
    """min x'Ax over {x >= 0, sum x = 1} and a point attaining it (n <= 10)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    assert n <= 10, "face enumeration is meant for n <= 10"
    best_value, best_point = math.inf, None
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            idx = list(support)
            w, q = np.linalg.eigh(a[np.ix_(idx, idx)])
            largest = float(np.abs(w).max())
            candidates = [q[:, i] for i in range(size) if abs(w[i]) <= NULL_TOL * largest]
            if np.all(w != 0.0):
                candidates.append(q @ (q.sum(axis=0) / w))
            for y in candidates:
                total = float(y.sum())
                if total == 0.0 or np.any(y / total < 0.0):
                    continue
                x = np.zeros(n)
                x[idx] = y / total
                value = float(x @ a @ x)
                if value < best_value:
                    best_value, best_point = value, x
    return best_value, best_point


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


#: Trials of the cp-trap recipe below whose matrices a search-based
#: copositivity test called copositive, with their dimensions.
TRAP_TRIALS = {31: 8, 123: 10, 228: 9}


def cp_trap_matrices() -> list[np.ndarray]:
    """Matrices whose simplex minimum is exactly -1e-7 max|a_ij|.

    From a default_rng(1) stream, each trial draws n uniform in 6..10 and
    a = sym(N(0,1)) + U(0,20) sym(|Cauchy|); the kept trials shift a by
    -(m + 1e-7 max|a|) J, with m the simplex minimum of a.  Since x'Jx = 1 on
    the simplex, the shifted matrix is not copositive, by about 100 times the
    default tolerance.
    """
    rng = np.random.default_rng(1)
    found = []
    for trial in range(max(TRAP_TRIALS) + 1):
        n = int(rng.integers(6, 11))
        a = _sym(rng.standard_normal((n, n))) + rng.uniform(0.0, 20.0) * _sym(
            np.abs(rng.standard_cauchy((n, n)))
        )
        if trial in TRAP_TRIALS:
            assert n == TRAP_TRIALS[trial], (trial, n)
            m, _ = simplex_minimum(a)
            found.append(a - (m + 1e-7 * float(np.abs(a).max())) * np.ones((n, n)))
    return found
