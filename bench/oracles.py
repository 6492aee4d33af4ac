"""Reference computations the benchmark checks lsemix against.

Nothing here imports lsemix.  Distributions are described by plain scenario
blocks, the same JSON layout ``lsemix check`` reads::

    {"mu": [...], "sigma": [[...]], "delta": [...],
     "generator": {"family": "student", "dof": 5},
     "map": {"preset": "skew_slash"},
     "mixing": {"kind": "gig", "lam": -0.5, "chi": 1.0, "tau": 1.0}}

* ``survival``, ``stop_loss``, ``stop_loss_second_moment`` and ``density``:
  closed-form conditional laws for the normal, student and cauchy profiles,
  with the mixing variable Z integrated by adaptive quadrature over its
  density (``scipy.integrate.quad_vec``) or summed over atoms.

``selfcheck()`` tests these and the copositivity oracle in ``simplex.py`` on
cases with known answers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

from simplex import HORN, copositivity_certificate, simplex_minimum

CLOSED_FORM_FAMILIES = ("normal", "student", "cauchy")

#: alpha(z) = z**a, beta(z) = z**b (None: beta is identically zero).
MAP_EXPONENTS = {
    "plain": (0.0, None),
    "mean_variance": (0.5, 1.0),
    "skew_slash": (-0.5, -1.0),
    "location_mixture": (0.0, 1.0),
    "scale_only": (0.5, None),
}

# --------------------------------------------------------------------------
# Mixing laws


def _gig_density(z, lam: float, chi: float, tau: float):
    if chi > 0.0 and tau > 0.0:
        omega = math.sqrt(chi * tau)
        log_c = 0.5 * lam * math.log(tau / chi) - math.log(2.0 * special.kv(lam, omega))
    elif chi == 0.0:
        log_c = lam * math.log(tau / 2.0) - math.lgamma(lam)
    else:
        log_c = -lam * math.log(chi / 2.0) - math.lgamma(-lam)
    return np.exp(log_c + (lam - 1.0) * np.log(z) - 0.5 * (chi / z + tau * z))


def mixing_expectation(mixing: dict, f):
    """E f(Z) for a vector-valued f of one positive scalar z."""
    kind = mixing["kind"]
    if kind == "degenerate":
        return np.asarray(f(float(mixing["z0"])), dtype=float)
    if kind == "discrete":
        return sum(w * np.asarray(f(float(z)), dtype=float) for z, w in mixing["atoms"])
    if kind == "beta_lambda_one":
        lam = float(mixing["lam"])

        def weighted(z):
            return lam * z ** (lam - 1.0) * np.asarray(f(z), dtype=float)

        lo, hi = 0.0, 1.0
    elif kind == "gig":
        lam, chi, tau = (float(mixing[k]) for k in ("lam", "chi", "tau"))

        def weighted(z):
            return _gig_density(z, lam, chi, tau) * np.asarray(f(z), dtype=float)

        lo, hi = 0.0, math.inf
    else:
        raise ValueError(f"unknown mixing kind {kind!r}")
    value, _ = integrate.quad_vec(weighted, lo, hi, epsabs=1e-14, epsrel=1e-11, norm="max")
    return value


def _maps(block: dict):
    a, b = MAP_EXPONENTS[block["map"]["preset"]]
    return (lambda z: z ** a), (lambda z: 0.0 if b is None else z ** b)


def _dof(block: dict) -> int:
    gen = block["generator"]
    if gen["family"] not in CLOSED_FORM_FAMILIES:
        raise ValueError(f"no closed form for the {gen['family']} profile")
    return {"normal": 0, "cauchy": 1}.get(gen["family"], gen.get("dof", 0))


def _delta(block: dict) -> np.ndarray:
    return np.asarray(block.get("delta", [0.0] * len(block["mu"])), dtype=float)


# --------------------------------------------------------------------------
# Univariate standard laws: X is N(0, 1) (m = 0) or t with m degrees of
# freedom (cauchy: m = 1).


def _sf(k, m: int):
    return stats.norm.sf(k) if m == 0 else stats.t.sf(k, m)


def _partial_first(k, m: int):
    """E (X - k)_+."""
    if m == 0:
        return stats.norm.pdf(k) - k * stats.norm.sf(k)
    if m <= 1:
        return np.full_like(k, math.inf)
    return (m + k * k) / (m - 1.0) * stats.t.pdf(k, m) - k * stats.t.sf(k, m)


def _partial_second(k, m: int):
    """E (X - k)_+^2."""
    if m == 0:
        return (1.0 + k * k) * stats.norm.sf(k) - k * stats.norm.pdf(k)
    if m <= 2:
        return np.full_like(k, math.inf)
    # E X^2 1{X > k} = m (m-1)/(m-2) S_{m-2}(k sqrt((m-2)/m)) - m S_m(k)
    upper = m * (m - 1.0) / (m - 2.0) * stats.t.sf(k * math.sqrt((m - 2.0) / m), m - 2) - m * stats.t.sf(k, m)
    first = (m + k * k) / (m - 1.0) * stats.t.pdf(k, m)
    return upper - 2.0 * k * first + k * k * stats.t.sf(k, m)


def _univariate(block: dict):
    if len(block["mu"]) != 1:
        raise ValueError("survival and stop-loss oracles are univariate")
    mu = float(block["mu"][0])
    scale = math.sqrt(float(block["sigma"][0][0]))
    delta = float(_delta(block)[0])
    alpha, beta = _maps(block)
    return mu, scale, delta, alpha, beta, _dof(block)


def survival(block: dict, t) -> np.ndarray:
    """P(Y > t) at each grid point."""
    mu, scale, delta, alpha, beta, m = _univariate(block)
    t = np.asarray(t, dtype=float)
    return mixing_expectation(
        block["mixing"], lambda z: _sf((t - mu - beta(z) * delta) / (alpha(z) * scale), m)
    )


def stop_loss(block: dict, t) -> np.ndarray:
    """E (Y - t)_+ at each grid point (inf without a mean)."""
    mu, scale, delta, alpha, beta, m = _univariate(block)
    t = np.asarray(t, dtype=float)

    def conditional(z):
        s = alpha(z) * scale
        return s * _partial_first((t - mu - beta(z) * delta) / s, m)

    return mixing_expectation(block["mixing"], conditional)


def stop_loss_second_moment(block: dict, t) -> np.ndarray:
    """E (Y - t)_+^2 at each grid point (inf without a variance)."""
    mu, scale, delta, alpha, beta, m = _univariate(block)
    t = np.asarray(t, dtype=float)

    def conditional(z):
        s = alpha(z) * scale
        return s * s * _partial_second((t - mu - beta(z) * delta) / s, m)

    return mixing_expectation(block["mixing"], conditional)


def density(block: dict, points) -> np.ndarray:
    """Mixture density at each row of ``points`` (shape (k, n))."""
    mu = np.asarray(block["mu"], dtype=float)
    sigma = np.asarray(block["sigma"], dtype=float)
    delta = _delta(block)
    alpha, beta = _maps(block)
    m = _dof(block)
    points = np.asarray(points, dtype=float).reshape(-1, mu.size)

    def conditional(z):
        loc = mu + beta(z) * delta
        shape = alpha(z) ** 2 * sigma
        if m == 0:
            law = stats.multivariate_normal(mean=loc, cov=shape)
        else:
            law = stats.multivariate_t(loc=loc, shape=shape, df=m)
        return np.atleast_1d(law.pdf(points))

    return mixing_expectation(block["mixing"], conditional)


# --------------------------------------------------------------------------
# Self-checks on known cases


def selfcheck() -> list[str]:
    """Problems found when the oracles are run on cases with known answers."""
    problems = []
    horn_min, _ = simplex_minimum(HORN)
    if abs(horn_min) > 1e-12 or copositivity_certificate(HORN) is not None:
        problems.append(f"Horn matrix: simplex minimum {horn_min!r}, expected 0")
    value, point = simplex_minimum(np.array([[1.0, -2.0], [-2.0, 1.0]]))
    if abs(value + 0.5) > 1e-12 or not np.allclose(point, [0.5, 0.5]):
        problems.append(f"[[1,-2],[-2,1]]: simplex minimum {value!r}, expected -0.5")

    normal = {
        "mu": [0.3], "sigma": [[2.25]], "delta": [0.0],
        "generator": {"family": "normal"}, "map": {"preset": "plain"},
        "mixing": {"kind": "degenerate", "z0": 1.0},
    }
    grid = np.linspace(-4.0, 5.0, 19)
    law = stats.norm(0.3, 1.5)
    if not np.allclose(survival(normal, grid), law.sf(grid), rtol=1e-12, atol=1e-15):
        problems.append("degenerate normal: survival differs from scipy.stats.norm")
    if not np.allclose(density(normal, grid[:, None]), law.pdf(grid), rtol=1e-12, atol=1e-15):
        problems.append("degenerate normal: density differs from scipy.stats.norm")

    # Stop-loss identities: E(Y-t)_+ = int_t^inf S, E(Y-t)_+^2 = 2 int_t^inf (y-t) S.
    student = dict(normal, generator={"family": "student", "dof": 5})
    t_law = stats.t(5, loc=0.3, scale=1.5)
    for block, sf in ((normal, law.sf), (student, t_law.sf)):
        for t in (-2.0, 0.4, 3.0):
            first = integrate.quad(sf, t, math.inf, epsabs=1e-13)[0]
            second = 2.0 * integrate.quad(lambda y: (y - t) * sf(y), t, math.inf, epsabs=1e-13)[0]
            if not math.isclose(float(stop_loss(block, [t])[0]), first, rel_tol=1e-8):
                problems.append(f"{block['generator']['family']}: stop-loss at {t} is off")
            if not math.isclose(float(stop_loss_second_moment(block, [t])[0]), second, rel_tol=1e-7):
                problems.append(f"{block['generator']['family']}: second stop-loss moment at {t} is off")

    # Mixing quadrature: E Z and E 1 for the continuous laws.
    for mixing, mean in (
        ({"kind": "beta_lambda_one", "lam": 3.0}, 0.75),
        ({"kind": "gig", "lam": 1.0, "chi": 0.0, "tau": 2.0}, 1.0),
    ):
        total, first = mixing_expectation(mixing, lambda z: np.array([1.0, z]))
        if abs(total - 1.0) > 1e-9 or abs(first - mean) > 1e-9:
            problems.append(f"{mixing['kind']}: quadrature moments {total}, {first}")
    return problems


if __name__ == "__main__":
    found = selfcheck()
    print("\n".join(found) if found else "oracle self-checks passed")
    raise SystemExit(1 if found else 0)
