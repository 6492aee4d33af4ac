"""Metamorphic tests: verdicts under the symmetries the theory guarantees.

The pairs are acceptance 6's ``random_battery_pair`` stream
(``default_rng(7)``, 300 pairs, n <= 3).  ``RELATIONS`` lists the maps that
must leave every verdict unchanged when applied to both laws of a pair: each
is a map Y -> diag(s) P Y + t with a permutation P, a positive diagonal s
and a constant vector t, and every order here is preserved by such a common
change of units, order of coordinates and origin (Shaked & Shanthikumar
2007, ch. 3, 6 and 7).  Reflexivity and the implications between orders
(``IMPLIES``: the benchmark's ``LATTICE`` plus cx => icx, st => uo and
sm => dcx) are checked on the same pairs, in both orientations.

Two relations take the sound form of a symmetry that no verdict may break.
Reparametrization: a law against itself under another (mu, delta) is no
refutation, for the two classes of such pairs in the family (degenerate
mixing, and a constant alpha with beta(Z) symmetric).  Antisymmetry: st and
cx are partial orders, so a pair that one of them reads ordered both ways
is one law, and no order may read it not_ordered either way.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import random_battery_pair

from lsemix.distributions import LseDistribution
from lsemix.mixing import AlphaBetaMap, BetaLambdaOne, Degenerate, DiscreteWeighted
from lsemix.orders import OrderKind, Verdict, compare

BENCH = Path(__file__).resolve().parent.parent / "bench"
PAIR_COUNT = 300


def _bench_lattice() -> dict[str, tuple[str, ...]]:
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import LATTICE
    finally:
        sys.path.remove(str(BENCH))
    return LATTICE


#: Relation -> (permutation, diagonal, translation) for a pair of dimension n
#: and that pair's own stream.
RELATIONS = {
    "units 1e-4": lambda n, rng: (np.arange(n), np.full(n, 1e-4), 0.0),
    "units 1e4": lambda n, rng: (np.arange(n), np.full(n, 1e4), 0.0),
    "translation -1e6": lambda n, rng: (np.arange(n), np.ones(n), -1e6),
    "translation +1e8": lambda n, rng: (np.arange(n), np.ones(n), 1e8),
    "permutation and rescaling": lambda n, rng: (rng.permutation(n), rng.uniform(0.5, 2.0, n), 0.0),
}

#: Order -> orders it implies.
IMPLIES = {parent: set(implied) for parent, implied in _bench_lattice().items()}
for _parent, _implied in (("cx", "icx"), ("st", "uo"), ("sm", "dcx")):
    IMPLIES.setdefault(_parent, set()).add(_implied)


#: Mixing laws under which beta(Z) = Z is symmetric about c, with c.
SYMMETRIC = ((BetaLambdaOne(1.0), 0.5), (DiscreteWeighted(((1.0, 0.5), (3.0, 0.5))), 2.0))


def reparametrized(d: LseDistribution, t: np.ndarray, i: int):
    """Per class, one law built from d's parameters and the same law under
    another (mu, delta).  Degenerate mixing at z0 = 1 with d's map:
    (mu, delta) and (mu + beta(z0) t, delta - t).  The location-mixture map
    (alpha = 1, beta = z) with a symmetric law, alternating with i:
    (mu, delta) and (mu + 2c delta, -delta)."""
    def law(mu, delta, ab, mixing):
        return LseDistribution(mu, d.sigma, delta, d.generator, ab, mixing)

    b = float(d.ab_map.beta(1.0))
    yield "degenerate", (law(d.mu, d.delta, d.ab_map, Degenerate(1.0)),
                         law(d.mu + b * t, d.delta - t, d.ab_map, Degenerate(1.0)))
    mixing, c = SYMMETRIC[i % 2]
    ab = AlphaBetaMap.location_mixture()
    yield "reflection", (law(d.mu, d.delta, ab, mixing),
                         law(d.mu + 2.0 * c * d.delta, -d.delta, ab, mixing))


def image(d: LseDistribution, perm, scale, shift) -> LseDistribution:
    """The law of diag(scale) P Y + shift."""
    return LseDistribution(scale * d.mu[perm] + shift,
                           np.outer(scale, scale) * d.sigma[np.ix_(perm, perm)],
                           scale * d.delta[perm], d.generator, d.ab_map, d.mixing)


def verdicts(d1, d2) -> dict[str, Verdict]:
    return {kind.value: report.verdict for kind, report in compare(d1, d2).items()}


@pytest.fixture(scope="module")
def battery():
    """(d1, d2, verdicts of (d1, d2), verdicts of (d2, d1)) per pair."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(PAIR_COUNT):
        d1, d2 = random_battery_pair(rng)
        out.append((d1, d2, verdicts(d1, d2), verdicts(d2, d1)))
    return out


@pytest.mark.parametrize("relation", RELATIONS)
def test_verdicts_invariant_under(battery, relation):
    moved = []
    for i, (d1, d2, before, _) in enumerate(battery):
        mapping = RELATIONS[relation](d1.dim, np.random.default_rng([7, i]))
        after = verdicts(image(d1, *mapping), image(d2, *mapping))
        moved += [(i, order, before[order].value, after[order].value)
                  for order in before if after[order] is not before[order]]
    assert not moved, moved


def test_reflexivity(battery):
    unordered = [(i, order) for i, (d1, *_) in enumerate(battery)
                 for order, verdict in verdicts(d1, d1).items() if verdict is not Verdict.ORDERED]
    assert not unordered, unordered


def test_implications_in_both_orientations(battery):
    assert set(IMPLIES) | set().union(*IMPLIES.values()) <= {kind.value for kind in OrderKind}
    broken = []
    for i, (_, _, forward, reverse) in enumerate(battery):
        for orientation, found in (("forward", forward), ("reverse", reverse)):
            broken += [(i, orientation, parent, order, found[order].value)
                       for parent, implied in IMPLIES.items()
                       if found[parent] is Verdict.ORDERED
                       for order in sorted(implied) if found[order] is not Verdict.ORDERED]
    assert not broken, broken


def test_no_order_refutes_a_reparametrized_law(battery):
    refuted = []
    for i, (d1, *_) in enumerate(battery):
        t = np.random.default_rng([26, i]).normal(size=d1.dim)
        for name, pair in reparametrized(d1, t, i):
            for orientation, (a, b) in (("forward", pair), ("reverse", pair[::-1])):
                refuted += [(i, name, orientation, order)
                            for order, verdict in verdicts(a, b).items()
                            if verdict is Verdict.NOT_ORDERED]
    assert not refuted, refuted


def test_antisymmetry(battery):
    equal = [i for i, (_, _, forward, reverse) in enumerate(battery)
             if any(forward[o] is reverse[o] is Verdict.ORDERED for o in ("st", "cx"))]
    assert equal
    refuted = [(i, order) for i in equal for order, verdict in battery[i][2].items()
               if Verdict.NOT_ORDERED in (verdict, battery[i][3][order])]
    assert not refuted, refuted
