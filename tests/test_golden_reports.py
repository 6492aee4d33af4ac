"""Golden reports: every order's report on a frozen battery of pairs.

``golden_reports.json.gz`` holds 88 pairs as CLI scenario blocks
(``seed``, ``distribution_1``, ``distribution_2``) with the expected
``_order_node`` of all 13 orders for each.  The pairs are the decide
benchmark battery at seed 11 (n = 1, 2, 5, 8 and 10; six profiles, four
mixing laws, five maps, seven kinds of Sigma2 - Sigma1, and the three
cp-trap pairs) with the permuted and rescaled twin of every non-logistic
pair with 2 <= n <= 8.  The n = 2 logistic pair of that battery, which took
4 s per ``compare()`` when these fixtures were written, has its own fixture,
``golden_reports_logistic.json.gz``, in the same format.  The expected
reports of the first fixture were written by the engine before the order
checkers were turned into one clause table, those of the second by the
engine before the projection orders were computed as arrays; neither fixture
is ever regenerated: a difference is a change of verdict, status, clause or
probe.

The expected reports have been edited once, by hand-checked rule and not by
regeneration, when the projection orders came to be decided from the pair
alone: the ``necessary/projection-directions`` clause was dropped from every
plst, lcx, ilcx and iplcx report; sm's ``necessary/location-equal`` and
``necessary/shift-equal`` were replaced by ``necessary/mean-equal`` (with the
same value in every case); and where ``necessary/mean-equal`` was skipped for
the equality premise it now carries its value, which on 30 cases is False and
moves cx, lcx, ilcx, dcx, ccx, cp and cop from inconclusive to not_ordered.
Each edited report's necessary status and verdict were recomputed from its
clauses, and every other byte was carried over.
"""

import gzip
import json
from pathlib import Path

import pytest

from lsemix.cli import _json_safe, _order_node, parse_scenario
from lsemix.orders import compare

HERE = Path(__file__).parent


def _load(name: str) -> list[dict]:
    with gzip.open(HERE / name, "rt") as handle:
        return json.load(handle)


CASES = _load("golden_reports.json.gz")
LOGISTIC_CASES = _load("golden_reports_logistic.json.gz")


def test_fixture_covers_the_battery():
    assert len(CASES) == 88
    assert [case["label"] for case in LOGISTIC_CASES] == [
        "58:n2-nonneg-logistic-beta-location_mixture"]
    assert all(len(case["reports"]) == 13 for case in CASES + LOGISTIC_CASES)


@pytest.mark.parametrize(
    "case", CASES + LOGISTIC_CASES, ids=[case["label"] for case in CASES + LOGISTIC_CASES])
def test_reports_match_golden(case):
    spec = parse_scenario(json.dumps(case["scenario"]))
    reports = compare(spec.distribution_1, spec.distribution_2)
    got = {kind.value: _json_safe(_order_node(r)) for kind, r in reports.items()}
    assert got == case["reports"]
    for report in reports.values():
        for clause in report.clauses:
            if clause.tag.startswith("necessary/") and clause.passed is None:
                assert clause.skip is not None, clause
                assert clause.text.endswith(clause.skip.value), clause
