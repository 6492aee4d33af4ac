"""Golden Monte Carlo output: the bytes ``lsemix check`` writes.

``golden_mc/chunk_C/`` holds the report and curve files of the four bundled
scenarios in ``scripts/scenarios`` with the scenario's ``mc`` block set to
``{"sample_count": 100000, "chunk_size": C}``, written by

    lsemix check --spec SCENARIO --out DIR --samples 100000 --seed 2021 --quiet

before the Monte Carlo chunks ran on worker threads.  At the default chunk
of 65 536 every scan has two chunks, the second one short; at 10 000 it has
ten, so adding the chunks' partial sums in any other order shows.

The bundled scenarios sample only normal and student radials with
degenerate, beta or discrete mixing, none of which goes through an
inverse-CDF table.  ``golden_mc/scenarios/`` adds six that do: GIG mixing
with the laplace, logistic and exponential-power radials at n = 1 (st, icx
and cx scans; one on an explicit non-uniform grid with repeated points) and
n = 2 (cx and orthant scans).  Their files were written the same way, while
the tables were still read through ``np.interp`` and the scan's bins through
``np.searchsorted``.

The files are never regenerated: a difference means a scan no longer adds
its chunks in chunk order, a table lookup or a bin moved, or a verdict
moved.
"""

import json
from pathlib import Path

import pytest

from lsemix.cli import main

HERE = Path(__file__).parent
SCENARIOS = HERE.parent / "scripts" / "scenarios"
GOLDEN = HERE / "golden_mc"
TABLE_SCENARIOS = GOLDEN / "scenarios"

#: exit status of each scenario: 2 when an order is refuted or a scan fails.
EXIT_STATUS = {
    "bivariate_dependence": 0,
    "copositive_gap": 2,
    "ghss_location_shift": 0,
    "survival_crossing": 2,
}
TABLE_EXIT_STATUS = {
    "exponential_power_gig_1d": 0,
    "exponential_power_gig_2d": 2,
    "laplace_gig_1d": 2,
    "laplace_gig_2d": 2,
    "logistic_gig_1d": 0,
    "logistic_gig_2d": 2,
}


def test_fixture_covers_the_bundled_scenarios():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(EXIT_STATUS)
    assert sorted(p.stem for p in TABLE_SCENARIOS.glob("*.json")) == sorted(TABLE_EXIT_STATUS)


@pytest.mark.parametrize("chunk_size", [65_536, 10_000])
@pytest.mark.parametrize("name", sorted(EXIT_STATUS) + sorted(TABLE_EXIT_STATUS))
def test_check_writes_the_golden_bytes(name, chunk_size, tmp_path):
    source = SCENARIOS if name in EXIT_STATUS else TABLE_SCENARIOS
    document = json.loads((source / f"{name}.json").read_text())
    document["mc"] = dict(document.get("mc") or {}, sample_count=100_000, chunk_size=chunk_size)
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(document))
    out = tmp_path / "out"
    status = main(["check", "--spec", str(spec), "--out", str(out),
                   "--samples", "100000", "--seed", "2021", "--quiet"])
    assert status == {**EXIT_STATUS, **TABLE_EXIT_STATUS}[name]
    golden = GOLDEN / f"chunk_{chunk_size}"
    expected = sorted(p.name for p in golden.glob(f"{name}.*"))
    assert sorted(p.name for p in out.iterdir()) == expected
    for file_name in expected:
        assert (out / file_name).read_bytes() == (golden / file_name).read_bytes(), file_name
