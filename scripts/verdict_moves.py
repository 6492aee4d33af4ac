#!/usr/bin/env python3
"""Verdict moves between two source trees of lsemix.

Runs ``compare()`` for all thirteen orders, in both orientations, on the
same pairs under each tree, one subprocess per tree, and prints how many
reports of each order moved from one verdict to another, then one line per
moved report.  The pairs are:

* ``decide``: the decide benchmark battery (``bench/workloads.py``) at each
  seed, twins included;
* ``metamorphic``: the random pairs of ``tests/test_metamorphic.py``
  (``random_battery_pair`` on ``default_rng(7)``);
* ``golden``: the pairs of ``tests/golden_reports*.json.gz``;
* ``scenario``: the bundled scenarios in ``scripts/scenarios``.

Each tree is imported from its own ``src``, ``bench`` and ``tests``.

Example:
    python scripts/verdict_moves.py ../parent . --seeds 11-19
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import subprocess
import sys

VERDICTS = ("ordered", "not_ordered", "inconclusive")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _pairs(tree: str, seeds: list[int], pair_count: int):
    """(set, label, d1, d2) for every pair, built by the tree's own code."""
    import gzip
    from pathlib import Path

    import numpy as np
    from test_acceptance import random_battery_pair
    from workloads import Decide

    from lsemix.cli import parse_scenario

    for seed in seeds:
        for op in Decide(seed, None).ops:
            yield "decide", f"{seed}/{op.label}", op.d1, op.d2
            if op.variant is not None:
                yield "decide", f"{seed}/{op.label} twin", *op.variant
    rng = np.random.default_rng(7)
    for i in range(pair_count):
        yield "metamorphic", str(i), *random_battery_pair(rng)
    root = Path(tree)
    for path in sorted((root / "tests").glob("golden_reports*.json.gz")):
        with gzip.open(path, "rt") as handle:
            for case in json.load(handle):
                spec = parse_scenario(json.dumps(case["scenario"]))
                yield "golden", case["label"], spec.distribution_1, spec.distribution_2
    for path in sorted((root / "scripts" / "scenarios").glob("*.json")):
        spec = parse_scenario(path.read_text())
        yield "scenario", path.stem, spec.distribution_1, spec.distribution_2


def dump(tree: str, seeds: list[int], pair_count: int) -> dict[str, str]:
    """'set label orientation order' -> verdict, on the tree's code."""
    for sub in ("bench", "tests", "src"):
        sys.path.insert(0, os.path.join(tree, sub))
    from lsemix.orders import compare

    out = {}
    for kind, label, d1, d2 in _pairs(tree, seeds, pair_count):
        for orientation, (a, b) in (("forward", (d1, d2)), ("reverse", (d2, d1))):
            for order, report in compare(a, b).items():
                out[f"{kind} {label} {orientation} {order.value}"] = report.verdict.value
    return out


def verdicts_of(tree: str, seeds: str, pair_count: int) -> dict[str, str]:
    """dump() of ``tree``, run in a subprocess of its own."""
    command = [sys.executable, os.path.abspath(__file__), "--dump", tree,
               "--seeds", seeds, "--pairs", str(pair_count)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
    return json.loads(result.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", nargs="?", help="source tree before the change")
    parser.add_argument("new", nargs="?", help="source tree after the change")
    parser.add_argument("--seeds", default="11-19", help="decide seeds, N or N-M (default 11-19)")
    parser.add_argument("--pairs", type=int, default=300, help="metamorphic pairs (default 300)")
    parser.add_argument("--dump", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        json.dump(dump(os.path.abspath(args.dump), _seeds(args.seeds), args.pairs), sys.stdout)
        return 0
    if not (args.old and args.new):
        parser.error("give the two source trees")
    old, new = (verdicts_of(os.path.abspath(tree), args.seeds, args.pairs)
                for tree in (args.old, args.new))
    if old.keys() != new.keys():
        print(f"the trees compare different reports: {len(old)} vs {len(new)}")
        return 1
    moved = sorted(key for key in old if old[key] != new[key])
    counts = collections.Counter((key.rsplit(" ", 1)[1], old[key], new[key]) for key in moved)
    print(f"{len(old)} reports, {len(moved)} moved")
    for (order, before, after), count in sorted(counts.items()):
        print(f"{order:6} {before:>12} -> {after:<12} {count}")
    for key in moved:
        print(f"{key}: {old[key]} -> {new[key]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
