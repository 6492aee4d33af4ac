#!/usr/bin/env python3
"""Interleaved A/B timing of two lsemix source trees in one process.

    python scripts/ab.py ../parent . --workload decide --seed 31002 --rounds 200

Builds the workload with each tree's own src and bench, checks that the trees
give every operation the same output signature, then times rounds of every
operation on each, alternating which goes first.  Prints each tree's median
operation time, the per-round change/parent ratio with its q10 and q90, the
number of rounds in which the change was faster and, for decide, the median
ratio for each dimension n (read from the operation labels, "...n5-...").
"""

import argparse
import re
import statistics
import sys
import time
from pathlib import Path

OWN = {"lsemix"}  # and, once main() has read the trees, every module of their bench/


def _swap(modules: dict) -> dict:
    """Install ``modules`` as the tree's lsemix and bench modules; return the ones replaced."""
    own = {name: module for name, module in sys.modules.items() if name.split(".")[0] in OWN}
    for name in own:
        del sys.modules[name]
    sys.modules.update(modules)
    return own


def run(workload, modules: dict, op, timed: bool = False):
    """One operation on one tree: its wall time, or its output's signature."""
    _swap(modules)  # for imports made while running
    start = time.perf_counter()
    output = workload.run(op)
    return time.perf_counter() - start if timed else workload.signature(output)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE", help="the parent and the changed tree")
    parser.add_argument("--workload", choices=("decide", "density"), default="decide")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=100)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    OWN.update(path.stem for tree in args.trees for path in Path(tree, "bench").glob("*.py"))
    saved = _swap({})
    try:
        sides = []
        for tree in (Path(t).resolve() for t in args.trees):  # each from its own src and bench
            sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
            import workloads
            built = workloads.WORKLOADS[args.workload](args.seed, None)
            built.warm()
            sides.append((built, _swap({})))
            del sys.path[:2]
        pairs = list(zip(sides[0][0].ops, sides[1][0].ops, strict=True))
        differ = [a.label for a, b in pairs if run(*sides[0], a) != run(*sides[1], b)]
        times = ([], [])  # by tree, by round: each operation's wall time
        for r in range(args.rounds if not differ else 0):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                times[i].append([run(*sides[i], ops[i], True) for ops in pairs])
    finally:
        _swap(saved)
    if differ:
        print(f"outputs differ on {', '.join(differ)}")
        return 1

    def ratios(ops) -> list[float]:
        """Per round, change/parent of the median time of these operations."""
        return [statistics.median(c[j] for j in ops) / statistics.median(p[j] for j in ops)
                for p, c in zip(*times)]

    every = ratios(range(len(pairs)))
    q = statistics.quantiles(every, n=10) if len(every) > 1 else every * 9
    parent, change = (1000.0 * statistics.median(statistics.median(r) for r in t) for t in times)
    print(f"{args.workload} seed {args.seed}, {len(pairs)} operations, {args.rounds} rounds: "
          f"median operation {parent:.4f} ms (parent), {change:.4f} ms (change)")
    print(f"change/parent per round: median {q[4]:.4f} (q10 {q[0]:.4f}, q90 {q[8]:.4f})")
    print(f"change faster in {sum(r < 1.0 for r in every)} of {len(every)} rounds")
    if args.workload == "decide":
        by_n = {}
        for j, (op, _) in enumerate(pairs):
            by_n.setdefault(int(re.search(r"(?:^|:)n(\d+)-", op.label)[1]), []).append(j)
        print("median change/parent by dimension: " + ", ".join(
            f"n{n} {statistics.median(ratios(ops)):.4f} ({len(ops)} ops)"
            for n, ops in sorted(by_n.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
