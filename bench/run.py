"""lsemix benchmark: one workload per process, one operation at a time.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and README.md): ``decide`` runs compare() over all
13 orders on a seeded battery of pairs, ``verify`` runs ``lsemix check`` at
10^6 draws per scenario, ``density`` runs LseDistribution.pdf on fixed-size
batches.  The run first times SETUP_REPEATS fresh interpreters that import
lsemix from ``src/`` and build the workload's inputs, then builds them once
more itself and repeats whole rounds of the operations until ``--seconds``
have passed, checking every output (the first round's checks do not count
towards ``--seconds``).  Times are scaled to a reference
machine speed sampled between operations (see Calibration); the wall-clock
figures are printed too.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` runs one plain round, then rounds in which
every operation runs once without and once with spans around the public
functions of each lsemix layer (spans.py); it reports per-layer metrics per
traced round and the tracing overhead, and writes the spans to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("decide", "verify", "density")

#: Median of the fastest calibration unit per slice on the reference machine
#: (the 2-CPU sandbox the benchmark was written on: Python 3.11, numpy 2.4).
CALIBRATION_REFERENCE_S = 0.0005
#: A slice of this many calibration units runs between operations whenever
#: this much time has passed since the last slice.
CALIBRATION_UNITS = 4
CALIBRATION_EVERY_S = 0.25


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, scratch: str):
    """Import lsemix from the checkout and build the workload's inputs."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import lsemix

    import_s = time.perf_counter() - start
    if not os.path.abspath(lsemix.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported lsemix from {lsemix.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    workload.warm()
    return workload, import_s


def timed_setups(args, calibration: Calibration) -> list[float]:
    """Wall time of fresh interpreters that only set up, with calibration
    slices before, between and after them."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        calibration.measure()
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    calibration.measure()
    return times


class Calibration:
    """Machine speed, sampled between operations.

    The CPUs of a shared machine change speed by up to a half within minutes
    as other tenants come and go.  A slice times a fixed unit of small LAPACK
    calls, vector arithmetic and interpreter loops a few times, with the
    garbage collector paused and on data that stays in cache, and keeps the
    fastest: it measures the machine, not the state the workload left.
    Reported times are scaled by CALIBRATION_REFERENCE_S / (median slice), so
    they read as times on the reference machine, and a slow or fast spell
    moves the slices and the operations alike.
    """

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((8, 8))
        self._matrix = a + a.T
        self._vector = np.linspace(0.0, 1.0, 2048)
        self.slices: list[float] = []
        self._last = time.perf_counter()

    def _unit(self) -> float:
        import numpy as np

        total = 0.0
        for i in range(20):
            total += float(np.linalg.eigvalsh(self._matrix)[0])
            total += float(np.exp(-self._vector * (1.0 + i)).sum())
            for j in range(100):
                total += j * 1e-3
        return total

    def measure(self) -> None:
        times = []
        gc.disable()
        try:
            for _ in range(CALIBRATION_UNITS):
                start = time.perf_counter()
                self._unit()
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self.slices.append(min(times))
        self._last = time.perf_counter()

    def measure_if_due(self) -> None:
        """One slice per CALIBRATION_EVERY_S since the last one, up to 8, so
        that long operations are covered as densely as short ones."""
        due = int((time.perf_counter() - self._last) / CALIBRATION_EVERY_S)
        for _ in range(min(due, 8)):
            self.measure()

    def factor(self) -> float:
        """Reference speed over measured speed: multiply a time by it."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.slices)


class Rounds:
    """Runs whole rounds of a workload's operations and checks the outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.calibration = Calibration()
        #: First-round (signature, failed) per operation index.
        self.first: dict[int, tuple[object, bool]] = {}
        self.times: list[float] = []
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Time spent checking first-round outputs, which ``until`` leaves
        #: out of the run length.
        self.check_s = 0.0
        #: Time of the operations run untraced and traced in traced rounds,
        #: and the work done traced.
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.traced_work = 0.0

    def run_round(self, tracer=None) -> None:
        """One pass over the operations.  With a tracer each operation runs
        twice, untraced and then traced, so that the two timings share the
        machine's state and their ratio gives the tracing overhead."""
        for index, op in enumerate(self.workload.ops):
            if tracer is None:
                self._execute(index, op)
                continue
            tracer.disable()
            self.untraced_s += self._execute(index, op)
            tracer.operation += 1
            work = self.work
            tracer.enable()
            self.traced_s += self._execute(index, op)
            tracer.disable()
            self.traced_work += self.work - work

    def _execute(self, index: int, op) -> float:
        workload = self.workload
        self.attempted += 1
        try:
            start = time.perf_counter()
            raw = workload.run(op)
            elapsed = time.perf_counter() - start
            output = workload.collect(op, raw)
        except Exception as exc:  # a crash is a wrong output, not a stop
            self.failed += 1
            self.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return 0.0
        signature = workload.signature(output)
        if index in self.first:
            expected, failed = self.first[index]
            if signature != expected:
                self.problems.append(f"{op.label}: output differs from the first round")
        else:
            start = time.perf_counter()
            checked = workload.check(op, output)
            self.check_s += time.perf_counter() - start
            failed = checked.failed
            self.problems += checked.problems
            self.first[index] = (signature, failed)
        self.failed += failed
        self.times.append(elapsed)
        self.work += workload.work(op, output)
        self.calibration.measure_if_due()
        return elapsed

    def until(self, seconds: float, tracer=None) -> int:
        """Whole rounds until ``seconds`` have passed, not counting the
        first round's checks; returns the count."""
        start, checks = time.perf_counter(), self.check_s
        count = 0
        while True:
            self.run_round(tracer)
            count += 1
            if time.perf_counter() - start - (self.check_s - checks) >= seconds:
                return count


def measure(args, workload, setup_times, setup_factor):
    rounds = Rounds(workload)
    rounds.until(args.seconds)
    factor = rounds.calibration.factor()
    raw = {
        "setup_s": statistics.median(setup_times),
        "work_per_s": rounds.work / sum(rounds.times),
        "op_p50_ms": 1000.0 * statistics.median(rounds.times),
    }
    print(f"wall clock: setup_s {raw['setup_s']:.4g} s, work_per_s {raw['work_per_s']:.6g} 1/s, "
          f"op_p50_ms {raw['op_p50_ms']:.6g} ms; speed factor {setup_factor:.4f} in set-up, "
          f"{factor:.4f} in the rounds ({len(rounds.calibration.slices)} calibration slices)")
    metrics = {
        "setup_s": (raw["setup_s"] * setup_factor, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "work_per_s": (raw["work_per_s"] / factor, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * factor, "ms"),
    }
    return rounds, metrics


def measure_traced(args, workload, import_s):
    import spans

    rounds = Rounds(workload)
    rounds.run_round()  # checks every output before tracing starts
    tracer = spans.Tracer()
    traced = rounds.until(args.seconds, tracer)
    verified = rounds.traced_work if workload.name == "verify" else 0.0
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{workload.name}-{args.seed}.jsonl.gz"))
    metrics = tracer.per_layer(traced, verified, import_s, rounds.traced_s / rounds.untraced_s - 1.0)
    return rounds, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lsemix", "__init__.py")):
        print(f"error: no lsemix sources under {SRC}", file=sys.stderr)
        return 2
    scratch = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_only:
            set_up(args, scratch)
            return 0
        if args.trace:
            # Nothing is imported before lsemix, so import.lsemix_s is whole.
            workload, import_s = set_up(args, scratch)
        else:
            setup_calibration = Calibration()
            setup_times = timed_setups(args, setup_calibration)
            workload, _ = set_up(args, scratch)
        import oracles

        problems = [f"oracle self-check: {p}" for p in oracles.selfcheck()]
        if args.trace:
            rounds, metrics = measure_traced(args, workload, import_s)
        else:
            rounds, metrics = measure(args, workload, setup_times, setup_calibration.factor())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems += rounds.problems
    for problem in problems:
        print(f"WRONG {problem}")
    print(f"{workload.name}: {rounds.attempted} operations, {rounds.failed} failed, "
          f"{rounds.work:.0f} {workload.work_unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
