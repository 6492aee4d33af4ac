"""Spans around the public functions of each lsemix layer, for the traced run.

``enable`` replaces each traced function, in every lsemix module that holds
it, by a wrapper that records a span: name, start, end, parent span and a
count.  Spans stay in memory until ``write``; ``per_layer`` derives the
per-layer metrics, where a layer's self time is its spans' duration minus the
part covered by their child spans.  ``disable`` puts the originals back.
Nothing inside lsemix's files is changed.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import tracemalloc

import numpy as np

ORDER_KINDS = ("st", "plst", "cx", "lcx", "ilcx", "icx", "iplcx", "dcx", "ccx", "sm", "uo", "cp", "cop")
VERIFIERS = ("st", "icx", "cx", "orthant")

#: (module, attribute, span name); an attribute "Class.method" wraps a method.
TRACED = (
    ("generators", "radial_profile_integral", "generators.profile_integral"),
    ("generators", "radial_second_moment", "generators.profile_integral"),
    ("generators", "assumption_profile", "generators.assumption_profile"),
    ("numerics", "build_inverse_cdf_table", "numerics.inverse_cdf_build"),
    ("distributions", "LseDistribution.__post_init__", "distributions.build"),
    ("distributions", "LseDistribution.moments", "distributions.moments"),
    ("distributions", "LseDistribution.sample", "distributions.sample"),
    ("distributions", "LseDistribution.pdf", "distributions.pdf"),
    ("distributions", "sample_coupled", "distributions.sample_coupled"),
    ("cones", "is_psd", "cones.psd"),
    ("cones", "is_copositive", "cones.copositive"),
    ("cones", "is_completely_positive", "cones.completely_positive"),
    ("orders", "check_order", "orders"),
    ("cli", "parse_scenario", "cli.parse"),
    ("cli", "run_check", "cli.run_check"),
) + tuple(
    ("mixing", f"{cls}.{method}", f"mixing.{method}")
    for cls in ("Degenerate", "BetaLambdaOne", "GeneralizedInverseGaussian", "DiscreteWeighted")
    for method in ("quadrature", "sample")
) + tuple(("empirical", f"verify_{v}", f"empirical.verify_{v}") for v in VERIFIERS)


class Tracer:
    """Spans of one traced run; starts disabled."""

    def __init__(self):
        #: (name, start, end, parent index or -1, count)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        #: (operation number, matrix bytes) of every copositivity test.
        self.copositive_inputs: set[tuple[int, bytes]] = set()
        #: Set by the caller before each operation.
        self.operation = 0
        self.scan_peak_bytes = 0
        self.patches = self._patches()

    def wrap(self, func, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_name, count = self._describe(name, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            memory = span_name.startswith("empirical.")
            if memory:
                tracemalloc.start()
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                if memory:
                    self.scan_peak_bytes = max(self.scan_peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                spans[index] = (span_name, start, end, parent, count)

        return traced

    def _describe(self, name: str, args, kwargs) -> tuple[str, int]:
        if name == "orders":
            order = args[2] if len(args) > 2 else kwargs["order"]
            return f"orders.{getattr(order, 'value', order)}", 1
        if name == "cones.copositive":
            self.copositive_inputs.add((self.operation, np.asarray(args[0], dtype=float).tobytes()))
        elif name in ("distributions.sample_coupled", "distributions.sample"):
            return name, int(args[-1] if len(args) >= 3 else kwargs["count"])
        return name, 1

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place that holds a
        traced function: its class, or each lsemix module that imported it."""
        modules = [m for key, m in sys.modules.items() if key == "lsemix" or key.startswith("lsemix.")]
        patches = []
        for module_name, attribute, name in TRACED:
            owner = sys.modules[f"lsemix.{module_name}"]
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            wrapped = self.wrap(original, name)
            if path:
                patches.append((owner, leaf, original, wrapped))
                continue
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        patches.append((module, key, original, wrapped))
        return patches

    def enable(self) -> None:
        for owner, key, _, wrapped in self.patches:
            setattr(owner, key, wrapped)

    def disable(self) -> None:
        for owner, key, original, _ in self.patches:
            setattr(owner, key, original)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def per_layer(self, rounds: int, verified_draws: float, import_s: float, overhead: float) -> dict:
        """Per-layer metrics per round of traced operations."""
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        for name, start, end, parent, count in self.spans:
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + count
            if parent >= 0:
                parent_name = self.spans[parent][0]
                own[parent_name] = own.get(parent_name, 0.0) - duration

        def self_s(*names):
            return sum(own.get(n, 0.0) for n in names) / rounds

        def calls_of(name):
            return calls.get(name, 0) / rounds

        # Distinct within one operation: a repeat inside one compare() is waste.
        copositive_calls = calls.get("cones.copositive", 0)
        metrics = {
            "import.lsemix_s": (import_s, "s"),
            "generators.profile_integral_calls": (calls_of("generators.profile_integral"), "count"),
            "generators.profile_integral_s": (self_s("generators.profile_integral"), "s"),
            "generators.assumption_profile_s": (self_s("generators.assumption_profile"), "s"),
            "mixing.quadrature_s": (self_s("mixing.quadrature"), "s"),
            "mixing.sample_s": (self_s("mixing.sample"), "s"),
            "numerics.inverse_cdf_builds": (calls_of("numerics.inverse_cdf_build"), "count"),
            "numerics.inverse_cdf_build_s": (self_s("numerics.inverse_cdf_build"), "s"),
            "distributions.builds": (calls_of("distributions.build"), "count"),
            "distributions.build_s": (self_s("distributions.build"), "s"),
            "distributions.moments_s": (self_s("distributions.moments"), "s"),
            "distributions.sample_s": (self_s("distributions.sample", "distributions.sample_coupled"), "s"),
            "distributions.pdf_s": (self_s("distributions.pdf"), "s"),
            "cones.psd_calls": (calls_of("cones.psd"), "count"),
            "cones.psd_s": (self_s("cones.psd"), "s"),
            "cones.copositive_calls": (calls_of("cones.copositive"), "count"),
            "cones.copositive_s": (self_s("cones.copositive"), "s"),
            "cones.copositive_distinct_share": (
                len(self.copositive_inputs) / copositive_calls if copositive_calls else 0.0, "ratio"),
            "cones.completely_positive_calls": (calls_of("cones.completely_positive"), "count"),
            "cones.completely_positive_s": (self_s("cones.completely_positive"), "s"),
        }
        for kind in ORDER_KINDS:
            metrics[f"orders.{kind}_s"] = (total.get(f"orders.{kind}", 0.0) / rounds, "s")
        for v in VERIFIERS:
            # verify_* minus its children: sample_coupled and the layers below it.
            metrics[f"empirical.verify_{v}_s"] = (self_s(f"empirical.verify_{v}"), "s")
        sampled = counts.get("distributions.sample_coupled", 0)
        metrics["empirical.sampled_per_verified_draw"] = (
            sampled / verified_draws if verified_draws else 0.0, "ratio")
        metrics["empirical.scan_peak_mib"] = (self.scan_peak_bytes / 2**20, "MiB")
        metrics["cli.parse_s"] = (self_s("cli.parse"), "s")
        metrics["cli.report_s"] = (self_s("cli.run_check"), "s")
        metrics["trace.overhead_share"] = (overhead, "ratio")
        return metrics
