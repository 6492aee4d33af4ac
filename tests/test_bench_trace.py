"""The traced benchmark run (``bench/run.py --trace 1``) wraps every function
that ``bench/spans.py`` lists in ``TRACED``.  Each must still resolve in
lsemix, or a rename breaks the traced run; the tracer is built but never
enabled, so nothing is wrapped here."""

from __future__ import annotations

import sys
from pathlib import Path

import lsemix.cli  # noqa: F401  (the tracer looks up every lsemix module it names)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_yields_a_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()  # its _patches() looks up every TRACED name
    patched = {(id(owner), key) for owner, key, _, _ in tracer.patches}
    for module_name, attribute, _ in spans.TRACED:
        owner = sys.modules[f"lsemix.{module_name}"]
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert (id(owner), leaf) in patched, f"{module_name}.{attribute}"


def test_copositive_span_wraps_every_module_that_calls_it(monkeypatch):
    # cones.copositive_s reads 0 if orders reaches is_copositive under a
    # name the tracer does not wrap.
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    owners = {owner for owner, key, _, _ in spans.Tracer()._patches() if key == "is_copositive"}
    assert sys.modules["lsemix.cones"] in owners
    assert sys.modules["lsemix.orders"] in owners
