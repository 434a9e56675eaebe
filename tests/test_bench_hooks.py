"""The traced benchmark's hooks still fit the package.

`perfbench/spans.py` wraps package functions by (owner, attribute), some
of them in the namespace of the module that calls them.  A rename or a
moved import would break only `perfbench/run.py --trace 1`; these tests
load that file by path, unchanged, so tier-1 fails instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from stormctl import simulation

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    spans = load_spans()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in spans.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


def test_traced_run_counts_the_ipid_scan():
    spans = load_spans()
    with spans.Tracer() as tracer:
        trace = simulation.run(simulation.preset("loop-storm"))
    assert any(tr.cause.value == "ipid_loop" for tr in trace.triggers)
    scan = tracer.layers["metrics.ipid_scan"]
    assert scan.calls > 0
    assert scan.amount >= scan.calls     # one window run per call at least
    assert tracer.layers["simulation.run"].calls == 1
