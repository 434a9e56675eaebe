"""The benchmark's workloads and traced hooks still fit the package.

`perfbench/spans.py` wraps package functions by (owner, attribute), some
of them in the namespace of the module that calls them, and
`perfbench/workloads.py` builds and runs every workload through the
package's public calls.  A rename, a moved import or a changed signature
would break only `perfbench/run.py`; these tests load those files by
path, unchanged, so tier-1 fails instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from stormctl import simulation
from stormctl.agents import AgentConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    spans = load("spans")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in spans.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


def test_traced_run_counts_the_ipid_scan():
    spans = load("spans")
    with spans.Tracer() as tracer:
        trace = simulation.run(simulation.preset("loop-storm"))
    assert any(tr.cause.value == "ipid_loop" for tr in trace.triggers)
    scan = tracer.layers["metrics.ipid_scan"]
    assert scan.calls > 0
    assert scan.amount >= scan.calls     # one window run per call at least
    assert tracer.layers["simulation.run"].calls == 1


def test_simulator_workloads_pass_their_checks(tmp_path):
    workloads, checks = load("workloads"), load("checks")
    problems = {}
    for workload in workloads.SIM_WORKLOADS:
        out = tmp_path / workload
        out.mkdir()
        sc = workloads.scenario(workload, SEED)
        workloads.calibrated_fleet(sc)      # the setup the benchmark times
        _, trace = workloads.sim_pass(sc, out)
        problems[workload] = checks.check_sim(workload, sc, trace, out)
    assert problems == {w: [] for w in workloads.SIM_WORKLOADS}


def test_offline_captures_pass_their_checks(tmp_path):
    workloads, checks = load("workloads"), load("checks")
    caps = workloads.captures(SEED)[:20]
    ref = workloads.reference()
    _, results = workloads.offline_pass(caps, ref, tmp_path)
    config = AgentConfig()
    problems = [problem for cap, result in zip(caps, results)
                for problem in checks.check_capture(
                    cap, result, ref, config.deviation_threshold,
                    config.consecutive_required)]
    assert len(results) == 20
    assert problems == []
