"""Acceptance gate: one test per release criterion.

Each test prints a `criterion N (<slug>): PASS` line once its assertions
hold, so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
Tolerances are stated inline next to the assertions they bound.
"""

from __future__ import annotations

import hashlib
import random

from stormctl.agents import OFFLINE_NODE, TriggerCause, replay_elementwise
from stormctl.cli import main
from stormctl.datasets import load_trace
from stormctl.growth import eval_ptr, fit_model, make_params
from stormctl.metrics import min_ipg
from stormctl.simulation import preset, run

from .oracles import first_elementwise_ticket, grid_fit_rmse, mp_eval


def test_criterion_1_ipg_exactness():
    # mandated gap per line rate, exact to half a nanosecond
    expected_ns = {10e6: 9600.0, 100e6: 960.0, 1e9: 96.0, 10e9: 9.6}
    for rate, gap in expected_ns.items():
        assert abs(min_ipg(rate) - gap) <= 0.5
    print("criterion 1 (ipg-exactness): PASS")


def test_criterion_2_growth_curve_fidelity():
    # 1000 seeded rising-curve draws against a 50-digit oracle
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(1000):
        ps = rng.uniform(0.0, 2e4)
        pe = rng.uniform(ps, 1.2e5)
        m = rng.uniform(0.025, 10.0)
        t = rng.uniform(0.0, 3.0)
        params = make_params(ps, pe, m)
        assert eval_ptr(params, 0.0) == 0.0
        got = eval_ptr(params, t)
        expected = mp_eval(ps, pe, m, t)
        if expected != 0:
            worst = max(worst, abs((got - float(expected))
                                   / float(expected)))
        else:
            assert got == 0.0
    assert worst <= 1e-9
    print(f"criterion 2 (growth-curve-fidelity): PASS "
          f"(worst rel err {worst:.3e})")


def test_criterion_3_fit_matches_grid_oracle():
    trace = load_trace("table3")
    first = fit_model(trace)
    again = fit_model(trace)
    assert again.params == first.params and again.rmse == first.rmse
    oracle = grid_fit_rmse(trace)
    gap = abs(first.rmse - oracle) / oracle
    assert gap <= 0.01
    print(f"criterion 3 (fit-vs-grid-oracle): PASS "
          f"(rmse {first.rmse:.1f} vs {oracle:.1f}, gap {gap:.4%})")


def test_criterion_4_byte_budget_clipping(table5_trace,
                                          table5_trace_unprotected):
    budget_mb = 2.5
    engaged = table5_trace.tickets[0].t
    mb = [r.stats.broadcast_bytes / 1e6 for r in table5_trace.records]
    violations = [r.t for r in table5_trace.records
                  if r.t >= engaged and r.stats.broadcast_bytes / 1e6
                  > budget_mb]
    assert violations == []                      # zero tolerance

    ticks_per_window = 4                         # 1000 ms wall / 250 ms tick
    for w in range(len(mb) // ticks_per_window):
        a, b, c, d = mb[w * 4:w * 4 + 4]
        assert a < b < c                         # ramp
        assert d == 0.0                          # clipped out, then reset

    worst_open = max(r.stats.broadcast_bytes / 1e6
                     for r in table5_trace_unprotected.records)
    assert worst_open > budget_mb
    print(f"criterion 4 (byte-budget-clipping): PASS "
          f"(controlled max {max(mb):.3f} MB, open max {worst_open:.3f} MB)")


def test_criterion_5_no_false_positives(normal_trace):
    reference = load_trace("table4")
    tickets, breaches = replay_elementwise(reference, reference)
    assert tickets == [] and breaches == []

    assert normal_trace.tickets == []            # bundled seed
    for seed in range(5):                        # 5% jitter, varied seeds
        trace = run(preset("normal", seed=seed))
        assert trace.tickets == []
        assert trace.triggers == []
    print("criterion 5 (no-false-positives): PASS")


def test_criterion_6_offline_rise_detection():
    data = load_trace("table1")
    reference = load_trace("table4")
    at_1ms = next(p.count for p in data if p.t == 1.0)
    ref_1ms = next(p.count for p in reference if p.t == 1.0)
    assert at_1ms == 16400.0 and ref_1ms == 14650.0
    assert (at_1ms - ref_1ms) / ref_1ms > 0.05   # ~11.9% apart

    tickets, _ = replay_elementwise(data, reference)
    assert len(tickets) == 1
    ticket = tickets[0]
    assert ticket.cause is TriggerCause.PTR_DEVIATION
    assert ticket.node == OFFLINE_NODE
    assert ticket.t <= 1.0

    idx, t = first_elementwise_ticket(data, reference)
    assert data[idx].t == t
    assert ticket.t == t                         # exact scan agreement
    print(f"criterion 6 (offline-rise-detection): PASS "
          f"(ticket at t={ticket.t} ms, scan index {idx})")


def test_criterion_7_storm_buildup(loop_trace_unprotected, smurf_trace):
    onset = loop_trace_unprotected.scenario.injectors[0].start_t
    saturated = next(r.t for r in loop_trace_unprotected.records
                     if r.classification.utilization > 0.60)
    assert saturated <= onset + 5.0

    # the loop's reused IPID qualifies under the default rule (3 sightings
    # within 100 ms) within the same 5 ms
    assert any(r.classification.ipid_loop for r in loop_trace_unprotected.records
               if r.t <= onset + 5.0)

    kinds = {}
    for record in smurf_trace.records:
        for kind, count in record.delivered_by_kind:
            kinds[kind] = kinds.get(kind, 0) + count
    fan_out = smurf_trace.scenario.node_count - 1
    assert kinds["reply"] == fan_out * kinds["spoof"]
    print(f"criterion 7 (storm-buildup): PASS "
          f"(saturated at t={saturated} ms, "
          f"{kinds['reply']}/{kinds['spoof']} replies per spoof exact)")


def test_criterion_8_checksum_determinism(tmp_path, capsys):
    artifacts = ("trace.csv", "tickets.jsonl", "summary.json")

    def digest(directory):
        return {name: hashlib.sha256((directory / name).read_bytes())
                .hexdigest() for name in artifacts}

    for scenario, seed_args in (("loop-storm", []),
                                ("normal", ["--seed", "123"])):
        first = tmp_path / f"{scenario}-a"
        second = tmp_path / f"{scenario}-b"
        for out in (first, second):
            main(["sim", "--scenario", scenario, *seed_args,
                  "--out", str(out)])
        capsys.readouterr()
        assert digest(first) == digest(second), scenario
    print("criterion 8 (checksum-determinism): PASS")


def test_criterion_9_frame_conservation(normal_trace, loop_trace,
                                        loop_trace_unprotected, smurf_trace,
                                        faulty_trace, table5_trace,
                                        table5_trace_unprotected):
    traces = (normal_trace, loop_trace, loop_trace_unprotected, smurf_trace,
              faulty_trace, table5_trace, table5_trace_unprotected)
    ticks = 0
    for trace in traces:
        for record in trace.records:
            led = record.ledger
            assert (led.generated + led.replicated - led.suppressed
                    - led.capped == led.delivered), (trace.scenario.name,
                                                     record.t)
            ticks += 1
    print(f"criterion 9 (frame-conservation): PASS ({ticks} ticks exact)")
