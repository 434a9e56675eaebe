"""Seeded inputs for the four benchmark workloads, and one timed pass of each.

Every builder returns fresh objects on each call: calibration writes `pe`
and `ipg_floor_ns` into the `ThresholdDb` it is given, so a config must
never be shared between runs.  The same seed always yields the same
inputs.
"""

from __future__ import annotations

import random
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from stormctl import agents, datasets, growth, simulation, tracefile

SIM_WORKLOADS = ("wide-domain-loop", "saturated-10g", "sparse-policing")
WORKLOADS = SIM_WORKLOADS + ("offline-fit",)

STEPS_PER_MS = 100          # the simulator's 0.01 ms internal step
CAPTURES_PER_PASS = 200     # offline-fit: captures fitted per pass
CAPTURE_STEP_MS = 0.1       # sample spacing of a synthetic capture
CAPTURE_NOISE = 0.03        # bounded multiplicative noise, +/-3%


def _step_time(rng: random.Random, lo_ms: float, hi_ms: float) -> float:
    """A seeded time in [lo_ms, hi_ms) that falls on a simulator step."""
    return rng.randrange(round(lo_ms * STEPS_PER_MS),
                         round(hi_ms * STEPS_PER_MS)) / STEPS_PER_MS


def scenario(workload: str, seed: int) -> simulation.Scenario:
    """A fresh scenario for a simulator workload.

    Each is built valid for an exact run: tick and pass intervals are
    literals on the 0.01 ms step, and start times come from `_step_time`;
    every loop hop is at least one step; the duration is a whole number of
    ticks; the agents' `sample_period` equals the tick; every value is
    finite.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "wide-domain-loop":
        # ~100 frames per tick spread over 1000 nodes; a reused-IPID loop
        # starts mid-run under packet-based suppression.
        sc = simulation.Scenario(
            name=workload, node_count=1000, link_rate=1e9, tick=1.0,
            duration=100.0, seed=seed, frame_size=512,
            generator=simulation.NormalBroadcastProfile(),
            injectors=(simulation.Injector(
                kind="loop", start_t=_step_time(rng, 40.0, 60.0),
                origin_node=rng.randrange(1000), pass_interval=0.2, factor=2,
                reuse_ipid=True),),
            agents=agents.AgentConfig(sample_period=1.0,
                                      policy=agents.Policy.PACKET_BASED))
    elif workload == "saturated-10g":
        # 16447 frames per tick of capacity; a factor-4 loop every 0.1 ms
        # overruns it, and detect-only agents never block.  The loop starts
        # on a tick boundary: its phase within the tick sets how much work
        # a tick holds, so a seeded phase would make seeds unequal in size.
        sc = simulation.Scenario(
            name=workload, node_count=4, link_rate=10e9, tick=1.0,
            duration=8.0, seed=seed, frame_size=64,
            generator=simulation.NormalBroadcastProfile(),
            injectors=(simulation.Injector(
                kind="loop", start_t=1.0,
                origin_node=rng.randrange(4), pass_interval=0.1, factor=4,
                reuse_ipid=True),),
            agents=agents.AgentConfig(sample_period=1.0, policy=None))
    elif workload == "sparse-policing":
        # 25,000 steps per tick with loop frames on one step in 5000; the
        # byte budget trips in every one-second window.
        sc = simulation.Scenario(
            name=workload, node_count=3, link_rate=100e6, tick=250.0,
            duration=8000.0, seed=seed, frame_size=512,
            injectors=(simulation.Injector(
                kind="loop", start_t=_step_time(rng, 10.0, 100.0),
                origin_node=rng.randrange(3), pass_interval=50.0, factor=2,
                reuse_ipid=False),),
            agents=agents.AgentConfig(
                sample_period=250.0, policy=agents.Policy.PACKET_BASED,
                thresholds=agents.ThresholdDb(byte_threshold_mb=2.5)))
    else:
        raise ValueError(f"not a simulator workload: {workload!r}")
    return sc


class Capture(NamedTuple):
    params: growth.PtrModelParams     # the curve that generated the rise
    points: tuple[tuple[float, float], ...]


def captures(seed: int) -> list[Capture]:
    """Seeded storm rises drawn from the growth curve, with bounded noise.

    Ps <= Pe and m > 0 keep each curve rising; counts are rounded to
    whole packets, as a capture records them.
    """
    rng = random.Random(f"offline-fit/{seed}")
    out = []
    for _ in range(CAPTURES_PER_PASS):
        p_start = rng.uniform(1000.0, 6000.0)
        params = growth.make_params(p_start, rng.uniform(p_start, 12000.0),
                                    rng.uniform(0.3, 1.2))
        points = []
        for k in range(rng.randrange(16, 25)):
            t = k * CAPTURE_STEP_MS
            noise = 1 + CAPTURE_NOISE * (2 * rng.random() - 1)
            points.append((t, float(round(growth.eval_ptr(params, t) * noise))))
        out.append(Capture(params, tuple(points)))
    return out


def reference() -> list[growth.TracePoint]:
    """The bundled normal burst that offline replay compares against."""
    return datasets.table4_hump()


def calibrated_fleet(sc: simulation.Scenario) -> agents.AgentFleet:
    """Calibrate a fleet for a scenario as the prologue of `simulation.run`
    does, step for step."""
    cap = simulation.saturation_cap(sc.link_rate, sc.tick, sc.frame_size)
    fleet = agents.AgentFleet(sc.agents, sc.node_count,
                              link_rate=sc.link_rate, capacity_pkts=cap)
    profile = None
    if sc.generator is not None:
        candidate = sc.generator.ideal_profile(cap)
        if max(p.count for p in candidate) > 0:
            profile = candidate
    fleet.calibrate(profile)
    return fleet


class Pass(NamedTuple):
    wall_s: float      # host time of the whole pass
    core_s: float      # host time in the core: simulation.run, or the whole pass offline
    units: int         # frames handled, or captures processed
    span_ms: float     # simulated (or captured) time covered


ARTIFACTS = ("trace.csv", "tickets.jsonl", "summary.json", "scenario.json")


def sim_pass(sc: simulation.Scenario, out: Path
             ) -> tuple[Pass, simulation.SimTrace]:
    """`simulation.run` plus the four artifacts `stormctl sim --out` writes."""
    t0 = perf_counter()
    trace = simulation.run(sc)
    t1 = perf_counter()
    summary = trace.summary()
    tracefile.write_channel_csv(trace, out / "trace.csv")
    tracefile.write_tickets(trace.tickets, out / "tickets.jsonl")
    tracefile.write_summary(summary, out / "summary.json")
    tracefile.write_scenario(sc, out / "scenario.json")
    t2 = perf_counter()
    handled = sum(r.ledger.generated + r.ledger.replicated for r in trace.records)
    return Pass(t2 - t0, t1 - t0, handled, sc.duration), trace


class CaptureResult(NamedTuple):
    fit: growth.FitResult
    tickets: list
    reread: list


def offline_pass(caps: list[Capture], ref: list, out: Path
                 ) -> tuple[Pass, list[CaptureResult]]:
    """Fit, replay and round-trip every capture: the `fit`/`detect` path."""
    path = out / "capture.csv"
    results = []
    t0 = perf_counter()
    for cap in caps:
        fit = growth.fit_model(cap.points)
        tickets, _ = agents.replay_elementwise(cap.points, ref, agents.AgentConfig())
        tracefile.write_trace(cap.points, path)
        results.append(CaptureResult(fit, tickets, tracefile.read_trace(path)))
    wall = perf_counter() - t0
    span = sum(cap.points[-1][0] for cap in caps)
    return Pass(wall, wall, len(caps), span), results
