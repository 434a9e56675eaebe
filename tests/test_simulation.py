"""Simulator: capacity, conservation, injectors, determinism, presets."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stormctl import agents, simulation
from stormctl.agents import (
    AgentConfig,
    AgentFleet,
    Policy,
    StaticAgent,
    ThresholdDb,
    TriggerCause,
)
from stormctl.metrics import TrafficSample, Verdict
from stormctl.simulation import (
    Injector,
    NormalBroadcastProfile,
    Scenario,
    ScenarioError,
    preset,
    run,
    saturation_cap,
    scenario_presets,
)

from .oracles import (
    channel_csv,
    ipid_loop_bruteforce,
    loop_expected_counts,
    oracle_examples,
    reference_channel_csv,
    reference_run,
)
from .test_golden import edge_scenarios


# a loop under packet-based suppression over 1000 nodes: its passes every
# 0.2 ms fall between the background's, on a link that never fills
WIDE_LOOP_BLOCKED = Scenario(
    name="wide-loop-blocked", node_count=1000, duration=12.0, seed=5,
    generator=NormalBroadcastProfile(),
    injectors=(Injector(kind="loop", start_t=2.03, origin_node=998),),
    agents=AgentConfig(policy=Policy.PACKET_BASED))


def frames_handled(trace) -> int:
    return sum(r.ledger.generated + r.ledger.replicated for r in trace.records)


def loop_only_scenario(factor=2, n_ticks=12, cap_rate=10e6):
    """A bare loop chain: no generator, no agents, one pass per tick."""
    return Scenario(
        name="bare-loop", node_count=2, link_rate=cap_rate, tick=1.0,
        duration=float(n_ticks), seed=0,
        injectors=(Injector(kind="loop", start_t=2.0, origin_node=0,
                            pass_interval=1.0, factor=factor,
                            reuse_ipid=True),),
    )


class TestCapacity:
    def test_known_rates(self):
        assert saturation_cap(10e6, 1.0, 512) == 2
        assert saturation_cap(1e9, 1.0, 512) == 238
        assert saturation_cap(100e6, 250.0, 512) == 5963

    def test_gap_charged_per_frame(self):
        # 96 bit-times equal 12 byte-times of payload budget
        without_gap = int(1e9 * 1e-3 / (8 * 512))
        assert saturation_cap(1e9, 1.0, 512) < without_gap

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ScenarioError):
            saturation_cap(0, 1.0, 512)


class TestScenarioValidation:
    def test_needs_two_nodes(self):
        with pytest.raises(ScenarioError):
            Scenario(node_count=1, duration=10.0)

    def test_duration_covers_a_tick(self):
        with pytest.raises(ScenarioError):
            Scenario(node_count=5, duration=0.5, tick=1.0)

    def test_injector_origin_must_exist(self):
        with pytest.raises(ScenarioError):
            Scenario(node_count=2, duration=10.0,
                     injectors=(Injector(kind="loop", origin_node=5),))

    def test_link_must_carry_one_frame_per_tick(self):
        with pytest.raises(ScenarioError):
            Scenario(node_count=5, link_rate=1e5, tick=1.0, duration=10.0)

    def test_unknown_injector_kind(self):
        with pytest.raises(ScenarioError):
            Injector(kind="gremlin")

    def test_profile_validation(self):
        with pytest.raises(ScenarioError):
            NormalBroadcastProfile(jitter=1.5)
        with pytest.raises(ScenarioError):
            NormalBroadcastProfile(burst_period=0.0)


class TestSilentFrameLoss:
    """Scenarios that would drop frames or drift are rejected up front."""

    def test_tick_shorter_than_one_step(self):
        # 0.004 ms is 0 steps: every frame would be scheduled, none handled
        with pytest.raises(ScenarioError, match="whole number of 0.01 ms"):
            Scenario(node_count=5, link_rate=100e9, tick=0.004,
                     duration=1.0, frame_size=64)

    def test_loop_hop_shorter_than_one_step(self):
        # 0.001 ms rounds to a 0-step hop onto an already handled step
        with pytest.raises(ScenarioError, match="pass_interval"):
            Scenario(node_count=5, duration=10.0, injectors=(
                Injector(kind="loop", pass_interval=0.001),))

    def test_loop_start_between_steps(self):
        # boundaries 1.005, 1.205, ... ms round to the steps at 1.00 and
        # 1.20 ms; the loop is not active at 1.00 ms, so it would seed at 1.20
        with pytest.raises(ScenarioError, match=(
                r"scenario\.injectors\[1\]\.start_t must be a whole number "
                r"of 0\.01 ms steps")):
            Scenario(node_count=5, duration=10.0, injectors=(
                Injector(kind="smurf", start_t=1.005),
                Injector(kind="loop", start_t=1.005)))

    def test_loop_start_a_float_ulp_past_its_step(self):
        # 0.1 + 0.2 is 0.30000000000000004: on the step at 0.30 ms, past
        # its float 0.3; the loop still seeds there, not a pass later
        def loop_at(start_t):
            return Scenario(node_count=2, duration=2.0, injectors=(
                Injector(kind="loop", start_t=start_t, pass_interval=0.1),))

        got = run(loop_at(0.1 + 0.2))
        assert got.records == run(loop_at(0.3)).records
        # passes at 0.30, 0.40, ..., 0.90 ms deliver 1 + 2 + ... + 64
        assert got.records[0].ledger.delivered == 127

    def test_loop_end_between_steps(self):
        # a loop's last pass is decided in steps, so its end lies on one
        with pytest.raises(ScenarioError, match=(
                r"scenario\.injectors\[0\]\.end_t must be a positive whole "
                r"number of 0\.01 ms steps")):
            Scenario(node_count=5, duration=10.0, injectors=(
                Injector(kind="loop", start_t=1.0, end_t=2.005),))

    def test_loop_end_a_float_ulp_past_its_step(self):
        # 0.1 + 0.2 is 0.30000000000000004: the pass at 0.30 ms is past the
        # end, as with an end_t of 0.3, and spawns no replicas
        def loop_until(end_t):
            return Scenario(node_count=2, duration=1.0, injectors=(
                Injector(kind="loop", end_t=end_t, pass_interval=0.1),))

        got = run(loop_until(0.1 + 0.2))
        assert got.records == run(loop_until(0.3)).records
        assert got.records == reference_run(loop_until(0.1 + 0.2)).records
        # passes at 0.00, 0.10 and 0.20 ms spawn 2 + 4 + 8 replicas
        assert got.records[0].ledger.replicated == 14

    def test_rate_injector_starts_on_the_tick_of_its_start(self):
        # 3 * 0.7 is 2.0999999999999996, below a start_t of 2.1, though the
        # tick starts on the step at 2.10 ms
        sc = Scenario(node_count=2, tick=0.7, duration=4.9, injectors=(
            Injector(kind="faulty_nic", start_t=2.1, rate=5.0),))
        expected = [0, 0, 0, 5, 5, 5, 5]
        assert [r.ledger.generated for r in run(sc).records] == expected
        assert [r.ledger.generated
                for r in reference_run(sc).records] == expected

    def test_tick_time_is_its_step_time(self):
        # the fourth tick starts on the step at 2.10 ms; 3 * 0.7 would
        # record it as 2.0999999999999996
        sc = Scenario(node_count=2, tick=0.7, duration=4.9, injectors=(
            Injector(kind="faulty_nic", start_t=0.0, rate=5.0),))
        for trace in (run(sc), reference_run(sc)):
            assert trace.records[3].t == 2.1
            assert trace.records[3].stats.tick == 2.1
        assert [r.t for r in run(sc).records] == [
            0.0, 0.7, 1.4, 2.1, 2.8, 3.5, 4.2]
        assert "\n2.1,*," in channel_csv(run(sc))

    def test_loop_hop_between_steps(self):
        # 0.015 ms would hop 2 steps, 0.02 ms
        with pytest.raises(ScenarioError, match=(
                r"scenario\.injectors\[0\]\.pass_interval must be a "
                r"positive whole number of 0\.01 ms steps")):
            Scenario(node_count=5, duration=10.0, injectors=(
                Injector(kind="loop", pass_interval=0.015),))

    def test_tick_between_steps(self):
        # 0.015 ms would run 2 steps per tick while `t` advances 1.5 steps
        with pytest.raises(ScenarioError, match="whole number of 0.01 ms"):
            Scenario(node_count=5, link_rate=100e9, tick=0.015,
                     duration=0.15, frame_size=64)

    def test_duration_between_ticks(self):
        # 30.6 ms would run 31 ticks, past the duration
        with pytest.raises(ScenarioError, match="whole number of ticks"):
            Scenario(node_count=5, tick=1.0, duration=30.6)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")])
    def test_non_finite_values(self, value):
        with pytest.raises(ScenarioError, match="scenario.duration"):
            Scenario(node_count=5, duration=value)
        with pytest.raises(ScenarioError, match="generator.burst_scale"):
            Scenario(node_count=5,
                     generator=NormalBroadcastProfile(burst_scale=value))
        with pytest.raises(ScenarioError,
                           match=r"scenario\.injectors\[0\]\.start_t"):
            Scenario(node_count=5,
                     injectors=(Injector(kind="smurf", start_t=abs(value)),))

    def test_sample_period_must_equal_tick(self):
        with pytest.raises(ScenarioError, match="sample"):
            Scenario(node_count=5, tick=1.0, duration=10.0,
                     agents=AgentConfig(sample_period=0.5))

    def test_step_aligned_values_accepted(self):
        sc = Scenario(node_count=5, tick=0.07, duration=0.7, link_rate=10e9,
                      injectors=(Injector(kind="loop", pass_interval=0.03),),
                      agents=AgentConfig(sample_period=0.07))
        assert len(run(sc).records) == 10

    def test_unprocessed_frames_fail_the_run(self):
        # bypass validation: a 0-step hop strands replicas in the schedule
        sc = loop_only_scenario()
        object.__setattr__(sc, "injectors", (
            dataclasses.replace(sc.injectors[0], pass_interval=0.001),))
        with pytest.raises(RuntimeError, match="never processed"):
            run(sc)


class TestOperationCounts:
    """Work done per run, counted at the agent boundary; no wall time."""

    def count_calls(self, monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def count_runs(self, monkeypatch, kind=None):
        """The runs `run` builds, of `kind` if given: with every field, as
        `_tuple_new(Run, …)`."""
        made = []
        original = simulation._tuple_new

        def counted(cls, fields):
            if cls is simulation.Run and kind in (None, fields[3]):
                made.append(1)
            return original(cls, fields)

        monkeypatch.setattr(simulation, "_tuple_new", counted)
        return made

    def test_one_channel_sample_per_tick_at_any_domain_size(self, monkeypatch):
        calls = self.count_calls(monkeypatch, StaticAgent, "sample_channel")
        for nodes in (2, 200):
            calls.clear()
            trace = run(dataclasses.replace(preset("loop-storm"),
                                            node_count=nodes, duration=20.0))
            assert trace.tickets
            assert len(calls) == len(trace.records) == 20

    def test_detect_only_run_never_asks_for_suppression(self, monkeypatch):
        calls = self.count_calls(monkeypatch, AgentFleet, "is_suppressed")
        sc = preset("loop-storm")
        detect_only = dataclasses.replace(
            sc, agents=dataclasses.replace(sc.agents, policy=None))
        trace = run(detect_only)
        assert trace.tickets
        assert calls == []

    # table5-control: a fresh-IPID loop doubling every 50 ms under a byte
    # budget, so tens of thousands of frames in a few hundred runs
    def test_enforcing_run_asks_per_run_not_per_frame(self, monkeypatch):
        calls = self.count_calls(monkeypatch, AgentFleet, "is_suppressed")
        trace = run(preset("table5-control"))
        assert trace.tickets
        assert 0 < len(calls) < frames_handled(trace) / 100

    def test_loop_frames_travel_as_runs(self, monkeypatch):
        made = self.count_runs(monkeypatch)
        trace = run(preset("table5-control"))
        assert 0 < len(made) < frames_handled(trace) / 100

    # a saturated 10 Gb/s link of 4 nodes with 64 B frames: the background
    # generator puts about 80 frames on each step, and a loop overruns it
    def test_generator_frames_travel_as_runs(self, monkeypatch):
        made = self.count_runs(monkeypatch)
        trace = run(Scenario(
            name="saturated-10g", node_count=4, link_rate=10e9, tick=1.0,
            duration=4.0, seed=3, frame_size=64,
            generator=NormalBroadcastProfile(),
            injectors=(Injector(kind="loop", start_t=1.0, origin_node=2,
                                pass_interval=0.1, factor=4),),
            agents=AgentConfig(policy=None)))
        assert sum(r.ledger.capped for r in trace.records)
        assert 0 < len(made) < frames_handled(trace) * 0.05

    # under a byte budget only a step holding a frame that may break one
    # splits its broadcasts into one-frame runs: not a step cut off by the
    # link's room or a window edge, and never a stretch of steps
    def test_budgeted_background_splits_only_single_steps(self, monkeypatch):
        made = self.count_runs(monkeypatch)
        trace = run(edge_scenarios()["dense-budget-detect"])
        assert any(tr.cause is TriggerCause.NBW_EXCEEDED
                   for tr in trace.triggers)
        assert 0 < len(made) < frames_handled(trace) / 300

    # the replicas a loop holds over from an earlier tick spend their
    # budgets before a step's background is built, so under a byte budget
    # that step's broadcasts are not cut into one-frame runs for them
    def test_held_runs_leave_the_budgeted_background_whole(self, monkeypatch):
        made = self.count_runs(monkeypatch)
        sc = dataclasses.replace(WIDE_LOOP_BLOCKED, agents=dataclasses.replace(
            WIDE_LOOP_BLOCKED.agents,
            thresholds=ThresholdDb(byte_threshold_mb=0.1)))
        trace = run(sc)
        assert sum(r.ledger.replicated for r in trace.records)
        assert 0 < len(made) < 180

    # a loop pass on every step overruns the link: a step's background
    # joins the stretch before it rather than travelling between its
    # held-over replicas and the rest of its runs
    def test_background_of_a_held_step_joins_its_stretch(self, monkeypatch):
        made = self.count_runs(monkeypatch, "data")
        trace = run(edge_scenarios()["capacity-cut-10g"])
        assert sum(r.ledger.capped for r in trace.records)
        assert 0 < len(made) <= 130

    # without a byte budget, on a link that never fills, a tick's
    # background is booked once, as one run per stream, however many loop
    # passes the tick holds
    def test_unbudgeted_background_booked_once_per_tick(self, monkeypatch):
        made = self.count_runs(monkeypatch, "data")
        trace = run(WIDE_LOOP_BLOCKED)
        assert not any(r.ledger.capped for r in trace.records)
        assert 0 < len(made) <= 2 * len(trace.records)

    # without a loop the normal preset's steps hold background frames only,
    # which travel as one run per stream between the steps that hold others
    def test_background_pops_no_heap_step_per_frame(self, monkeypatch):
        popped = self.count_calls(monkeypatch, simulation, "heappop")
        trace = run(preset("normal"))
        assert sum(r.ledger.generated for r in trace.records) > 2000
        assert len(popped) <= 2 * len(trace.records)

    # table5-control's loop passes every 50 ms from 50 to 3950 ms: each
    # pass is one visit, whether its run is a seed or replicas put in an
    # earlier 250 ms tick
    @pytest.mark.parametrize("with_agents", [True, False])
    def test_one_pop_per_loop_pass(self, monkeypatch, with_agents):
        popped = self.count_calls(monkeypatch, simulation, "heappop")
        trace = run(preset("table5-control", agents=with_agents))
        assert sum(r.ledger.replicated for r in trace.records)
        assert len(popped) <= 79

    # loop-storm over 1000 nodes with the per-node bandwidth rule on: about
    # a hundred nodes send per tick, and a few hold a bandwidth window
    def test_observe_visits_active_nodes_and_windows(self, monkeypatch):
        calls = self.count_calls(monkeypatch, agents, "node_bandwidth")
        seen = []
        original = AgentFleet.observe

        def observe(fleet, t, stats, node_samples, ipid_entries=()):
            holders, before = len(fleet._nbw_bytes), len(calls)
            tickets = original(fleet, t, stats, node_samples, ipid_entries)
            seen.append((len(node_samples), holders, len(calls) - before))
            return tickets

        monkeypatch.setattr(AgentFleet, "observe", observe)
        sc = preset("loop-storm")
        trace = run(dataclasses.replace(
            sc, node_count=1000, agents=dataclasses.replace(
                sc.agents, thresholds=ThresholdDb(nbw_permissible=1200.0))))
        assert any(tr.cause is TriggerCause.NBW_EXCEEDED
                   for tr in trace.triggers)
        assert len(seen) == len(trace.records)
        for rec, (given, holders, visits) in zip(trace.records, seen):
            active = sum(1 for s in rec.samples if s.attempted_total)
            assert given == active < len(rec.samples) / 4
            assert visits <= active + holders

    # a node with no port is never blocked, so asking about it is waste;
    # in loop-storm over 1000 nodes one node ever holds a port
    def test_suppression_asked_only_for_nodes_with_a_port(self, monkeypatch):
        asked = []
        original = AgentFleet.is_suppressed

        def is_suppressed(fleet, node, t, is_broadcast):
            asked.append(node in fleet.ports)
            return original(fleet, node, t, is_broadcast)

        monkeypatch.setattr(AgentFleet, "is_suppressed", is_suppressed)
        trace = run(dataclasses.replace(preset("loop-storm"), node_count=1000))
        assert trace.tickets
        assert asked and all(asked)

    # samples are built through simulation._tuple_new, which skips
    # TrafficSample's own __new__; each one built either way is counted.
    # A run builds only its idle samples: a sender's is built when read.
    def test_node_samples_follow_the_active_nodes(self, monkeypatch):
        made = []
        original = simulation._tuple_new
        original_new = TrafficSample.__new__

        def tuple_new(cls, values):
            if cls is TrafficSample:
                made.append(1)
            return original(cls, values)

        def sample_new(cls, *args, **kwargs):
            made.append(1)
            return original_new(cls, *args, **kwargs)

        monkeypatch.setattr(simulation, "_tuple_new", tuple_new)
        monkeypatch.setattr(TrafficSample, "__new__", staticmethod(sample_new))
        sc = dataclasses.replace(preset("loop-storm"), node_count=1000)
        trace = run(sc)
        # counted before any record is read; `observe` read no sender
        # either, as the run's one trigger, an IPID loop's, names its node
        assert [tr.cause for tr in trace.triggers] == [TriggerCause.IPID_LOOP]
        assert trace.tickets
        assert len(made) == sc.node_count
        sent = sum(len(rec.senders) for rec in trace.records)
        assert 0 < sent < sc.node_count * len(trace.records) / 4
        # every record shows one sample per node, in node order: each
        # sender's, and for a node that sent nothing its one idle sample
        idle = {}
        for rec in trace.records:
            samples = rec.samples
            assert [s.node for s in samples] == list(range(sc.node_count))
            assert [s for s in samples if s.attempted_total] \
                == list(rec.senders)
            for s in samples:
                if not s.attempted_total:
                    assert s is idle.setdefault(s.node, s)
        assert len(idle) == sc.node_count


class TestGeneratorShape:
    def test_raw_scale_reproduces_recorded_peak(self):
        profile = NormalBroadcastProfile(burst_scale=1.0)
        assert profile.ideal_broadcast(1.8, capacity=9999) == 40000.0
        assert profile.ideal_broadcast(0.0, capacity=9999) == 0.0

    def test_capacity_scale_hits_requested_peak_fraction(self):
        profile = NormalBroadcastProfile(broadcast_peak_fraction=0.08)
        assert profile.ideal_broadcast(1.8, capacity=238) == \
            pytest.approx(0.08 * 238)

    def test_profile_repeats_with_burst_period(self):
        profile = NormalBroadcastProfile()
        points = profile.ideal_profile(capacity=238)
        assert points[0].count == 0.0
        assert points[-1].t == pytest.approx(3.0)
        assert max(p.count for p in points) == pytest.approx(0.08 * 238)


class TestConservation:
    @pytest.mark.parametrize("name", sorted(scenario_presets()))
    def test_ledger_balances_every_tick(self, name):
        trace = run(preset(name))
        for rec in trace.records:
            led = rec.ledger
            assert led.generated + led.replicated - led.suppressed \
                - led.capped == led.delivered
            assert led.delivered == rec.stats.total_pkts

    def test_node_deliveries_sum_to_channel(self, loop_trace):
        for rec in loop_trace.records:
            assert sum(s.total_pkts for s in rec.samples) \
                == rec.stats.total_pkts
            assert sum(s.bcast_pkts for s in rec.samples) \
                == rec.stats.broadcast_pkts


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        one = run(preset("loop-storm"))
        two = run(preset("loop-storm"))
        assert one.records == two.records
        assert one.tickets == two.tickets
        assert one.summary() == two.summary()

    def test_seed_changes_the_traffic(self):
        one = run(preset("normal"))
        two = run(preset("normal", seed=99))
        assert one.records != two.records


class TestLoopChain:
    def test_chain_multiplies_by_factor_until_capacity(self):
        scenario = loop_only_scenario(factor=2, n_ticks=12)
        trace = run(scenario)
        cap = trace.capacity_pkts
        got = [r.stats.total_pkts for r in trace.records]
        assert got == loop_expected_counts(12, start_tick=2, factor=2,
                                           cap=cap)

    def test_triple_factor_chain(self):
        scenario = loop_only_scenario(factor=3, n_ticks=10)
        trace = run(scenario)
        got = [r.stats.total_pkts for r in trace.records]
        assert got == loop_expected_counts(10, start_tick=2, factor=3,
                                           cap=trace.capacity_pkts)

    def test_saturated_chain_caps_at_capacity(self):
        trace = run(loop_only_scenario(factor=2, n_ticks=12))
        assert trace.records[-1].stats.total_pkts == trace.capacity_pkts
        assert trace.records[-1].ledger.capped > 0

    def test_reused_ipids_mark_the_loop(self):
        trace = run(loop_only_scenario(factor=2, n_ticks=12))
        late = trace.records[-1]
        assert late.classification.ipid_loop
        assert late.classification.verdict is Verdict.STORM

    def test_fresh_ipids_hide_the_loop_from_ipid_scan(self):
        scenario = loop_only_scenario(factor=2, n_ticks=12)
        scenario = dataclasses.replace(
            scenario,
            injectors=(dataclasses.replace(scenario.injectors[0],
                                           reuse_ipid=False),),
        )
        trace = run(scenario)
        assert not any(r.classification.ipid_loop for r in trace.records)

    def test_every_qualifying_ipid_offends(self):
        # two reused-IPID loops, from nodes 2 and 1, qualify in the same
        # ticks: the IPID trigger counts both and blames the lower source
        loop = Injector(kind="loop", start_t=1.0, pass_interval=0.3, factor=1)
        sc = Scenario(
            name="two-loops", node_count=3, duration=6.0,
            injectors=(dataclasses.replace(loop, origin_node=2),
                       dataclasses.replace(loop, origin_node=1)),
            agents=AgentConfig(policy=None, thresholds=ThresholdDb(
                ipid_min_repeats=2, ipid_window_ms=1.0)))
        trace = run(sc)
        loops = [tr for tr in trace.triggers
                 if tr.cause is TriggerCause.IPID_LOOP]
        assert len(loops) == 5
        assert all(tr.observed == 2.0 and tr.node == 1 for tr in loops)
        assert trace.triggers == reference_run(sc).triggers

    def test_sim_window_matches_bruteforce_scan(self):
        # every frame of this chain carries the seed's IPID and is
        # delivered at the start of its tick, so a tick's broadcast count
        # gives its sightings; the loop qualifies in every tick from the
        # one where the per-frame scan first finds it
        trace = run(loop_only_scenario(factor=2, n_ticks=12))
        frames = []
        for rec in trace.records:
            frames.extend([(1, rec.t)] * rec.stats.broadcast_pkts)
            found, _ = ipid_loop_bruteforce(frames, 3, 100.0)
            assert rec.classification.ipid_loop == found
        assert found


class TestPresets:
    def test_normal_run_is_quiet(self, normal_trace):
        assert normal_trace.tickets == []
        assert normal_trace.triggers == []
        assert all(r.classification.verdict in (Verdict.NORMAL, Verdict.IDLE)
                   for r in normal_trace.records)

    def test_normal_jitter_sweep_raises_nothing(self):
        for seed in range(5):
            trace = run(preset("normal", seed=seed))
            assert trace.tickets == []

    def test_loop_storm_detected_at_onset_tick(self, loop_trace):
        assert loop_trace.tickets
        first = loop_trace.tickets[0]
        assert first.t == 10.0
        assert first.node == 1                  # the looped port
        assert first.cause is TriggerCause.IPID_LOOP

    def test_loop_storm_suppression_starves_the_loop(self, loop_trace):
        # once node 1 is blocked the channel falls back to background level
        for rec in loop_trace.records:
            if rec.t >= 12.0:
                assert rec.classification.utilization < 0.60
        assert any(rec.ledger.suppressed > 0 for rec in loop_trace.records)

    def test_unprotected_loop_storm_saturates_within_five_ms(
            self, loop_trace_unprotected):
        onset = 10.0
        saturated = [r.t for r in loop_trace_unprotected.records
                     if r.classification.utilization > 0.60]
        assert saturated
        assert saturated[0] <= onset + 5.0
        assert max(r.classification.utilization
                   for r in loop_trace_unprotected.records) == 1.0

    def test_unprotected_loop_storm_is_classified_storm(
            self, loop_trace_unprotected):
        assert any(r.classification.verdict is Verdict.STORM
                   for r in loop_trace_unprotected.records)

    def test_smurf_reply_amplification_exact(self, smurf_trace):
        spoofs = sum(dict(r.delivered_by_kind).get("spoof", 0)
                     for r in smurf_trace.records)
        replies = sum(dict(r.delivered_by_kind).get("reply", 0)
                      for r in smurf_trace.records)
        n = smurf_trace.scenario.node_count
        assert spoofs > 0
        assert replies == (n - 1) * spoofs

    def test_faulty_nic_flagged_by_bandwidth_window(self, faulty_trace):
        assert len(faulty_trace.tickets) == 1
        ticket = faulty_trace.tickets[0]
        assert ticket.cause is TriggerCause.NBW_EXCEEDED
        assert ticket.node == 0
        assert ticket.observed > ticket.threshold

    def test_faulty_nic_detect_only_never_blocks(self, faulty_trace):
        assert all(r.ledger.suppressed == 0 for r in faulty_trace.records)

    def test_byte_budget_clips_every_window(self, table5_trace):
        window = 1000.0
        per_window: dict[int, int] = {}
        for rec in table5_trace.records:
            wid = int(rec.t // window)
            per_window[wid] = per_window.get(wid, 0) \
                + rec.stats.broadcast_bytes
        limit = 2.5e6
        assert len(per_window) == 4
        for wid, total in per_window.items():
            assert total <= limit + 1e-6
        # every tick individually stays under the budget too
        assert all(r.stats.broadcast_bytes <= limit
                   for r in table5_trace.records)

    def test_byte_budget_one_ticket_per_window(self, table5_trace):
        assert len(table5_trace.tickets) == 4
        assert all(t.cause is TriggerCause.NBW_EXCEEDED
                   for t in table5_trace.tickets)
        assert all(t.node == 0 for t in table5_trace.tickets)
        windows = sorted(int(t.t // 1000.0) for t in table5_trace.tickets)
        assert windows == [0, 1, 2, 3]

    def test_detect_only_budget_breaks_once_per_node_per_window(self):
        sc = preset("table5-control")
        sc = dataclasses.replace(sc, agents=dataclasses.replace(
            sc.agents, policy=None))
        trace = run(sc)
        breaches = [(tr.node, sc.agents.window_of(tr.t))
                    for tr in trace.triggers
                    if tr.cause is TriggerCause.NBW_EXCEEDED]
        assert breaches == [(0, 0), (0, 1), (0, 2), (0, 3)]
        assert len(trace.triggers) == 9
        assert len(trace.tickets) == 4

    def test_unprotected_chain_breaks_the_byte_budget(
            self, table5_trace_unprotected):
        worst = max(r.stats.broadcast_bytes
                    for r in table5_trace_unprotected.records)
        assert worst > 2.5e6
        assert table5_trace_unprotected.tickets == []

    def test_budget_windows_ramp_clip_and_reset(self, table5_trace):
        mb = [r.stats.broadcast_bytes / 1e6 for r in table5_trace.records]
        # 4 ticks per window: quiet ramp, growth, clipped burst, silence
        for w in range(4):
            a, b, c, d = mb[4 * w: 4 * w + 4]
            assert a < b < c
            assert d == 0.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ScenarioError):
            preset("no-such-scenario")


@st.composite
def small_scenarios(draw) -> Scenario:
    """Valid scenarios of at most 20 ticks and 6 nodes, every source and
    policy mixed; capacity stays under 2000 frames per tick.  A 0.7 ms
    tick is not a binary fraction: 3 * 0.7 misses its fourth tick's step."""
    nodes = draw(st.integers(2, 6))
    tick_steps = draw(st.sampled_from([10, 25, 70, 100]))
    n_ticks = draw(st.integers(1, 20))
    total_steps = n_ticks * tick_steps
    link_rate = draw(st.sampled_from([10e6, 100e6, 1e9]))
    frame_size = draw(st.sampled_from([64, 512, 1500]))
    assume(saturation_cap(link_rate, tick_steps / 100, frame_size) >= 1)

    def when() -> float:        # on the step grid, or between steps
        return (draw(st.integers(0, total_steps - 1))
                + draw(st.sampled_from([0.0, 0.4]))) / 100

    def window(inj: Injector) -> Injector:
        if draw(st.booleans()):
            return inj
        return dataclasses.replace(
            inj, end_t=inj.start_t + draw(st.integers(1, total_steps)) / 100)

    injectors = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["loop", "loop", "faulty_nic", "smurf"]))
        origin = draw(st.integers(0, nodes - 1))
        if kind == "loop":
            # a loop's passes must land on steps
            inj = Injector(kind="loop",
                           start_t=draw(st.integers(0, total_steps - 1)) / 100,
                           origin_node=origin,
                           pass_interval=draw(st.integers(1, 60)) / 100,
                           factor=draw(st.integers(1, 4)),
                           reuse_ipid=draw(st.booleans()))
        else:
            inj = Injector(kind=kind, start_t=when(), origin_node=origin,
                           rate=draw(st.sampled_from([0.3, 1.0, 2.5])))
        injectors.append(window(inj))

    generator = None
    if draw(st.booleans()):
        generator = NormalBroadcastProfile(
            burst_period=draw(st.sampled_from([1.0, 3.0])),
            jitter=draw(st.sampled_from([0.0, 0.05, 0.2])),
            unicast_fraction=draw(st.sampled_from([0.0, 0.1, 0.4])),
            broadcast_peak_fraction=draw(st.sampled_from([0.0, 0.08, 0.3])))
    agents = None
    if draw(st.booleans()):
        agents = AgentConfig(
            sample_period=tick_steps / 100,
            consecutive_required=draw(st.integers(1, 3)),
            suppression_window=draw(st.sampled_from([0.5, 2.0, 1000.0])),
            policy=draw(st.sampled_from([None, Policy.PACKET_BASED,
                                         Policy.BANDWIDTH_BASED])),
            thresholds=ThresholdDb(
                utilization_max=draw(st.sampled_from([0.6, 0.95])),
                nbw_permissible=draw(st.sampled_from([None, 500.0, 5000.0])),
                byte_threshold_mb=draw(st.sampled_from(
                    [None, 0.002, 0.02, 1.0])),
                ipid_min_repeats=draw(st.integers(2, 5)),
                ipid_window_ms=draw(st.sampled_from([0.0, 0.05, 0.5, 100.0]))))
    return Scenario(
        name="random", node_count=nodes, link_rate=link_rate,
        tick=tick_steps / 100, duration=total_steps / 100,
        seed=draw(st.integers(0, 2 ** 16)), frame_size=frame_size,
        generator=generator, injectors=tuple(injectors), agents=agents)


@st.composite
def merged_background_scenarios(draw) -> Scenario:
    """Scenarios that reach every point where a tick's background run must
    split: a generator always runs, and a loop's replicas cross tick
    boundaries; the loop, or the background alone, outgrows the link's
    room in mid-tick.  Suppression windows of 0.5 ms (or 0.3 ms, not a
    binary fraction) end inside a tick, and byte budgets of a few frames
    per window break.  Ticks of 0.7 ms end off the 0.5 ms windows' edges.
    Every draw carries at least 5 frames per tick."""
    nodes = draw(st.integers(2, 5))
    tick_steps = draw(st.sampled_from([25, 70, 100]))
    n_ticks = draw(st.integers(2, 10))
    total_steps = n_ticks * tick_steps
    link_rate = draw(st.sampled_from([100e6, 1e9]))
    frame_size = draw(st.sampled_from([64, 512]))
    loop = Injector(kind="loop",
                    start_t=draw(st.integers(0, 2 * tick_steps - 1)) / 100,
                    origin_node=draw(st.integers(0, nodes - 1)),
                    pass_interval=draw(st.sampled_from([7, 13, 30, 45])) / 100,
                    factor=draw(st.integers(2, 4)),
                    reuse_ipid=draw(st.booleans()))
    injectors = [loop]
    if draw(st.booleans()):
        injectors.append(Injector(
            kind=draw(st.sampled_from(["faulty_nic", "smurf"])),
            start_t=draw(st.integers(0, total_steps - 1)) / 100,
            origin_node=draw(st.integers(0, nodes - 1)),
            rate=draw(st.sampled_from([1.0, 2.5]))))
    generator = NormalBroadcastProfile(
        burst_period=draw(st.sampled_from([1.0, 3.0])),
        jitter=draw(st.sampled_from([0.0, 0.2])),
        unicast_fraction=draw(st.sampled_from([0.1, 0.4, 0.75])),
        broadcast_peak_fraction=draw(st.sampled_from([0.08, 0.3])))
    agents = AgentConfig(
        sample_period=tick_steps / 100,
        suppression_window=draw(st.sampled_from([0.5, 0.3])),
        policy=draw(st.sampled_from([None, Policy.PACKET_BASED,
                                     Policy.BANDWIDTH_BASED])),
        thresholds=ThresholdDb(
            utilization_max=draw(st.sampled_from([0.6, 0.95])),
            byte_threshold_mb=draw(st.sampled_from(
                [None, 0.0006, 0.002, 0.005])),
            ipid_min_repeats=draw(st.integers(2, 3))))
    return Scenario(
        name="merged-background", node_count=nodes, link_rate=link_rate,
        tick=tick_steps / 100, duration=total_steps / 100,
        seed=draw(st.integers(0, 2 ** 16)), frame_size=frame_size,
        generator=generator, injectors=tuple(injectors), agents=agents)


@st.composite
def wide_scenarios(draw) -> Scenario:
    """Domains of 50 to 500 nodes under enforcing or detect-only agents,
    mostly with no byte budget.  A loop or two trips the fleet, and its
    windows end inside a tick: sub-tick windows, where only a budget's
    breach blocks a port mid-tick, or windows that outlast a tick, so
    that a port blocked at one tick's end lapses inside a later one.  The
    link fills in some ticks."""
    nodes = draw(st.integers(50, 500))
    tick_steps = draw(st.sampled_from([50, 70, 100]))
    n_ticks = draw(st.integers(2, 8))
    total_steps = n_ticks * tick_steps
    injectors = tuple(
        Injector(kind="loop",
                 start_t=draw(st.integers(0, total_steps - 1)) / 100,
                 origin_node=draw(st.integers(0, nodes - 1)),
                 pass_interval=draw(st.sampled_from([7, 20, 30, 45])) / 100,
                 factor=draw(st.integers(1, 3)),
                 reuse_ipid=draw(st.booleans()))
        for _ in range(draw(st.integers(1, 2))))
    generator = NormalBroadcastProfile(
        burst_period=draw(st.sampled_from([1.0, 3.0])),
        jitter=draw(st.sampled_from([0.0, 0.2])),
        unicast_fraction=draw(st.sampled_from([0.1, 0.4, 0.9])),
        broadcast_peak_fraction=draw(st.sampled_from([0.08, 0.3])))
    budget = None                   # one draw in four has one
    if draw(st.integers(0, 3)) == 0:
        budget = draw(st.sampled_from([0.002, 0.02]))
    agents = AgentConfig(
        sample_period=tick_steps / 100,
        suppression_window=draw(st.sampled_from([0.2, 0.3, 1.5, 2.5])),
        policy=draw(st.sampled_from([None, Policy.PACKET_BASED,
                                     Policy.BANDWIDTH_BASED])),
        thresholds=ThresholdDb(
            utilization_max=draw(st.sampled_from([0.3, 0.6, 0.95])),
            nbw_permissible=draw(st.sampled_from([None, 200.0])),
            byte_threshold_mb=budget,
            ipid_min_repeats=draw(st.integers(2, 3))))
    return Scenario(
        name="wide", node_count=nodes,
        link_rate=draw(st.sampled_from([100e6, 1e9])),
        tick=tick_steps / 100, duration=total_steps / 100,
        seed=draw(st.integers(0, 2 ** 16)),
        frame_size=draw(st.sampled_from([64, 512])),
        generator=generator, injectors=injectors, agents=agents)


class TestReferenceRun:
    """`run` against the per-frame, every-step oracle."""

    # Wide domains carry fewer background frames per tick than they have
    # nodes, so every lane of a rotating run holds one frame and the runs
    # wrap past the last node mid-run: per-node bandwidth windows blocking
    # the broadcasts of many ports, a loop whose origin a packet-based port
    # blocks, and a byte budget breached under detect-only agents.
    @given(small_scenarios())
    @example(Scenario(
        name="wide-bandwidth-ports", node_count=200, duration=10.0, seed=11,
        generator=NormalBroadcastProfile(broadcast_peak_fraction=0.3),
        agents=AgentConfig(policy=Policy.BANDWIDTH_BASED,
                           thresholds=ThresholdDb(nbw_permissible=200.0))))
    @example(WIDE_LOOP_BLOCKED)
    @example(Scenario(
        name="wide-budget-detect-only", node_count=600, duration=8.0, seed=9,
        generator=NormalBroadcastProfile(),
        injectors=(Injector(kind="loop", start_t=1.5, origin_node=450,
                            pass_interval=0.3, reuse_ipid=False),),
        agents=AgentConfig(policy=None, suppression_window=0.5,
                           thresholds=ThresholdDb(byte_threshold_mb=0.002))))
    # The edges of delivering a run whole.  With no generator a loop's
    # passes deliver 1, 2, 4, 8 frames, 15 in all: on a link of 15 frames
    # a tick the 8 fill exactly its remaining room, on one of 14 they
    # overrun it by a frame, and the 16 that follow meet a full link.
    @example(Scenario(
        name="run-fills-the-room", node_count=2, link_rate=62.88e6,
        duration=3.0,
        injectors=(Injector(kind="loop", start_t=0.5, pass_interval=0.1),)))
    @example(Scenario(
        name="run-one-over-the-room", node_count=2, link_rate=58.688e6,
        duration=3.0,
        injectors=(Injector(kind="loop", start_t=0.5, pass_interval=0.1),)))
    # A budget of 15 frames per 5 ms window on the link of 15: the 16
    # frames at 0.9 ms meet a full link, and the first of them breaks the
    # budget and is capped.  That is the node's one breach in the window,
    # so the frames of the passes after it go unbudgeted.
    @example(Scenario(
        name="capped-breaking-frame", node_count=2, link_rate=62.88e6,
        duration=3.0,
        injectors=(Injector(kind="loop", start_t=0.5, pass_interval=0.1),),
        agents=AgentConfig(policy=None, suppression_window=5.0,
                           thresholds=ThresholdDb(byte_threshold_mb=0.0077))))
    # A budget of 14 frames on the link of 14: the 8 frames at 0.8 ms meet
    # room for 7, the node's last 7 within the budget, so the eighth is
    # both capped and the node's breaking frame.
    @example(Scenario(
        name="capped-breaking-frame-at-the-cut", node_count=2,
        link_rate=58.688e6, duration=3.0,
        injectors=(Injector(kind="loop", start_t=0.5, pass_interval=0.1),),
        agents=AgentConfig(policy=None, suppression_window=5.0,
                           thresholds=ThresholdDb(byte_threshold_mb=0.00717))))
    # background runs that wrap past node 149 onto node 1's blocked port,
    # and none of whose other nodes holds a port
    @example(Scenario(
        name="wrap-onto-blocked-port", node_count=150, duration=12.0, seed=3,
        generator=NormalBroadcastProfile(),
        injectors=(Injector(kind="loop", start_t=2.0, origin_node=1),),
        agents=AgentConfig(policy=Policy.PACKET_BASED)))
    # node 2's own frames while the ports of loop origins 1 and 3 are
    # blocked, or were and lapsed
    @example(Scenario(
        name="other-ports-blocked", node_count=4, duration=12.0, seed=5,
        injectors=(Injector(kind="loop", start_t=2.0, origin_node=1),
                   Injector(kind="loop", start_t=4.0, origin_node=3),
                   Injector(kind="faulty_nic", origin_node=2, rate=3.0)),
        agents=AgentConfig(policy=Policy.PACKET_BASED,
                           suppression_window=3.0)))
    # Whole rotating runs are booked as node spans.  Over 10 nodes the
    # unicast runs between loop passes hold about 19 frames: a full cycle
    # of the nodes, then a remainder that often wraps past node 9 onto
    # loop origin 0's blocked port.
    @example(Scenario(
        name="spans-wrap-onto-blocked-port", node_count=10, duration=12.0,
        seed=4, generator=NormalBroadcastProfile(),
        injectors=(Injector(kind="loop", start_t=2.0, origin_node=0),),
        agents=AgentConfig(policy=Policy.PACKET_BASED)))
    # a smurf's one-frame replies, booked node by node, in the ticks whose
    # background is booked as spans over the same 300 nodes
    @example(Scenario(
        name="wide-smurf", node_count=300, link_rate=10e9, duration=8.0,
        seed=7, generator=NormalBroadcastProfile(),
        injectors=(Injector(kind="smurf", start_t=2.0, end_t=6.0,
                            origin_node=17, rate=2.0),)))
    # a byte budget splits the broadcast stream, but not the unicast one,
    # whose frames a bandwidth-based block lets through
    @example(Scenario(
        name="budget-over-both-streams", node_count=3, duration=8.0, seed=2,
        generator=NormalBroadcastProfile(broadcast_peak_fraction=0.3),
        agents=AgentConfig(policy=Policy.BANDWIDTH_BASED,
                           suppression_window=2.0,
                           thresholds=ThresholdDb(byte_threshold_mb=0.004))))
    # At 10 Gb/s with 64 B frames and a budget of 78 frames per 0.1 ms
    # window, all three nodes break their budgets at step 99, the step at
    # which the link fills: the broadcasts there are handled one frame at a
    # time, and an enforcing fleet blocks each node from its breaking frame
    # on, while detect-only agents leave the rest to the link.
    @example(Scenario(
        name="budgets-break-as-the-link-fills", node_count=3,
        link_rate=10e9, tick=0.1, duration=1.0, seed=3, frame_size=64,
        generator=NormalBroadcastProfile(burst_period=1.0, jitter=0.2,
                                         broadcast_peak_fraction=0.5,
                                         unicast_fraction=0.9),
        agents=AgentConfig(sample_period=0.1, suppression_window=0.1,
                           policy=Policy.PACKET_BASED,
                           thresholds=ThresholdDb(byte_threshold_mb=0.005))))
    @example(Scenario(
        name="budgets-break-as-the-link-fills-detect-only", node_count=3,
        link_rate=10e9, tick=0.1, duration=1.0, seed=3, frame_size=64,
        generator=NormalBroadcastProfile(burst_period=1.0, jitter=0.2,
                                         broadcast_peak_fraction=0.5,
                                         unicast_fraction=0.9),
        agents=AgentConfig(sample_period=0.1, suppression_window=0.1,
                           policy=None,
                           thresholds=ThresholdDb(byte_threshold_mb=0.005))))
    # Without a byte budget a scheduled step is settled before the
    # background before it when the link has room for both.  Each tick
    # here holds 5 unicast frames, at 0, 0.2, ..., 0.8 ms into it, and a
    # loop from 0.5 ms, whose passes are 0.1 ms apart with 1, 2, 4, 8 and
    # 16 frames until the link fills.  On a link of 20 frames a tick the
    # 8 at 0.8 ms meet it exactly: 7 loop frames are delivered, and 5
    # background frames lie at or before that step.  On one of 19 they
    # overrun it by one, so the background is booked first.
    @example(Scenario(
        name="bound-met-exactly", node_count=2, link_rate=83.9e6,
        duration=2.0,
        generator=NormalBroadcastProfile(jitter=0.0,
                                         broadcast_peak_fraction=0.0,
                                         unicast_fraction=0.24),
        injectors=(Injector(kind="loop", start_t=0.5, pass_interval=0.1),)))
    @example(Scenario(
        name="bound-one-over", node_count=2, link_rate=79.7e6, duration=2.0,
        generator=NormalBroadcastProfile(jitter=0.0,
                                         broadcast_peak_fraction=0.0,
                                         unicast_fraction=0.24),
        injectors=(Injector(kind="loop", start_t=0.5, pass_interval=0.1),)))
    # Passes 0.7 ms apart put replicas in the next tick: at 2.6 ms, 24
    # frames held over fail the bound on a link of 15 frames a tick.  The
    # three background frames before them are booked first, and the held
    # frames then go before the background frame on their own step.
    @example(Scenario(
        name="held-run-fails-the-bound", node_count=2, link_rate=62.88e6,
        duration=4.0,
        generator=NormalBroadcastProfile(jitter=0.0,
                                         broadcast_peak_fraction=0.0,
                                         unicast_fraction=0.33),
        injectors=(Injector(kind="loop", start_t=0.5, pass_interval=0.7,
                            factor=4),)))
    # Loop passes 0.25 ms apart, one frame each, on a link of 15 frames a
    # tick.  The tick from 1 ms holds 3 broadcast and 14 unicast frames:
    # its passes at 1.05, 1.3 and 1.55 ms settle before them, and the one
    # at 1.8 ms fails the bound.  The link then fills at 1.66 ms, inside
    # the background deferred past 1.55 ms, which must be cut there to
    # deliver its broadcasts and unicasts in time order.
    @example(Scenario(
        name="link-fills-after-the-last-pass", node_count=2,
        link_rate=62.88e6, duration=2.0,
        generator=NormalBroadcastProfile(jitter=0.0,
                                         broadcast_peak_fraction=0.5,
                                         unicast_fraction=0.92),
        injectors=(Injector(kind="loop", start_t=0.3, pass_interval=0.25,
                            factor=1),)))
    # A budget of 6 frames per 1 ms window.  At 0.21 ms a loop replica
    # held over from an earlier tick spends the last of origin 0's budget,
    # and origin 0's own broadcast after it on that step breaks it: the
    # step's broadcasts must each be a run of their own.
    @example(Scenario(
        name="held-run-spends-the-budget", node_count=3, link_rate=10e9,
        tick=0.1, duration=0.4, frame_size=64,
        generator=NormalBroadcastProfile(jitter=0.0,
                                         broadcast_peak_fraction=0.5,
                                         unicast_fraction=0.1),
        injectors=(Injector(kind="loop", start_t=0.08, pass_interval=0.13,
                            factor=1, reuse_ipid=False),),
        agents=AgentConfig(sample_period=0.1, suppression_window=1.0,
                           policy=Policy.PACKET_BASED,
                           thresholds=ThresholdDb(byte_threshold_mb=0.000385))))
    # 0.2 ms windows in 1 ms ticks: a block set at a tick's end covers only
    # the window of the tick's start, so only a byte budget's breach blocks
    # a port here.  It blocks loop origin 1 for the rest of its window,
    # and the block lapses at the window's edge before the next pass.
    @example(Scenario(
        name="fifth-ms-windows-lapse-between-passes", node_count=3,
        duration=4.0, seed=1, generator=NormalBroadcastProfile(),
        injectors=(Injector(kind="loop", start_t=0.1, origin_node=1,
                            pass_interval=0.3),),
        agents=AgentConfig(policy=Policy.PACKET_BASED, suppression_window=0.2,
                           thresholds=ThresholdDb(byte_threshold_mb=0.002))))
    # With no budget, 2.5 ms windows: loop origin 1, blocked at the end of
    # the tick at 1 ms through window 0, is blocked at the 2.1 and 2.4 ms
    # passes, and its block lapses at 2.5 ms, before the 2.7 ms pass.
    @example(Scenario(
        name="block-lapses-mid-tick", node_count=3, duration=6.0, seed=1,
        generator=NormalBroadcastProfile(),
        injectors=(Injector(kind="loop", start_t=0.9, origin_node=1,
                            pass_interval=0.3),),
        agents=AgentConfig(policy=Policy.PACKET_BASED,
                           suppression_window=2.5)))
    # Two loops on node 0 share the passes from 2.14 ms.  Loop 1 fills the
    # link each tick, and its chain ends where a pass meets a full link, so
    # its seeds are put after loop 0's at some passes and before them at
    # others; a step's seeds still go in loop order.
    @example(Scenario(
        name="seeds-at-a-shared-pass", node_count=2, tick=0.25, duration=2.5,
        frame_size=64,
        injectors=(Injector(kind="loop", start_t=2.14, end_t=2.41,
                            pass_interval=0.02, factor=1, reuse_ipid=False),
                   Injector(kind="loop", start_t=0.0, pass_interval=0.02,
                            factor=2, reuse_ipid=False))))
    @settings(max_examples=oracle_examples(150), deadline=None)
    def test_matches_per_frame_reference(self, sc):
        expected = reference_run(sc)
        got = run(sc)
        assert got.capacity_pkts == expected.capacity_pkts
        assert got.records == expected.records
        assert got.tickets == expected.tickets
        assert got.triggers == expected.triggers
        assert got.closed == expected.closed
        assert channel_csv(got) == reference_channel_csv(got)

    # with 0.3 ms windows, window 34 begins at step 1020 (10.2 ms), though
    # 10.2 // 0.3 == 33.0 in floats: blocks through window 33 lapse at the
    # step where budget window 34 begins
    @given(merged_background_scenarios())
    @example(Scenario(
        name="rounded-window-edge", node_count=3, tick=0.25, duration=12.0,
        generator=NormalBroadcastProfile(broadcast_peak_fraction=0.3),
        agents=AgentConfig(sample_period=0.25, suppression_window=0.3,
                           thresholds=ThresholdDb(byte_threshold_mb=0.002))))
    @settings(max_examples=oracle_examples(150), deadline=None)
    def test_merged_background_matches_per_frame_reference(self, sc):
        self.assert_same_trace(sc)

    @given(wide_scenarios())
    @settings(max_examples=oracle_examples(30), deadline=None)
    def test_wide_domains_match_per_frame_reference(self, sc):
        self.assert_same_trace(sc)

    @staticmethod
    def assert_same_trace(sc):
        expected = reference_run(sc)
        got = run(sc)
        assert got.records == expected.records
        assert got.tickets == expected.tickets
        assert got.triggers == expected.triggers
        assert got.closed == expected.closed


class TestWindowRule:
    """Blocks and byte budgets share one window numbering."""

    # A faulty NIC sends a frame every step under a budget of one 512 B
    # frame per 0.1 ms window: each window delivers its first frame, and
    # the second breaks the budget, opens a ticket and blocks the port for
    # the rest of the window.  Both are numbered in steps; in floats
    # 3 * 0.1 == 0.30000000000000004 and 0.5 // 0.1 == 4.0, so were the
    # block's end or the budget's window worked out another way, a port
    # would stay blocked into the next window, or a budget would count a
    # window twice.
    def test_a_block_lapses_where_a_budget_window_begins(self):
        config = AgentConfig(suppression_window=0.1,
                             policy=Policy.PACKET_BASED,
                             thresholds=ThresholdDb(byte_threshold_mb=0.001))
        sc = Scenario(name="tenth-ms-windows", node_count=2, duration=5.0,
                      injectors=(Injector(kind="faulty_nic", rate=100.0),),
                      agents=config)
        trace = run(sc)
        assert [r.ledger.delivered for r in trace.records] == [10] * 5
        windows = [config.window_of(tk.t) for tk in trace.tickets]
        assert windows == list(range(50))
        assert trace.records == reference_run(sc).records

    # `observe` acts at a tick's end, so its block runs through the window
    # holding that step; the window of the tick's start would have lapsed
    # by then whenever the window is no longer than the tick.
    @pytest.mark.parametrize("window, tickets, suppressed",
                             [(0.5, 30, 505), (1.0, 15, 845)])
    def test_windows_no_longer_than_the_tick_block(self, window, tickets,
                                                   suppressed):
        sc = preset("loop-storm")
        sc = dataclasses.replace(sc, agents=dataclasses.replace(
            sc.agents, suppression_window=window))
        trace = run(sc)
        assert len(trace.tickets) == tickets
        assert sum(r.ledger.suppressed for r in trace.records) == suppressed


class TestIpidTriggers:
    # Seen at 1.2, 1.4 and 1.6 ms, the IPID qualifies in the tick ending
    # at 2 ms, whose window reaches back only to 1.5 ms: `observe` must
    # still scan the 1.2 ms sighting.
    @given(small_scenarios())
    @example(Scenario(
        name="sighting-older-than-tick-window", node_count=2, duration=3.0,
        injectors=(Injector(kind="loop", start_t=1.2, pass_interval=0.2,
                            factor=1),),
        agents=AgentConfig(policy=None, thresholds=ThresholdDb(
            ipid_window_ms=0.5))))
    @settings(max_examples=100, deadline=None)
    def test_every_ipid_loop_tick_raises_its_trigger(self, sc):
        if sc.agents is None:
            sc = dataclasses.replace(sc, agents=AgentConfig(
                sample_period=sc.tick))
        trace = run(sc)
        looped = [r.t for r in trace.records if r.classification.ipid_loop]
        raised = [tr.t for tr in trace.triggers
                  if tr.cause is TriggerCause.IPID_LOOP]
        assert raised == looped
