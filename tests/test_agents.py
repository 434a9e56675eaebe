"""Agent lifecycle: calibration, comparison, suppression, the fleet."""

from __future__ import annotations

import logging

import pytest

from stormctl import agents
from stormctl.agents import (
    OFFLINE_NODE,
    AgentConfig,
    AgentError,
    AgentFleet,
    CalibrationError,
    Policy,
    StaticAgent,
    ThresholdDb,
    Trigger,
    TriggerCause,
    replay_elementwise,
)
from stormctl.datasets import interpolate, load_trace, table4_hump
from stormctl.growth import eval_ptr, make_params
from stormctl.metrics import ChannelStats, TrafficSample, min_ipg

from .oracles import first_elementwise_ticket, open_tickets

CURVE = make_params(500.0, 90000.0, 1.5)


def rising_burst(step: float = 0.1, end: float = 3.0):
    """A synthetic monotone burst sampled from a known curve."""
    n = int(end / step) + 1
    return [(k * step, eval_ptr(CURVE, k * step)) for k in range(n)]


def stats(t: float, bcast: int, total: int = None, link_rate: float = 1e9):
    total = bcast if total is None else total
    return ChannelStats(
        tick=t, broadcast_pkts=bcast, total_pkts=total,
        broadcast_bytes=bcast * 512, total_bytes=total * 512,
        observed_ipg=min_ipg(link_rate), link_rate=link_rate,
    )


def sample(node: int, bcast: int = 0, bcast_bytes: int = None,
           attempted: int = None):
    bcast_bytes = bcast * 512 if bcast_bytes is None else bcast_bytes
    attempted = bcast if attempted is None else attempted
    return TrafficSample(
        node=node, bcast_pkts=bcast, total_pkts=bcast,
        bcast_bytes=bcast_bytes, total_bytes=bcast_bytes,
        attempted_bcast=attempted, attempted_total=attempted,
        suppressed=0,
    )


def calibrated_agent(**config_kw) -> StaticAgent:
    agent = StaticAgent(AgentConfig(**config_kw))
    agent.calibrate(rising_burst())
    return agent


class TestThresholdDb:
    @pytest.mark.parametrize("bad, message", [
        ({"ipid_min_repeats": 1}, "ipid_min_repeats must be at least 2"),
        ({"ipid_window_ms": -5.0}, "ipid_window_ms must be nonnegative"),
        ({"byte_threshold_mb": 0.0}, "byte_threshold_mb must be positive"),
        ({"nbw_permissible": -1.0},
         "nbw_permissible and nbw_factor must be nonnegative"),
        ({"nbw_factor": -1.0},
         "nbw_permissible and nbw_factor must be nonnegative"),
        ({"ipid_window_ms": 0.005},
         "ipid_window_ms must be a whole number of 0.01 ms steps"),
    ])
    def test_rejects_bad_value(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ThresholdDb(**bad)


class TestWindowOf:
    # Whole-step windows of 0.1, 0.2, 0.4 and 1.1 ms are not exact in
    # binary, and floor(t / window) put some edge steps in the window
    # before: 0.6 / 0.2 is 2.9999999999999996.
    @pytest.mark.parametrize("steps", [1, 10, 20, 30, 40, 50, 110, 100_000])
    def test_window_of_a_step_time_is_its_step_over_the_window(self, steps):
        config = AgentConfig(suppression_window=steps / 100)
        wrong = [s for s in range(300_000)
                 if config.window_of(s / 100) != s // steps]
        assert wrong[:3] == []


class TestCalibration:
    def test_reference_spans_trace_at_sampling_period(self):
        agent = calibrated_agent()
        assert agent.reference is not None
        assert len(agent.reference) == 4          # offsets 0..3 ms
        assert agent.reference.values[0] == 0.0

    def test_reference_clamped_at_observed_peak(self):
        agent = calibrated_agent()
        peak = rising_burst()[-1][1]
        assert max(agent.reference.values) <= peak

    def test_peak_becomes_safe_threshold(self):
        agent = calibrated_agent()
        assert agent.pe == pytest.approx(rising_burst()[-1][1])
        assert agent.config == AgentConfig()    # calibration writes no config

    def test_decline_comes_from_the_trace_itself(self):
        agent = StaticAgent(AgentConfig())
        agent.calibrate(table4_hump())
        hump = table4_hump()
        # offsets past the peak (1.8 ms) replay the recorded decline
        assert agent.reference.values[2] == interpolate(hump, 2.0)
        assert agent.reference.values[3] == interpolate(hump, 3.0)

    def test_rejects_unordered_times(self):
        agent = StaticAgent(AgentConfig())
        with pytest.raises(CalibrationError):
            agent.calibrate([(0, 0), (1, 5), (1, 6), (2, 9), (3, 9)])

    def test_rejects_silent_trace(self):
        agent = StaticAgent(AgentConfig())
        with pytest.raises(CalibrationError):
            agent.calibrate([(0, 0), (1, 0), (2, 0), (3, 0)])

    def test_rejects_unfittable_trace(self):
        agent = StaticAgent(AgentConfig())
        with pytest.raises(CalibrationError):
            agent.calibrate([(0, 0), (1, 9), (2, 3), (3, 1)])


class TestSamplingProtocol:
    def test_sample_before_calibration_rejected(self):
        agent = StaticAgent(AgentConfig())
        with pytest.raises(AgentError):
            agent.sample_channel(stats(0.0, 5))

    def test_ticks_must_advance(self):
        agent = calibrated_agent()
        agent.sample_channel(stats(0.0, 5))
        with pytest.raises(AgentError):
            agent.sample_channel(stats(0.0, 5))


class TestBurstComparison:
    def feed(self, agent, counts, t0=0.0):
        return [agent.sample_channel(stats(t0 + float(i), c))
                for i, c in enumerate(counts)]

    def test_quiet_channel_never_compares(self):
        agent = calibrated_agent()
        for r in self.feed(agent, [0, 0, 0]):
            assert r.deviation is None
            assert not r.breach

    def test_matching_burst_stays_quiet(self):
        agent = calibrated_agent()
        live = [0] + [int(v) for v in agent.reference.values[1:]]
        for r in self.feed(agent, live):
            assert not r.breach

    def test_burst_anchors_to_first_nonzero_sample(self):
        agent = calibrated_agent()
        ref = agent.reference.values
        # burst arrives late; sample j still lines up with ref sample j
        live = [0, 0, 0, int(ref[1]), int(ref[2])]
        results = self.feed(agent, live)
        assert results[3].deviation == pytest.approx(
            abs(int(ref[1]) - ref[1]) / ref[1], abs=1e-9)
        assert not any(r.breach for r in results)

    def test_zero_count_closes_the_burst_and_run(self):
        agent = calibrated_agent()
        ref = agent.reference.values
        bad = int(ref[1] * 2)
        # two breaching samples, a gap, then two more: never 3 in a row
        results = self.feed(agent, [bad, bad, 0, bad, bad])
        assert not any(r.breach for r in results)

    def test_three_consecutive_deviations_trigger(self):
        agent = calibrated_agent()
        ref = agent.reference.values
        live = [int(ref[1] * 2), int(ref[2] * 2), int(ref[3] * 2) or 99]
        results = self.feed(agent, live)
        assert [r.breach for r in results] == [False, False, True]
        assert results[2].reason == "deviation"
        assert results[2].threshold == 0.05

    def test_burst_outliving_reference_triggers_while_growing(self):
        agent = calibrated_agent()
        ref = [int(v) or 1 for v in agent.reference.values]
        live = ref[1:] + [ref[-1] + 50]     # one sample past the reference
        results = self.feed(agent, live)
        assert results[-1].breach
        assert results[-1].reason == "outlived"

    def test_burst_outliving_reference_holds_while_flat(self):
        agent = calibrated_agent()
        ref = [int(v) or 1 for v in agent.reference.values]
        live = ref[1:] + [ref[-1], ref[-1] - 1]
        results = self.feed(agent, live)
        assert not any(r.breach for r in results)


class TestSuppression:
    """The storm handler: one port of the fleet, node 0's."""

    def trigger(self, t, node=0):
        return Trigger(TriggerCause.UTILIZATION_EXCEEDED, node, t, 0.9, 0.6)

    def fleet(self, **config_kw) -> AgentFleet:
        fleet = AgentFleet(AgentConfig(**config_kw), 3, link_rate=1e9,
                           capacity_pkts=100)
        fleet.calibrate(rising_burst())
        return fleet

    def handle_storm(self, fleet, t):
        """Blame node 0 for a trigger acted on at t; returns the new
        ticket."""
        return fleet._blame(self.trigger(t), fleet.config.window_of(t))

    def test_blocks_until_end_of_wall_aligned_window(self):
        fleet = self.fleet()
        ticket = self.handle_storm(fleet, 1234.5)
        assert ticket is not None
        assert fleet.is_suppressed(0, 1999.9, True)
        assert not fleet.is_suppressed(0, 2000.0, True)

    def test_coalesces_while_suppressing(self):
        fleet = self.fleet()
        assert self.handle_storm(fleet, 100.0) is not None
        assert self.handle_storm(fleet, 500.0) is None
        again = self.handle_storm(fleet, 1000.0)
        assert again is not None
        assert again.ticket_id == 2

    def test_packet_policy_blocks_everything(self):
        fleet = self.fleet(policy=Policy.PACKET_BASED)
        self.handle_storm(fleet, 0.0)
        assert fleet.is_suppressed(0, 10.0, is_broadcast=True)
        assert fleet.is_suppressed(0, 10.0, is_broadcast=False)

    def test_bandwidth_policy_blocks_broadcast_only(self):
        fleet = self.fleet(policy=Policy.BANDWIDTH_BASED)
        self.handle_storm(fleet, 0.0)
        assert fleet.is_suppressed(0, 10.0, is_broadcast=True)
        assert not fleet.is_suppressed(0, 10.0, is_broadcast=False)

    def test_detect_only_never_blocks(self):
        fleet = self.fleet(policy=None)
        self.handle_storm(fleet, 0.0)
        assert not fleet.is_suppressed(0, 10.0, is_broadcast=True)

    def test_reconnect_clears_the_block(self):
        fleet = self.fleet()
        self.handle_storm(fleet, 0.0)
        assert fleet.reconnect(0, t=10.0)
        assert not fleet.is_suppressed(0, 10.0, True)

    def test_reconnect_of_free_port_warns(self, caplog):
        fleet = self.fleet()
        with caplog.at_level(logging.WARNING, logger="stormctl.agents"):
            assert not fleet.reconnect(0, t=0.0)
        assert any("not blocked" in r.message for r in caplog.records)


class TestFleet:
    def fleet(self, nodes=3, **threshold_kw):
        config = AgentConfig(policy=Policy.PACKET_BASED,
                             thresholds=ThresholdDb(**threshold_kw))
        fleet = AgentFleet(config, nodes, link_rate=1e9, capacity_pkts=100)
        fleet.calibrate(None)
        return fleet

    def test_utilization_ticket_goes_to_top_talker(self):
        fleet = self.fleet()
        samples = [sample(0, 10), sample(1, 30), sample(2, 21)]
        tickets = fleet.observe(0.0, stats(0.0, 61, total=61), samples)
        assert len(tickets) == 1
        assert tickets[0].cause is TriggerCause.UTILIZATION_EXCEEDED
        assert tickets[0].node == 1

    def test_top_talker_tie_breaks_to_lowest_node(self):
        fleet = self.fleet()
        samples = [sample(0, 30), sample(1, 30), sample(2, 1)]
        tickets = fleet.observe(0.0, stats(0.0, 61, total=61), samples)
        assert tickets[0].node == 0

    def test_attribution_uses_attempted_not_delivered(self):
        fleet = self.fleet()
        # node 2 tried to flood but was filtered; it still gets the ticket
        samples = [sample(0, 30), sample(1, 31),
                   sample(2, 0, attempted=500)]
        tickets = fleet.observe(0.0, stats(0.0, 61, total=61), samples)
        assert tickets[0].node == 2

    def test_trigger_priority_order_within_one_tick(self):
        fleet = self.fleet(nbw_permissible=1000.0)
        samples = [sample(0, 61), sample(1, 0, bcast_bytes=3000),
                   sample(2, 0)]
        entries = [(0.0, 77, 2, 1), (1.0, 77, 2, 2)]
        tickets = fleet.observe(0.0, stats(0.0, 61, total=61), samples,
                                entries)
        causes = [t.cause for t in tickets]
        assert causes == [TriggerCause.UTILIZATION_EXCEEDED,
                          TriggerCause.NBW_EXCEEDED,
                          TriggerCause.IPID_LOOP]
        assert [t.node for t in tickets] == [0, 1, 2]

    def test_nbw_window_accumulates_across_ticks(self):
        fleet = self.fleet(nbw_permissible=1200.0)
        quiet = stats(0.0, 0, total=0)
        for k in range(9):
            got = fleet.observe(
                float(k), stats(float(k), 1, total=1),
                [sample(0, 1, bcast_bytes=256), sample(1, 0), sample(2, 0)])
            assert got == []
        # tenth tick lifts the rolling sum to 2560 > 2 * 1200
        got = fleet.observe(
            9.0, stats(9.0, 1, total=1),
            [sample(0, 1, bcast_bytes=256), sample(1, 0), sample(2, 0)])
        assert len(got) == 1
        assert got[0].cause is TriggerCause.NBW_EXCEEDED
        assert got[0].observed == pytest.approx(2560.0)

    def test_nbw_window_kept_only_while_it_holds_bytes(self, monkeypatch):
        calls = []
        original = agents.node_bandwidth

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(agents, "node_bandwidth", counted)
        fleet = self.fleet(nbw_permissible=1200.0)
        for k in range(13):
            sent = 256 if k == 0 else 0
            assert fleet.observe(
                float(k), stats(float(k), 1, total=1),
                [sample(0, 1, bcast_bytes=sent), sample(1, 0),
                 sample(2, 0)]) == []
        # node 0's window holds its bytes for ten ticks, then is dropped;
        # nodes 1 and 2 never sent and never had one
        assert len(calls) == 10
        assert fleet._nbw_bytes == {}
        # a fresh window after the drain starts from zero: nine ticks of
        # 256 bytes (2304) stay under 2 * 1200, the tenth (2560) does not
        for k in range(13, 23):
            got = fleet.observe(
                float(k), stats(float(k), 1, total=1),
                [sample(0, 1, bcast_bytes=256), sample(1, 0), sample(2, 0)])
            assert (got != []) == (k == 22)

    def test_ipid_loop_attributed_to_frame_source(self):
        fleet = self.fleet()
        entries = [(0.0, 9, 2, 2), (0.1, 9, 2, 1)]
        tickets = fleet.observe(0.0, stats(0.0, 3, total=3),
                                [sample(0, 0), sample(1, 0), sample(2, 3)],
                                entries)
        assert tickets[0].cause is TriggerCause.IPID_LOOP
        assert tickets[0].node == 2

    def test_byte_breach_coalesces_per_window(self):
        fleet = self.fleet(byte_threshold_mb=2.5)
        first = fleet.byte_breach(1, 300.0, 2.6)
        assert first is not None
        assert fleet.byte_breach(1, 600.0, 3.0) is None
        second = fleet.byte_breach(1, 1200.0, 2.7)
        assert second is not None
        assert second.ticket_id == first.ticket_id + 1

    def test_tickets_close_after_two_clean_windows(self):
        fleet = self.fleet()
        fleet.observe(0.0, stats(0.0, 61, total=61),
                      [sample(0, 61), sample(1, 0), sample(2, 0)])
        assert len(open_tickets(fleet)) == 1
        fleet.finish(1000.0)
        assert open_tickets(fleet) == []
        assert len(fleet.closed) == 1

    def test_one_detector_calibrated_for_the_domain(self):
        fleet = AgentFleet(AgentConfig(), 3, link_rate=1e9, capacity_pkts=1000)
        fleet.calibrate(rising_burst())
        alone = StaticAgent(AgentConfig())
        alone.calibrate(rising_burst())
        assert fleet.detector.reference == alone.reference
        assert fleet.ports == {}


class TestSuppressionTable:
    NODES = range(3)

    def fleet(self, policy, **config_kw):
        fleet = AgentFleet(AgentConfig(policy=policy, **config_kw),
                           len(self.NODES), link_rate=1e9, capacity_pkts=100)
        fleet.calibrate(None)
        return fleet

    def overload(self, fleet, t):
        """A tick over the utilization ceiling, blamed on node 1."""
        samples = [sample(n, 61 if n == 1 else 0) for n in self.NODES]
        return fleet.observe(t, stats(t, 61, total=61), samples)

    def test_bandwidth_fleet_blocks_ticketed_broadcast_until_window_end(self):
        fleet = self.fleet(Policy.BANDWIDTH_BASED)
        tickets = self.overload(fleet, 1234.0)
        assert [(tk.node, tk.cause) for tk in tickets] == [
            (1, TriggerCause.UTILIZATION_EXCEEDED)]
        assert list(fleet.ports) == [1]
        for t in (1234.0, 1500.0, 1999.99):
            assert fleet.is_suppressed(1, t, True)
            assert not fleet.is_suppressed(1, t, False)
        assert not fleet.is_suppressed(1, 2000.0, True)

    def test_trigger_in_a_windows_last_tick_blocks_the_next_window(self):
        # the tick [1, 2) ms is counted at its end, 2.0 ms, when window 0
        # (0-2 ms) is over: the block runs through window 1, which holds
        # that step, while the ticket keeps the tick's time
        fleet = self.fleet(Policy.PACKET_BASED, suppression_window=2.0)
        assert [tk.t for tk in self.overload(fleet, 1.0)] == [1.0]
        for t in (2.0, 3.0, 3.99):
            assert fleet.is_suppressed(1, t, False)
        assert not fleet.is_suppressed(1, 4.0, False)
        assert self.overload(fleet, 2.0) == []     # acted on in window 1
        assert [tk.t for tk in self.overload(fleet, 3.0)] == [3.0]

    def test_bandwidth_fleet_never_blocks_other_nodes(self):
        fleet = self.fleet(Policy.BANDWIDTH_BASED)
        self.overload(fleet, 10.0)
        assert fleet.byte_breach(2, 20.0, 3.0) is not None
        for t in (10.0, 500.0, 999.0, 1000.0):
            for bcast in (True, False):
                assert not fleet.is_suppressed(0, t, bcast)
        assert fleet.is_suppressed(2, 500.0, True)
        assert sorted(fleet.ports) == [1, 2]

    def test_detect_only_coalesces_but_never_blocks(self):
        fleet = self.fleet(None)
        opened = []
        for t in (100.0, 200.0, 900.0, 1100.0, 1500.0):
            opened += self.overload(fleet, t)
            for node in self.NODES:
                for bcast in (True, False):
                    assert not fleet.is_suppressed(node, t, bcast)
                    assert not fleet.is_suppressed(node, t + 0.5, bcast)
        assert len(fleet.trigger_log) == 5
        assert [tk.t for tk in opened] == [100.0, 1100.0]
        assert [tk.ticket_id for tk in opened] == [1, 2]
        assert fleet.tickets == opened

    def test_reconnect_unblocks_a_port_of_the_fleet(self):
        fleet = self.fleet(Policy.PACKET_BASED)
        self.overload(fleet, 100.0)
        assert fleet.is_suppressed(1, 200.0, True)
        assert fleet.reconnect(1, 200.0)
        assert not fleet.is_suppressed(1, 200.0, True)
        assert not fleet.is_suppressed(1, 200.0, False)


class TestReplay:
    def test_identity_replay_is_clean(self):
        table4 = load_trace("table4")
        tickets, breaches = replay_elementwise(table4, table4)
        assert tickets == []
        assert breaches == []

    def test_storm_against_normal_reference(self):
        table1 = load_trace("table1")
        table4 = load_trace("table4")
        tickets, breaches = replay_elementwise(table1, table4)
        assert len(tickets) == 1
        ticket = tickets[0]
        assert ticket.cause is TriggerCause.PTR_DEVIATION
        assert ticket.node == OFFLINE_NODE
        expected = first_elementwise_ticket(table1, table4)
        assert expected is not None
        assert ticket.t == expected[1]

    def test_breaches_report_both_sides(self):
        table1 = load_trace("table1")
        table4 = load_trace("table4")
        _, breaches = replay_elementwise(table1, table4)
        first = breaches[0]
        assert first.observed == table1[first.index].count
        assert first.expected == table4[first.index].count

    def test_suppression_window_coalesces_offline_too(self):
        reference = [(float(t), 100.0) for t in range(10)]
        data = [(float(t), 400.0) for t in range(10)]
        tickets, _ = replay_elementwise(data, reference)
        assert len(tickets) == 1          # all rows sit in one window

    def test_data_longer_than_reference_compares_against_silence(self):
        reference = [(0.0, 100.0), (1.0, 100.0)]
        data = [(0.0, 100.0), (1.0, 100.0), (2.0, 50.0), (3.0, 50.0),
                (4.0, 50.0)]
        tickets, breaches = replay_elementwise(data, reference)
        assert len(tickets) == 1
        assert breaches[0].expected == 0.0

    def test_silent_reference_rejected(self):
        with pytest.raises(CalibrationError):
            replay_elementwise([(0.0, 1.0)], [(0.0, 0.0)])
